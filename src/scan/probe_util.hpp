// Shared plumbing for protocol scanners: a once-only completion latch that
// owns the ScanRecord under construction, plus the overall probe guard
// timer. Every probe path — refusal, timeout, malformed reply, success —
// funnels through ProbeState::finish, which guarantees exactly one
// ScanRecord per probe.
#pragma once

#include <memory>
#include <utility>

#include "scan/engine.hpp"

namespace tts::scan::detail {

struct ProbeState {
  ScanRecord record;
  ProtocolScanner::DoneFn done;
  simnet::TcpConnectionPtr conn;  // kept so finish() can close it
  /// Releases probe-owned helpers (a TLS session's callbacks) whose
  /// closures form shared_ptr cycles with this state. Runs exactly once.
  std::function<void()> cleanup;
  bool finished = false;

  void finish(Outcome outcome) {
    if (finished) return;
    finished = true;
    record.outcome = outcome;
    if (conn && conn->open())
      conn->close(simnet::TcpConnection::Side::kClient);
    conn = nullptr;
    if (cleanup) {
      auto release = std::move(cleanup);
      cleanup = nullptr;
      release();
    }
    // Hand `done` off to the stack so everything it keeps alive (the TLS
    // session anchored via `cleanup`/`done` closures) dies with this call
    // instead of cycling back to the state.
    auto fn = std::move(done);
    done = nullptr;
    fn(std::move(record));
  }
};

using ProbeStatePtr = std::shared_ptr<ProbeState>;

inline ProbeStatePtr make_probe_state(ScanRecord base,
                                      ProtocolScanner::DoneFn done) {
  auto state = std::make_shared<ProbeState>();
  state->record = std::move(base);
  state->done = std::move(done);
  return state;
}

/// Arm the per-probe guard: if nothing finished the probe by `timeout`,
/// record a timeout, attributed to `category` (the engine's "scan_probe").
inline void arm_guard(simnet::Network& network, const ProbeStatePtr& state,
                      simnet::SimDuration timeout,
                      simnet::EventQueue::CategoryId category) {
  network.events().schedule_in(timeout, category,
                               [state] { state->finish(Outcome::kTimeout); });
}

}  // namespace tts::scan::detail
