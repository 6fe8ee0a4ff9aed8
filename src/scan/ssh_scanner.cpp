// SSH probe: read the server identification string (OS + patch level
// extraction feeds Figure 2), send ours, and capture the host-key
// fingerprint from the condensed KEX (host-key dedup feeds Table 2).
#include "proto/sshwire.hpp"
#include "scan/probe_util.hpp"

namespace tts::scan {

namespace {

using detail::ProbeStatePtr;
using simnet::TcpConnection;

class SshScanner final : public ProtocolScanner {
 public:
  Protocol protocol() const override { return Protocol::kSsh; }

  void probe(simnet::Network& network, const simnet::Endpoint& src,
             ScanRecord base, DoneFn done) override {
    auto state = detail::make_probe_state(std::move(base), std::move(done));
    detail::arm_guard(network, state, probe_timeout_, probe_category_);

    simnet::Endpoint dst{state->record.target, port_of(Protocol::kSsh)};
    network.connect_tcp(
        src, dst,
        [state](simnet::TcpConnectionPtr conn, bool refused) {
          if (!conn) {
            state->finish(refused ? Outcome::kRefused : Outcome::kTimeout);
            return;
          }
          state->conn = conn;
          conn->set_on_close(TcpConnection::Side::kClient, [state] {
            if (!state->finished) {
              // Banner without key still counts as a successful grab when
              // the peer hangs up after identification.
              state->finish(state->record.ssh_banner.empty()
                                ? Outcome::kMalformed
                                : Outcome::kSuccess);
            }
          });
          conn->set_on_data(
              TcpConnection::Side::kClient,
              [state, conn](std::vector<std::uint8_t> data) {
                if (state->record.ssh_banner.empty()) {
                  auto banner = proto::parse_ssh_id(data);
                  if (!banner) {
                    state->finish(Outcome::kMalformed);
                    return;
                  }
                  state->record.ssh_banner = *banner;
                  conn->send(TcpConnection::Side::kClient,
                             proto::ssh_id_string(
                                 "SSH-2.0-tts_scan_0.1 research-scan"));
                  return;
                }
                auto key = proto::parse_ssh_kex_reply(data);
                if (!key) {
                  state->finish(Outcome::kMalformed);
                  return;
                }
                state->record.ssh_hostkey = *key;
                state->finish(Outcome::kSuccess);
              });
        },
        connect_timeout_);
  }
};

}  // namespace

std::unique_ptr<ProtocolScanner> make_ssh_scanner() {
  return std::make_unique<SshScanner>();
}

}  // namespace tts::scan
