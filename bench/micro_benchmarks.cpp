// Microbenchmarks for the hot primitives: address codec, LPM trie, NTP and
// CoAP wire codecs, Levenshtein grouping, RNG, the event queue, and the
// obs instruments riding on every hot path.
#include <benchmark/benchmark.h>

#include <array>

#include "core/study.hpp"
#include "net/ipv6.hpp"
#include "net/routing_table.hpp"
#include "ntp/ntp_packet.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "proto/coap.hpp"
#include "proto/mqtt.hpp"
#include "simnet/event_queue.hpp"
#include "util/levenshtein.hpp"
#include "util/rng.hpp"

using namespace tts;

static void BM_Ipv6Parse(benchmark::State& state) {
  for (auto _ : state) {
    auto a = net::Ipv6Address::parse("2001:db8:1234:5678::9abc:def0");
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_Ipv6Parse);

static void BM_Ipv6Format(benchmark::State& state) {
  auto a = *net::Ipv6Address::parse("2400:cb00:2048:1::6814:55");
  for (auto _ : state) {
    auto s = a.to_string();
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_Ipv6Format);

static void BM_RoutingLookup(benchmark::State& state) {
  net::RoutingTable table;
  constexpr std::uint64_t kSeed = 1;
  util::Rng rng(kSeed);
  std::vector<net::Ipv6Address> probes;
  for (int i = 0; i < 1000; ++i) {
    auto addr = net::Ipv6Address::from_halves(
        0x2400000000000000ULL | (rng.next() >> 12), rng.next());
    table.announce(net::Ipv6Prefix(addr, 32 + i % 33), 64500u + i);
    probes.push_back(addr);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    auto r = table.lookup(probes[i++ % probes.size()]);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_RoutingLookup);

static void BM_NtpRoundTrip(benchmark::State& state) {
  auto request = ntp::NtpPacket::client_request(simnet::sec(100));
  for (auto _ : state) {
    auto wire = request.serialize();
    auto parsed = ntp::NtpPacket::parse(wire);
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_NtpRoundTrip);

static void BM_CoapRoundTrip(benchmark::State& state) {
  auto request = proto::CoapMessage::well_known_core(42, 0x1234);
  for (auto _ : state) {
    auto wire = request.serialize();
    auto parsed = proto::CoapMessage::parse(wire);
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_CoapRoundTrip);

static void BM_MqttConnectRoundTrip(benchmark::State& state) {
  proto::MqttConnect connect;
  for (auto _ : state) {
    auto wire = connect.serialize();
    auto parsed = proto::MqttConnect::parse(wire);
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_MqttConnectRoundTrip);

static void BM_LevenshteinBounded(benchmark::State& state) {
  std::string a = "3CX Phone System Management Console";
  std::string b = "3CX Webclient Management Console v18";
  for (auto _ : state) {
    auto d = util::levenshtein_bounded(a, b, a.size() / 4);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_LevenshteinBounded);

static void BM_RngStream(benchmark::State& state) {
  constexpr std::uint64_t kSeed = 7;
  util::Rng rng(kSeed);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_RngStream);

static void BM_EventQueueChurn(benchmark::State& state) {
  for (auto _ : state) {
    simnet::EventQueue queue;
    int counter = 0;
    for (int i = 0; i < 1000; ++i)
      queue.schedule_at(simnet::msec(i % 37), [&counter] { ++counter; });
    queue.run();
    benchmark::DoNotOptimize(counter);
  }
}
BENCHMARK(BM_EventQueueChurn);

// Schedule + dispatch at a steady ~10k pending events (the measured heap
// peak of the perfbench workloads is 8.0k-11.1k) with an N-byte closure:
// each event re-schedules a copy of itself at a pseudo-random delay, so
// every iteration is one pop, one dispatch and one push. 8, 32 and 72 B
// are the common closure sizes of those workloads (72 B: the UDP delivery
// closure, the largest that fits Callback's in-place buffer).
template <class Event>
void hop(simnet::EventQueue& queue, const Event& self) {
  std::uint64_t x = queue.executed() * 0x9e3779b97f4a7c15ULL;
  queue.schedule_in(static_cast<simnet::SimDuration>((x >> 40) % 20000),
                    self);
}

template <std::size_t N>
struct HopEvent {
  simnet::EventQueue* queue;
  std::array<std::uint64_t, (N - 8) / 8> pad;
  void operator()() const { hop(*queue, *this); }
};

template <>
struct HopEvent<8> {
  simnet::EventQueue* queue;
  void operator()() const { hop(*queue, *this); }
};

template <std::size_t N>
static void BM_EventQueueHold(benchmark::State& state) {
  static_assert(sizeof(HopEvent<N>) == N);
  constexpr int kPending = 10000;
  simnet::EventQueue queue;
  HopEvent<N> event{};
  event.queue = &queue;
  for (int i = 0; i < kPending; ++i) queue.schedule_at(i, event);
  for (auto _ : state) queue.step();
  benchmark::DoNotOptimize(queue.executed());
  state.SetItemsProcessed(state.iterations());
  state.counters["storage_B_per_pending"] =
      static_cast<double>(queue.pending_storage_bytes()) /
      static_cast<double>(queue.pending());
}
BENCHMARK(BM_EventQueueHold<8>);
BENCHMARK(BM_EventQueueHold<32>);
BENCHMARK(BM_EventQueueHold<72>);

// ---- obs hot-path overhead -------------------------------------------
// Every pipeline counter is one of these increments; the acceptance bar is
// that they stay in the few-nanosecond range so the always-on instruments
// cost nothing measurable at study scale.

static void BM_ObsCounterInc(benchmark::State& state) {
  obs::Counter counter;
  for (auto _ : state) counter.inc();
  benchmark::DoNotOptimize(counter.value());
}
BENCHMARK(BM_ObsCounterInc);

static void BM_ObsHistogramRecord(benchmark::State& state) {
  obs::Histogram hist{obs::Histogram::exponential(1000, 4.0, 14)};
  std::int64_t v = 1;
  for (auto _ : state) {
    hist.record(v);
    v = (v * 5 + 3) % 100000000;  // walk across the buckets
  }
  benchmark::DoNotOptimize(hist.count());
}
BENCHMARK(BM_ObsHistogramRecord);

static void BM_TracerSpan(benchmark::State& state) {
  simnet::EventQueue events;
  obs::Tracer tracer(1024);
  tracer.set_sim_clock(&events);
  for (auto _ : state) {
    auto span = tracer.span("bench");
    benchmark::DoNotOptimize(span);
  }
  benchmark::DoNotOptimize(tracer.completed());
}
BENCHMARK(BM_TracerSpan);

static void BM_TracerSpanDisabled(benchmark::State& state) {
  obs::Tracer tracer(1024);
  tracer.set_enabled(false);
  for (auto _ : state) {
    auto span = tracer.span("bench");
    benchmark::DoNotOptimize(span);
  }
}
BENCHMARK(BM_TracerSpanDisabled);

// Full-pipeline regression check: a kTiny study with the obs block off vs
// on (dispatch timing, probe spans, daily heartbeat). The acceptance bar
// is < 5% wall-clock between the two.
static void BM_TinyStudy(benchmark::State& state) {
  for (auto _ : state) {
    auto config = core::make_study_config(core::StudyScale::kTiny);
    config.obs.enabled = state.range(0) != 0;
    core::Study study(std::move(config));
    study.run();
    benchmark::DoNotOptimize(study.events_executed());
  }
}
BENCHMARK(BM_TinyStudy)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

BENCHMARK_MAIN();
