// FaultPlane rule matching and its integration into Network: loss/delay/
// blackhole/RST/stall rules, host outages, time windows, transport,
// direction and destination-port scoping, the domain-RNG aliasing guard,
// window-edge flight events, the NetworkConfig connect_timeout plumbing
// the blackhole path uses, and a differential test of the block-indexed
// verdicts against a linear scan over every rule and outage.
#include <gtest/gtest.h>

#include <iterator>
#include <tuple>
#include <utility>
#include <vector>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "simnet/event_queue.hpp"
#include "simnet/fault.hpp"
#include "simnet/network.hpp"
#include "util/rng.hpp"

namespace tts::simnet {
namespace {

net::Ipv6Address addr(std::uint64_t hi, std::uint64_t lo) {
  return net::Ipv6Address::from_halves(hi, lo);
}

constexpr std::uint64_t kFaultyNet = 0x20010db800000000ULL;
constexpr std::uint64_t kCleanNet = 0x2400cb0000000000ULL;

net::Ipv6Prefix faulty_prefix() {
  return net::Ipv6Prefix(addr(kFaultyNet, 0), 32);
}

class FaultPlaneTest : public ::testing::Test {
 protected:
  FaultPlane make_plane(FaultScenario scenario) {
    return FaultPlane(std::move(scenario), nullptr);
  }
};

TEST_F(FaultPlaneTest, LossRuleDropsOnlyInsidePrefix) {
  FaultScenario scenario;
  scenario.rules.push_back({.prefix = faulty_prefix(),
                            .kind = FaultKind::kLoss,
                            .probability = 1.0});
  FaultPlane plane = make_plane(scenario);

  EXPECT_TRUE(plane.on_udp(addr(kFaultyNet, 7), sec(1)).drop);
  EXPECT_FALSE(plane.on_udp(addr(kCleanNet, 7), sec(1)).drop);
  EXPECT_EQ(plane.udp_dropped(), 1u);
}

TEST_F(FaultPlaneTest, RulesRespectTimeWindows) {
  FaultScenario scenario;
  scenario.rules.push_back({.prefix = faulty_prefix(),
                            .kind = FaultKind::kBlackhole,
                            .from = sec(10),
                            .until = sec(20)});
  FaultPlane plane = make_plane(scenario);

  auto target = addr(kFaultyNet, 1);
  EXPECT_FALSE(plane.on_udp(target, sec(9)).drop);
  EXPECT_TRUE(plane.on_udp(target, sec(10)).drop);   // from is inclusive
  EXPECT_TRUE(plane.on_udp(target, sec(19)).drop);
  EXPECT_FALSE(plane.on_udp(target, sec(20)).drop);  // until is exclusive
}

TEST_F(FaultPlaneTest, TransportScopingSplitsUdpFromTcp) {
  FaultScenario scenario;
  scenario.rules.push_back({.prefix = faulty_prefix(),
                            .kind = FaultKind::kBlackhole,
                            .udp = false,
                            .tcp = true});
  FaultPlane plane = make_plane(scenario);

  auto target = addr(kFaultyNet, 1);
  EXPECT_FALSE(plane.on_udp(target, 0).drop);
  EXPECT_EQ(plane.on_tcp_connect(target, 0).action,
            FaultPlane::TcpAction::kBlackhole);
}

TEST_F(FaultPlaneTest, DelayRulesAccumulateAcrossMatches) {
  FaultScenario scenario;
  scenario.rules.push_back({.prefix = faulty_prefix(),
                            .kind = FaultKind::kDelay,
                            .added_latency = msec(30)});
  scenario.rules.push_back({.prefix = faulty_prefix(),
                            .kind = FaultKind::kDelay,
                            .added_latency = msec(20)});
  FaultPlane plane = make_plane(scenario);

  auto verdict = plane.on_udp(addr(kFaultyNet, 1), 0);
  EXPECT_FALSE(verdict.drop);
  EXPECT_EQ(verdict.extra_latency, msec(50));
  EXPECT_EQ(plane.delays_injected(), 1u);
}

TEST_F(FaultPlaneTest, JitterIsSeedDeterministic) {
  FaultScenario scenario;
  scenario.rules.push_back({.prefix = faulty_prefix(),
                            .kind = FaultKind::kDelay,
                            .added_latency = msec(10),
                            .added_jitter = msec(40)});
  std::vector<SimDuration> first, second;
  {
    FaultPlane plane = make_plane(scenario);
    for (int i = 0; i < 16; ++i)
      first.push_back(plane.on_udp(addr(kFaultyNet, 1), 0).extra_latency);
  }
  {
    FaultPlane plane = make_plane(scenario);
    for (int i = 0; i < 16; ++i)
      second.push_back(plane.on_udp(addr(kFaultyNet, 1), 0).extra_latency);
  }
  EXPECT_EQ(first, second);
  for (SimDuration d : first) {
    EXPECT_GE(d, msec(10));
    EXPECT_LT(d, msec(50));
  }
}

TEST_F(FaultPlaneTest, HostOutageWindowsCoverOneAddress) {
  FaultScenario scenario;
  scenario.outages.push_back(
      {.host = addr(kCleanNet, 9), .from = sec(5), .until = sec(15)});
  FaultPlane plane = make_plane(scenario);

  EXPECT_FALSE(plane.host_down(addr(kCleanNet, 9), sec(4)));
  EXPECT_TRUE(plane.host_down(addr(kCleanNet, 9), sec(5)));
  EXPECT_FALSE(plane.host_down(addr(kCleanNet, 8), sec(5)));  // only that host
  EXPECT_FALSE(plane.host_down(addr(kCleanNet, 9), sec(15)));

  EXPECT_TRUE(plane.on_udp(addr(kCleanNet, 9), sec(6)).drop);
  EXPECT_EQ(plane.udp_host_down(), 1u);
  EXPECT_EQ(plane.on_tcp_connect(addr(kCleanNet, 9), sec(6)).action,
            FaultPlane::TcpAction::kBlackhole);
}

TEST_F(FaultPlaneTest, OutboundScopeImpairsTrafficFromThePrefix) {
  FaultScenario scenario;
  scenario.rules.push_back({.prefix = faulty_prefix(),
                            .kind = FaultKind::kBlackhole,
                            .direction = FaultDirection::kOutbound});
  FaultPlane plane = make_plane(scenario);

  // Packets *from* the impaired prefix die; packets *into* it pass.
  EXPECT_TRUE(
      plane.on_udp(addr(kFaultyNet, 1), addr(kCleanNet, 1), 123, 0).drop);
  EXPECT_FALSE(
      plane.on_udp(addr(kCleanNet, 1), addr(kFaultyNet, 1), 123, 0).drop);
  // The legacy overload's unknown source (::) never matches an outbound
  // scope, so scope-free callers see a pristine plane.
  EXPECT_FALSE(plane.on_udp(addr(kFaultyNet, 1), 0).drop);
  EXPECT_EQ(plane.on_tcp_connect(addr(kFaultyNet, 1), addr(kCleanNet, 1), 80,
                                 0).action,
            FaultPlane::TcpAction::kBlackhole);
}

TEST_F(FaultPlaneTest, BothScopeImpairsEitherDirection) {
  FaultScenario scenario;
  scenario.rules.push_back({.prefix = faulty_prefix(),
                            .kind = FaultKind::kBlackhole,
                            .direction = FaultDirection::kBoth});
  FaultPlane plane = make_plane(scenario);

  EXPECT_TRUE(
      plane.on_udp(addr(kFaultyNet, 1), addr(kCleanNet, 1), 123, 0).drop);
  EXPECT_TRUE(
      plane.on_udp(addr(kCleanNet, 1), addr(kFaultyNet, 1), 123, 0).drop);
  EXPECT_FALSE(
      plane.on_udp(addr(kCleanNet, 1), addr(kCleanNet, 2), 123, 0).drop);
}

TEST_F(FaultPlaneTest, DstPortScopeNarrowsARule) {
  FaultScenario scenario;
  scenario.rules.push_back({.prefix = faulty_prefix(),
                            .kind = FaultKind::kBlackhole,
                            .dst_port = 123});
  FaultPlane plane = make_plane(scenario);

  // Port 123 into the prefix dies; port 80 sails through, and so does the
  // legacy wildcard-port overload (port 0 never matches a scoped rule).
  EXPECT_TRUE(
      plane.on_udp(addr(kCleanNet, 1), addr(kFaultyNet, 1), 123, 0).drop);
  EXPECT_FALSE(
      plane.on_udp(addr(kCleanNet, 1), addr(kFaultyNet, 1), 80, 0).drop);
  EXPECT_FALSE(plane.on_udp(addr(kFaultyNet, 1), 0).drop);
  EXPECT_EQ(plane.on_tcp_connect(addr(kCleanNet, 1), addr(kFaultyNet, 1), 123,
                                 0).action,
            FaultPlane::TcpAction::kBlackhole);
  EXPECT_EQ(plane.on_tcp_connect(addr(kCleanNet, 1), addr(kFaultyNet, 1), 443,
                                 0).action,
            FaultPlane::TcpAction::kNone);
}

TEST_F(FaultPlaneTest, ZeroWidthRuleWindowNeverFires) {
  FaultScenario scenario;
  scenario.rules.push_back({.prefix = faulty_prefix(),
                            .kind = FaultKind::kBlackhole,
                            .from = sec(10),
                            .until = sec(10)});
  FaultPlane plane = make_plane(scenario);

  auto target = addr(kFaultyNet, 1);
  EXPECT_FALSE(plane.on_udp(target, sec(9)).drop);
  EXPECT_FALSE(plane.on_udp(target, sec(10)).drop);  // the degenerate edge
  EXPECT_FALSE(plane.on_udp(target, sec(11)).drop);
  EXPECT_EQ(plane.on_tcp_connect(target, sec(10)).action,
            FaultPlane::TcpAction::kNone);
  EXPECT_EQ(plane.udp_dropped(), 0u);
}

TEST_F(FaultPlaneTest, OverlappingOutageWindowsOnOneHost) {
  auto host = addr(kCleanNet, 9);
  FaultScenario scenario;
  scenario.outages.push_back({.host = host, .from = sec(5), .until = sec(15)});
  scenario.outages.push_back({.host = host, .from = sec(10), .until = sec(25)});
  FaultPlane plane = make_plane(scenario);

  // The union of the two windows is down; neither edge inside it revives
  // the host, and after the later `until` it is back.
  EXPECT_FALSE(plane.host_down(host, sec(4)));
  EXPECT_TRUE(plane.host_down(host, sec(5)));
  EXPECT_TRUE(plane.host_down(host, sec(12)));  // inside both
  EXPECT_TRUE(plane.host_down(host, sec(15)));  // first ended, second holds
  EXPECT_TRUE(plane.host_down(host, sec(24)));
  EXPECT_FALSE(plane.host_down(host, sec(25)));
}

TEST_F(FaultPlaneTest, DomainWithoutStreamAssertsOrCounts) {
  FaultScenario scenario;
  scenario.rules.push_back({.prefix = faulty_prefix(),
                            .kind = FaultKind::kLoss,
                            .probability = 1.0});
#ifdef NDEBUG
  // Release: the silent-aliasing bug is counted and falls back to stream 0.
  FaultPlane plane = make_plane(scenario);
  EXPECT_TRUE(plane.on_udp(addr(kFaultyNet, 1), 0, /*domain=*/3).drop);
  EXPECT_EQ(plane.domain_fallbacks(), 1u);
#else
  // Debug: loud, immediately.
  EXPECT_DEATH(
      {
        FaultPlane plane = make_plane(scenario);
        plane.on_udp(addr(kFaultyNet, 1), 0, /*domain=*/3);
      },
      "configured RNG stream");
#endif
}

TEST_F(FaultPlaneTest, ConfiguredDomainsNeverFallBack) {
  FaultScenario scenario;
  scenario.rules.push_back({.prefix = faulty_prefix(),
                            .kind = FaultKind::kLoss,
                            .probability = 1.0});
  FaultPlane plane = make_plane(scenario);
  plane.configure_domains(4);
  EXPECT_TRUE(plane.on_udp(addr(kFaultyNet, 1), 0, /*domain=*/3).drop);
  EXPECT_EQ(plane.domain_fallbacks(), 0u);
}

TEST_F(FaultPlaneTest, WindowEdgesRecordFlightEvents) {
  FaultScenario scenario;
  scenario.rules.push_back({.prefix = faulty_prefix(),
                            .kind = FaultKind::kBlackhole,
                            .from = sec(10),
                            .until = sec(20)});
  scenario.rules.push_back({.prefix = faulty_prefix(),
                            .kind = FaultKind::kLoss,
                            .from = sec(5),
                            .until = sec(5)});  // zero-width: never logged
  scenario.outages.push_back(
      {.host = addr(kCleanNet, 9), .from = sec(30)});  // never closes
  EventQueue events;
  obs::FlightRecorder flight;
  flight.set_sim_clock(&events);
  FaultPlane plane = make_plane(scenario);
  plane.set_flight_recorder(&flight);
  plane.arm_windows(events);
  events.run();

  int opens = 0, closes = 0;
  for (const obs::FlightEvent& ev : flight.events()) {
    if (ev.kind == obs::FlightKind::kFaultWindowOpen) ++opens;
    if (ev.kind == obs::FlightKind::kFaultWindowClose) ++closes;
  }
  // Rule 0 opens and closes; the outage opens and never closes; the
  // zero-width rule contributes nothing.
  EXPECT_EQ(opens, 2);
  EXPECT_EQ(closes, 1);
}

// --------------------------------------- differential: linear reference

/// The plane's verdict logic as a linear scan over every outage and rule,
/// with its own copy of the legacy RNG stream and of the counters: the
/// reference the block-indexed FaultPlane must match draw for draw.
struct LinearFaults {
  explicit LinearFaults(const FaultScenario& s)
      : scenario(s), rng(util::Rng(s.seed).stream("faultplane")) {}

  bool host_down(const net::Ipv6Address& host, SimTime now) const {
    for (const HostOutage& outage : scenario.outages)
      if (outage.host == host && outage.active(now)) return true;
    return false;
  }
  SimDuration delay(const FaultRule& rule) {
    SimDuration d = rule.added_latency;
    if (rule.added_jitter > 0)
      d += static_cast<SimDuration>(
          rng.below(static_cast<std::uint64_t>(rule.added_jitter)));
    return d;
  }
  FaultPlane::UdpVerdict on_udp(const net::Ipv6Address& src,
                                const net::Ipv6Address& dst,
                                std::uint16_t port, SimTime now) {
    FaultPlane::UdpVerdict v;
    if (host_down(dst, now)) {
      ++udp_host_down;
      v.drop = true;
      return v;
    }
    for (const FaultRule& rule : scenario.rules) {
      if (!rule.udp || !rule.active(now) || !rule.matches(src, dst, port))
        continue;
      if (rule.kind == FaultKind::kBlackhole ||
          (rule.kind == FaultKind::kLoss && rng.chance(rule.probability))) {
        ++udp_dropped;
        v.drop = true;
        return v;
      }
      if (rule.kind == FaultKind::kDelay) v.extra_latency += delay(rule);
    }
    if (v.extra_latency > 0) ++delays;
    return v;
  }
  FaultPlane::TcpVerdict on_tcp(const net::Ipv6Address& src,
                                const net::Ipv6Address& dst,
                                std::uint16_t port, SimTime now) {
    using Action = FaultPlane::TcpAction;
    FaultPlane::TcpVerdict v;
    auto end = [&](Action action, std::uint64_t& counter) {
      ++counter;
      v.action = action;
      return v;
    };
    if (host_down(dst, now)) return end(Action::kBlackhole, tcp_blackholed);
    for (const FaultRule& rule : scenario.rules) {
      if (!rule.tcp || !rule.active(now) || !rule.matches(src, dst, port))
        continue;
      switch (rule.kind) {
        case FaultKind::kBlackhole:
          return end(Action::kBlackhole, tcp_blackholed);
        case FaultKind::kLoss:
          if (rng.chance(rule.probability))
            return end(Action::kBlackhole, tcp_blackholed);
          break;
        case FaultKind::kRst:
          return end(Action::kRst, tcp_rst);
        case FaultKind::kStall:
          return end(Action::kStall, tcp_stalled);
        case FaultKind::kDelay:
          v.extra_latency += delay(rule);
          break;
      }
    }
    if (v.extra_latency > 0) ++delays;
    return v;
  }

  const FaultScenario& scenario;
  util::Rng rng;
  std::uint64_t udp_dropped = 0, udp_host_down = 0, tcp_blackholed = 0,
                tcp_rst = 0, tcp_stalled = 0, delays = 0;
};

/// Random scenarios and traffic around a few shared /32 blocks, so rules
/// nest, overlap and share blocks with outages, and packets land inside,
/// just outside and far from every prefix.
struct FaultFuzz {
  explicit FaultFuzz(std::uint64_t seed) : rng(seed) {
    const std::uint64_t blocks[] = {0x20010db8, 0x20010db9, 0x24000001,
                                    0x24000002, 0x00000000, 0xffffffff};
    for (int i = 0; i < 24; ++i)
      hosts.push_back(addr(blocks[rng.below(6)] << 32 | rng.below(4) << 16,
                           rng.below(8)));
  }

  /// A pool host, half the time with one bit flipped.
  net::Ipv6Address near() {
    net::Ipv6Address a = hosts[rng.below(hosts.size())];
    if (rng.chance(0.5)) return a;
    auto bit = static_cast<unsigned>(rng.below(128));
    std::uint64_t hi = bit < 64 ? std::uint64_t{1} << (63 - bit) : 0;
    std::uint64_t lo = bit < 64 ? 0 : std::uint64_t{1} << (127 - bit);
    return addr(a.hi64() ^ hi, a.lo64() ^ lo);
  }
  /// Any length 0..128, biased toward the /32 and /64 boundaries.
  unsigned length() {
    static constexpr unsigned kEdges[] = {0, 1, 31, 32, 33, 63, 64, 65, 128};
    if (rng.chance(0.4)) return kEdges[rng.below(std::size(kEdges))];
    return static_cast<unsigned>(rng.below(129));
  }
  std::uint16_t port() {
    static constexpr std::uint16_t kPorts[] = {0, 22, 80, 123, 443};
    return kPorts[rng.below(std::size(kPorts))];
  }
  SimTime time() { return sec(static_cast<std::int64_t>(rng.below(100))); }
  /// A window [from, until): open-ended, zero-width or finite.
  std::pair<SimTime, SimTime> window() {
    SimTime from = time();
    switch (rng.below(4)) {
      case 0: return {from, kFaultForever};
      case 1: return {from, from};
      default:
        return {from, from + sec(static_cast<std::int64_t>(rng.below(50)))};
    }
  }

  FaultRule rule() {
    FaultRule r;
    r.prefix = net::Ipv6Prefix(near(), length());
    r.kind = static_cast<FaultKind>(rng.below(5));
    std::tie(r.from, r.until) = window();
    r.probability = rng.uniform();
    r.added_latency = msec(static_cast<std::int64_t>(rng.below(50)));
    r.added_jitter = rng.chance(0.5) ? msec(10) : 0;
    r.udp = rng.chance(0.8);
    r.tcp = rng.chance(0.8);
    r.direction = static_cast<FaultDirection>(rng.below(3));
    r.dst_port = rng.chance(0.7) ? 0 : port();
    return r;
  }

  /// The random scenario, led by a probe rule: a delay with a huge jitter
  /// on a block no random packet reaches, whose verdicts expose the RNG
  /// stream's next raw draws.
  FaultScenario scenario() {
    FaultScenario s;
    s.seed = rng.next();
    s.rules.push_back({.prefix = net::Ipv6Prefix(probe_host, 32),
                       .kind = FaultKind::kDelay,
                       .added_jitter = SimDuration{1} << 40});
    for (auto n = rng.below(40); n > 0; --n) s.rules.push_back(rule());
    for (auto n = rng.below(6); n > 0; --n) {
      auto [from, until] = window();
      s.outages.push_back({near(), from, until});
    }
    return s;
  }

  util::Rng rng;
  std::vector<net::Ipv6Address> hosts;
  const net::Ipv6Address probe_host = addr(0x3fffffff00000000ULL, 1);
};

TEST(FaultPlaneDifferential, IndexedVerdictsMatchLinearScan) {
  FaultFuzz fuzz(0xd1ff);
  std::uint64_t host_down = 0, dropped = 0, refused = 0, delayed = 0;
  for (int round = 0; round < 300; ++round) {
    SCOPED_TRACE(round);
    FaultScenario scenario = fuzz.scenario();
    FaultPlane plane(scenario, nullptr);
    LinearFaults ref(scenario);
    for (int i = 0; i < 200; ++i) {
      net::Ipv6Address src =
          fuzz.rng.chance(0.1) ? net::Ipv6Address{} : fuzz.near();
      net::Ipv6Address dst = fuzz.near();
      std::uint16_t port = fuzz.port();
      SimTime now = fuzz.time();
      ASSERT_EQ(plane.host_down(dst, now), ref.host_down(dst, now));
      if (fuzz.rng.chance(0.5)) {
        auto got = plane.on_udp(src, dst, port, now);
        auto want = ref.on_udp(src, dst, port, now);
        ASSERT_EQ(got.drop, want.drop) << i;
        ASSERT_EQ(got.extra_latency, want.extra_latency) << i;
      } else {
        auto got = plane.on_tcp_connect(src, dst, port, now);
        auto want = ref.on_tcp(src, dst, port, now);
        ASSERT_EQ(got.action, want.action) << i;
        ASSERT_EQ(got.extra_latency, want.extra_latency) << i;
      }
    }
    EXPECT_EQ(plane.udp_dropped(), ref.udp_dropped);
    EXPECT_EQ(plane.udp_host_down(), ref.udp_host_down);
    EXPECT_EQ(plane.tcp_blackholed(), ref.tcp_blackholed);
    EXPECT_EQ(plane.tcp_rst(), ref.tcp_rst);
    EXPECT_EQ(plane.tcp_stalled(), ref.tcp_stalled);
    EXPECT_EQ(plane.delays_injected(), ref.delays);
    host_down += ref.udp_host_down;
    dropped += ref.udp_dropped + ref.tcp_blackholed;
    refused += ref.tcp_rst + ref.tcp_stalled;
    delayed += ref.delays;
    // Both streams are still in step: the probe rule's jitter is a raw draw.
    for (int i = 0; i < 4; ++i)
      EXPECT_EQ(plane.on_udp(fuzz.probe_host, 0).extra_latency,
                ref.on_udp({}, fuzz.probe_host, 0, 0).extra_latency);
  }
  // The fuzz is not vacuous: every kind of verdict occurs often.
  EXPECT_GT(host_down, 50u);
  EXPECT_GT(dropped, 2000u);
  EXPECT_GT(refused, 1000u);
  EXPECT_GT(delayed, 1000u);
}

// ------------------------------------------------- network integration

class FaultNetworkTest : public ::testing::Test {
 protected:
  FaultNetworkTest() : network_(events_, config()) {}
  static NetworkConfig config() {
    NetworkConfig c;
    c.min_latency = msec(10);
    c.max_latency = msec(20);
    c.jitter = 0;
    return c;
  }

  void install(FaultScenario scenario) {
    network_.install_faults(std::move(scenario));
  }

  EventQueue events_;
  Network network_;
};

TEST_F(FaultNetworkTest, UdpBlackholeRuleSwallowsDatagrams) {
  FaultScenario scenario;
  scenario.rules.push_back(
      {.prefix = faulty_prefix(), .kind = FaultKind::kBlackhole});
  install(scenario);

  bool faulty_got = false, clean_got = false;
  network_.bind_udp({addr(kFaultyNet, 1), 123},
                    [&](const Datagram&) { faulty_got = true; });
  network_.bind_udp({addr(kCleanNet, 1), 123},
                    [&](const Datagram&) { clean_got = true; });
  network_.send_udp({addr(kCleanNet, 2), 1}, {addr(kFaultyNet, 1), 123}, {1});
  network_.send_udp({addr(kCleanNet, 2), 1}, {addr(kCleanNet, 1), 123}, {1});
  events_.run();
  EXPECT_FALSE(faulty_got);
  EXPECT_TRUE(clean_got);
  EXPECT_EQ(network_.faults()->udp_dropped(), 1u);
}

TEST_F(FaultNetworkTest, DelayRuleAddsLatencyToDelivery) {
  FaultScenario scenario;
  scenario.rules.push_back({.prefix = faulty_prefix(),
                            .kind = FaultKind::kDelay,
                            .added_latency = sec(2)});
  install(scenario);

  SimTime delivered_at = -1;
  network_.bind_udp({addr(kFaultyNet, 1), 123},
                    [&](const Datagram&) { delivered_at = events_.now(); });
  network_.send_udp({addr(kCleanNet, 2), 1}, {addr(kFaultyNet, 1), 123}, {1});
  events_.run();
  ASSERT_GE(delivered_at, 0);
  EXPECT_GE(delivered_at, sec(2) + msec(10));
  EXPECT_LE(delivered_at, sec(2) + msec(20));
}

TEST_F(FaultNetworkTest, TcpBlackholeTimesOutAfterConfigConnectTimeout) {
  NetworkConfig c = config();
  c.connect_timeout = sec(3);  // not the historical hardcoded 5 s
  Network network(events_, c);
  FaultScenario scenario;
  scenario.rules.push_back(
      {.prefix = faulty_prefix(), .kind = FaultKind::kBlackhole});
  network.install_faults(scenario);
  network.attach(addr(kFaultyNet, 1));
  network.listen_tcp({addr(kFaultyNet, 1), 80}, [](TcpConnectionPtr) {});

  bool called = false;
  network.connect_tcp({addr(kCleanNet, 2), 1}, {addr(kFaultyNet, 1), 80},
                      [&](TcpConnectionPtr conn, bool refused) {
                        called = true;
                        EXPECT_EQ(conn, nullptr);
                        EXPECT_FALSE(refused);
                      });
  events_.run();
  EXPECT_TRUE(called);
  EXPECT_EQ(events_.now(), sec(3));
  EXPECT_EQ(network.faults()->tcp_blackholed(), 1u);
}

TEST_F(FaultNetworkTest, TcpRstRefusesDespiteLiveListener) {
  FaultScenario scenario;
  scenario.rules.push_back(
      {.prefix = faulty_prefix(), .kind = FaultKind::kRst});
  install(scenario);
  network_.attach(addr(kFaultyNet, 1));
  network_.listen_tcp({addr(kFaultyNet, 1), 80}, [](TcpConnectionPtr) {});

  bool called = false;
  network_.connect_tcp({addr(kCleanNet, 2), 1}, {addr(kFaultyNet, 1), 80},
                       [&](TcpConnectionPtr conn, bool refused) {
                         called = true;
                         EXPECT_EQ(conn, nullptr);
                         EXPECT_TRUE(refused);
                       });
  events_.run();
  EXPECT_TRUE(called);
  EXPECT_EQ(network_.faults()->tcp_rst(), 1u);
}

TEST_F(FaultNetworkTest, TcpStallEstablishesButDeliversNothing) {
  FaultScenario scenario;
  scenario.rules.push_back(
      {.prefix = faulty_prefix(), .kind = FaultKind::kStall});
  install(scenario);
  network_.attach(addr(kFaultyNet, 1));
  bool server_got_data = false, server_got_close = false;
  network_.listen_tcp({addr(kFaultyNet, 1), 80}, [&](TcpConnectionPtr conn) {
    conn->set_on_data(
        TcpConnection::Side::kServer,
        [&](std::vector<std::uint8_t>) { server_got_data = true; });
    conn->set_on_close(TcpConnection::Side::kServer,
                       [&] { server_got_close = true; });
  });

  bool established = false;
  TcpConnectionPtr client_conn;
  network_.connect_tcp({addr(kCleanNet, 2), 1}, {addr(kFaultyNet, 1), 80},
                       [&](TcpConnectionPtr conn, bool refused) {
                         ASSERT_FALSE(refused);
                         ASSERT_NE(conn, nullptr);
                         established = true;
                         client_conn = conn;
                         conn->send(TcpConnection::Side::kClient, {1, 2, 3});
                         conn->close(TcpConnection::Side::kClient);
                       });
  events_.run();
  EXPECT_TRUE(established);       // the handshake itself succeeds...
  EXPECT_FALSE(server_got_data);  // ...but no payload ever arrives
  EXPECT_FALSE(server_got_close);  // and the close is as silent as the data
  EXPECT_TRUE(client_conn->stalled());
  EXPECT_EQ(network_.faults()->tcp_stalled(), 1u);
  EXPECT_EQ(network_.faults()->stall_data_dropped(), 1u);
}

TEST_F(FaultNetworkTest, HostOutageBlackholesItsUdpAndTcp) {
  auto host = addr(kCleanNet, 9);
  FaultScenario scenario;
  scenario.outages.push_back({.host = host, .from = 0, .until = sec(30)});
  install(scenario);
  network_.attach(host);
  bool got = false;
  network_.bind_udp({host, 123}, [&](const Datagram&) { got = true; });

  network_.send_udp({addr(kCleanNet, 2), 1}, {host, 123}, {1});
  events_.run();
  EXPECT_FALSE(got);

  // After the window the same binding answers again: outage, not detach.
  events_.schedule_at(sec(31), [&] {
    network_.send_udp({addr(kCleanNet, 2), 1}, {host, 123}, {2});
  });
  events_.run();
  EXPECT_TRUE(got);
  EXPECT_EQ(network_.faults()->udp_host_down(), 1u);
}

TEST_F(FaultNetworkTest, InstrumentsEnrollIntoRegistry) {
  // Declared before the network so it outlives the plane (which drops its
  // instruments from the registry on destruction).
  obs::Registry registry;
  Network network(events_, config());
  FaultScenario scenario;
  scenario.rules.push_back(
      {.prefix = faulty_prefix(), .kind = FaultKind::kBlackhole});
  network.install_faults(scenario, &registry);
  network.send_udp({addr(kCleanNet, 2), 1}, {addr(kFaultyNet, 1), 123}, {1});
  events_.run();

  auto snapshot = registry.snapshot(events_.now());
  const obs::SnapshotValue* dropped = snapshot.find("fault_udp_dropped");
  ASSERT_NE(dropped, nullptr);
  EXPECT_EQ(dropped->count, 1u);
}

}  // namespace
}  // namespace tts::simnet
