// RoutePlane: scripted down-window compilation (convergence delay,
// redundant-event dropping, zero-width windows), longest-prefix-match
// shadowing, barrier-committed transitions (counters, subscribers, flight
// events), the Network integration (UDP blackhole, TCP connect timeout,
// verdict precedence over the fault plane), and a differential test of the
// block-indexed verdict against a net::RoutingTable longest-prefix match.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "simnet/event_queue.hpp"
#include "simnet/network.hpp"
#include "net/routing_table.hpp"
#include "simnet/route.hpp"
#include "util/rng.hpp"

namespace tts::simnet {
namespace {

net::Ipv6Address addr(std::uint64_t hi, std::uint64_t lo) {
  return net::Ipv6Address::from_halves(hi, lo);
}

constexpr std::uint64_t kAsNet = 0x20010db800000000ULL;
constexpr std::uint64_t kOtherNet = 0x2400cb0000000000ULL;

net::Ipv6Prefix as_prefix() { return net::Ipv6Prefix(addr(kAsNet, 0), 32); }
net::Ipv6Prefix site_prefix() {
  // A /48 inside the /32 (site bits live in the third 16-bit group).
  return net::Ipv6Prefix(addr(kAsNet | 0x00420000ULL, 0), 48);
}

TEST(RoutePlane, DownWindowFollowsConvergenceDelay) {
  RouteScenario scenario;
  scenario.convergence = sec(30);
  scenario.withdraw(as_prefix(), sec(10));   // effective at 40
  scenario.announce(as_prefix(), sec(50));   // effective at 80
  RoutePlane plane(std::move(scenario), nullptr);

  auto target = addr(kAsNet, 7);
  EXPECT_FALSE(plane.withdrawn(target, sec(39)));
  EXPECT_TRUE(plane.withdrawn(target, sec(40)));   // from is inclusive
  EXPECT_TRUE(plane.withdrawn(target, sec(79)));
  EXPECT_FALSE(plane.withdrawn(target, sec(80)));  // until is exclusive
  EXPECT_EQ(plane.transition_count(), 2u);
}

TEST(RoutePlane, UnscriptedSpaceIsAlwaysRouted) {
  RouteScenario scenario;
  scenario.withdraw(as_prefix(), 0);
  RoutePlane plane(std::move(scenario), nullptr);

  EXPECT_TRUE(plane.withdrawn(addr(kAsNet, 1), sec(60)));
  EXPECT_FALSE(plane.withdrawn(addr(kOtherNet, 1), sec(60)));
}

TEST(RoutePlane, MoreSpecificScriptedPrefixShadowsCoveringWithdrawal) {
  RouteScenario scenario;
  scenario.convergence = 0;
  scenario.withdraw(as_prefix(), sec(10));
  // The /48 is scripted (so it is a longest-match candidate) but only goes down
  // much later: while the covering /32 is withdrawn, the /48's addresses
  // stay reachable — standard longest-prefix-match semantics.
  scenario.withdraw(site_prefix(), sec(1000));
  RoutePlane plane(std::move(scenario), nullptr);

  auto inside_site = addr(kAsNet | 0x00420000ULL, 5);
  auto outside_site = addr(kAsNet | 0x00990000ULL, 5);
  EXPECT_TRUE(plane.withdrawn(outside_site, sec(20)));
  EXPECT_FALSE(plane.withdrawn(inside_site, sec(20)));
  EXPECT_TRUE(plane.withdrawn(inside_site, sec(1000)));
}

TEST(RoutePlane, RedundantEventsAreDropped) {
  RouteScenario scenario;
  scenario.convergence = 0;
  scenario.withdraw(as_prefix(), sec(10));
  scenario.withdraw(as_prefix(), sec(20));   // already down: dropped
  scenario.announce(as_prefix(), sec(30));
  scenario.announce(as_prefix(), sec(40));   // already up: dropped
  RoutePlane plane(std::move(scenario), nullptr);

  EXPECT_EQ(plane.transition_count(), 2u);
  EXPECT_TRUE(plane.withdrawn(addr(kAsNet, 1), sec(25)));
  EXPECT_FALSE(plane.withdrawn(addr(kAsNet, 1), sec(35)));
}

TEST(RoutePlane, ZeroWidthWindowCommitsNothing) {
  RouteScenario scenario;
  scenario.convergence = sec(30);
  scenario.withdraw(as_prefix(), sec(10));  // both effective at 40
  scenario.announce(as_prefix(), sec(10));
  RoutePlane plane(std::move(scenario), nullptr);

  EXPECT_EQ(plane.transition_count(), 0u);
  EXPECT_FALSE(plane.withdrawn(addr(kAsNet, 1), sec(40)));
}

TEST(RoutePlane, BlackholesCountsDataPathKills) {
  obs::Registry registry;
  RouteScenario scenario;
  scenario.convergence = 0;
  scenario.withdraw(as_prefix(), sec(10));
  RoutePlane plane(std::move(scenario), &registry);

  EXPECT_FALSE(plane.blackholes(addr(kAsNet, 1), sec(5)));
  EXPECT_TRUE(plane.blackholes(addr(kAsNet, 1), sec(15)));
  EXPECT_TRUE(plane.blackholes(addr(kAsNet, 2), sec(20)));
  EXPECT_EQ(plane.blackholed(), 2u);
  auto snapshot = registry.snapshot(0);
  const obs::SnapshotValue* cell = snapshot.find("route_blackholed");
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->count, 2u);
}

TEST(RoutePlane, ArmedTransitionsCommitCountersSubscribersAndFlight) {
  EventQueue events;
  obs::FlightRecorder flight;
  flight.set_sim_clock(&events);
  RouteScenario scenario;
  scenario.convergence = sec(30);
  scenario.withdraw(as_prefix(), sec(10));   // effective 40
  scenario.announce(as_prefix(), sec(50));   // effective 80
  RoutePlane plane(std::move(scenario), nullptr);
  plane.set_flight_recorder(&flight);

  std::vector<std::pair<RouteOp, SimTime>> seen;
  plane.subscribe([&](const net::Ipv6Prefix& prefix, RouteOp op,
                      SimTime effective) {
    EXPECT_EQ(prefix, as_prefix());
    seen.emplace_back(op, effective);
  });
  plane.arm(events);
  events.run();

  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].first, RouteOp::kWithdraw);
  EXPECT_EQ(seen[0].second, sec(40));
  EXPECT_EQ(seen[1].first, RouteOp::kAnnounce);
  EXPECT_EQ(seen[1].second, sec(80));
  EXPECT_EQ(plane.withdrawals(), 1u);
  EXPECT_EQ(plane.announcements(), 1u);

  int withdrawn_events = 0, announced_events = 0;
  for (const obs::FlightEvent& ev : flight.events()) {
    if (ev.kind == obs::FlightKind::kRouteWithdrawn) ++withdrawn_events;
    if (ev.kind == obs::FlightKind::kRouteAnnounced) ++announced_events;
  }
  EXPECT_EQ(withdrawn_events, 1);
  EXPECT_EQ(announced_events, 1);
}

// --------------------------------------- differential: RoutingTable LPM

/// Reference reachability: net::RoutingTable finds the longest scripted
/// match, then that prefix's script is replayed up to `now` (state changes
/// in effective-time order, ties in script order; prefixes start routed).
struct LpmRoutes {
  explicit LpmRoutes(const RouteScenario& s) : scenario(s) {
    for (const RouteEvent& ev : s.events) {
      if (std::find(prefixes.begin(), prefixes.end(), ev.prefix) !=
          prefixes.end())
        continue;
      table.announce(ev.prefix, static_cast<net::AsNumber>(prefixes.size()));
      prefixes.push_back(ev.prefix);
    }
  }

  bool withdrawn(const net::Ipv6Address& dst, SimTime now) const {
    std::optional<net::AsNumber> hit = table.lookup(dst);
    if (!hit) return false;
    std::vector<std::tuple<SimTime, std::size_t, RouteOp>> script;
    for (std::size_t i = 0; i < scenario.events.size(); ++i) {
      const RouteEvent& ev = scenario.events[i];
      if (ev.prefix != prefixes[*hit]) continue;
      SimTime effective = ev.at > kRouteForever - scenario.convergence
                              ? kRouteForever
                              : ev.at + scenario.convergence;
      script.emplace_back(effective, i, ev.op);
    }
    std::sort(script.begin(), script.end());
    bool down = false;
    for (const auto& [effective, order, op] : script) {
      if (effective > now) break;
      down = op == RouteOp::kWithdraw;
    }
    return down;
  }

  const RouteScenario& scenario;
  std::vector<net::Ipv6Prefix> prefixes;
  net::RoutingTable table;
};

TEST(RoutePlaneDifferential, IndexedVerdictMatchesRoutingTableLpm) {
  util::Rng rng(0x10c7);
  const std::uint64_t blocks[] = {0x20010db8, 0x24000001, 0x24000002,
                                  0x00000000};
  std::vector<net::Ipv6Address> hosts;
  for (int i = 0; i < 16; ++i)
    hosts.push_back(addr(blocks[rng.below(4)] << 32 | rng.below(4) << 16,
                         rng.below(8)));
  // A pool host, half the time with one bit flipped.
  auto near = [&] {
    net::Ipv6Address a = hosts[rng.below(hosts.size())];
    if (rng.chance(0.5)) return a;
    auto bit = static_cast<unsigned>(rng.below(128));
    std::uint64_t hi = bit < 64 ? std::uint64_t{1} << (63 - bit) : 0;
    std::uint64_t lo = bit < 64 ? 0 : std::uint64_t{1} << (127 - bit);
    return addr(a.hi64() ^ hi, a.lo64() ^ lo);
  };
  // Any length 0..128, biased toward ::/0 and the /32 and /64 boundaries.
  auto length = [&] {
    static constexpr unsigned kEdges[] = {0, 16, 31, 32, 33, 48, 64, 128};
    if (rng.chance(0.4)) return kEdges[rng.below(std::size(kEdges))];
    return static_cast<unsigned>(rng.below(129));
  };
  std::uint64_t withdrawn = 0, routed = 0;
  for (int round = 0; round < 300; ++round) {
    SCOPED_TRACE(round);
    RouteScenario scenario;
    scenario.convergence = sec(static_cast<std::int64_t>(rng.below(30)));
    // Nested prefixes of shared hosts: more-specifics shadow covering
    // routes, and some scripts re-use a prefix several times.
    std::vector<net::Ipv6Prefix> prefixes;
    for (auto n = 1 + rng.below(8); n > 0; --n)
      prefixes.push_back(net::Ipv6Prefix(near(), length()));
    for (auto n = rng.below(20); n > 0; --n) {
      const net::Ipv6Prefix& p = prefixes[rng.below(prefixes.size())];
      auto at = sec(static_cast<std::int64_t>(rng.below(100)));
      if (rng.chance(0.5))
        scenario.withdraw(p, at);
      else
        scenario.announce(p, at);
    }
    RoutePlane plane(scenario, nullptr);
    LpmRoutes ref(scenario);
    std::uint64_t kills = 0;
    for (int i = 0; i < 200; ++i) {
      net::Ipv6Address dst = near();
      SimTime now = sec(static_cast<std::int64_t>(rng.below(150)));
      bool want = ref.withdrawn(dst, now);
      ASSERT_EQ(plane.withdrawn(dst, now), want) << i;
      ASSERT_EQ(plane.blackholes(dst, now), want) << i;
      kills += want;
      ++(want ? withdrawn : routed);
    }
    EXPECT_EQ(plane.blackholed(), kills);
  }
  // The fuzz is not vacuous: both verdicts occur often.
  EXPECT_GT(withdrawn, 5000u);
  EXPECT_GT(routed, 5000u);
}

// ------------------------------------------------- network integration

class RouteNetworkTest : public ::testing::Test {
 protected:
  RouteNetworkTest() : network_(events_, config()) {}
  static NetworkConfig config() {
    NetworkConfig c;
    c.min_latency = msec(10);
    c.max_latency = msec(20);
    c.jitter = 0;
    c.connect_timeout = sec(3);
    return c;
  }

  EventQueue events_;
  Network network_;
};

TEST_F(RouteNetworkTest, UdpIntoWithdrawnSpaceVanishesAndReturns) {
  RouteScenario scenario;
  scenario.convergence = 0;
  scenario.withdraw(as_prefix(), sec(10));
  scenario.announce(as_prefix(), sec(20));
  network_.install_routes(std::move(scenario));

  int delivered = 0;
  network_.bind_udp({addr(kAsNet, 1), 123},
                    [&](const Datagram&) { ++delivered; });
  auto send = [&] {
    network_.send_udp({addr(kOtherNet, 2), 1}, {addr(kAsNet, 1), 123}, {1});
  };
  send();                                // before the withdrawal: delivered
  events_.schedule_at(sec(15), send);    // during: blackholed
  events_.schedule_at(sec(25), send);    // after re-announce: delivered
  events_.run();

  EXPECT_EQ(delivered, 2);
  ASSERT_NE(network_.routes(), nullptr);
  EXPECT_EQ(network_.routes()->blackholed(), 1u);
  EXPECT_EQ(network_.routes()->withdrawals(), 1u);
  EXPECT_EQ(network_.routes()->announcements(), 1u);
}

TEST_F(RouteNetworkTest, TcpConnectIntoWithdrawnSpaceTimesOut) {
  RouteScenario scenario;
  scenario.convergence = 0;
  scenario.withdraw(as_prefix(), 0);
  network_.install_routes(std::move(scenario));
  network_.attach(addr(kAsNet, 1));
  network_.listen_tcp({addr(kAsNet, 1), 80}, [](TcpConnectionPtr) {});

  bool called = false;
  network_.connect_tcp({addr(kOtherNet, 2), 1}, {addr(kAsNet, 1), 80},
                       [&](TcpConnectionPtr conn, bool refused) {
                         called = true;
                         EXPECT_EQ(conn, nullptr);
                         EXPECT_FALSE(refused);  // timeout, not RST
                       });
  events_.run();
  EXPECT_TRUE(called);
  EXPECT_EQ(events_.now(), sec(3));  // the configured connect_timeout
}

TEST_F(RouteNetworkTest, RouteVerdictPrecedesFaultRules) {
  // An inbound loss rule on the same prefix: while the route is withdrawn
  // the fault plane must never see (or count, or draw for) the packet.
  FaultScenario faults;
  faults.rules.push_back({.prefix = as_prefix(),
                          .kind = FaultKind::kLoss,
                          .probability = 1.0});
  network_.install_faults(std::move(faults));
  RouteScenario scenario;
  scenario.convergence = 0;
  scenario.withdraw(as_prefix(), 0);
  network_.install_routes(std::move(scenario));

  network_.send_udp({addr(kOtherNet, 2), 1}, {addr(kAsNet, 1), 123}, {1});
  events_.run();
  EXPECT_EQ(network_.routes()->blackholed(), 1u);
  EXPECT_EQ(network_.faults()->udp_dropped(), 0u);
}

TEST_F(RouteNetworkTest, SubscriptionsBeforeInstallAreBuffered) {
  int calls = 0;
  network_.subscribe_routes(
      [&](const net::Ipv6Prefix&, RouteOp, SimTime) { ++calls; });
  RouteScenario scenario;
  scenario.convergence = 0;
  scenario.withdraw(as_prefix(), sec(5));
  network_.install_routes(std::move(scenario));
  events_.run();
  EXPECT_EQ(calls, 1);
}

TEST_F(RouteNetworkTest, WithoutAPlaneEverythingIsRouted) {
  EXPECT_EQ(network_.routes(), nullptr);
  EXPECT_FALSE(network_.route_withdrawn(addr(kAsNet, 1), sec(1)));
}

}  // namespace
}  // namespace tts::simnet
