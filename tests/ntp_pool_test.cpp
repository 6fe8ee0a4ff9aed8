#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <vector>

#include "ntp/pool.hpp"

namespace tts::ntp {
namespace {

net::Ipv6Address addr(std::uint64_t lo) {
  return net::Ipv6Address::from_halves(0x240000ff00000000ULL, lo);
}

TEST(Pool, ResolvesFromCountryZone) {
  NtpPool pool;
  pool.add_server({addr(1), "DE", 1000, 20, true, 0});
  pool.add_server({addr(2), "US", 1000, 20, false, 0});
  util::Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    auto picked = pool.resolve("DE", rng);
    ASSERT_TRUE(picked);
    EXPECT_EQ(*picked, addr(1));
  }
}

TEST(Pool, GlobalFallbackForEmptyZone) {
  NtpPool pool;
  pool.add_server({addr(1), "DE", 1000, 20, false, 0});
  util::Rng rng(2);
  auto picked = pool.resolve("JP", rng);  // no JP/asia zone -> global
  ASSERT_TRUE(picked);
  EXPECT_EQ(*picked, addr(1));
  EXPECT_FALSE(pool.zone_populated("JP"));
  EXPECT_TRUE(pool.zone_populated("DE"));
}

TEST(Pool, ContinentFallbackBeforeGlobal) {
  NtpPool pool;
  pool.add_server({addr(1), "DE", 1000, 20, false, 0});  // europe
  pool.add_server({addr(2), "JP", 1000, 20, false, 0});  // asia
  util::Rng rng(7);
  // India has no zone; Japan shares the asia continent zone.
  for (int i = 0; i < 50; ++i) {
    auto picked = pool.resolve("IN", rng);
    ASSERT_TRUE(picked);
    EXPECT_EQ(*picked, addr(2));
  }
  // France falls back to the European server.
  for (int i = 0; i < 50; ++i) EXPECT_EQ(*pool.resolve("FR", rng), addr(1));
}

TEST(Pool, ContinentMapping) {
  EXPECT_EQ(continent_of("DE"), "europe");
  EXPECT_EQ(continent_of("IN"), "asia");
  EXPECT_EQ(continent_of("US"), "north-america");
  EXPECT_EQ(continent_of("BR"), "south-america");
  EXPECT_EQ(continent_of("ZA"), "africa");
  EXPECT_EQ(continent_of("AU"), "oceania");
  EXPECT_EQ(continent_of("??"), "global");
}

TEST(Pool, EmptyPoolResolvesToNothing) {
  NtpPool pool;
  util::Rng rng(3);
  EXPECT_FALSE(pool.resolve("DE", rng));
}

TEST(Pool, NetspeedWeightsSelection) {
  NtpPool pool;
  pool.add_server({addr(1), "DE", 3000, 20, true, 0});
  pool.add_server({addr(2), "DE", 1000, 20, false, 0});
  util::Rng rng(4);
  int ours = 0;
  const int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i)
    if (*pool.resolve("DE", rng) == addr(1)) ++ours;
  EXPECT_NEAR(ours / static_cast<double>(kTrials), 0.75, 0.02);
  EXPECT_NEAR(pool.our_zone_share("DE"), 0.75, 1e-9);
}

TEST(Pool, MonitorScoreGatesRotation) {
  NtpPool pool;
  pool.add_server({addr(1), "DE", 1000, 20, false, 0});
  pool.add_server({addr(2), "DE", 1000, 5, false, 0});  // below threshold
  util::Rng rng(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(*pool.resolve("DE", rng), addr(1));

  pool.set_monitor_score(addr(2), 20);
  bool seen2 = false;
  for (int i = 0; i < 200; ++i)
    if (*pool.resolve("DE", rng) == addr(2)) seen2 = true;
  EXPECT_TRUE(seen2);
}

TEST(Pool, WithdrawRemovesFromRotation) {
  NtpPool pool;
  pool.add_server({addr(1), "DE", 1000, 20, false, 0});
  pool.withdraw(addr(1));
  util::Rng rng(6);
  EXPECT_FALSE(pool.resolve("DE", rng));
}

TEST(Pool, SetNetspeedChangesShare) {
  NtpPool pool;
  pool.add_server({addr(1), "DE", 100, 20, true, 0});
  pool.add_server({addr(2), "DE", 900, 20, false, 0});
  EXPECT_NEAR(pool.our_zone_share("DE"), 0.10, 1e-9);
  pool.set_netspeed(addr(1), 900);
  EXPECT_NEAR(pool.our_zone_share("DE"), 0.50, 1e-9);
}

TEST(Pool, OurServersSortedById) {
  NtpPool pool;
  pool.add_server({addr(3), "JP", 1, 20, true, 2});
  pool.add_server({addr(1), "DE", 1, 20, true, 0});
  pool.add_server({addr(9), "US", 1, 20, false, 0});
  pool.add_server({addr(2), "GB", 1, 20, true, 1});
  auto ours = pool.our_servers();
  ASSERT_EQ(ours.size(), 3u);
  EXPECT_EQ(ours[0].country, "DE");
  EXPECT_EQ(ours[1].country, "GB");
  EXPECT_EQ(ours[2].country, "JP");
}

TEST(Pool, DeploymentCountriesMatchPaper) {
  const auto& countries = deployment_countries();
  EXPECT_EQ(countries.size(), 11u);  // Section 3.1's 11 servers
  EXPECT_NE(std::find(countries.begin(), countries.end(), "IN"),
            countries.end());
  EXPECT_NE(std::find(countries.begin(), countries.end(), "NL"),
            countries.end());
}

/// The country-zone pick as resolve() made it before it went
/// allocation-free: the zone's eligible servers in add order
/// (eligible_in_zone), then Rng::pick_weighted over their netspeeds.
std::optional<std::size_t> vector_zone_pick(const NtpPool& pool,
                                            const std::string& country,
                                            util::Rng& rng) {
  std::vector<std::size_t> eligible;
  const auto& servers = pool.servers();
  for (std::size_t i = 0; i < servers.size(); ++i)
    if (servers[i].country == country &&
        servers[i].monitor_score >= NtpPool::kRotationThreshold)
      eligible.push_back(i);
  if (eligible.empty()) return std::nullopt;
  std::vector<double> weights;
  for (std::size_t i : eligible) weights.push_back(servers[i].netspeed);
  return eligible[rng.pick_weighted(weights)];
}

TEST(Pool, ZonePickMatchesEligibleVectorPick) {
  const std::vector<std::string> countries = {"DE", "FR", "JP", "US"};
  const int scores[] = {-100, 5, 9, 10, 15, 20};
  util::Rng gen(2024);
  int compared = 0;
  for (int trial = 0; trial < 300; ++trial) {
    NtpPool pool;
    auto n = 1 + gen.below(12);
    for (std::uint64_t i = 0; i < n; ++i) {
      PoolEntry e;
      e.address = addr(i + 1);
      e.country = countries[gen.below(countries.size())];
      // Mixed magnitudes and fractions stress the summation order.
      e.netspeed = gen.chance(0.5) ? gen.uniform(0.001, 3.0)
                                   : static_cast<double>(gen.below(100000));
      e.monitor_score = scores[gen.below(6)];
      pool.add_server(e);
    }
    const std::string& country = countries[gen.below(countries.size())];
    std::uint64_t seed = gen.next();
    util::Rng with_vectors(seed);
    util::Rng in_place(seed);
    for (int draw = 0; draw < 8; ++draw) {
      std::optional<std::size_t> want;
      try {
        want = vector_zone_pick(pool, country, with_vectors);
      } catch (const std::invalid_argument&) {
        // All eligible netspeed is zero: resolve throws the same error.
        EXPECT_THROW(pool.resolve(country, in_place), std::invalid_argument);
        break;
      }
      if (!want) break;  // empty zone: the fallbacks, unchanged, take over
      auto got = pool.resolve(country, in_place);
      ASSERT_TRUE(got);
      EXPECT_EQ(*got, pool.servers()[*want].address)
          << "trial " << trial << " draw " << draw;
      EXPECT_EQ(in_place.next(), with_vectors.next());
      ++compared;
    }
  }
  EXPECT_GT(compared, 1000);
}

}  // namespace
}  // namespace tts::ntp
