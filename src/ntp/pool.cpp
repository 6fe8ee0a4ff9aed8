#include "ntp/pool.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/format.hpp"

namespace tts::ntp {

NtpPool::~NtpPool() {
  if (registry_) registry_->drop_owner(this);
}

void NtpPool::set_registry(obs::Registry* registry) {
  if (registry_ == registry) return;
  if (registry_) registry_->drop_owner(this);
  registry_ = registry;
  if (!registry_) return;
  registry_->enroll(resolve_total_, "pool_resolve_total", {}, this);
  registry_->enroll(resolve_fallback_, "pool_resolve_fallback", {}, this);
  registry_->enroll(demotions_, "pool_demotions", {}, this);
  registry_->enroll(promotions_, "pool_promotions", {}, this);
  for (std::size_t i = 0; i < servers_.size(); ++i) enroll_server(i);
}

void NtpPool::enroll_server(std::size_t index) {
  if (!registry_) return;
  const PoolEntry& s = servers_[index];
  registry_->enroll(selections_[index], "pool_selections",
                    {{"zone", s.country},
                     {"server", util::cat(index)},
                     {"ours", s.ours ? "1" : "0"}},
                    this);
}

void NtpPool::add_server(PoolEntry entry) {
  zones_[entry.country].push_back(servers_.size());
  servers_.push_back(std::move(entry));
  selections_.emplace_back();
  enroll_server(servers_.size() - 1);
}

void NtpPool::withdraw(const net::Ipv6Address& address) {
  for (auto& s : servers_)
    if (s.address == address) s.monitor_score = -100;
}

void NtpPool::set_netspeed(const net::Ipv6Address& address, double netspeed) {
  for (auto& s : servers_)
    if (s.address == address) s.netspeed = netspeed;
}

void NtpPool::set_monitor_score(const net::Ipv6Address& address, int score) {
  for (auto& s : servers_) {
    if (s.address != address) continue;
    // Count rotation-eligibility flips: this is the pool's demote/promote
    // path (Appendix A.1.1) the chaos harness asserts end to end.
    bool was = s.monitor_score >= kRotationThreshold;
    bool is = score >= kRotationThreshold;
    if (was && !is) demotions_.inc();
    if (!was && is) promotions_.inc();
    s.monitor_score = score;
  }
}

std::vector<std::size_t> NtpPool::eligible_in_zone(
    const std::string& country) const {
  std::vector<std::size_t> out;
  auto it = zones_.find(country);
  if (it == zones_.end()) return out;
  for (std::size_t i : it->second)
    if (servers_[i].monitor_score >= kRotationThreshold) out.push_back(i);
  return out;
}

std::optional<std::size_t> NtpPool::pick_from(
    const std::vector<std::size_t>& zone, util::Rng& rng) const {
  if (zone.empty()) return std::nullopt;
  std::vector<double> weights;
  weights.reserve(zone.size());
  for (std::size_t i : zone) weights.push_back(servers_[i].netspeed);
  std::size_t index = zone[rng.pick_weighted(weights)];
  selections_[index].inc();
  return index;
}

std::optional<std::size_t> NtpPool::pick_in_zone(const std::string& country,
                                                util::Rng& rng) const {
  // pick_from(eligible_in_zone(country)) without building either vector:
  // the same summation order, one uniform() draw and the same
  // subtraction order, so the pick and the RNG stream are identical.
  auto it = zones_.find(country);
  if (it == zones_.end()) return std::nullopt;
  const std::vector<std::size_t>& zone = it->second;
  double total = 0.0;
  bool any = false;
  for (std::size_t i : zone) {
    if (servers_[i].monitor_score < kRotationThreshold) continue;
    total += servers_[i].netspeed;
    any = true;
  }
  if (!any) return std::nullopt;
  if (total <= 0.0) throw std::invalid_argument("pick_weighted: zero mass");
  double x = rng.uniform() * total;
  std::size_t index = 0;
  for (std::size_t i : zone) {
    if (servers_[i].monitor_score < kRotationThreshold) continue;
    index = i;
    x -= servers_[i].netspeed;
    if (x < 0.0) break;
  }
  selections_[index].inc();
  return index;
}

std::optional<net::Ipv6Address> NtpPool::resolve(const std::string& country,
                                                 util::Rng& rng) const {
  resolve_total_.inc();
  if (auto pick = pick_in_zone(country, rng)) return servers_[*pick].address;
  resolve_fallback_.inc();
  // Continent-zone fallback: eligible servers in any country sharing the
  // client's continent.
  std::string_view continent = continent_of(country);
  if (continent != "global") {
    std::vector<std::size_t> regional;
    for (std::size_t i = 0; i < servers_.size(); ++i) {
      if (servers_[i].monitor_score >= kRotationThreshold &&
          continent_of(servers_[i].country) == continent)
        regional.push_back(i);
    }
    if (auto pick = pick_from(regional, rng)) return servers_[*pick].address;
  }
  // Global-zone fallback: every eligible server worldwide.
  std::vector<std::size_t> all;
  for (std::size_t i = 0; i < servers_.size(); ++i)
    if (servers_[i].monitor_score >= kRotationThreshold) all.push_back(i);
  auto pick = pick_from(all, rng);
  if (!pick) return std::nullopt;
  return servers_[*pick].address;
}

double NtpPool::our_zone_share(const std::string& country) const {
  double ours = 0, total = 0;
  for (std::size_t i : eligible_in_zone(country)) {
    total += servers_[i].netspeed;
    if (servers_[i].ours) ours += servers_[i].netspeed;
  }
  return total > 0 ? ours / total : 0.0;
}

std::vector<PoolEntry> NtpPool::our_servers() const {
  std::vector<PoolEntry> out;
  for (const auto& s : servers_)
    if (s.ours) out.push_back(s);
  std::sort(out.begin(), out.end(),
            [](const PoolEntry& a, const PoolEntry& b) { return a.id < b.id; });
  return out;
}

bool NtpPool::zone_populated(const std::string& country) const {
  return !eligible_in_zone(country).empty();
}

const std::vector<std::string>& deployment_countries() {
  static const std::vector<std::string> kCountries = {
      "AU", "BR", "DE", "IN", "JP", "PL", "ZA", "ES", "NL", "GB", "US"};
  return kCountries;
}

std::string_view continent_of(const std::string& country) {
  struct Zone {
    const char* continent;
    const char* codes[18];
  };
  static const Zone kZones[] = {
      {"europe",
       {"DE", "ES", "NL", "GB", "PL", "FR", "IT", "SE", "CH", "AT", "CZ",
        "FI", "PT", "GR", "RO", "HU", "DK", nullptr}},
      {"asia",
       {"IN", "JP", "CN", "ID", "KR", "VN", "TH", "TW", "RU", "TR", nullptr}},
      {"north-america", {"US", "CA", "MX", nullptr}},
      {"south-america", {"BR", "AR", "CL", "CO", nullptr}},
      {"africa", {"ZA", "EG", "NG", nullptr}},
      {"oceania", {"AU", "NZ", nullptr}},
  };
  for (const auto& zone : kZones)
    for (const char* const* code = zone.codes; *code; ++code)
      if (country == *code) return zone.continent;
  return "global";
}

}  // namespace tts::ntp
