#include "simnet/fault.hpp"

#include <array>
#include <span>

#include "obs/flight.hpp"
#include "simnet/event_queue.hpp"

namespace tts::simnet {

namespace {

/// BlockIndex lanes: rules matched by a packet's destination (inbound or
/// both), rules matched by its source (outbound or both), host outages.
enum Lane : std::uint32_t { kDstLane, kSrcLane, kOutageLane, kLanes };

BlockIndex index_scenario(const FaultScenario& scenario) {
  std::vector<BlockIndex::Entry> entries;
  for (std::size_t i = 0; i < scenario.rules.size(); ++i) {
    const FaultRule& rule = scenario.rules[i];
    auto id = static_cast<BlockIndex::Id>(i);
    if (rule.direction != FaultDirection::kOutbound)
      entries.push_back({rule.prefix, kDstLane, id});
    if (rule.direction != FaultDirection::kInbound)
      entries.push_back({rule.prefix, kSrcLane, id});
  }
  for (std::size_t i = 0; i < scenario.outages.size(); ++i)
    entries.push_back({net::Ipv6Prefix(scenario.outages[i].host, 128),
                       kOutageLane, static_cast<BlockIndex::Id>(i)});
  return BlockIndex(kLanes, entries);
}

/// The rules that may match a packet, in declaration order, each once: the
/// dst-scoped ids of the destination's block, the src-scoped ids of the
/// source's block and both wide lists, merged without allocating. (A kBoth
/// rule whose source and destination share a block sits on two of the
/// lists and is returned once.)
class Candidates {
 public:
  Candidates(const BlockIndex& index, std::uint32_t dst_block,
             const net::Ipv6Address& src)
      : lists_{index.ids(dst_block, kDstLane),
               index.ids(index.block_of(src), kSrcLane),
               index.wide(kDstLane), index.wide(kSrcLane)} {}

  /// The next smallest rule id not yet returned; false when none is left.
  bool next(BlockIndex::Id& out) {
    bool any = false;
    for (const auto& list : lists_)
      if (!list.empty() && (!any || list.front() < out)) {
        out = list.front();
        any = true;
      }
    if (!any) return false;
    for (auto& list : lists_)
      if (!list.empty() && list.front() == out) list = list.subspan(1);
    return true;
  }

 private:
  std::array<std::span<const BlockIndex::Id>, 4> lists_;
};

}  // namespace

FaultPlane::FaultPlane(FaultScenario scenario, obs::Registry* registry)
    : scenario_(std::move(scenario)),
      index_(index_scenario(scenario_)),
      registry_(registry) {
  rngs_.push_back(util::Rng(scenario_.seed).stream("faultplane"));
  if (!registry_) return;
  registry_->enroll(udp_dropped_, "fault_udp_dropped", {}, this);
  registry_->enroll(udp_host_down_, "fault_udp_host_down", {}, this);
  registry_->enroll(tcp_blackholed_, "fault_tcp_blackholed", {}, this);
  registry_->enroll(tcp_rst_, "fault_tcp_rst", {}, this);
  registry_->enroll(tcp_stalled_, "fault_tcp_stalled", {}, this);
  registry_->enroll(stall_data_dropped_, "fault_stall_data_dropped", {},
                    this);
  registry_->enroll(delays_injected_, "fault_delays_injected", {}, this);
  registry_->enroll(domain_fallback_, "fault_domain_fallback", {}, this);
}

void FaultPlane::configure_domains(DomainId domains) {
  util::Rng root(scenario_.seed);
  while (rngs_.size() < domains)
    rngs_.push_back(root.stream("faultplane-domain")
                        .stream(static_cast<std::uint64_t>(rngs_.size())));
}

FaultPlane::~FaultPlane() {
  if (registry_) registry_->drop_owner(this);
}

void FaultPlane::set_flight_recorder(obs::FlightRecorder* recorder) {
  flight_ = recorder;
  if (!flight_) return;
  fault_notes_[kNoteUdpDrop] = flight_->note("udp_drop");
  fault_notes_[kNoteUdpHostDown] = flight_->note("udp_host_down");
  fault_notes_[kNoteTcpBlackhole] = flight_->note("tcp_blackhole");
  fault_notes_[kNoteTcpRst] = flight_->note("tcp_rst");
  fault_notes_[kNoteTcpStall] = flight_->note("tcp_stall");
}

void FaultPlane::inject(InjectNote which) {
  if (flight_)
    flight_->record(obs::FlightKind::kFaultInjected, fault_notes_[which]);
}

void FaultPlane::arm_windows(EventQueue& events) {
  if (!flight_ || windows_armed_) return;
  windows_armed_ = true;
  EventQueue::CategoryId cat = events.register_category("fault_window");
  // The lambdas capture the recorder (which must outlive the scheduled
  // events), never the plane: a scenario re-install cannot dangle them.
  obs::FlightRecorder* flight = flight_;
  obs::FlightRecorder::NoteId rule_note = flight->note("rule_window");
  obs::FlightRecorder::NoteId outage_note = flight->note("outage_window");
  auto edge = [&](SimTime from, SimTime until,
                  obs::FlightRecorder::NoteId note, std::int64_t index,
                  std::int64_t scope) {
    if (from == until) return;  // zero-width: never fires, never logged
    events.schedule_on(0, from, cat, [flight, note, index, scope] {
      flight->record(obs::FlightKind::kFaultWindowOpen, note, /*trace=*/0,
                     index, scope);
    });
    if (until == kFaultForever) return;
    events.schedule_on(0, until, cat, [flight, note, index, scope] {
      flight->record(obs::FlightKind::kFaultWindowClose, note, /*trace=*/0,
                     index, scope);
    });
  };
  for (std::size_t i = 0; i < scenario_.rules.size(); ++i)
    edge(scenario_.rules[i].from, scenario_.rules[i].until, rule_note,
         static_cast<std::int64_t>(i),
         static_cast<std::int64_t>(
             scenario_.rules[i].prefix.address().hi64()));
  for (std::size_t i = 0; i < scenario_.outages.size(); ++i)
    edge(scenario_.outages[i].from, scenario_.outages[i].until, outage_note,
         static_cast<std::int64_t>(i),
         static_cast<std::int64_t>(scenario_.outages[i].host.hi64()));
}

bool FaultPlane::host_down(const net::Ipv6Address& host, SimTime now) const {
  return host_down(index_.block_of(host), host, now);
}

bool FaultPlane::host_down(std::uint32_t block, const net::Ipv6Address& host,
                           SimTime now) const {
  for (BlockIndex::Id id : index_.ids(block, kOutageLane)) {
    const HostOutage& outage = scenario_.outages[id];
    if (outage.host == host && outage.active(now)) return true;
  }
  return false;
}

FaultPlane::UdpVerdict FaultPlane::on_udp(const net::Ipv6Address& src,
                                          const net::Ipv6Address& dst,
                                          std::uint16_t dst_port, SimTime now,
                                          DomainId domain) {
  util::Rng& rng = domain_rng(domain);
  UdpVerdict verdict;
  const std::uint32_t dst_block = index_.block_of(dst);
  if (host_down(dst_block, dst, now)) {
    udp_host_down_.inc();
    inject(kNoteUdpHostDown);
    verdict.drop = true;
    return verdict;
  }
  Candidates candidates(index_, dst_block, src);
  for (BlockIndex::Id id = 0; candidates.next(id);) {
    const FaultRule& rule = scenario_.rules[id];
    if (!rule.udp || !rule.active(now) || !rule.matches(src, dst, dst_port))
      continue;
    switch (rule.kind) {
      case FaultKind::kBlackhole:
        udp_dropped_.inc();
        inject(kNoteUdpDrop);
        verdict.drop = true;
        return verdict;
      case FaultKind::kLoss:
        if (rng.chance(rule.probability)) {
          udp_dropped_.inc();
          inject(kNoteUdpDrop);
          verdict.drop = true;
          return verdict;
        }
        break;
      case FaultKind::kDelay:
        verdict.extra_latency += rule.added_latency;
        if (rule.added_jitter > 0)
          verdict.extra_latency += static_cast<SimDuration>(
              rng.below(static_cast<std::uint64_t>(rule.added_jitter)));
        break;
      case FaultKind::kRst:
      case FaultKind::kStall:
        break;  // TCP-only semantics; no effect on datagrams
    }
  }
  if (verdict.extra_latency > 0) delays_injected_.inc();
  return verdict;
}

FaultPlane::TcpVerdict FaultPlane::on_tcp_connect(const net::Ipv6Address& src,
                                                  const net::Ipv6Address& dst,
                                                  std::uint16_t dst_port,
                                                  SimTime now,
                                                  DomainId domain) {
  util::Rng& rng = domain_rng(domain);
  TcpVerdict verdict;
  const std::uint32_t dst_block = index_.block_of(dst);
  if (host_down(dst_block, dst, now)) {
    tcp_blackholed_.inc();
    inject(kNoteTcpBlackhole);
    verdict.action = TcpAction::kBlackhole;
    return verdict;
  }
  Candidates candidates(index_, dst_block, src);
  for (BlockIndex::Id id = 0; candidates.next(id);) {
    const FaultRule& rule = scenario_.rules[id];
    if (!rule.tcp || !rule.active(now) || !rule.matches(src, dst, dst_port))
      continue;
    switch (rule.kind) {
      case FaultKind::kBlackhole:
        tcp_blackholed_.inc();
        inject(kNoteTcpBlackhole);
        verdict.action = TcpAction::kBlackhole;
        return verdict;
      case FaultKind::kLoss:
        if (rng.chance(rule.probability)) {
          tcp_blackholed_.inc();  // a lost SYN looks like a blackhole
          inject(kNoteTcpBlackhole);
          verdict.action = TcpAction::kBlackhole;
          return verdict;
        }
        break;
      case FaultKind::kRst:
        tcp_rst_.inc();
        inject(kNoteTcpRst);
        verdict.action = TcpAction::kRst;
        return verdict;
      case FaultKind::kStall:
        tcp_stalled_.inc();
        inject(kNoteTcpStall);
        verdict.action = TcpAction::kStall;
        return verdict;
      case FaultKind::kDelay:
        verdict.extra_latency += rule.added_latency;
        if (rule.added_jitter > 0)
          verdict.extra_latency += static_cast<SimDuration>(
              rng.below(static_cast<std::uint64_t>(rule.added_jitter)));
        break;
    }
  }
  if (verdict.extra_latency > 0) delays_injected_.inc();
  return verdict;
}

}  // namespace tts::simnet
