// One study per process: the unit the benchmark times.
//
//   perfbench_study --workload collect|study|impaired --seed N [--traced]
//
// Runs one core::Study on the single-queue executor, timing only its own
// calls into the public API (Study construction, Study::run, the on_built
// hook, build_report, render_markdown), checks the simulated outputs, and
// prints one JSON object on stdout: the spans it recorded, the
// per-category dispatch table, deterministic counts read from the registry
// snapshot and the engines' accessors, the report digest and the results
// of every correctness check. Peak RSS is per study because every study
// runs in a fresh process. perfbench/run.py turns these objects into the
// benchmark's metrics.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <fstream>
#include <ctime>
#include <string>
#include <string_view>
#include <vector>

#include "core/report.hpp"
#include "core/study.hpp"
#include "inet/as_registry.hpp"
#include "simnet/fault.hpp"
#include "simnet/route.hpp"
#include "util/rng.hpp"

namespace {

using namespace tts;

/// A point in time on two clocks: steady wall time, and the CPU time this
/// process has used. The study runs on one thread, so between two stamps
/// the CPU clock advances like the wall clock, except while the process is
/// descheduled or its vCPU is stolen by the hypervisor.
struct Stamp {
  std::int64_t wall_ns;
  std::int64_t cpu_ns;
};

Stamp now() {
  timespec cpu{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &cpu);
  return {std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now().time_since_epoch())
              .count(),
          std::int64_t{cpu.tv_sec} * 1'000'000'000 + cpu.tv_nsec};
}

/// Spans around the benchmark's own calls into the program, kept in memory
/// and printed with the result. `parent` indexes the span that contains it
/// (-1 for the root).
struct Span {
  const char* name;
  int parent;
  Stamp start;
  Stamp end;
};

class SpanLog {
 public:
  int open(const char* name, int parent, Stamp at) {
    spans_.push_back({name, parent, at, at});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id, Stamp at) { spans_[id].end = at; }
  const std::vector<Span>& spans() const { return spans_; }
  /// Host CPU seconds the span took.
  double cpu_s(int id) const {
    return static_cast<double>(spans_[id].end.cpu_ns -
                               spans_[id].start.cpu_ns) /
           1e9;
  }
  /// Wall seconds the span took.
  double wall_s(int id) const {
    return static_cast<double>(spans_[id].end.wall_ns -
                               spans_[id].start.wall_ns) /
           1e9;
  }

 private:
  std::vector<Span> spans_;
};

/// Builds and renders of the report per study; report_s is their median.
constexpr int kReportRepeats = 3;

// ---- workloads ----------------------------------------------------------
//
// Sizes are chosen so one study takes about a second of host time on one
// core: enough samples per run for a steady median, and each study large
// enough that its set-up, loop and report phases are each well above timer
// resolution.

/// NTP sourcing only: population, pool, device runtime, UDP transport and
/// the collector. Scans, hitlist sweep, telescope and actors are off, so
/// the scan layer does no work.
core::StudyConfig collect_config() {
  auto config = core::make_study_config(core::StudyScale::kSmall);
  config.population.device_scale = 0.35;
  config.runtime.duration = simnet::days(14);
  config.hitlist_scan_start = simnet::days(12);
  config.drain = simnet::days(1);
  config.enable_ntp_scans = false;
  config.enable_hitlist_scan = false;
  config.enable_telescope = false;
  config.enable_actors = false;
  return config;
}

/// The paper's whole pristine pipeline: real-time NTP-fed scans, the
/// hitlist sweep sharing one probe budget, the telescope and both actors.
core::StudyConfig study_config() {
  auto config = core::make_study_config(core::StudyScale::kSmall);
  config.population.device_scale = 0.2;
  config.runtime.duration = simnet::days(7);
  config.hitlist_scan_start = simnet::days(4);
  config.hitlist.aliased_samples = 3000;
  config.scan_pps = 1000;
  config.drain = simnet::days(1);
  return config;
}

// Impairment windows of the `impaired` workload, in sim time.
constexpr simnet::SimTime kLossFrom = simnet::hours(30);
constexpr simnet::SimTime kBlackholeFrom = simnet::hours(36);
constexpr simnet::SimTime kBlackholeUntil = simnet::hours(46);
constexpr simnet::SimTime kOutageFrom = simnet::hours(40);
constexpr simnet::SimTime kOutageUntil = simnet::hours(48);
constexpr simnet::SimTime kWithdrawAt = simnet::hours(60);
constexpr simnet::SimTime kAnnounceAt = simnet::hours(66);

/// Scripted like the chaos and route harnesses: steady loss plus a
/// blackhole window on the eyeball prefixes, an outage of one capture
/// server, and one whole eyeball AS withdrawn and re-announced. The
/// eyeball prefixes and server addresses exist only once the study has
/// built its Internet, hence on_built.
void install_impairments(core::Study& study) {
  auto eyeballs =
      study.registry().by_category(inet::AsCategory::kCableDslIsp);
  auto ours = study.pool().our_servers();
  if (eyeballs.empty() || ours.empty())
    throw std::runtime_error("impaired: no eyeball AS or capture server");

  simnet::FaultScenario faults;
  for (const inet::AsInfo* as : eyeballs) {
    for (const net::Ipv6Prefix& prefix : as->prefixes) {
      faults.rules.push_back({.prefix = prefix,
                              .kind = simnet::FaultKind::kLoss,
                              .from = kLossFrom,
                              .probability = 0.2});
      faults.rules.push_back({.prefix = prefix,
                              .kind = simnet::FaultKind::kBlackhole,
                              .from = kBlackholeFrom,
                              .until = kBlackholeUntil});
    }
  }
  faults.outages.push_back({.host = ours.front().address,
                            .from = kOutageFrom,
                            .until = kOutageUntil});
  study.network().install_faults(std::move(faults), &study.metrics(),
                                 &study.flight());

  simnet::RouteScenario routes;
  routes.convergence = simnet::minutes(2);
  for (const net::Ipv6Prefix& prefix : eyeballs.front()->prefixes) {
    routes.withdraw(prefix, kWithdrawAt);
    routes.announce(prefix, kAnnounceAt);
  }
  study.network().install_routes(std::move(routes), &study.metrics(),
                                 &study.flight());
}

/// The same stack as `study`, with its layers used differently: fault and
/// route verdicts on every packet, timeouts, retries, breaker sheds and the
/// pool monitor.
core::StudyConfig impaired_config() {
  auto config = study_config();
  config.scan_retry.max_retries = 2;
  config.scan_retry.base_backoff = simnet::sec(30);
  config.scan_breaker.enabled = true;
  config.scan_breaker.prefix_len = 40;
  config.scan_breaker.open_after = 6;
  config.scan_breaker.open_for = simnet::minutes(10);
  config.scan_breaker.as_open_after = 2;
  config.scan_breaker.as_prefix_len = 32;
  config.enable_pool_monitor = true;
  config.pool_monitor.check_interval = simnet::minutes(30);
  config.pool_monitor.min_score = -20;
  config.on_built = install_impairments;
  return config;
}

// ---- output -------------------------------------------------------------

/// Flat JSON object writer: keys are fixed identifiers, values numbers,
/// booleans, plain strings or pre-rendered JSON.
class JsonObject {
 public:
  JsonObject& num(std::string_view key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& num(std::string_view key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, buf);
  }
  JsonObject& boolean(std::string_view key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonObject& str(std::string_view key, std::string_view v) {
    std::string quoted = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += c;
    }
    return raw(key, quoted + "\"");
  }
  JsonObject& raw(std::string_view key, std::string_view json) {
    out_ += out_.empty() ? "{" : ",";
    out_ += "\"";
    out_ += key;
    out_ += "\":";
    out_ += json;
    return *this;
  }
  std::string done() const { return out_.empty() ? "{}" : out_ + "}"; }

 private:
  std::string out_;
};

/// VmHWM of this process in MB (0 when /proc is unavailable).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;
  }
  return 0;
}

std::uint64_t counter(const obs::RegistrySnapshot& snap,
                      std::string_view full_name) {
  const obs::SnapshotValue* v = snap.find(full_name);
  return v ? v->count : 0;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

struct Checks {
  std::vector<std::string> failed;
  void expect(bool ok, std::string what) {
    if (!ok) failed.push_back(std::move(what));
  }
};

int run(std::string_view workload, std::uint64_t seed, bool traced) {
  core::StudyConfig config;
  if (workload == "collect")
    config = collect_config();
  else if (workload == "study")
    config = study_config();
  else if (workload == "impaired")
    config = impaired_config();
  else
    throw std::invalid_argument("unknown workload");
  config.seed = seed;
  config.shards.shards = 0;
  config.obs.enabled = traced;

  SpanLog log;
  Stamp built{};
  std::uint64_t events_at_built = 0;
  auto scenario = std::move(config.on_built);
  config.on_built = [&](core::Study& s) {
    if (scenario) scenario(s);
    // Time every dispatch, so rare heavy callbacks are attributed too.
    if (traced) s.network().events().set_dispatch_sampling(1);
    events_at_built = s.events_executed();
    built = now();
  };

  int root = log.open("study", -1, now());
  int construct = log.open("construct", root, now());
  core::Study study(config);
  log.close(construct, now());
  int run_span = log.open("run", root, now());
  study.run();
  Stamp ran = now();
  log.close(run_span, ran);
  int setup =
      log.open("run/setup", run_span, log.spans()[run_span].start);
  log.close(setup, built);
  int loop = log.open("run/event_loop", run_span, built);
  log.close(loop, ran);
  // The report is a pure function of the finished study, so it is built
  // and rendered several times and timed by the median; the first build
  // closes the study span (wall_s), the rest are root spans of their own.
  std::vector<double> report_s, build_s, render_s;
  std::string markdown;
  core::StudyReport report;
  for (int i = 0; i < kReportRepeats; ++i) {
    int report_span = log.open("report", i == 0 ? root : -1, now());
    int build = log.open("report/build_report", report_span, now());
    report = core::build_report(study);
    log.close(build, now());
    int render = log.open("report/render_markdown", report_span, now());
    std::string rendered = core::render_markdown(report);
    Stamp end = now();
    log.close(render, end);
    log.close(report_span, end);
    if (i == 0) {
      log.close(root, end);
      markdown = std::move(rendered);
    } else if (rendered != markdown) {
      throw std::runtime_error("report changed between two builds");
    }
    report_s.push_back(log.cpu_s(report_span));
    build_s.push_back(log.cpu_s(build));
    render_s.push_back(log.cpu_s(render));
  }

  const simnet::Network& net = study.network();
  const simnet::EventQueue& events = net.events();
  obs::RegistrySnapshot snap = study.metrics().snapshot(events.now());

  // Per-category dispatch table: exact counts from the registry, host
  // self time from the category's dispatch histogram (traced runs only;
  // callbacks never nest, so these are self times).
  std::string categories = "[";
  std::uint64_t heartbeat_events = 0;
  for (simnet::EventQueue::CategoryId id = 0; id < events.category_count();
       ++id) {
    const std::string& name = events.category_name(id);
    std::uint64_t executed =
        counter(snap, "simnet_events_executed{category=" + name + "}");
    if (name == "heartbeat") heartbeat_events = executed;
    const obs::Histogram& wall = events.category_wall_ns(id);
    if (id > 0) categories += ",";
    categories += JsonObject()
                      .str("name", name)
                      .num("executed", executed)
                      .num("timed", wall.count())
                      .num("wall_ns", static_cast<std::uint64_t>(wall.sum()))
                      .done();
  }
  categories += "]";

  std::string spans = "[";
  const Stamp origin = log.spans()[0].start;
  for (std::size_t i = 0; i < log.spans().size(); ++i) {
    const Span& s = log.spans()[i];
    if (i > 0) spans += ",";
    spans += JsonObject()
                 .str("name", s.name)
                 .raw("parent", std::to_string(s.parent))
                 .num("start_ns", static_cast<std::uint64_t>(
                                      s.start.wall_ns - origin.wall_ns))
                 .num("end_ns", static_cast<std::uint64_t>(s.end.wall_ns -
                                                           origin.wall_ns))
                 .num("cpu_ns", static_cast<std::uint64_t>(s.end.cpu_ns -
                                                           s.start.cpu_ns))
                 .done();
  }
  spans += "]";

  // ---- deterministic counts ----
  JsonObject counts;
  std::uint64_t sim_events = study.events_executed() - heartbeat_events;
  counts.num("events", sim_events)
      .num("events_before_built", events_at_built)
      .num("udp_sent", net.udp_sent())
      .num("udp_delivered", net.udp_delivered())
      .num("tcp_attempts", net.tcp_attempts())
      .num("tcp_established", net.tcp_established())
      .num("ntp_requests", counter(snap, "ntp_requests"))
      .num("ntp_distinct", counter(snap, "ntp_distinct_addresses"))
      .num("pool_resolves", counter(snap, "pool_resolve_total"))
      .num("store_bytes", study.collector().addresses().memory_bytes())
      .num("hitlist_size", study.hitlist().full.size())
      .num("telescope_captures", counter(snap, "telescope_captures"))
      .num("pool_demotions", study.pool().demotions())
      .num("pool_promotions", study.pool().promotions());
  const simnet::FaultPlane* faults = net.faults();
  const simnet::RoutePlane* routes = net.routes();
  std::uint64_t fault_drops =
      faults ? faults->udp_dropped() + faults->udp_host_down() +
                   faults->tcp_blackholed() + faults->tcp_rst()
             : 0;
  std::uint64_t route_blackholed = routes ? routes->blackholed() : 0;
  counts.num("fault_drops", fault_drops)
      .num("route_blackholed", route_blackholed)
      .num("route_withdrawals", routes ? routes->withdrawals() : 0);

  Checks checks;
  std::uint64_t launched = 0, completed = 0, retries = 0, shed = 0,
                wakes = 0, grants = 0, successes = 0;
  std::int64_t queue_delay_p50 = 0, token_wait_p50 = 0;
  for (const scan::ScanEngine* engine :
       {study.ntp_engine(), study.hitlist_engine()}) {
    if (!engine) continue;
    scan::Dataset ds = engine->config().dataset;
    std::string label = std::string(scan::label(ds));
    launched += counter(snap, "scan_probes_launched{dataset=" + label + "}");
    completed +=
        counter(snap, "scan_probes_completed{dataset=" + label + "}");
    retries += counter(snap, "scan_retries{dataset=" + label + "}");
    wakes += counter(snap, "scan_pump_wakes{dataset=" + label + "}");
    shed += engine->breaker_shed();
    grants += engine->budget().grants(engine->budget_client());
    for (std::size_t p = 0; p < scan::kProtocolCount; ++p)
      successes += study.results().count(ds, static_cast<scan::Protocol>(p),
                                         scan::Outcome::kSuccess);
    // Per-engine record conservation: every completion records its
    // outcome or re-stages a retry, every breaker shed synthesizes one
    // timeout record; route deferrals are re-queued or still parked.
    checks.expect(study.results().total(ds) ==
                      engine->probes_completed() + engine->breaker_shed() -
                          engine->retries_staged(),
                  label + ": records != completed + shed - retries");
    checks.expect(engine->probes_completed() <= engine->probes_launched(),
                  label + ": completed > launched");
    checks.expect(engine->route_deferred() ==
                      engine->route_requeued() + engine->quarantine_depth(),
                  label + ": route deferrals not conserved");
    if (ds == scan::Dataset::kNtp) {
      queue_delay_p50 = engine->queue_delay().percentile(0.5);
      token_wait_p50 = engine->token_wait().percentile(0.5);
    }
  }
  counts.num("scan_launched", launched)
      .num("scan_completed", completed)
      .num("scan_successes", successes)
      .num("scan_retries", retries)
      .num("scan_shed", shed)
      .num("scan_pump_wakes", wakes)
      .num("scan_grants", grants)
      .num("scan_queue_delay_p50_us",
           static_cast<std::uint64_t>(queue_delay_p50))
      .num("scan_token_wait_p50_us",
           static_cast<std::uint64_t>(token_wait_p50))
      .num("report_bytes", markdown.size());

  checks.expect(events_at_built == 0, "events ran before on_built");
  checks.expect(report.collected_addresses <= report.ntp_requests,
                "more distinct addresses than NTP requests");
  checks.expect(report.collected_addresses > 0, "no addresses collected");
  std::uint64_t scan_events =
      counter(snap, "simnet_events_executed{category=scan_pump}") +
      counter(snap, "simnet_events_executed{category=scan_probe}");
  if (workload == "collect") {
    checks.expect(scan_events == 0 && launched == 0,
                  "collect ran scan events");
  } else {
    checks.expect(launched > 0, "no probes launched");
    // Table 2: a scanner that finds zero hosts, like SSH = 0, is the known
    // failure class. In `study` every protocol row of each dataset must
    // find a responsive address, except the NTP AMQP row: it expects about
    // one host at this scale and reads 0 for about a third of the seeds
    // without any fault. Under `impaired` the loss thins the rows further
    // (hitlist CoAP also reads 0 for some seeds), so there each protocol
    // must find a host in at least one of the two datasets.
    const auto& ntp_rows = report.ntp_scans.rows;
    const auto& hitlist_rows = report.hitlist_scans.rows;
    checks.expect(!ntp_rows.empty() && ntp_rows.size() == hitlist_rows.size(),
                  "Table 2 rows missing");
    for (std::size_t i = 0; i < ntp_rows.size() && i < hitlist_rows.size();
         ++i) {
      const std::string& protocol = ntp_rows[i].protocol;
      std::uint64_t ntp = ntp_rows[i].addresses;
      std::uint64_t hitlist = hitlist_rows[i].addresses;
      if (workload == "study") {
        checks.expect(ntp > 0 || protocol == "AMQP",
                      "NTP " + protocol + " found no host");
        checks.expect(hitlist > 0, "hitlist " + protocol + " found no host");
      } else {
        checks.expect(ntp + hitlist > 0, protocol + " found no host");
      }
    }
  }
  if (workload == "impaired") {
    checks.expect(faults && faults->udp_dropped() > 0 &&
                      faults->tcp_blackholed() > 0 &&
                      faults->udp_host_down() > 0,
                  "impairments did not bite");
    checks.expect(routes && routes->withdrawals() > 0 && route_blackholed > 0,
                  "route withdrawal did not bite");
    checks.expect(retries > 0 && shed > 0, "no retries or breaker sheds");
    checks.expect(study.pool().demotions() > 0 &&
                      study.pool().promotions() > 0,
                  "pool monitor never demoted and re-promoted");
  } else {
    checks.expect(fault_drops == 0 && route_blackholed == 0,
                  "fault or route drops in a pristine workload");
  }

  // Digest of everything simulated: report bytes plus the counts above.
  // Equal across runs of one seed, traced or not, and across commits
  // that change only host-side code.
  std::string counts_json = counts.done();
  char digest_hex[20];
  std::snprintf(digest_hex, sizeof digest_hex, "%016llx",
                static_cast<unsigned long long>(
                    util::fnv1a(markdown + counts_json)));

  std::string failed = "[";
  for (std::size_t i = 0; i < checks.failed.size(); ++i) {
    if (i > 0) failed += ",";
    failed += JsonObject().str("check", checks.failed[i]).done();
  }
  failed += "]";

  JsonObject out;
  out.str("workload", workload)
      .num("seed", seed)
      .boolean("traced", traced)
      .num("setup_s", log.cpu_s(construct) + log.cpu_s(setup))
      .num("loop_s", log.cpu_s(loop))
      .num("loop_wall_s", log.wall_s(loop))
      .num("build_report_s", median(build_s))
      .num("render_s", median(render_s))
      .num("report_s", median(report_s))
      .num("wall_s", log.cpu_s(root))
      .num("rss_peak_mb", peak_rss_mb())
      .str("digest", digest_hex)
      .raw("counts", counts_json)
      .raw("categories", categories)
      .raw("spans", spans)
      .raw("failed_checks", failed);
  std::printf("%s\n", out.done().c_str());
  std::fflush(stdout);
  return checks.failed.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  bool have_seed = false;
  bool traced = false;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--workload" && i + 1 < argc) {
      workload = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = std::stoull(argv[++i]);
      have_seed = true;
    } else if (arg == "--traced") {
      traced = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }
  if (workload.empty() || !have_seed) {
    std::fprintf(stderr,
                 "usage: perfbench_study --workload collect|study|impaired "
                 "--seed N [--traced]\n");
    return 2;
  }
  try {
    return run(workload, seed, traced);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_study: %s\n", e.what());
    return 3;
  }
}
