#!/usr/bin/env python3
"""Study benchmark: one full core::Study per run of perfbench_study.

    python3 perfbench/run.py --workload collect|study|impaired --seed N \
        --seconds S --trace 0|1

Builds perfbench/ (which compiles ../src) into .bench_build/perfbench, then
runs a closed loop of studies, one fresh process per study, until --seconds
have passed. The study seed is --seed, so the same seed gives the same
simulated inputs and outputs.

--trace 0 reports the end-to-end metrics: per-study medians of wall_s,
setup_s, report_s, events_per_s and rss_peak_mb. Times are the study
process's host CPU time; the study runs on one thread, so this is its wall
time less any time it was descheduled or its vCPU stolen. --trace 1 alternates
untraced studies with traced ones (dispatch timing on every event) and
reports the per-layer metrics; layer self times come from the traced
studies, the tracing overhead from the difference of the two kinds.

Every study is checked (see perfbench_study) and every study of one run
must produce the same digest of the report and the simulated counts. The
last line of stdout is the result object; everything before it is for
people. Spans and the per-layer table go to .bench_build/perfbench-out.
See perfbench/README.md for the metrics, the layer map and the
trajectory.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "perfbench-out")
BINARY = os.path.join(BUILD, "perfbench_study")
WORKLOADS = ("collect", "study", "impaired")
# One study never takes near this long; a hung child counts as failed.
STUDY_TIMEOUT_S = 100

# Dispatch category -> module. Callbacks never nest, so a category's
# dispatch-histogram sum is its self time; the traced loop minus the sum
# over all categories is the event core's own time (simnet.core_self_s).
CATEGORY_LAYER = {
    "other": "simnet",
    "packet": "simnet",
    "fault_window": "simnet",
    "route": "simnet",
    "device_start": "inet",
    "churn": "inet",
    "ntp_poll": "inet",
    "ntp_query": "ntp",
    "pool_monitor": "ntp",
    "scan_pump": "scan",
    "scan_probe": "scan",
    "telescope": "telescope",
    "hitlist_build": "hitlist",
    "heartbeat": "obs",
    "checkpoint": "core",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; exits non-zero on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no program sources at src/ next to perfbench/")
        sys.exit(2)
    os.makedirs(BUILD, exist_ok=True)
    build_log = os.path.join(BUILD, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    with open(build_log, "a") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log(f"perfbench: build failed, see {build_log}")
                sys.exit(1)


def run_study(workload, seed, traced):
    """One study in a fresh process: its result object, or None on failure."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=STUDY_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} seed {seed} timed out")
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if proc.returncode != 0 or result is None:
        log(f"perfbench: {workload} seed {seed} exited {proc.returncode}: "
            f"{proc.stderr.strip()} "
            f"{result['failed_checks'] if result else ''}")
        return None
    return result


def run_loop(workload, seed, seconds, kinds):
    """Closed loop: the next study starts when the previous one ends.

    `kinds` is the cycle of traced flags to run. Stops starting studies
    after `seconds`, once every kind has run at least once. Returns
    (results by kind, attempted, failed)."""
    results = {kind: [] for kind in set(kinds)}
    attempted = failed = 0
    deadline = time.monotonic() + seconds
    i = 0
    while (time.monotonic() < deadline or
           any(not results[k] for k in results) and i < 2 * len(kinds)):
        kind = kinds[i % len(kinds)]
        i += 1
        attempted += 1
        r = run_study(workload, seed, kind)
        if r is None:
            failed += 1
        else:
            results[kind].append(r)
    return results, attempted, failed


def check_same_digest(studies):
    """Studies whose digest or counts differ from the majority: failures."""
    keys = [(s["digest"], json.dumps(s["counts"], sort_keys=True))
            for s in studies]
    if not keys:
        return 0
    majority = max(set(keys), key=keys.count)
    bad = sum(1 for k in keys if k != majority)
    if bad:
        log(f"perfbench: {bad} of {len(keys)} studies diverged from "
            "the majority digest")
    return bad


def median(values):
    return statistics.median(values) if values else 0.0


def ratio(num, den):
    return num / den if den else 0.0


def write_json(name, payload):
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, name)
    with open(path, "w") as f:
        json.dump(payload, f, indent=1)
    return path


def end_to_end(studies):
    def med(key):
        return median([s[key] for s in studies])

    return {
        "wall_s": (med("wall_s"), "s"),
        "setup_s": (med("setup_s"), "s"),
        "report_s": (med("report_s"), "s"),
        "events_per_s": (median([s["counts"]["events"] / s["loop_s"]
                                 for s in studies]), "1/s"),
        "rss_peak_mb": (med("rss_peak_mb"), "MB"),
    }


def layer_table(traced):
    """Per-category rows of the traced studies, times as medians."""
    rows = []
    for i, cat in enumerate(traced[0]["categories"]):
        self_s = median([s["categories"][i]["wall_ns"] / 1e9 for s in traced])
        rows.append({
            "category": cat["name"],
            "layer": CATEGORY_LAYER.get(cat["name"], "unmapped"),
            "executed": cat["executed"],
            "self_s": self_s,
            "ns_per_event": ratio(self_s * 1e9, cat["executed"]),
        })
    return rows


def per_layer(traced, untraced):
    table = layer_table(traced)
    rows = {r["category"]: r for r in table}
    c = traced[0]["counts"]

    def self_s(cat):
        return rows[cat]["self_s"] if cat in rows else 0.0

    def ns(cat):
        return rows[cat]["ns_per_event"] if cat in rows else 0.0

    # Dispatch histograms hold wall time, so the layer accounting uses the
    # loop's wall time; the tracing overhead compares CPU time, like the
    # end-to-end metrics.
    def core_s(s):
        return (s["loop_wall_s"] -
                sum(x["wall_ns"] for x in s["categories"]) / 1e9)

    traced_loop = median([s["loop_wall_s"] for s in traced])
    traced_cpu = median([s["loop_s"] for s in traced])
    untraced_cpu = median([s["loop_s"] for s in untraced])
    core = median([core_s(s) for s in traced])
    executed = sum(r["executed"] for r in rows.values())
    # Shares of the traced loop for the layers a workload may bypass
    # entirely, where a self time would read a structural 0.0 s.
    def share(*cats):
        return ratio(sum(self_s(x) for x in cats), traced_loop)

    m = {
        "simnet.core_self_s": (core, "s"),
        "simnet.core_ns_per_event": (ratio(core * 1e9, executed), "ns"),
        "simnet.events": (c["events"], "count"),
        "simnet.packet_self_s": (self_s("packet"), "s"),
        "simnet.packet_ns": (ns("packet"), "ns"),
        "simnet.udp_sent": (c["udp_sent"], "count"),
        "simnet.udp_delivered_ratio":
            (ratio(c["udp_delivered"], c["udp_sent"]), "ratio"),
        "simnet.tcp_attempts": (c["tcp_attempts"], "count"),
        "simnet.tcp_established_ratio":
            (ratio(c["tcp_established"], c["tcp_attempts"]), "ratio"),
        "simnet.fault_drops": (c["fault_drops"], "count"),
        "simnet.route_blackholed": (c["route_blackholed"], "count"),
        "ntp.monitor_share": (share("pool_monitor"), "ratio"),
        "inet.churn_self_s": (self_s("churn"), "s"),
        "inet.churn_ns": (ns("churn"), "ns"),
        "inet.poll_self_s": (self_s("ntp_poll"), "s"),
        "inet.poll_ns": (ns("ntp_poll"), "ns"),
        "ntp.requests": (c["ntp_requests"], "count"),
        "ntp.distinct": (c["ntp_distinct"], "count"),
        "ntp.new_ratio": (ratio(c["ntp_distinct"], c["ntp_requests"]),
                          "ratio"),
        "ntp.pool_resolves": (c["pool_resolves"], "count"),
        "net.store_bytes_per_address":
            (ratio(c["store_bytes"], c["ntp_distinct"]), "B"),
        "scan.pump_share": (share("scan_pump"), "ratio"),
        "scan.probe_share": (share("scan_probe"), "ratio"),
        "scan.launched": (c["scan_launched"], "count"),
        "scan.completed": (c["scan_completed"], "count"),
        "scan.hit_ratio": (ratio(c["scan_successes"], c["scan_completed"]),
                           "ratio"),
        "scan.pump_wakes_per_grant":
            (ratio(c["scan_pump_wakes"], c["scan_grants"]), "ratio"),
        "scan.retries": (c["scan_retries"], "count"),
        "scan.shed": (c["scan_shed"], "count"),
        "scan.queue_delay_p50_us": (c["scan_queue_delay_p50_us"], "sim_us"),
        "scan.token_wait_p50_us": (c["scan_token_wait_p50_us"], "sim_us"),
        "telescope.share": (share("telescope"), "ratio"),
        "telescope.captures": (c["telescope_captures"], "count"),
        "hitlist.build_self_s": (self_s("hitlist_build"), "s"),
        "hitlist.size": (c["hitlist_size"], "count"),
        "report.build_s": (median([s["build_report_s"] for s in traced]),
                           "s"),
        "report.render_s": (median([s["render_s"] for s in traced]), "s"),
        "report.bytes": (c["report_bytes"], "B"),
        "obs.heartbeat_self_s": (self_s("heartbeat"), "s"),
        "obs.trace_overhead_share":
            (ratio(traced_cpu - untraced_cpu, untraced_cpu), "ratio"),
    }
    return m, table, traced_loop, core


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    seed = args.seed % (1 << 64)

    build()

    # One untimed warm-up study (checked like every other) loads the binary
    # and the page cache; then the timed loop. Trace runs alternate traced
    # and untraced studies, starting with the seed's parity so the order
    # alternates across runs.
    warm = run_study(args.workload, seed, False)
    if args.trace:
        kinds = [True, False] if seed % 2 else [False, True]
    else:
        kinds = [False]
    results, attempted, failed = run_loop(args.workload, seed, args.seconds,
                                          kinds)
    attempted += 1
    failed += warm is None
    untraced = results.get(False, [])
    traced = results.get(True, [])
    everything = untraced + traced + ([warm] if warm else [])
    failed += check_same_digest(everything)
    correct = failed == 0

    tag = f"{args.workload}-seed{seed}-trace{args.trace}"
    spans = [{"study": i, "traced": s["traced"], "spans": s["spans"]}
             for i, s in enumerate(everything)]
    log(f"perfbench: spans -> {write_json(f'spans-{tag}.json', spans)}")

    if everything:
        s = everything[0]
        print(f"workload {args.workload} seed {seed} digest {s['digest']}")
        print("counts " + json.dumps(s["counts"], sort_keys=True))

    if not untraced or (args.trace and not traced):
        log("perfbench: no study completed")
        sys.exit(1)
    if args.trace:
        metrics, table, loop_s, core = per_layer(traced, untraced)
        # Medians of parts need not add up exactly to the median whole; per
        # study, core + categories equals the loop by construction.
        accounted = core + sum(r["self_s"] for r in table)
        path = write_json(f"layers-{tag}.json", {
            "workload": args.workload, "seed": seed,
            "traced_studies": len(traced), "untraced_studies": len(untraced),
            "traced_loop_s": loop_s, "core_self_s": core,
            "core_plus_categories_s": accounted,
            "category_layer": CATEGORY_LAYER, "categories": table,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()},
        })
        log(f"perfbench: per-layer table -> {path}")
        print(f"traced loop {loop_s:.4f} s over {len(traced)} traced "
              f"studies; {len(untraced)} untraced")
        print(f"{'category':<14} {'layer':<10} {'events':>10} "
              f"{'self_s':>9} {'ns/event':>10}")
        for r in table:
            if r["executed"]:
                print(f"{r['category']:<14} {r['layer']:<10} "
                      f"{r['executed']:>10} {r['self_s']:>9.4f} "
                      f"{r['ns_per_event']:>10.1f}")
        print(f"{'(core)':<14} {'simnet':<10} {'':>10} {core:>9.4f}")
        print(f"core + categories {accounted:.4f} s of a {loop_s:.4f} s "
              "traced loop")
    else:
        metrics = end_to_end(untraced)
        for name, (value, unit) in metrics.items():
            print(f"{name:<14} {value:.6g} {unit} (median of {len(untraced)})")
        print(f"{'failed_share':<14} {failed / attempted:.6g} ratio "
              f"({failed} of {attempted} studies)")

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
