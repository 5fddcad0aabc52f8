#!/usr/bin/env python3
"""The dtrank benchmark: one command per named workload.

    python3 perfbench/run.py --workload paper_protocol --seed 1 \
        --seconds 24 --trace 0

Run from the repository root. The first run builds the dtbench runner and the
dtrank_serve daemon from source into $CARGO_TARGET_DIR (default
.bench_build)/perfbench. The run prints every metric by name and unit,
a ``host:`` line, and as its last line one JSON object with the keys
correct, attempted, failed and metrics. ``--trace 0`` reports the
end-to-end metrics (tracing off); ``--trace 1`` reports the per-layer
metrics, including self time per span and per layer and the tracing
overhead. Every workload reports every metric BENCHMARK.json lists. The exit code is 1 when an output is wrong, 2 when the
benchmark could not run.

``--selftest`` builds and runs the self-tests instead.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import analysis  # noqa: E402

ROOT = HERE.parent
RUN_LIMIT_S = 175.0

WORKLOADS = ("paper_protocol", "ragged_protocol", "scale_100k",
             "serve_open_loop")

EXPECTED_DIGESTS = HERE / "expected_digests.json"


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else ROOT / base) / "perfbench"


def build(targets):
    """Configures once, then builds `targets`; False on any failure."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log("perfbench: the dtrank sources are not next to perfbench/")
        return False
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(out), "-j", jobs, "--target", *targets]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def run_dtbench(cmd, deadline):
    """Runs dtbench in its own process group; kills it on timeout."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, start_new_session=True)
    try:
        return proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        # The daemon dtbench started is in the same group; wait for
        # the group to empty.
        for _ in range(100):
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        log("perfbench: dtbench timed out")
        return None


# ---------------------------------------------------------------------
# Metrics of each workload. Each returns {name: (value, unit)}.


def median(values):
    return statistics.median(analysis.finite(values))


def ops_per_s(workload, raw, notes):
    """Operations per second of wall time, one per median operation: a
    protocol run; one application ranked by NN^T and by GA-kNN; or, for
    serve, the median over the daemons of the OK answers per second in
    the closed-loop saturation phase."""
    s, v = raw["samples"], raw["values"]
    if workload.endswith("_protocol"):
        return 1.0 / median(s["protocol_s"])
    if workload == "scale_100k":
        both = [a + b for a, b in zip(s["rank_nnt_ms"], s["rank_gaknn_ms"])]
        return 1e3 / median(both)
    rates = [v["saturate.%d.ok_per_s" % d]
             for d in range(int(v["daemons"]))]
    notes.append("saturation: OK answers/s per daemon " + " ".join(
        "%.0f" % r for r in rates))
    return median(rates)


def cpu_ms_per_op(workload, raw, notes):
    """CPU time of one median operation, the operations ops_per_s
    counts; for serve, the daemon's CPU time per OK answer in the
    saturation phase, median over the daemons."""
    s, v = raw["samples"], raw["values"]
    if workload.endswith("_protocol"):
        notes.append("cpu_ms_per_op: median of %d protocol runs" %
                     len(s["protocol_cpu_s"]))
        return median(s["protocol_cpu_s"]) * 1e3
    if workload == "scale_100k":
        both = [a + b for a, b in zip(s["rank_nnt_cpu_ms"],
                                      s["rank_gaknn_cpu_ms"])]
        notes.append("cpu_ms_per_op: median of %d applications ranked "
                     "by NN^T and GA-kNN" % len(both))
        return median(both)
    notes.append("cpu_ms_per_op: median over %d daemons" % v["daemons"])
    return median(v["saturate.%d.daemon_cpu_ms_per_ok" % d]
                  for d in range(int(v["daemons"])))


def end_to_end(workload, raw, notes):
    m = {"setup_s": (median(raw["samples"]["setup_s"]), "s"),
         "peak_rss_mib": (raw["values"]["peak_rss_mib"], "MiB"),
         "cpu_ms_per_op": (cpu_ms_per_op(workload, raw, notes), "ms"),
         "ops_per_s": (ops_per_s(workload, raw, notes), "1/s")}
    if workload == "serve_open_loop":
        serve_notes(raw, notes)
    return m


def manifest_metrics(kind, computed, notes):
    """The manifest's `kind` metrics, each as computed. Every workload
    reports every one: a per-layer metric of a layer this workload does
    not run reads 0."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out, absent = {}, []
    for entry in spec[kind]:
        name, unit = entry["name"], entry["unit"]
        value, got_unit = computed.get(name, (0.0, unit))
        if got_unit != unit:
            raise ValueError("%s: unit %s, manifest says %s" %
                             (name, got_unit, unit))
        if name not in computed:
            if kind == "end_to_end":
                raise ValueError("%s was not measured" % name)
            absent.append(name)
        out[name] = (value, unit)
    listed = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    unlisted = sorted(set(computed) - listed)
    if unlisted:
        notes.append("not in BENCHMARK.json: " + ", ".join(unlisted))
    if absent:
        notes.append("%d per-layer metrics of layers this workload does "
                     "not run read 0" % len(absent))
    return out


def fixed_steps(raw, step):
    """Keys ("step.low.0." ...) of one fixed window on every daemon."""
    return ["step.%s.%d." % (step, d)
            for d in range(int(raw["values"]["daemons"]))]


def serve_p50(raw, step):
    """Median over the daemons of each one's p50 in the window."""
    return statistics.median(
        analysis.nearest_rank(raw["samples"][key + "latency_ms"], 50)
        for key in fixed_steps(raw, step))


def pooled(raw, step, name):
    return [x for key in fixed_steps(raw, step)
            for x in raw["samples"][key + name]]


def serve_notes(raw, notes):
    s, v = raw["samples"], raw["values"]
    for step in ("low", "high"):
        keys = fixed_steps(raw, step)
        notes.append("%s: %g req/s, %d OK of %d, p50 per daemon %s" % (
            step, v[keys[0] + "rate"], sum(v[k + "ok"] for k in keys),
            len(pooled(raw, step, "latency_ms")), " ".join(
                "%.4f" % analysis.nearest_rank(s[k + "latency_ms"], 50)
                for k in keys)))
    for k in range(int(v["ladder.steps"])):
        key = "step.ladder%d." % k
        notes.append("ladder %8.0f req/s: p99 %.3f ms, %s" % (
            v[key + "rate"],
            analysis.nearest_rank(s[key + "latency_ms"], 99) or -1,
            raw["strings"][key + "verdict"]))


def protocol_layers(raw, events):
    s, v, strings = raw["samples"], raw["values"], raw["strings"]
    runs = len(s["traced.protocol_s"])
    threads = v["threads"]
    # The counters' growth over the timed part, per protocol run.
    delta = analysis.scrape_delta(
        analysis.parse_prometheus(strings["scrape.after"]),
        analysis.parse_prometheus(strings["scrape.before"]))
    all_runs = runs + len(s["protocol_s"])
    count = lambda name: delta.get(  # noqa: E731
        ("dtrank_" + name, ""), 0.0) / all_runs
    spans = {}
    for e in events:
        spans.setdefault(e["name"], []).append(e["dur"] / 1e6)
    per_run = lambda name: sum(spans.get(name, [])) / runs  # noqa: E731
    family_cv = median(spans["family_cv_run"])
    busy = per_run("evaluate_split")
    hits, evals = count("ga_memo_hits_total"), count("ga_evaluations_total")
    mlp_fit = per_run("mlp_fit")
    return {
        "protocol_s": (median(s["protocol_s"]), "s"),
        "experiments.family_cv_s": (family_cv, "s"),
        "experiments.split_busy_s": (busy, "s"),
        "experiments.split_tasks": (count("split_tasks_total"), "count"),
        "experiments.pool_utilization": (busy / (threads * family_cv),
                                         "ratio"),
        "ml.mlp_fit_s": (mlp_fit, "s"),
        "ml.mlp_fits": (count("mlp_fits_total"), "count"),
        "ml.mlp_epochs": (count("mlp_epochs_total"), "count"),
        "ml.mlp_us_per_epoch": (mlp_fit / count("mlp_epochs_total") * 1e6,
                                "us"),
        "ml.mlp_retries": (count("mlp_retries_total"), "count"),
        "ml.ga_generation_s": (per_run("ga_generation"), "s"),
        "ml.ga_evaluations": (evals, "count"),
        "ml.ga_memo_hit_ratio": (hits / (hits + evals) if hits + evals
                                 else 0.0, "ratio"),
        "baseline.gaknn_split_model_s": (per_run("gaknn_split_model"), "s"),
        "util.pool_tasks": (count("thread_pool_tasks_total"), "count"),
        "util.pool_task_s": (count("thread_pool_task_seconds_sum"), "s"),
        "trace.overhead_s.protocol_s": (
            median(s["traced.protocol_s"]) - median(s["protocol_s"]), "s"),
    }, runs


def scale_layers(raw, notes):
    s, v = raw["samples"], raw["values"]
    p50 = lambda name: analysis.nearest_rank(s[name], 50)  # noqa: E731
    m = {
        "core.make_problem_ms.p50": (p50("core.make_problem_ms"), "ms"),
        "core.nnt_scan_ms.p50": (p50("core.nnt_scan_ms"), "ms"),
        "core.ranking_ms.p50": (p50("core.ranking_ms"), "ms"),
        # Computed, not measured: target-block bytes / scan time.
        "core.nnt_scan_gb_per_s": (v["core.target_block_bytes"] / 1e9 /
                                   (p50("core.nnt_scan_ms") / 1e3), "GB/s"),
        "baseline.gaknn_predict_ms.p50": (p50("baseline.gaknn_predict_ms"),
                                          "ms"),
        "dataset.generate_s": (median(s["dataset.generate_s"]), "s"),
        "dataset.columnar_save_s": (median(s["dataset.columnar_save_s"]),
                                    "s"),
        "dataset.columnar_load_s": (median(s["dataset.columnar_load_s"]),
                                    "s"),
        "dataset.file_mib": (v["dataset.file_mib"], "MiB"),
    }
    for name in ("rank_nnt_ms", "rank_gaknn_ms"):
        m[name + ".p50"] = (p50(name), "ms")
        value, p, n = analysis.tail(s[name])
        m[name + ".tail"] = (value, "ms")
        notes.append("%s.tail: p%g of %d rankings" % (name, p, n))
        m["trace.overhead_ms.%s.p50" % name] = (
            analysis.nearest_rank(s["traced." + name], 50) -
            analysis.nearest_rank(s[name], 50), "ms")
    rounds = len(s["traced.rank_nnt_ms"]) / 29
    return m, rounds


def serve_layers(raw):
    v, strings = raw["values"], raw["strings"]
    scrape = lambda point, d: analysis.parse_prometheus(  # noqa: E731
        strings["scrape.%s.%d" % (point, d)])
    daemons = range(int(v["daemons"]))
    # Counter growth summed over the daemons: over the high windows,
    # and over both fixed windows.
    high = analysis.scrape_sum(analysis.scrape_delta(
        scrape("high", d), scrape("low", d)) for d in daemons)
    fixed = analysis.scrape_sum(analysis.scrape_delta(
        scrape("high", d), scrape("setup", d)) for d in daemons)
    # Client latency and capacity: too noisy on a shared 4-vCPU host
    # to hold to an end-to-end bound.
    m = {"serve_max_ok_rps": (v["ladder.max_ok_rps"], "1/s"),
         "serve_p50_ms.low": (serve_p50(raw, "low"), "ms"),
         "serve_p50_ms.high": (serve_p50(raw, "high"), "ms")}
    for step in ("low", "high"):
        m["serve_p99_ms." + step] = (analysis.nearest_rank(
            pooled(raw, step, "latency_ms"), 99), "ms")
    per_endpoint = []
    for endpoint in analysis.SERVE_ENDPOINTS:
        buckets = analysis.histogram_buckets(
            high, "dtrank_serve_request_seconds", endpoint)
        per_endpoint.append(buckets)
        for q in (50, 99):
            m["serve.server_ms.p%d.%s" % (q, endpoint)] = (
                analysis.histogram_quantile(buckets, q / 100) * 1e3, "ms")
    batch = lambda part: high.get(  # noqa: E731
        ("dtrank_serve_batch_size_" + part, ""), 0.0)
    m["serve.batch_size_mean"] = (batch("sum") / max(batch("count"), 1),
                                  "req/batch")
    m["serve.shed"] = (fixed.get(("dtrank_serve_shed_total", ""), 0.0),
                       "count")
    for status in ("ok", "error", "overloaded"):
        m["serve.responses_" + status] = (fixed.get(
            ("dtrank_serve_responses_total", '{status="%s"}' % status),
            0.0), "count")
    server_p50 = analysis.histogram_quantile(
        analysis.merge_buckets(per_endpoint), 0.5) * 1e3
    client_p50 = analysis.nearest_rank(pooled(raw, "high", "latency_ms"),
                                       50)
    m["serve.transport_ms.p50"] = (client_p50 - server_p50, "ms")
    lateness = pooled(raw, "low", "lateness_ms") + pooled(
        raw, "high", "lateness_ms")
    m["driver.lateness_ms.p99"] = (analysis.nearest_rank(lateness, 99),
                                   "ms")
    m["driver.lost"] = (sum(v[key + "lost"] for step in ("low", "high")
                            for key in fixed_steps(raw, step)), "count")
    return m


def per_layer(workload, raw, work, notes):
    """Per-layer metrics plus the trace breakdown: per protocol run,
    per scale_100k round (its last set-up traced separately), or over
    the whole serve run."""
    events = analysis.load_trace(work / "trace.events.json")
    if workload.endswith("_protocol"):
        m, runs = protocol_layers(raw, events)
    elif workload == "scale_100k":
        m, runs = scale_layers(raw, notes)
        setup = analysis.load_trace(work / "setup.trace.events.json")
        for name, value in analysis.trace_breakdown(setup, 1).items():
            m[name.replace("trace.", "trace.setup.", 1)] = (value, "s")
    else:
        m, runs = serve_layers(raw), 1
        serve_notes(raw, notes)
    m["ops_per_s"] = (ops_per_s(workload, raw, notes), "1/s")
    for name, value in analysis.trace_breakdown(events, runs).items():
        m[name] = (value, "s")
    return m


# ---------------------------------------------------------------------


def selftest():
    if not build(["dtbench_selftest"]):
        return 2
    rc = subprocess.run([str(build_dir() / "dtbench_selftest")]).returncode
    py = subprocess.run([sys.executable, "-B", "-m", "unittest", "discover",
                         "-s", str(HERE / "tests")])
    return 1 if rc or py.returncode else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--record-digest", action="store_true",
                    help="store this seed's digests in %s after a "
                    "cross-checked run" % EXPECTED_DIGESTS.name)
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        ap.error("--workload is required")

    if not build(["dtbench", "dtrank_serve"]):
        log("perfbench: build failed")
        return 2
    start = time.monotonic()
    w = args.workload
    table = json.loads(EXPECTED_DIGESTS.read_text())
    expected = table.get(w, {}).get(str(args.seed))
    checks_digest = w != "serve_open_loop"
    cross_check = checks_digest and (expected is None or args.record_digest)

    work = build_dir() / "runs" / ("%s-%d-%d" % (w, args.seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    raw_path = work / "raw.json"
    cmd = [str(build_dir() / "dtbench"), "--workload", w,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--cross-check", "1" if cross_check else "0",
           "--work-dir", str(work), "--out", str(raw_path),
           "--serve-bin", str(build_dir() / "dtrank" / "tools" /
                              "dtrank_serve")]
    rc = run_dtbench(cmd, start + RUN_LIMIT_S)
    if rc != 0:
        log("perfbench: dtbench failed (exit %s)" % rc)
        shutil.rmtree(work, ignore_errors=True)
        return 2
    raw = json.loads(raw_path.read_text())

    attempted, failed = raw["attempted"], raw["failed"]
    strings = raw["strings"]
    if strings.get("failures"):
        log("perfbench: failed checks: " + strings["failures"])
    if checks_digest and expected is not None:
        bad = analysis.digest_mismatches(expected, strings)
        if bad:
            log("perfbench: digests differ from the committed ones: " +
                ", ".join(bad))
            failed = attempted
    if args.record_digest and failed == 0 and checks_digest:
        digests = {k[len("digest."):]: x for k, x in strings.items()
                   if k.startswith("digest.")}
        table.setdefault(w, {})[str(args.seed)] = digests
        EXPECTED_DIGESTS.write_text(json.dumps(table, indent=1,
                                               sort_keys=True) + "\n")

    notes = []
    if args.trace:
        measured = per_layer(w, raw, work, notes)
        measured["fail_frac"] = (failed / attempted, "ratio")
    else:
        measured = end_to_end(w, raw, notes)
    shutil.rmtree(work, ignore_errors=True)
    metrics = manifest_metrics("per_layer" if args.trace else "end_to_end",
                               measured, notes)

    host = {k[len("host."):]: x for k, x in strings.items()
            if k.startswith("host.")}
    print("workload %s, seed %d, %g s%s" % (
        w, args.seed, args.seconds, ", traced" if args.trace else ""))
    print("fail_frac = %d / %d" % (failed, attempted))
    if "cross_check" in strings:
        print("cross-check: " + strings["cross_check"])
    for note in notes:
        print("  " + note)
    for name in sorted(measured):
        value, unit = measured[name]
        print("  %-40s %14.6f %s" % (name, value, unit))
    print("host: " + json.dumps(host, sort_keys=True))
    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
