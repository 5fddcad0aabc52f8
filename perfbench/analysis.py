"""Turns dtbench's raw report into the benchmark's named metrics.

dtbench (src/) records raw samples; everything statistical lives
here so the self-tests in tests/ can check it on synthetic input:

* percentiles (nearest rank) and the ``.tail`` rule,
* the correctness verdict against the committed prediction digests,
* the serve per-layer figures from the daemon's Prometheus scrapes,
* inclusive and self time per span and per layer from a trace.
"""

import json
import math
import re

# Percentiles a ``.tail`` metric may report, highest first.
TAIL_LADDER = (99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# A tail percentile needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10

# Layer of each span the program itself emits. The benchmark's own
# spans (named bench_*) carry their layer as the span category.
PROGRAM_SPAN_LAYER = {
    "family_cv_run": "experiments",
    "evaluate_split": "experiments",
    "split_task": "experiments",
    "gaknn_split_model": "baseline",
    "mlp_fit": "ml",
    "ga_generation": "ml",
}

SERVE_ENDPOINTS = ("rank_nn_t", "rank_mlp_t", "rank_ga_knn")


def finite(values):
    return [v for v in values if v is not None and math.isfinite(v)]


def nearest_rank(values, percentile):
    """The ceil(p/100 * n)-th smallest finite value (None if none)."""
    xs = sorted(finite(values))
    if not xs:
        return None
    rank = math.ceil(percentile / 100.0 * len(xs))
    return xs[min(len(xs), max(rank, 1)) - 1]


def tail_percentile(n):
    """Highest ladder percentile with >= TAIL_MIN_BEYOND samples above.

    Falls back to the median when even p50 has fewer (n < 20).
    """
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND - 1e-9:
            return p
    return 50.0


def tail(values):
    """(value, percentile, sample count) of the ``.tail`` rule."""
    xs = finite(values)
    p = tail_percentile(len(xs))
    return nearest_rank(xs, p), p, len(xs)


# ---------------------------------------------------------------------
# Correctness


def digest_mismatches(expected, strings):
    """Names whose committed digest differs from the run's ``digest.*``.

    ``expected`` maps a digest name (e.g. "NN^T") to its hex value.
    """
    return sorted(name for name, want in expected.items()
                  if strings.get("digest." + name) != want)


# ---------------------------------------------------------------------
# Prometheus text


_SAMPLE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)$")


def parse_prometheus(text):
    """{(name, labels): value} of every sample line."""
    out = {}
    for line in text.splitlines():
        m = _SAMPLE.match(line.strip())
        if m:
            out[(m.group(1), m.group(2) or "")] = float(m.group(3))
    return out


def scrape_delta(after, before):
    return {k: v - before.get(k, 0.0) for k, v in after.items()}


def scrape_sum(scrapes):
    """Sample-wise sum of several parsed scrapes (or their deltas)."""
    out = {}
    for scrape in scrapes:
        for k, v in scrape.items():
            out[k] = out.get(k, 0.0) + v
    return out


def histogram_buckets(samples, name, endpoint=None):
    """Sorted [(upper bound, cumulative count)] of one histogram."""
    out = []
    for (metric, labels), value in samples.items():
        if metric != name + "_bucket":
            continue
        if endpoint is not None and 'endpoint="%s"' % endpoint not in labels:
            continue
        le = re.search(r'le="([^"]+)"', labels).group(1)
        out.append((math.inf if le == "+Inf" else float(le), value))
    return sorted(out)


def histogram_quantile(buckets, q):
    """Prometheus histogram_quantile: linear inside the bucket."""
    if not buckets or buckets[-1][1] <= 0:
        return None
    rank = q * buckets[-1][1]
    lower, below = 0.0, 0.0
    for upper, cumulative in buckets:
        if cumulative >= rank:
            if math.isinf(upper):
                return lower
            inside = cumulative - below
            share = (rank - below) / inside if inside > 0 else 1.0
            return lower + (upper - lower) * share
        lower, below = upper, cumulative
    return lower


def merge_buckets(bucket_lists):
    merged = {}
    for buckets in bucket_lists:
        for upper, cumulative in buckets:
            merged[upper] = merged.get(upper, 0.0) + cumulative
    return sorted(merged.items())


# ---------------------------------------------------------------------
# Trace


def load_trace(path):
    with open(path) as f:
        return json.load(f)["traceEvents"]


def span_layer(event):
    return PROGRAM_SPAN_LAYER.get(event["name"], event.get("cat", "?"))


def self_times(events):
    """Per-event self time (us): duration minus the part of it its
    child spans cover.

    Spans nest per thread (``tid``): a span's parent is the innermost
    span of the same thread that is still open when it starts. Work a
    span hands to other threads is not subtracted; on the span's own
    thread that time is waiting, and it stays in its self time.
    """
    self_us = [float(e["dur"]) for e in events]
    by_tid = {}
    for i, e in enumerate(events):
        by_tid.setdefault(e.get("tid", 0), []).append(i)
    end = lambda i: events[i]["ts"] + events[i]["dur"]  # noqa: E731
    for indices in by_tid.values():
        indices.sort(key=lambda i: (events[i]["ts"], -events[i]["dur"]))
        stack = []
        for i in indices:
            start = events[i]["ts"]
            while stack and start >= end(stack[-1]):
                stack.pop()
            if stack:
                parent = stack[-1]
                self_us[parent] -= min(end(i), end(parent)) - start
            stack.append(i)
    return [max(0.0, s) for s in self_us]


def trace_breakdown(events, runs):
    """Per-run inclusive and self seconds per span and per layer."""
    metrics = {}
    selfs = self_times(events)
    for e, s in zip(events, selfs):
        span = "trace.%s." % e["name"]
        layer = "trace.layer.%s.self_s" % span_layer(e)
        for key, us in ((span + "incl_s", e["dur"]), (span + "self_s", s),
                        (layer, s)):
            metrics[key] = metrics.get(key, 0.0) + us / 1e6 / runs
    return metrics
