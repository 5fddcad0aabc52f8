"""Self-tests of the benchmark's analysis (run.py and analysis.py).

    python3 -m unittest discover -s perfbench/tests

The C++ side (digest, backlog detection, rate ladder) is covered by
tests/selftest.cpp; ``python3 perfbench/run.py --selftest`` runs both.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
import analysis  # noqa: E402
import run  # noqa: E402


class TailRule(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertEqual(analysis.tail_percentile(116), 90.0)
        self.assertEqual(analysis.tail_percentile(199), 90.0)
        self.assertEqual(analysis.tail_percentile(200), 95.0)
        self.assertEqual(analysis.tail_percentile(999), 95.0)
        self.assertEqual(analysis.tail_percentile(1000), 99.0)
        self.assertEqual(analysis.tail_percentile(10000), 99.9)
        self.assertEqual(analysis.tail_percentile(100000), 99.99)
        self.assertEqual(analysis.tail_percentile(5), 50.0)

    def test_tail_value_leaves_ten_samples_above(self):
        values = list(range(1, 201))  # 200 samples: p95
        value, p, n = analysis.tail(values)
        self.assertEqual((p, n), (95.0, 200))
        self.assertEqual(value, 190)
        self.assertEqual(sum(v > value for v in values), 10)

    def test_nearest_rank_skips_missing(self):
        values = [float("nan"), None] + list(range(1, 101))
        self.assertEqual(analysis.nearest_rank(values, 99), 99)
        self.assertEqual(analysis.nearest_rank(values, 50), 50)
        self.assertIsNone(analysis.nearest_rank([None], 50))


class DigestCheck(unittest.TestCase):
    def test_one_changed_digest_is_reported(self):
        expected = {"NN^T": "00ff", "MLP^T": "1234"}
        strings = {"digest.NN^T": "00ff", "digest.MLP^T": "1234"}
        self.assertEqual(analysis.digest_mismatches(expected, strings), [])
        strings["digest.MLP^T"] = "1235"
        self.assertEqual(analysis.digest_mismatches(expected, strings),
                         ["MLP^T"])
        del strings["digest.NN^T"]
        self.assertEqual(analysis.digest_mismatches(expected, strings),
                         ["MLP^T", "NN^T"])

    def test_committed_table_names_every_digest_workload(self):
        table = json.loads((HERE / "expected_digests.json").read_text())
        for workload in ("paper_protocol", "ragged_protocol",
                         "scale_100k"):
            self.assertIn(workload, table)
            for seed, digests in table[workload].items():
                self.assertTrue(digests, (workload, seed))


def span(name, ts, dur, tid=0, cat="x"):
    return {"name": name, "cat": cat, "ts": ts, "dur": dur, "tid": tid}


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        events = [
            span("root", 0, 100),
            span("a", 10, 30),
            span("a1", 15, 5),
            span("b", 50, 20),
            span("other_thread", 20, 60, tid=1),
        ]
        self.assertEqual(analysis.self_times(events), [50, 25, 5, 20, 60])

    def test_back_to_back_spans_are_siblings(self):
        events = [span("p", 0, 10), span("q", 10, 10), span("r", 10, 5)]
        self.assertEqual(analysis.self_times(events), [10, 5, 5])

    def test_breakdown_per_span_and_layer(self):
        events = [
            span("family_cv_run", 0, 4e6),
            span("evaluate_split", 0, 3e6, tid=1),
            span("mlp_fit", 0, 2e6, tid=1),
            span("bench_ranking", 0, 1e6, tid=2, cat="core"),
        ]
        m = analysis.trace_breakdown(events, runs=2)
        self.assertAlmostEqual(m["trace.evaluate_split.incl_s"], 1.5)
        self.assertAlmostEqual(m["trace.evaluate_split.self_s"], 0.5)
        self.assertAlmostEqual(m["trace.layer.experiments.self_s"], 2.5)
        self.assertAlmostEqual(m["trace.layer.ml.self_s"], 1.0)
        self.assertAlmostEqual(m["trace.layer.core.self_s"], 0.5)


SCRAPE = """# TYPE dtrank_serve_request_seconds histogram
dtrank_serve_request_seconds_bucket{endpoint="rank_nn_t",le="0.0001"} %d
dtrank_serve_request_seconds_bucket{endpoint="rank_nn_t",le="0.001"} %d
dtrank_serve_request_seconds_bucket{endpoint="rank_nn_t",le="+Inf"} %d
dtrank_serve_shed_total %d
"""


class Prometheus(unittest.TestCase):
    def test_delta_and_quantile(self):
        before = analysis.parse_prometheus(SCRAPE % (10, 10, 10, 1))
        after = analysis.parse_prometheus(SCRAPE % (60, 110, 110, 4))
        delta = analysis.scrape_delta(after, before)
        self.assertEqual(delta[("dtrank_serve_shed_total", "")], 3)
        buckets = analysis.histogram_buckets(
            delta, "dtrank_serve_request_seconds", "rank_nn_t")
        self.assertEqual([c for _, c in buckets], [50, 100, 100])
        # Half the observations lie at or below 0.1 ms.
        self.assertAlmostEqual(analysis.histogram_quantile(buckets, 0.5),
                               1e-4)
        self.assertAlmostEqual(analysis.histogram_quantile(buckets, 0.75),
                               1e-4 + 0.5 * 9e-4)

    def test_deltas_of_several_daemons_add_up(self):
        parse = analysis.parse_prometheus
        total = analysis.scrape_sum([
            analysis.scrape_delta(parse(SCRAPE % (3, 5, 5, 2)),
                                  parse(SCRAPE % (1, 1, 1, 0))),
            analysis.scrape_delta(parse(SCRAPE % (7, 9, 9, 1)), {})])
        self.assertEqual(total[("dtrank_serve_shed_total", "")], 3)
        buckets = analysis.histogram_buckets(
            total, "dtrank_serve_request_seconds", "rank_nn_t")
        self.assertEqual([c for _, c in buckets], [9, 13, 13])


class ResultLine(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    def test_every_listed_per_layer_metric_is_reported(self):
        notes = []
        out = run.manifest_metrics(
            "per_layer", {"protocol_s": (8.5, "s"), "extra": (1.0, "s")},
            notes)
        self.assertEqual(list(out),
                         [m["name"] for m in self.spec["per_layer"]])
        self.assertEqual(out["protocol_s"], (8.5, "s"))
        # A layer the workload does not run reads 0 in its unit.
        self.assertEqual(out["serve.shed"], (0.0, "count"))
        self.assertIn("not in BENCHMARK.json: extra", notes)

    def test_an_unmeasured_end_to_end_metric_is_an_error(self):
        with self.assertRaises(ValueError):
            run.manifest_metrics("end_to_end", {"setup_s": (1.0, "s")}, [])

    def test_a_unit_other_than_the_listed_one_is_an_error(self):
        measured = {m["name"]: (1.0, m["unit"])
                    for m in self.spec["end_to_end"]}
        run.manifest_metrics("end_to_end", measured, [])
        measured["setup_s"] = (1000.0, "ms")
        with self.assertRaises(ValueError):
            run.manifest_metrics("end_to_end", measured, [])


class BenchmarkSpec(unittest.TestCase):
    def test_names_and_bounds(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        e2e = {m["name"]: m for m in spec["end_to_end"]}
        self.assertEqual(e2e["setup_s"]["bound"],
                         max(m["bound"] for m in e2e.values()))
        names = list(e2e) + [m["name"] for m in spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        self.assertEqual(
            [w["name"] for w in spec["workloads"]],
            ["paper_protocol", "ragged_protocol", "scale_100k",
             "serve_open_loop"])

    def test_no_benchmark_file_is_ignored_by_git(self):
        files = [str(p.relative_to(HERE.parent))
                 for p in HERE.rglob("*") if p.is_file() and
                 "__pycache__" not in p.parts]
        files.append("BENCHMARK.json")
        proc = subprocess.run(["git", "check-ignore", "--no-index"] + files,
                              cwd=HERE.parent, capture_output=True,
                              text=True)
        if proc.returncode == 128:
            self.skipTest("not a git checkout")
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
