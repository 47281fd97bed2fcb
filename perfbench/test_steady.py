"""Tests of the benchmark's own tooling: the order statistics and checks of
steady.py, the result check of run.py, and BENCHMARK.json itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import copy
import io
import json
import os
import re
import statistics
import unittest

import run
import steady

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = run.load_spec()


def read(*parts):
    with open(os.path.join(HERE, *parts), encoding="utf-8") as f:
        return f.read()


def result(**metrics):
    return {"correct": True, "attempted": 3, "failed": 0,
            "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()}}


class OrderStatistics(unittest.TestCase):
    def test_quartiles_follow_statistics_quantiles(self):
        values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0]
        self.assertEqual(steady.quartiles(values), tuple(statistics.quantiles(values, n=4)))

    def test_quartiles_of_one_to_ten(self):
        # Exclusive method: positions (n+1)/4 = 2.75 and 8.25.
        self.assertEqual(steady.quartiles(list(range(1, 11))), (2.75, 5.5, 8.25))

    def test_spread_is_quartile_distance_over_median(self):
        self.assertAlmostEqual(steady.spread(list(range(1, 11))), (8.25 - 2.75) / 5.5)

    def test_spread_of_repeated_value_is_zero(self):
        self.assertEqual(steady.spread([0.711] * 10), 0.0)

    def test_spread_with_zero_median_is_zero(self):
        self.assertEqual(steady.spread([-1.0, 0.0, 0.0, 1.0]), 0.0)

    def test_worsening_respects_direction(self):
        self.assertAlmostEqual(steady.worsening(100.0, 110.0, "lower"), 0.10)
        self.assertAlmostEqual(steady.worsening(100.0, 110.0, "higher"), -0.10)
        self.assertAlmostEqual(steady.worsening(100.0, 80.0, "higher"), 0.20)
        self.assertEqual(steady.worsening(0.0, 0.0, "lower"), 0.0)
        self.assertEqual(steady.worsening(0.0, 1.0, "lower"), float("inf"))


class BenchmarkJson(unittest.TestCase):
    def test_repository_spec_is_valid(self):
        self.assertEqual(steady.validate_spec(SPEC), [])

    def test_metric_lists_match_the_driver(self):
        e2e, layer = read("src", "metrics.h").split("kPerLayer")
        pat = re.compile(r'\{"([^"]+)", "([^"]+)"\}')
        self.assertEqual([(m["name"], m["unit"]) for m in SPEC["end_to_end"]], pat.findall(e2e))
        self.assertEqual([(m["name"], m["unit"]) for m in SPEC["per_layer"]], pat.findall(layer))

    def test_workloads_match_the_driver(self):
        main = read("src", "main.cpp")
        for w in SPEC["workloads"]:
            self.assertIn(f'"{w["name"]}"', main)

    def mutated(self, fn):
        spec = copy.deepcopy(SPEC)
        fn(spec)
        return steady.validate_spec(spec)

    def test_rejects_bound_above_quarter(self):
        self.assertTrue(self.mutated(lambda s: s["end_to_end"][1].update(bound=0.3)))

    def test_rejects_missing_setup(self):
        self.assertTrue(self.mutated(
            lambda s: s.update(end_to_end=[m for m in s["end_to_end"] if m["name"] != "setup_s"])))

    def test_rejects_setup_without_largest_bound(self):
        def shrink(spec):
            for m in spec["end_to_end"]:
                if m["name"] == "setup_s":
                    m["bound"] = 0.01
        self.assertTrue(self.mutated(shrink))

    def test_rejects_bad_and_duplicate_names(self):
        self.assertTrue(self.mutated(lambda s: s["per_layer"][0].update(name="_bad")))
        self.assertTrue(self.mutated(lambda s: s["per_layer"].append(dict(s["per_layer"][0]))))

    def test_rejects_paths_leaving_the_repo(self):
        self.assertTrue(self.mutated(lambda s: s.update(paths=["../elsewhere"])))
        self.assertTrue(self.mutated(lambda s: s.update(command=["python3", "/tmp/run.py"])))

    def test_rejects_extra_keys_and_bad_run_seconds(self):
        self.assertTrue(self.mutated(lambda s: s.update(extra=1)))
        self.assertTrue(self.mutated(lambda s: s.update(run_seconds=61)))


class ResultLines(unittest.TestCase):
    def expected(self):
        return [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]

    def line(self, **over):
        res = {"correct": True, "attempted": 4, "failed": 0,
               "metrics": {n: {"value": 1.5, "unit": u} for n, u in self.expected()}}
        res.update(over)
        return json.dumps(res)

    def test_accepts_well_formed_result(self):
        self.assertIsNone(run.check_result(self.line(), self.expected()))

    def test_rejects_missing_metric_and_wrong_unit(self):
        res = json.loads(self.line())
        res["metrics"].pop("setup_s")
        self.assertIsNotNone(run.check_result(json.dumps(res), self.expected()))
        res = json.loads(self.line())
        res["metrics"]["setup_s"]["unit"] = "ms"
        self.assertIsNotNone(run.check_result(json.dumps(res), self.expected()))

    def test_rejects_bad_counts_and_keys(self):
        self.assertIsNotNone(run.check_result(self.line(attempted=0), self.expected()))
        self.assertIsNotNone(run.check_result(self.line(failed=-1), self.expected()))
        self.assertIsNotNone(run.check_result(self.line(correct="yes"), self.expected()))
        self.assertIsNotNone(run.check_result(self.line(extra=1), self.expected()))
        self.assertIsNotNone(run.check_result("not json", self.expected()))

    def test_parse_result_takes_the_last_line(self):
        out = "progress\n" + self.line() + "\n"
        self.assertEqual(steady.parse_result(out, self.expected())["attempted"], 4)
        with self.assertRaises(ValueError):
            steady.parse_result("", self.expected())
        with self.assertRaises(ValueError):
            steady.parse_result(self.line(attempted=0), self.expected())

    def test_expected_metrics_follow_the_trace_flag(self):
        self.assertEqual(run.expected_metrics(SPEC, False), self.expected())
        self.assertEqual(run.expected_metrics(SPEC, True),
                         [(m["name"], m["unit"]) for m in SPEC["per_layer"]])


class SetChecks(unittest.TestCase):
    SPEC = {"workloads": [{"name": "w", "why": "x"}],
            "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
                           {"name": "tput", "unit": "1/s", "better": "higher", "bound": 0.1}]}

    def runs(self, setups, tputs):
        return [{"workload": "w", "seed": i, "result": result(setup_s=s, tput=t)}
                for i, (s, t) in enumerate(zip(setups, tputs))]

    def test_compare_passes_same_medians(self):
        a = self.runs([1.0] * 5, [100, 101, 99, 100, 100])
        self.assertEqual(steady.compare(self.SPEC, a, a, out=io.StringIO()), 0)

    def test_compare_fails_a_regression_beyond_the_bound(self):
        a = self.runs([1.0] * 5, [100] * 5)
        b = self.runs([1.0] * 5, [80] * 5)
        self.assertEqual(steady.compare(self.SPEC, a, b, out=io.StringIO()), 1)

    def test_compare_ignores_setup_spread_but_not_its_median(self):
        a = self.runs([1.0, 2.0, 3.0, 4.0, 5.0], [100] * 5)
        self.assertEqual(steady.compare(self.SPEC, a, a, out=io.StringIO()), 0)
        b = self.runs([4.0] * 5, [100] * 5)
        self.assertEqual(steady.compare(self.SPEC, a, b, out=io.StringIO()), 1)

    def test_summary_flags_wide_spread_and_failed_runs(self):
        steady_runs = self.runs([1.0] * 5, [100, 101, 99, 100, 100])
        self.assertEqual(steady.summarize(self.SPEC, steady_runs, out=io.StringIO()), 0)
        wide = self.runs([1.0] * 5, [50, 100, 150, 75, 125])
        self.assertEqual(steady.summarize(self.SPEC, wide, out=io.StringIO()), 1)
        wide[0]["result"]["failed"] = 1
        self.assertEqual(steady.summarize(self.SPEC, wide, out=io.StringIO()), 2)


if __name__ == "__main__":
    unittest.main()
