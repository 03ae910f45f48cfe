"""Self-tests of the benchmark itself (about a minute).

    python3 perfbench/selftest.py

They check that cold operations really run in processes of their own, that
the span wrapper's self-time arithmetic is exact, that every binding of a
traced name is wrapped, and that the per-layer counts of a traced run repeat
exactly for the same seed.
"""

import json
import os
import sys
import unittest

import reference
import run
import tracer

sys.path.insert(0, os.path.join(run.ROOT, "src"))


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class SpanArithmetic(unittest.TestCase):
    def test_self_time_excludes_child_spans(self):
        clock = FakeClock()
        tr = tracer.Tracer(clock=clock)
        inner = tr.wrap("inner", lambda: clock.advance(2))

        def body():
            clock.advance(1)
            inner()
            inner()
            clock.advance(3)

        tr.wrap("outer", body)()
        self.assertEqual(tr.stats["outer"], {"calls": 1, "total_s": 8.0, "self_s": 4.0})
        self.assertEqual(tr.stats["inner"], {"calls": 2, "total_s": 4.0, "self_s": 4.0})

    def test_failed_call_closes_its_span(self):
        clock = FakeClock()
        tr = tracer.Tracer(clock=clock)

        def fail():
            clock.advance(5)
            raise ValueError("boom")

        inner = tr.wrap("inner", fail)

        def body():
            clock.advance(1)
            with self.assertRaises(ValueError):
                inner()

        tr.wrap("outer", body)()
        self.assertEqual(tr.stats["outer"]["self_s"], 1.0)
        self.assertEqual(tr.stats["inner"]["total_s"], 5.0)

    def test_counter_time_is_charged_to_no_span(self):
        clock = FakeClock()
        tr = tracer.Tracer(clock=clock)

        def counter(tr_, stat, parent, args, result):
            clock.advance(10)
            stat["seen_parent"] = parent

        inner = tr.wrap("inner", lambda: clock.advance(2), counter)
        tr.wrap("outer", inner)()
        self.assertEqual(tr.stats["inner"]["total_s"], 2.0)
        self.assertEqual(tr.stats["outer"]["self_s"], 0.0)
        self.assertEqual(tr.stats["inner"]["seen_parent"], "outer")


class Install(unittest.TestCase):
    def test_every_binding_is_wrapped_and_restored(self):
        import tameapprox
        from tameapprox import cohomology, zmod_linalg

        original = zmod_linalg.kernel_mod
        tr = tracer.Tracer()
        tr.install()
        try:
            self.assertIsNot(zmod_linalg.kernel_mod, original)
            self.assertIs(cohomology.kernel_mod, zmod_linalg.kernel_mod)
            self.assertIs(tameapprox.kernel_mod, zmod_linalg.kernel_mod)
            self.assertIs(zmod_linalg.kernel_mod.__wrapped__, original)
        finally:
            tr.uninstall()
        self.assertIs(cohomology.kernel_mod, original)
        self.assertIs(tameapprox.kernel_mod, original)


class OutputChecks(unittest.TestCase):
    def test_golden_certificate_passes_and_a_changed_one_fails(self):
        name, argv, check = run.certify_op(2, 1, 3)
        golden = reference.golden_certificate(2, 1, 3).decode()
        self.assertEqual(check(0, golden), [])
        report = json.loads(golden)
        report["sha"]["full"] = ["2"]
        problems = check(0, json.dumps(report, indent=2) + "\n")
        self.assertIn("canonical JSON differs from the golden file", problems)
        self.assertIn("sha.full = ['2'], expected []", problems)

    def test_ladder_check_uses_n_over_e(self):
        _, _, check = run.sha_cyc_op("q8", 8, 4)
        self.assertEqual(check(0, json.dumps({"structure": ["2"]})), [])
        self.assertNotEqual(check(0, json.dumps({"structure": []})), [])


class ColdIsolation(unittest.TestCase):
    def test_each_cold_op_has_its_own_process(self):
        out = run.run_cold(run.COLD["certify-cold"], seed=1, seconds=0, trace=0)
        pids = [op["pid"] for op in out["ops"]]
        self.assertEqual(len(pids), len(run.COLD["certify-cold"]))
        self.assertEqual(len(set(pids)), len(pids))
        self.assertNotIn(os.getpid(), pids)
        self.assertTrue(all(op["outcome"] == "ok" for op in out["ops"]))


def layer_counts(workload, seed):
    if workload in run.COLD:
        out = run.run_cold(run.COLD[workload], seed, seconds=0, trace=1)
    else:
        out = run.run_sweep(seed, seconds=0, trace=1)
    values, _, _ = run.per_layer(out)
    return {name: value for name, value in values.items()
            if not name.endswith("_s") and name != "trace.overhead"}


class RepeatableCounts(unittest.TestCase):
    def test_cold_counts_repeat(self):
        first = layer_counts("certify-cold", 7)
        self.assertGreater(first["zmod_linalg.IntMatrix.matmul.madds"], 0)
        self.assertEqual(first, layer_counts("certify-cold", 7))

    def test_sweep_counts_repeat(self):
        first = layer_counts("sweep-warm", 7)
        self.assertGreater(first["arithmetic.is_prime.calls"], 0)
        self.assertEqual(first, layer_counts("sweep-warm", 7))


if __name__ == "__main__":
    unittest.main()
