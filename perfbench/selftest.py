"""Self-test of the benchmark.

It runs a tiny instance of each workload through the same pass and check
code as run.py, shows that one corrupted Mumford pair is counted as a
failed operation, and shows that two traced passes make the same calls.
Run from the root of a checkout:

    python3 perfbench/selftest.py
"""

import unittest

import run
from tracer import Tracer
from workloads import WORKLOADS

SEED = 1
TINY = {"halve_matrix": 4, "recover_matrix": 6, "halve_lifted": 2, "cli_mix": 3}


def tiny_pass(name, corrupt=None):
    """(failures, verdicts) of the first few operations of one workload."""
    workload = WORKLOADS[name]()
    hj = run.fresh_import(workload.modules)
    inputs = workload.build(hj, SEED)
    results = run.run_pass(workload.operations(hj, inputs)[:TINY[name]])
    if corrupt is not None:
        results[0] = (corrupt(hj, results[0][0]),) + results[0][1:]
    verdicts = run.judge(workload, hj, inputs, results, None)
    return [why for _, why in verdicts if why], verdicts


def corrupt_first_half(hj, value):
    """The same halves with V + 1 in the first Mumford pair."""
    curve2, P2, halves = value
    first = halves[0]
    bad = hj.jacobian.MumfordDivisor(curve2, first.mumford.U, first.mumford.V + 1,
                                     validate=False)
    return curve2, P2, [hj.halving.HalfLift(first.sign_vector, bad)] + halves[1:]


def traced_calls(name):
    workload = WORKLOADS[name]()
    hj = run.fresh_import(workload.modules)
    inputs = workload.build(hj, SEED)
    with Tracer() as tracer:
        run.run_pass(workload.operations(hj, inputs)[:TINY[name]])
    return {k: v for k, (v, unit) in tracer.metrics().items() if k.endswith(".calls")}


class BenchmarkSelfTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        run.use_checkout_sources()

    def test_tiny_workloads_pass_their_checks(self):
        for name in TINY:
            with self.subTest(workload=name):
                failures, verdicts = tiny_pass(name)
                self.assertEqual(failures, [])
                self.assertEqual(len(verdicts), TINY[name])

    def test_corrupted_mumford_pair_is_a_failure(self):
        failures, verdicts = tiny_pass("halve_matrix", corrupt=corrupt_first_half)
        self.assertEqual(len(failures), 1)
        self.assertIsNotNone(verdicts[0][1])

    def test_later_pass_that_differs_is_a_failure(self):
        workload = WORKLOADS["halve_matrix"]()
        hj = run.fresh_import(workload.modules)
        inputs = workload.build(hj, SEED)
        ops = workload.operations(hj, inputs)[:2]
        reference = run.judge(workload, hj, inputs, run.run_pass(ops), None)
        results = run.run_pass(ops)
        results[1] = (corrupt_first_half(hj, results[1][0]),) + results[1][1:]
        verdicts = run.judge(workload, hj, inputs, results, reference)
        self.assertEqual([why is None for _, why in verdicts], [True, False])

    def test_traced_calls_repeat_and_restore(self):
        for name in ("halve_matrix", "cli_mix"):
            with self.subTest(workload=name):
                first = traced_calls(name)
                self.assertGreater(sum(first.values()), 0)
                self.assertEqual(first, traced_calls(name))
        import halfjac.halving
        self.assertFalse(hasattr(halfjac.halving.halve_point, "__wrapped__"))


if __name__ == "__main__":
    unittest.main()
