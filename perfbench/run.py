"""Benchmark of halfjac: seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout (stdlib only, one process, one thread):

    python3 perfbench/run.py --workload halve_matrix --seed 0 --seconds 10 --trace 0

--trace 0 sets up the workload several times (each time re-importing
halfjac) and reports the median as setup_s. It then runs whole passes
over the workload's fixed operation list, stopping at the pass boundary
nearest to --seconds of timed operations, and reports the end-to-end
metrics. The latency percentiles are Harrell-Davis estimates over the
operations of one pass, each operation's time being its mean over the
run's passes. --trace 1 runs one untraced pass and
one traced pass, whatever --seconds says, so that the per-layer .calls
counts repeat exactly. It reports the per-layer metrics and the tracing
overhead.

Every output is checked outside the timed region: the first pass in
full, later passes by comparison with the first. The last stdout line is
the result JSON (correct, attempted, failed, metrics). The line before it
is a report with the git rev, the Python version, the CPU count, the load
average at start, the median calibration slice (cal_slice_ms), the sample
count, the failure ratio, the SHA-256 of the canonical outputs and the
end-to-end timings unscaled (raw_metrics). Both lines, and the span table of
a traced run, are also written to perfbench/results/.

Timings are scaled to a fixed machine speed. A shared host changes the
speed of its cores by up to 1.7x in phases of seconds to minutes, which
moves every wall or CPU time alike. A calibration slice, fixed pure-Python
integer and object work that does not touch halfjac, runs between the
operations, before each one and after the last, and each time is
multiplied by CAL_NOMINAL_S over the mean of the two slices around it. The end-to-end times therefore read as on a
machine where one slice takes CAL_NOMINAL_S, and a change to halfjac moves
them while a change of machine speed mostly does not.
"""

import time

START = time.perf_counter()

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

from tracer import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"

CAL_NOMINAL_S = 0.0017  # one calibration slice on a 2-vCPU VM in its fast phase


class _Residue:
    """A residue mod 10007: allocation and operator dispatch like halfjac's fields."""

    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v % 10007

    def __add__(self, other):
        return _Residue(self.v + other.v)

    def __mul__(self, other):
        return _Residue(self.v * other.v)


def calibration_slice():
    """Seconds taken by a fixed piece of pure-Python work independent of halfjac."""
    start = time.perf_counter()
    acc = 0
    for i in range(10000):
        acc += i * i % 7
    a = [_Residue(3 * i + 1) for i in range(8)]
    b = [_Residue(5 * i + 2) for i in range(8)]
    for _ in range(26):
        out = [_Residue(0)] * 15
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = out[i + j] + x * y
        a = out[:8]
    return time.perf_counter() - start


def speed_scales(slices):
    """Per interval between two slices: CAL_NOMINAL_S over the mean of the two."""
    return [2 * CAL_NOMINAL_S / (a + b) for a, b in zip(slices, slices[1:])]


def hd_quantile(values, q, steps=64):
    """Harrell-Davis estimate of the q-quantile of values.

    A weighted mean of all order statistics, with weights from the
    Beta((n+1)q, (n+1)(1-q)) density, so that it moves smoothly where the
    sorted values jump (as between the genus-1 and genus-2 operations of
    halve_matrix) instead of following the one or two values nearest the
    quantile.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    weights = []
    for i in range(n):      # midpoint rule for the density over [i/n, (i+1)/n]
        ts = ((i + (k + 0.5) / steps) / n for k in range(steps))
        weights.append(sum(math.exp(log_norm + (a - 1) * math.log(t)
                                    + (b - 1) * math.log1p(-t)) for t in ts))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def use_checkout_sources():
    src = ROOT / "src"
    if not (src / "halfjac" / "__init__.py").is_file():
        raise SystemExit("perfbench: no halfjac package under %s" % src)
    sys.path.insert(0, str(src))


def fresh_import(modules):
    """Import halfjac anew, dropping any copy imported before."""
    for name in [n for n in sys.modules if n == "halfjac" or n.startswith("halfjac.")]:
        del sys.modules[name]
    for name in modules:
        importlib.import_module(name)
    return sys.modules["halfjac"]


def setup(workload, seed, reps):
    """(halfjac, inputs, seconds per rep, scale per rep); the first rep counts from START.

    A calibration slice runs after each rep; a rep's scale comes from the
    slices on either side of it, the first rep's from the one after it.
    """
    times, slices = [], []
    for rep in range(reps):
        start = START if rep == 0 else time.perf_counter()
        hj = fresh_import(workload.modules)
        inputs = workload.build(hj, seed)
        times.append(time.perf_counter() - start)
        slices.append(calibration_slice())
    return hj, inputs, times, speed_scales(slices[:1] + slices)


def run_pass(ops, slices=None):
    """[(value, error, wall s, cpu s)] for each (function, args) in order.

    Given a list, slices receives the seconds of a calibration slice run
    before each operation and one after the last.
    """
    clock, cpu_clock = time.perf_counter, time.process_time
    results = []
    for fn, args in ops:
        if slices is not None:
            slices.append(calibration_slice())
        c0 = cpu_clock()
        t0 = clock()
        try:
            value, error = fn(*args), None
        except Exception as exc:    # a failed operation is counted, the run goes on
            value, error = None, "%s: %s" % (type(exc).__name__, exc)
        wall = clock() - t0
        results.append((value, error, wall, cpu_clock() - c0))
    if slices is not None:
        slices.append(calibration_slice())
    return results


def judge(workload, hj, inputs, results, reference):
    """[(canonical output, failure or None)] for one pass.

    Without a reference every output is checked in full; with one (the
    verdicts of a checked pass over the same inputs) an output passes when
    it is byte-identical to a reference output that passed.
    """
    verdicts = []
    for i, (value, error, _, _) in enumerate(results):
        if error is not None:
            verdicts.append((None, error))
            continue
        try:
            canon = workload.canonical(hj, inputs, i, value)
            if reference is None:
                why = workload.check(hj, inputs, i, value)
            else:
                ref_canon, ref_why = reference[i]
                why = ref_why or (None if canon == ref_canon
                                  else "output differs from the first pass")
        except Exception as exc:    # a malformed output is a failed check
            canon, why = None, "check raised %s: %s" % (type(exc).__name__, exc)
        verdicts.append((canon, why))
    return verdicts


def digest(verdicts):
    h = hashlib.sha256()
    for canon, _ in verdicts:
        h.update((canon or "").encode())
        h.update(b"\n")
    return h.hexdigest()


def git_rev():
    """HEAD of the checkout's own .git, or None; reads files, runs no git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def end_to_end(setup_times, setup_scales, walls, cpus, scales):
    """The end-to-end metrics; walls, cpus and scales hold one list per pass."""
    wall = [w * k for ws, ks in zip(walls, scales) for w, k in zip(ws, ks)]
    cpu = [c * k for cs, ks in zip(cpus, scales) for c, k in zip(cs, ks)]
    per_op = [statistics.fmean(ws) for ws in zip(*(
        [w * k for w, k in zip(ws, ks)] for ws, ks in zip(walls, scales)))]
    setup = [t * k for t, k in zip(setup_times, setup_scales)]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(wall) / sum(wall), "1/s"),
        "latency_p50_ms": (hd_quantile(per_op, 0.5) * 1e3, "ms"),
        "latency_p90_ms": (hd_quantile(per_op, 0.9) * 1e3, "ms"),
        "cpu_ms_per_op": (sum(cpu) / len(cpu) * 1e3, "ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                         "MiB"),
    }


def measure(workload, seed, seconds):
    """Untraced run: end-to-end metrics over whole passes."""
    hj, inputs, setup_times, setup_scales = setup(workload, seed, workload.setup_reps)
    walls, cpus, scales, slices = [], [], [], []
    reference, attempted, failures = None, 0, []
    timed = 0.0
    while True:
        if walls and workload.fresh_inputs_each_pass:
            inputs = workload.build(hj, seed)
        pass_slices = []
        results = run_pass(workload.operations(hj, inputs), pass_slices)
        verdicts = judge(workload, hj, inputs, results, reference)
        reference = reference or verdicts
        walls.append([r[2] for r in results])
        cpus.append([r[3] for r in results])
        scales.append(speed_scales(pass_slices))
        slices += pass_slices
        attempted += len(verdicts)
        failures += [why for _, why in verdicts if why]
        del results     # one pass of outputs alive at a time keeps peak_rss_mib flat
        last = sum(walls[-1])
        timed += last
        if timed + last / 2 >= seconds:     # the pass boundary nearest to seconds
            break
    metrics = end_to_end(setup_times, setup_scales, walls, cpus, scales)
    raw = end_to_end(setup_times, [1.0] * len(setup_times), walls, cpus,
                     [[1.0] * len(ws) for ws in walls])
    report = {"passes": len(walls), "samples": sum(map(len, walls)),
              "ops_per_pass": len(walls[0]), "setup_s_reps": setup_times,
              "cal_slice_ms": statistics.median(slices) * 1e3,
              "raw_metrics": {name: value for name, (value, _) in raw.items()},
              "outputs_sha256": digest(reference)}
    return metrics, attempted, failures, report, None


def trace(workload, seed):
    """One untraced and one traced pass: per-layer metrics and overhead."""
    hj, inputs, _, _ = setup(workload, seed, 1)
    plain = run_pass(workload.operations(hj, inputs))
    reference = judge(workload, hj, inputs, plain, None)
    if workload.fresh_inputs_each_pass:
        inputs = workload.build(hj, seed)
    with Tracer() as tracer:
        traced = run_pass(workload.operations(hj, inputs))
    verdicts = judge(workload, hj, inputs, traced, reference)
    failures = [why for _, why in reference + verdicts if why]

    plain_rate = len(plain) / sum(r[2] for r in plain)
    traced_rate = len(traced) / sum(r[2] for r in traced)
    metrics = tracer.metrics()
    metrics["cli.stdout_bytes"] = (
        sum(workload.output_bytes(r[0]) for r in traced if r[1] is None), "count")
    metrics["trace.untraced_ops_per_s"] = (plain_rate, "1/s")
    metrics["trace.traced_ops_per_s"] = (traced_rate, "1/s")
    metrics["trace.overhead_x"] = (plain_rate / traced_rate, "ratio")
    report = {"passes": 2, "samples": len(plain) + len(traced),
              "outputs_sha256": digest(reference)}
    return metrics, len(plain) + len(traced), failures, report, tracer.span_table()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    loadavg = os.getloadavg()
    use_checkout_sources()

    workload = WORKLOADS[args.workload]()
    if args.trace:
        outcome = trace(workload, args.seed)
    else:
        outcome = measure(workload, args.seed, args.seconds)
    metrics, attempted, failures, report, spans = outcome
    failed = len(failures)
    report = dict(workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, git_rev=git_rev(),
                  python=platform.python_version(),
                  nproc=len(os.sched_getaffinity(0)), loadavg_start=loadavg,
                  attempted=attempted, failed=failed,
                  fail_ratio=failed / attempted, failures=failures[:5], **report)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    path.write_text(json.dumps({"report": report, "result": result, "spans": spans},
                               indent=1) + "\n")
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
