"""One workload in one fresh process: set up, run the closed loop, check
every answer, print one JSON record as the last line of standard output.

`run.py` starts this with PYTHONPATH pointing at the checkout's `src` and
BLAS/OpenMP pinned to one thread. With ``--setup-only`` it stops after
set-up and reports only its duration. With ``--trace 1`` the first half of
the time runs untraced and the second half traced, so the tracing overhead
is measured within the run; set-up is traced too, so the one-off symbolic
differentiation and parsing are counted.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback

import speed
from workloads import WORKLOADS, op_seed

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
PROBES_PER_OP = 3   # speed-kernel runs after each op, averaged
SETUP_PROBES = 20   # speed-kernel runs after a set-up-only run


def run_call(cli, call, seed, tracer):
    """Run one CLI call in-process; returns (exit code or None, stdout,
    seconds, traceback or None)."""
    argv = [*call.argv, "--seed", str(seed)]
    out, err = io.StringIO(), io.StringIO()
    error = None
    if tracer is not None:
        tracer.scope = call.scope
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a traceback is a failed op, and the loop goes on
        rc, error = None, traceback.format_exc()
    dt = time.perf_counter() - t0
    if tracer is not None:
        tracer.add_points(call.scope, call.items)
    if rc == 2 and error is None:
        error = err.getvalue().strip() or "exit code 2"
    return rc, out.getvalue(), dt, error


def problems_of(call, seed, rc, text, error) -> list[str]:
    if error is not None:
        return [f"{call.label}: {error.strip().splitlines()[-1]}"]
    try:
        doc = json.loads(text)
    except ValueError:
        return [f"{call.label}: output is not JSON"]
    return [f"{call.label}: {p}" for p in call.check(rc, doc, seed)]


class Loop:
    """Closed loop with one client over a workload's op cycle."""

    def __init__(self, cli, plan, seed):
        self.cli = cli
        self.plan = plan
        self.seed = seed
        self.index = 0
        self.first_outputs = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def op(self, index, tracer, phase, *, expect=None):
        calls = self.plan.cycle[index % len(self.plan.cycle)]
        seed = op_seed(self.seed, index)
        if tracer is not None:
            tracer.op = index
        results = [run_call(self.cli, call, seed, tracer) for call in calls]
        problems = []
        for call, (rc, text, _, error) in zip(calls, results):
            problems += problems_of(call, seed, rc, text, error)
        outputs = [text for _, text, _, _ in results]
        if expect is not None and outputs != expect:
            problems.append("repeated seed gave different --json bytes")
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures += [f"op {index} (seed {seed}): {p}" for p in problems]
        else:
            phase["items"] += sum(call.items for call in calls)
        phase["op_s"].append(sum(dt for _, _, dt, _ in results))
        for call, (_, _, dt, _) in zip(calls, results):
            phase["call_s"].setdefault(call.label, []).append(dt)
        kernel = speed.KERNELS[self.plan.kernel][0]
        phase["probe_s"].append(statistics.mean(kernel() for _ in range(PROBES_PER_OP)))
        return outputs

    def run(self, seconds, tracer) -> dict:
        """Run ops until `seconds` have passed and the op cycle is complete,
        so every phase sees the workload's full mix of inputs."""
        phase = {"items": 0, "op_s": [], "call_s": {}, "probe_s": []}
        deadline = time.perf_counter() + seconds
        while True:
            outputs = self.op(self.index, tracer, phase)
            if self.index == 0:
                self.first_outputs = outputs
            self.index += 1
            if (time.perf_counter() >= deadline
                    and self.index % len(self.plan.cycle) == 0):
                return phase

    def repeat_first(self, tracer, phase) -> None:
        """The last op repeats op 0's seed; its output must match byte for byte."""
        self.op(0, tracer, phase, expect=self.first_outputs)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="1 point or trial per call")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import acmslab.cli as cli  # noqa: E402  (timed as part of set-up)

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    chart_dir = os.path.join(OUT_DIR, "charts")
    os.makedirs(chart_dir, exist_ok=True)
    plan = WORKLOADS[args.workload](chart_dir, args.tiny)
    for call in plan.warmup:
        run_call(cli, call, op_seed(args.seed, 0), tracer)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        kernel = speed.KERNELS[plan.kernel][0]
        probes = [kernel() for _ in range(SETUP_PROBES)]
        print(json.dumps({"setup_s": setup_s, "speed": speed.factor(plan.kernel, probes)}))
        return 0

    loop = Loop(cli, plan, args.seed)
    phases = {}
    if tracer is None:
        phases["plain"] = last = loop.run(args.seconds, None)
    else:
        tracer.uninstall()
        phases["plain"] = loop.run(args.seconds / 2, None)
        tracer.install()
        phases["traced"] = last = loop.run(args.seconds / 2, tracer)
    loop.repeat_first(tracer, last)

    import numpy
    import scipy

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "setup_s": setup_s, "kernel": plan.kernel,
        "attempted": loop.attempted, "failed": loop.failed,
        "failures": loop.failures[:20], "phases": phases,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer is not None:
        tracer.uninstall()
        record["layers"] = tracer.metrics()
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}.json.gz")
        tracer.write_spans(spans_path)
        record["spans"] = spans_path
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
