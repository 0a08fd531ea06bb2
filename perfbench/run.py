"""acmslab benchmark: time the CLI end to end on inputs with known answers.

    python3 perfbench/run.py --workload identities_s5 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20     # every workload, one table

Run from the root of a checkout; the program is imported from its `src`.
Each run starts fresh Python processes with BLAS and OpenMP pinned to one
thread: a few that only set up (their median is `setup_s`) and one that sets
up, runs the workload's closed loop for `--seconds` and checks every answer
(see worker.py and workloads.py). End-to-end times are scaled to a
reference machine speed measured in the same process (see speed.py).

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. The full record, with
the measured times, the machine and the versions, goes to
perfbench/out/results/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("identities_s5", "fd_s5", "validate_darboux", "lemma_mod4")
SETUP_SAMPLES = 3       # set-ups per run, the measuring process's included
RUN_LIMIT_S = 170.0     # a run must end within 180 s
DARBOUX_DIMS = (3, 5, 7, 9)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_worker(args: list[str], deadline: float) -> dict:
    """Run worker.py to completion and return its last-line JSON record."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a workload process")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"workload process exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(values: list[float]) -> tuple[int, float]:
    """(p, value) for the highest integer percentile p, by nearest rank,
    with at least 10 samples beyond it; the maximum when there are 10 or
    fewer samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return 100, ordered[-1]
    p = 100 * (n - 10) // n
    rank = max(1, math.ceil(p * n / 100))
    return p, ordered[rank - 1]


def environment() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "acmslab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest(),
            "nproc": len(os.sched_getaffinity(0)), "platform": sys.platform}


def end_to_end(record: dict, setups: list[tuple[float, float]]) -> tuple[dict, dict]:
    """Times in reference seconds (see speed.py); the notes keep the
    measured values."""
    phase = record["phases"]["plain"]
    measured = phase["op_s"]
    op_s = speed.scale(record["kernel"], measured, phase["probe_s"])
    p, tail_s = tail(op_s)
    metrics = {
        "items_per_s": (phase["items"] / sum(op_s), "1/s"),
        "verdict_s.p50": (statistics.median(op_s), "s"),
        "verdict_s.tail": (tail_s, "s"),
        "setup_s": (statistics.median(s * f for s, f in setups), "s"),
        "peak_rss_mb": (record["peak_rss_mb"], "MB"),
    }
    notes = {"items_per_s": f"measured {phase['items'] / sum(measured):.6g}",
             "verdict_s.p50": f"measured {statistics.median(measured):.6g}",
             "verdict_s.tail": f"measured {tail(measured)[1]:.6g}, p{p} of {len(op_s)} ops",
             "setup_s": f"measured {statistics.median(s for s, _ in setups):.6g}, "
                        f"median of {len(setups)} set-ups"}
    return metrics, notes


def per_layer(record: dict) -> dict:
    metrics = {name: tuple(v) for name, v in record["layers"].items()}
    plain, traced = record["phases"]["plain"], record["phases"]["traced"]
    for d in DARBOUX_DIMS:
        times = plain["call_s"].get(f"d{d}") if record["workload"] == "validate_darboux" else None
        metrics[f"validate_darboux.d{d}.op_s"] = (statistics.median(times) if times else 0.0, "s")
    rate = {k: ph["items"] / sum(ph["op_s"]) for k, ph in (("plain", plain), ("traced", traced))}
    metrics["trace.overhead"] = (rate["traced"] / rate["plain"], "ratio")
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: int, tiny: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    common = ["--workload", name, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    samples = 1 if tiny else SETUP_SAMPLES
    setups = []
    for _ in range(samples - 1):
        only = run_worker([*common, "--setup-only"], deadline)
        setups.append((only["setup_s"], only["speed"]))
    record = run_worker([*common, "--seconds", str(seconds), "--trace", str(trace)], deadline)
    setups.append((record["setup_s"],
                   speed.factor(record["kernel"], record["phases"]["plain"]["probe_s"][:1])))
    if trace:
        metrics, notes = per_layer(record), {}
    else:
        metrics, notes = end_to_end(record, setups)
    result = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "tiny": tiny, "environment": {**environment(), **record["versions"]},
              "setup_samples": setups, "metrics": metrics, "notes": notes,
              "attempted": record["attempted"], "failed": record["failed"],
              "failed_ops_frac": record["failed"] / record["attempted"],
              "failures": record["failures"], "record": record}
    out = HERE / "out" / "results"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(result, indent=1))
    return result


def print_result(result: dict) -> None:
    print(f"# {result['workload']}  seed={result['seed']}  seconds={result['seconds']}"
          f"  trace={result['trace']}  ops={result['attempted']}")
    for name, (value, unit) in result["metrics"].items():
        note = result["notes"].get(name, "")
        print(f"{result['workload']:<17} {name:<46} {value:>14.6g} {unit:<8} {note}")
    print(f"{result['workload']:<17} {'failed_ops_frac':<46} {result['failed_ops_frac']:>14.6g} "
          f"{'ratio':<8} {result['failed']}/{result['attempted']}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="acmslab benchmark")
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="1 point or trial per call and one set-up (smoke test)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "acmslab" / "__init__.py").is_file():
        print(f"run.py: no acmslab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(n, args.seed, args.seconds, args.trace, args.tiny)
                   for n in names]
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    for result in results:
        print_result(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
