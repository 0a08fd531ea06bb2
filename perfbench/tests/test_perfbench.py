"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import darboux
import run
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cli_json(argv):
    from acmslab import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def test_smoke_all_workloads():
    result = last_json(bench("--workload", "all", "--seconds", "0", "--tiny"))
    assert result["correct"] and result["failed"] == 0
    names = [m["name"] for m in BENCHMARK["end_to_end"]]
    assert sorted(result["metrics"]) == sorted(
        f"{w}.{n}" for w in run.WORKLOADS for n in names)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


def test_traced_smoke_reports_every_layer_metric():
    names = sorted(m["name"] for m in BENCHMARK["per_layer"])
    s5 = last_json(bench("--workload", "identities_s5", "--seconds", "0", "--tiny",
                         "--trace", "1"))
    assert s5["correct"]
    assert sorted(s5["metrics"]) == names
    assert s5["metrics"]["curvature.riemann.per_point"]["value"] == 3
    assert s5["metrics"]["curvature.modified_riemann.per_point"]["value"] == 2
    lemma = last_json(bench("--workload", "lemma_mod4", "--seconds", "0", "--tiny",
                            "--trace", "1"))
    assert lemma["correct"]
    assert lemma["metrics"]["exprs.evaluate.calls"]["value"] == 0
    assert lemma["metrics"]["quadruples.random_constrained_operator.calls"]["value"] > 0


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "lemma_mod4", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_checker_accepts_real_answers_and_flags_tampering():
    rc, text = cli_json(["identities", "--gallery", "s5", "--probes", "1", "--json",
                         "--seed", "4"])
    doc = json.loads(text)
    assert checks.check_identities(rc, doc, seed=4, points=1) == []

    tampered = json.loads(text)
    tampered["checks"][5]["residual"] = 1.9
    assert checks.check_identities(rc, tampered, seed=4, points=1)

    dropped = json.loads(text)
    del dropped["checks"][3]
    assert checks.check_identities(rc, dropped, seed=4, points=1)

    nan = json.loads(text)
    nan["checks"][0]["residual"] = float("nan")
    assert checks.check_identities(rc, nan, seed=4, points=1)

    assert checks.check_identities(0, doc, seed=5, points=1)  # wrong seed
    skipped = json.loads(text)
    skipped["summary"]["skipped_suites"] = "collapse"
    assert checks.check_identities(rc, skipped, seed=4, points=1)


def test_darboux_answers_and_tampering(tmp_path):
    assert darboux.contact_volume(1) == 0.125
    assert darboux.contact_volume(4) == 0.046875
    path = tmp_path / "d5.chart"
    path.write_text(darboux.darboux_sasakian_text(2))
    rc, text = cli_json(["validate", "--chart", str(path), "--probes", "2", "--json",
                         "--seed", "1"])
    doc = json.loads(text)
    args = dict(seed=1, points=2, n=2, volume=darboux.contact_volume(2))
    assert checks.check_validate_darboux(rc, doc, **args) == []
    doc["checks"][11]["residual"] = 1.9  # contact_volume
    assert checks.check_validate_darboux(rc, doc, **args)
    assert checks.check_validate_darboux(0, json.loads(text), **args)


def test_darboux_generator_reproduces_gallery_chart():
    darboux.self_check()


def test_lemma_checker_needs_the_right_branch():
    rc, text = cli_json(["lemma", "--dim", "14", "--trials", "1", "--json", "--seed", "2"])
    doc = json.loads(text)
    assert checks.check_lemma(rc, doc, seed=2, dim=14, trials=1) == []
    doc["summary"]["branch"] = "decomposition"
    assert checks.check_lemma(rc, doc, seed=2, dim=14, trials=1)


def test_traced_call_prints_identical_json():
    from acmslab import charts, exprs
    argv = ["identities", "--gallery", "s5", "--probes", "1", "--json", "--seed", "8"]
    plain = cli_json(argv)
    tracer = Tracer()
    tracer.install()
    try:
        assert charts.evaluate is not exprs.evaluate
        traced = cli_json(argv)
    finally:
        tracer.uninstall()
    assert traced == plain
    assert charts.evaluate is exprs.evaluate
    assert tracer.stats["exprs.evaluate"][0] > 0
    assert tracer.stats["curvature.riemann"][0] == 3


def test_tail_percentile_leaves_ten_samples_beyond():
    values = [float(i) for i in range(1, 34)]
    p, value = run.tail(values)
    assert p == 69 and sum(v > value for v in values) == 10
    assert run.tail([1.0, 3.0, 2.0]) == (100, 3.0)


def test_op_seeds_are_distinct_and_replayable():
    seeds = [workloads.op_seed(7, i) for i in range(1000)]
    assert len(set(seeds)) == 1000
    assert seeds == [workloads.op_seed(7, i) for i in range(1000)]
    assert workloads.op_seed(8, 0) not in seeds


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_warmup_covers_every_input(name, tmp_path):
    plan = workloads.WORKLOADS[name](str(tmp_path), False)
    inputs = {call.label for op in plan.cycle for call in op}
    assert {call.label for call in plan.warmup} == inputs
    assert all(call.items == 1 for call in plan.warmup)


@pytest.mark.parametrize("kernel", ["tree", "array"])
def test_speed_scaling_to_reference_seconds(kernel):
    import speed
    run_kernel, ref = speed.KERNELS[kernel]
    assert speed.factor(kernel, [ref] * 3) == pytest.approx(1.0)
    assert speed.factor(kernel, [2 * ref, 2 * ref]) == pytest.approx(0.5)
    # op 0 uses the kernel times after it; later ops the mean of both neighbours
    assert speed.scale(kernel, [1.0, 1.0, 3.0], [ref, 3 * ref, 3 * ref]) == pytest.approx(
        [1.0, 0.5, 1.0])
    assert run_kernel() > 0
