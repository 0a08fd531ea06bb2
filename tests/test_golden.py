"""Byte-identical ``--json`` regression oracle.

Each case runs one CLI command in-process with a fixed seed and compares its
stdout with a committed golden file under ``tests/golden/``. Any change to
these bytes must be deliberate: regenerate with

    PYTHONPATH=src python tests/test_golden.py

and record the reason in CHANGES.md. Regeneration prints, for each file,
whether its bytes are new, unchanged or CHANGED, and under each CHANGED
file every check whose residual or pass flag moved, with its old and new
state.
"""
import contextlib
import io
import json
import os
import pathlib
import sys
import tempfile
from itertools import zip_longest

import pytest

from acmslab.charts import DerivativeMode, chart_to_text
from acmslab.cli import main
from acmslab.gallery import gallery_chart

GOLDEN = pathlib.Path(__file__).with_name("golden")
S5_FD_CHART = "s5_fd.chart"  # relative, so the config label is stable
SASAKIAN_FD_CHART = "sasakian_r5_fd.chart"
FD_CHARTS = {S5_FD_CHART: "s5", SASAKIAN_FD_CHART: "sasakian_r5"}

CASES = {
    "validate_s5": ("validate", "--gallery", "s5", "--probes", "4", "--seed", "17"),
    "validate_sasakian_r5": ("validate", "--gallery", "sasakian_r5", "--probes", "4",
                             "--seed", "17"),
    "validate_cosymplectic_r5": ("validate", "--gallery", "cosymplectic_r5",
                                 "--probes", "4", "--seed", "17"),
    "validate_s5_fd": ("validate", "--chart", S5_FD_CHART, "--probes", "4", "--seed", "17"),
    "curvature_s5": ("curvature", "--gallery", "s5", "--probes", "3", "--seed", "5"),
    "curvature_s5_fd": ("curvature", "--chart", S5_FD_CHART, "--probes", "3", "--seed", "5"),
    "curvature_sasakian_r5": ("curvature", "--gallery", "sasakian_r5", "--probes", "3",
                              "--seed", "5"),
    "identities_s5": ("identities", "--gallery", "s5", "--probes", "2", "--seed", "23"),
    "identities_s5_fd": ("identities", "--chart", S5_FD_CHART, "--probes", "2",
                         "--seed", "23"),
    "identities_sasakian_r5": ("identities", "--gallery", "sasakian_r5", "--probes", "3",
                               "--seed", "4"),
    "identities_cosymplectic_r5": ("identities", "--gallery", "cosymplectic_r5",
                                   "--probes", "3", "--seed", "4"),
    "identities_sasakian_r5_fd": ("identities", "--chart", SASAKIAN_FD_CHART,
                                  "--probes", "3", "--seed", "4"),
    "lemma_dim8": ("lemma", "--dim", "8", "--trials", "10", "--seed", "3"),
    "lemma_dim6": ("lemma", "--dim", "6", "--trials", "10", "--seed", "3"),
    "lemma_dim16": ("lemma", "--dim", "16", "--trials", "4", "--seed", "3"),
    "lemma_dim14": ("lemma", "--dim", "14", "--trials", "8", "--seed", "3"),
    # more trials than one block of the stacked campaigns: pins the draw order
    "lemma_dim8_blocks": ("lemma", "--dim", "8", "--trials", "150", "--seed", "3"),
}


def write_fd_charts(directory: pathlib.Path) -> None:
    for filename, name in FD_CHARTS.items():
        fd = gallery_chart(name).with_mode(DerivativeMode.parse("fd"))
        (directory / filename).write_text(chart_to_text(fd))


def run_case(argv) -> str:
    """stdout of one ``--json`` run; run from the directory holding the fd charts."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main([*argv, "--json"])
    return buf.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    write_fd_charts(path)
    return path


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_matches_golden(name, workdir, monkeypatch):
    monkeypatch.delenv("ACMSLAB_SEED", raising=False)
    monkeypatch.chdir(workdir)
    expected = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert run_case(CASES[name]) == expected


def _state(check) -> str:
    if check is None:
        return "absent"
    return f"{check['residual']!r} {'PASS' if check['pass'] else 'FAIL'}"


def moved_checks(before: str, after: str) -> list[str]:
    """``name: old -> new`` for each check of two ``--json`` documents,
    matched by position (a name may occur twice), whose residual or pass
    flag differs."""
    lines = []
    for old, new in zip_longest(*(json.loads(text)["checks"] for text in (before, after))):
        if old is None or new is None or (old["name"], old["residual"], old["pass"]) != (
                new["name"], new["residual"], new["pass"]):
            name = " -> ".join(dict.fromkeys(c["name"] for c in (old, new) if c is not None))
            lines.append(f"{name}: {_state(old)} -> {_state(new)}")
    return lines


def test_moved_checks_lists_each_changed_check():
    def doc(*checks):
        return json.dumps({"checks": [dict(zip(("name", "residual", "pass"), c))
                                      for c in checks]})

    before = doc(("a", 1.0, True), ("gate", 0.5, False), ("gate", 0.5, False), ("b", 2.0, True))
    after = doc(("a", 1.0, True), ("gate", 0.5, False), ("gate", 0.25, True))
    assert moved_checks(before, after) == ["gate: 0.5 FAIL -> 0.25 PASS",
                                           "b: 2.0 PASS -> absent"]
    assert moved_checks(after, after) == []


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    os.environ.pop("ACMSLAB_SEED", None)
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        write_fd_charts(pathlib.Path(tmp))
        os.chdir(tmp)
        try:
            outputs = {name: run_case(argv) for name, argv in CASES.items()}
        finally:
            os.chdir(here)
    for name, text in outputs.items():
        path = GOLDEN / f"{name}.json"
        before = path.read_text(encoding="utf-8") if path.exists() else None
        path.write_text(text, encoding="utf-8")
        status = "new" if before is None else "unchanged" if before == text else "CHANGED"
        print(f"{status:9} {path}", file=sys.stderr)
        if status == "CHANGED":
            for line in moved_checks(before, text):
                print(f"          {line}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
