"""Byte-identical ``--json`` regression oracle.

Each case runs one CLI command in-process with a fixed seed and compares its
stdout with a committed golden file under ``tests/golden/``. Any change to
these bytes must be deliberate: regenerate with

    PYTHONPATH=src python tests/test_golden.py

and record the reason in CHANGES.md.
"""
import contextlib
import io
import os
import pathlib
import sys
import tempfile

import pytest

from acmslab.charts import DerivativeMode, chart_to_text
from acmslab.cli import main
from acmslab.gallery import gallery_chart

GOLDEN = pathlib.Path(__file__).with_name("golden")
S5_FD_CHART = "s5_fd.chart"  # relative, so the config label is stable

CASES = {
    "validate_s5": ("validate", "--gallery", "s5", "--probes", "4", "--seed", "17"),
    "validate_sasakian_r5": ("validate", "--gallery", "sasakian_r5", "--probes", "4",
                             "--seed", "17"),
    "validate_cosymplectic_r5": ("validate", "--gallery", "cosymplectic_r5",
                                 "--probes", "4", "--seed", "17"),
    "curvature_s5": ("curvature", "--gallery", "s5", "--probes", "3", "--seed", "5"),
    "identities_s5": ("identities", "--gallery", "s5", "--probes", "2", "--seed", "23"),
    "identities_s5_fd": ("identities", "--chart", S5_FD_CHART, "--probes", "2",
                         "--seed", "23"),
    "lemma_dim8": ("lemma", "--dim", "8", "--trials", "10", "--seed", "3"),
    "lemma_dim6": ("lemma", "--dim", "6", "--trials", "10", "--seed", "3"),
}


def write_s5_fd_chart(directory: pathlib.Path) -> None:
    chart = gallery_chart("s5")
    fd = chart.with_mode(DerivativeMode.parse("fd"))
    (directory / S5_FD_CHART).write_text(chart_to_text(fd))


def run_case(argv) -> str:
    """stdout of one ``--json`` run; run from the directory holding the fd chart."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main([*argv, "--json"])
    return buf.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    write_s5_fd_chart(path)
    return path


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_matches_golden(name, workdir, monkeypatch):
    monkeypatch.delenv("ACMSLAB_SEED", raising=False)
    monkeypatch.chdir(workdir)
    expected = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert run_case(CASES[name]) == expected


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    os.environ.pop("ACMSLAB_SEED", None)
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        write_s5_fd_chart(pathlib.Path(tmp))
        os.chdir(tmp)
        try:
            outputs = {name: run_case(argv) for name, argv in CASES.items()}
        finally:
            os.chdir(here)
    for name, text in outputs.items():
        (GOLDEN / f"{name}.json").write_text(text, encoding="utf-8")
        print(f"wrote {GOLDEN / name}.json", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
