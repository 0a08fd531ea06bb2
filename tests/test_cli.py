"""End-to-end tests of the command line front end (in-process)."""
import dataclasses
import importlib.util
import json
import math
import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest

from acmslab import charts, cli, curvature, linalg, structure
from acmslab.charts import DerivativeMode, chart_to_text
from acmslab.cli import build_parser, main
from acmslab.config import DEFAULT_TOLERANCES, PROBES_PER_RESIDUAL, Tolerances
from acmslab.gallery import GALLERY_NAMES, gallery_chart
from acmslab.quadruples import ComplexStructuredSpace

S5 = ["--gallery", "s5"]
FAST = ["--probes", "2"]

# flat R^5 with a constant structure: valid, but not contact
FLAT_TEXT = ("dim = 5\n"
             + "".join(f"g[{i}][{i}] = 1\n" for i in range(1, 6))
             + "phi[3][1] = 1\nphi[1][3] = -1\nphi[4][2] = 1\nphi[2][4] = -1\n"
             + "xi[5] = 1\neta[5] = 1\n")

# dimension 1: no horizontal space, so no almost contact metric structure
ONE_DIM_TEXT = "dim = 1\ng[1][1] = 1\nxi[1] = 1\neta[1] = 1\n"

# flat R^4 with a constant phi: carries no almost contact metric structure
FOUR_DIM_TEXT = ("dim = 4\n"
                 + "".join(f"g[{i}][{i}] = 1\n" for i in range(1, 5))
                 + "phi[2][1] = 1\nphi[1][2] = -1\nxi[4] = 1\neta[4] = 1\n")

# where x1 > 0, g[1][1] dwarfs the rest, so every pair of g-unit horizontal
# probes is nearly parallel to e_1
STEEP_TEXT = ("dim = 5\ng[1][1] = exp(300*x1)\n"
              + "".join(f"g[{i}][{i}] = 1\n" for i in range(2, 6))
              + "xi[5] = 1\neta[5] = 1\n")

# xi[1]'s values are finite, but its central differences along x2 overflow
OVERFLOWING_FD_TEXT = ("dim = 3\nderivative_mode = fd\n"
                       "g[1][1] = 1\ng[2][2] = 1\ng[3][3] = 1\n"
                       "phi[2][1] = 1\nphi[1][2] = -1\nxi[3] = 1\neta[3] = 1\n"
                       "xi[1] = 1e308 * sin(100000 * x2)\n")

# the fd S^5 chart with that xi[1]
OVERFLOWING_S5_FD_TEXT = "".join(
    line + "\n"
    for line in chart_to_text(gallery_chart("s5").with_mode(DerivativeMode("fd"))).splitlines()
    if not line.startswith("xi[1] ")) + "xi[1] = 1e308 * sin(100000 * x2)\n"

# every grid reads finite; the horizontal skew operator does not
OVERFLOWING_SKEW_TEXT = ("dim = 3\ng[1][1] = 1\ng[2][2] = 1\ng[3][3] = 1\n"
                         "phi[1][2] = -1\n"
                         "phi[2][1] = 1e300 * (1.874 - sqrt(1 + (1.783 * x1)^2))\n"
                         "phi[3][1] = 0.614 + x1\n"
                         "xi[3] = 1e308 * (sqrt(1 + ((1.942 + x1)^-2)^2))\neta[3] = 1\n")

REPO = pathlib.Path(__file__).resolve().parents[1]
DARBOUX = REPO / "perfbench" / "darboux.py"


def _load_darboux():
    """The benchmark's Darboux chart generator, loaded by file path."""
    spec = importlib.util.spec_from_file_location("perfbench_darboux", DARBOUX)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(autouse=True)
def clean_seed_env(monkeypatch):
    monkeypatch.delenv("ACMSLAB_SEED", raising=False)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def count_calls(monkeypatch, targets):
    """Wrap each ``(owner, name)`` attribute so its calls are counted by name
    in the returned dict."""
    calls = dict.fromkeys((name for _, name in targets), 0)
    for owner, name in targets:
        original = getattr(owner, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def strict_json(text):
    """Parse as RFC 8259 JSON, which has no NaN or Infinity tokens."""
    return json.loads(text, parse_constant=_reject_constant)


class TestValidate:
    def test_s5_passes(self, capsys):
        code, out, _ = run(capsys, "validate", *S5, *FAST)
        assert code == 0
        assert "VERDICT: PASS" in out
        assert "# acmslab validate" in out
        assert "[PASS] phi_squared" in out
        assert "[PASS] contact_sigma_min" in out

    def test_sasakian_fails_condition_checks(self, capsys):
        code, out, _ = run(capsys, "validate", "--gallery", "sasakian_r5", *FAST)
        assert code == 1
        assert "VERDICT: FAIL" in out
        assert "[FAIL] skew_phi_anticommutation" in out
        # the defining structure identities still hold
        assert "[PASS] phi_squared" in out
        assert "[PASS] contact_sigma_min" in out

    def test_cosymplectic_fails_contact(self, capsys):
        code, out, _ = run(capsys, "validate", "--gallery", "cosymplectic_r5", *FAST)
        assert code == 1
        assert "[FAIL] contact_sigma_min" in out

    def test_json_document_shape(self, capsys):
        code, out, _ = run(capsys, "validate", *S5, *FAST, "--json")
        assert code == 0
        doc = json.loads(out)
        assert sorted(doc) == ["checks", "command", "config", "summary", "verdict"]
        assert doc["verdict"] == "PASS"
        assert doc["command"] == "validate"
        assert doc["config"]["chart"] == "s5"
        assert all(set(c) == {"name", "residual", "tolerance", "pass"}
                   for c in doc["checks"])
        assert doc["summary"]["dim"] == 5

    def test_json_deterministic(self, capsys):
        _, first, _ = run(capsys, "validate", *S5, *FAST, "--json", "--seed", "3")
        _, second, _ = run(capsys, "validate", *S5, *FAST, "--json", "--seed", "3")
        assert first == second

    def test_chart_file_source(self, capsys, tmp_path):
        path = tmp_path / "flat.chart"
        path.write_text(FLAT_TEXT)
        code, out, _ = run(capsys, "validate", "--chart", str(path), *FAST)
        assert code == 1  # valid structure, but not contact
        assert "[PASS] phi_squared" in out

    def test_missing_chart_file(self, capsys):
        code, _, err = run(capsys, "validate", "--chart", "/no/such/file", *FAST)
        assert code == 2
        assert "error" in err

    def test_even_dim_chart_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "even.chart"
        path.write_text("dim = 2\ng[1][1] = 1\ng[2][2] = 1\n")
        code, _, err = run(capsys, "validate", "--chart", str(path), *FAST)
        assert code == 2
        assert "odd" in err

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_darboux_dimension_sweep(self, capsys, tmp_path, n):
        # Sasakian, so not nearly cosymplectic (exit 1), with hand-known
        # contact answers; d = 11 is out of reach of a d! permutation sum
        darboux = _load_darboux()
        path = tmp_path / "darboux.chart"
        path.write_text(darboux.darboux_sasakian_text(n))
        code, out, _ = run(capsys, "validate", "--chart", str(path), *FAST, "--json")
        assert code == 1
        summary = json.loads(out)["summary"]
        assert summary["dim"] == 2 * n + 1
        assert summary["contact_sigma_min"] == pytest.approx(1.0, rel=1e-12)
        assert summary["contact_volume"] == pytest.approx(darboux.contact_volume(n),
                                                          rel=1e-12)

    def test_one_horizontal_basis_per_point(self, capsys, monkeypatch):
        # the eta-parallel and contact checks share the geometry's one frame,
        # built once for every point of the sample
        calls = count_calls(monkeypatch, ((curvature, "horizontal_basis"),
                                          (structure, "horizontal_basis")))
        code, _, _ = run(capsys, "validate", *S5, "--probes", "3")
        assert code == 0
        assert calls["horizontal_basis"] == 1

    @pytest.mark.parametrize("probes", ["3", "20"])
    def test_one_geometry_per_sample(self, capsys, monkeypatch, probes):
        # the whole sample is one stack: one geometry and one Pfaffian pass,
        # however many points it holds
        calls = count_calls(monkeypatch, ((curvature.PointGeometry, "__init__"),
                                          (curvature, "contact_volume_coefficient")))
        code, _, _ = run(capsys, "validate", *S5, "--probes", probes)
        assert code == 0
        assert calls == {"__init__": 1, "contact_volume_coefficient": 1}

    # at seed 0, point 0 reads phi but not g, and point 1 fails phi; every
    # sample-reading command reads its sample as one stack, grid by grid, in
    # the order its checks need the grids: `validate` reads phi before g, so
    # the later point's phi error wins over the earlier point's g error, and
    # `identities` and `curvature` read g first
    @pytest.mark.parametrize("command, first", [
        ("validate", "phi[3][1] at point [0.7429600390998992, "),
        ("identities", "g[1][1] at point [0.24653103717861777, "),
        ("curvature", "g[1][1] at point [0.24653103717861777, "),
    ])
    def test_sample_is_read_grid_by_grid(self, capsys, tmp_path, command, first):
        path = tmp_path / "two_failures.chart"
        path.write_text(FLAT_TEXT.replace("g[1][1] = 1\n", "g[1][1] = 1 + sqrt(x2)\n")
                        .replace("phi[3][1] = 1\n", "phi[3][1] = sqrt(0.5 - x1)\n"))
        source = (command, "--chart", str(path), "--seed", "0")
        code, out, err = run(capsys, *source, "--probes", "2")
        assert (code, out) == (2, "")
        assert err.startswith(f"acmslab: error: {first}")
        # a sample of point 0 alone keeps its own message
        code, out, err = run(capsys, *source, "--probes", "1")
        assert (code, out) == (2, "")
        assert err.startswith("acmslab: error: g[1][1] at point [0.24653103717861777, ")

    @pytest.mark.parametrize("command", ["identities", "curvature"])
    def test_later_point_failing_g_wins(self, capsys, tmp_path, command):
        # at seed 0, point 0 fails xi and point 1 fails g; g is read first
        # over the whole sample, so point 1's g error wins, where a loop over
        # the points would have stopped at point 0's xi
        path = tmp_path / "two_failures.chart"
        path.write_text(FLAT_TEXT.replace("g[1][1] = 1\n", "g[1][1] = 1 + sqrt(0.5 - x1)\n")
                        .replace("xi[5] = 1\n", "xi[5] = 1 + 0*sqrt(x2)\n"))
        source = (command, "--chart", str(path), "--seed", "0")
        code, out, err = run(capsys, *source, "--probes", "2")
        assert (code, out) == (2, "")
        assert err.startswith("acmslab: error: g[1][1] at point [0.7429600390998992, ")
        code, out, err = run(capsys, *source, "--probes", "1")
        assert (code, out) == (2, "")
        assert err.startswith("acmslab: error: xi[5] at point [0.24653103717861777, ")

    @pytest.mark.parametrize("target, value, failing", [
        ("killing_residual", lambda n: np.full(n, math.nan), ["reeb_killing"]),
        ("contact_residuals", lambda n: (np.full(n, math.nan), np.full(n, math.nan)),
         ["contact_sigma_min", "contact_volume"]),
    ])
    def test_nan_residual_fails(self, capsys, monkeypatch, target, value, failing):
        # max(0.0, nan) is 0.0 and min(inf, nan) is inf: a NaN must not pass;
        # the residuals come one per point of the sample's geometry
        monkeypatch.setattr(f"acmslab.cli.{target}", lambda pg: value(len(pg.y)))
        code, out, _ = run(capsys, "validate", *S5, *FAST, "--json")
        assert code == 1
        checks = strict_json(out)["checks"]
        assert [c["name"] for c in checks if not c["pass"]] == failing
        # strict JSON: a non-finite residual prints as null
        assert all(c["residual"] is None for c in checks if c["name"] in failing)


# a short run of each subcommand, all of which draw from a seeded generator
SEEDED = {
    "validate": ("validate", *S5, *FAST),
    "lemma": ("lemma", "--dim", "4", "--trials", "2"),
    "curvature": ("curvature", *S5, *FAST, "--planes", "2"),
    "identities": ("identities", *S5, *FAST),
}


class TestSeedResolution:
    def test_env_seed_used(self, capsys, monkeypatch):
        monkeypatch.setenv("ACMSLAB_SEED", "11")
        _, out, _ = run(capsys, "validate", *S5, *FAST, "--json")
        assert json.loads(out)["config"]["seed"] == 11

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("ACMSLAB_SEED", "11")
        _, out, _ = run(capsys, "validate", *S5, *FAST, "--json", "--seed", "4")
        assert json.loads(out)["config"]["seed"] == 4

    def test_bad_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("ACMSLAB_SEED", "eleven")
        code, _, err = run(capsys, "validate", *S5, *FAST)
        assert code == 2
        assert "ACMSLAB_SEED" in err

    @pytest.mark.parametrize("command", sorted(SEEDED))
    def test_negative_flag_seed_is_usage_error(self, capsys, command):
        code, out, err = run(capsys, *SEEDED[command], "--seed", "-1")
        assert (code, out) == (2, "")
        assert err == "acmslab: error: --seed must be a non-negative integer, got -1\n"

    @pytest.mark.parametrize("command", sorted(SEEDED))
    def test_negative_env_seed_is_usage_error(self, capsys, monkeypatch, command):
        monkeypatch.setenv("ACMSLAB_SEED", "-5")
        code, out, err = run(capsys, *SEEDED[command])
        assert (code, out) == (2, "")
        assert err == ("acmslab: error: ACMSLAB_SEED must be a non-negative integer, "
                       "got -5\n")


class TestToleranceOverrides:
    def test_override_flips_verdict(self, capsys):
        code, out, _ = run(capsys, "validate", *S5, *FAST, "--tol", "contact=10")
        assert code == 1
        assert "[FAIL] contact_sigma_min" in out

    def test_unknown_key(self, capsys):
        code, _, err = run(capsys, "validate", *S5, "--tol", "bogus=1")
        assert code == 2
        assert "unknown tolerance" in err

    def test_bad_value(self, capsys):
        code, _, err = run(capsys, "validate", *S5, "--tol", "contact=tiny")
        assert code == 2

    def test_missing_equals(self, capsys):
        code, _, err = run(capsys, "validate", *S5, "--tol", "contact")
        assert code == 2
        assert "KEY=VALUE" in err

    # a NaN gate never fires, so these once ended in a message about the
    # chart (rank) or in a PASS (acms_exact, identity)
    @pytest.mark.parametrize("command, override", [
        ("identities", "rank=nan"),
        ("validate", "acms_exact=inf"),
        ("validate", "identity=-1"),
    ])
    def test_non_finite_or_negative_value_is_usage_error(self, capsys, command, override):
        code, out, err = run(capsys, command, *S5, *FAST, "--tol", override)
        assert (code, out) == (2, "")
        key, _, value = override.partition("=")
        assert err == (f"acmslab: error: --tol {key}: must be finite and non-negative, "
                       f"got {value!r}\n")


    # thresholds that no check takes from the chosen tolerances are not names
    @pytest.mark.parametrize("name", ["metric_pd", "eigen_residual"])
    def test_name_no_check_reads_is_unknown(self, capsys, name):
        code, out, err = run(capsys, "validate", *S5, *FAST, "--tol", f"{name}=1e6")
        assert (code, out) == (2, "")
        assert "unknown tolerance name" in err and name in err

    def test_readme_table_names_every_field(self):
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        table = readme.split("### Tolerance names", 1)[1].split("\n## ", 1)[0]
        names = [line.split("`")[1] for line in table.splitlines() if line.startswith("| `")]
        assert names == [f.name for f in dataclasses.fields(Tolerances)]

    def test_calls_in_one_process_share_one_parser(self, capsys):
        # an override, a usage error and a default run in a row: the cached
        # parser carries nothing from one call into the next
        argv = ["identities", *S5, "--probes", "1", "--json"]
        code, out, _ = run(capsys, *argv, "--tol", "identity=0.5")
        assert code == 0
        tolerances = {c["name"]: c["tolerance"] for c in strict_json(out)["checks"]}
        assert tolerances["defect_collapse"] == 0.5
        with pytest.raises(SystemExit) as exc:
            main(["identities", "--gallery", "s9"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, out, _ = run(capsys, *argv)
        assert code == 0
        tolerances = {c["name"]: c["tolerance"] for c in strict_json(out)["checks"]}
        assert tolerances["defect_collapse"] == DEFAULT_TOLERANCES.identity
        assert build_parser() is build_parser()


def _readme_read_by() -> dict[str, set[str]]:
    """Subcommand -> the tolerance names README's table says it reads."""
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    table = readme.split("### Tolerance names", 1)[1].split("\n## ", 1)[0]
    read_by: dict[str, set[str]] = {}
    for line in table.splitlines():
        if line.startswith("| `"):
            name, readers = line.split("`")[1], line.rstrip(" |").rsplit("|", 1)[1]
            for command in readers.replace("`", "").replace(",", " ").split():
                read_by.setdefault(command, set()).add(name)
    return read_by


class TestToleranceReads:
    """Every gate a subcommand reaches reads the tolerances the command line
    chose, and nothing reads the defaults once they are chosen."""

    @pytest.fixture
    def argvs(self, tmp_path):
        fd_s5 = tmp_path / "s5_fd.chart"
        fd_s5.write_text(chart_to_text(gallery_chart("s5").with_mode(DerivativeMode("fd"))))
        sources = [["--gallery", name] for name in GALLERY_NAMES] + [["--chart", str(fd_s5)]]
        chart_runs = {command: [[command, *source, *FAST] for source in sources]
                      for command in ("validate", "curvature", "identities")}
        return {**chart_runs,
                "lemma": [["lemma", "--dim", str(dim), "--trials", "4"] for dim in (6, 8)]}

    @pytest.mark.parametrize("command", ["validate", "lemma", "curvature", "identities"])
    def test_reads_only_the_chosen_tolerances(self, capsys, monkeypatch, argvs, command):
        fields = {f.name for f in dataclasses.fields(Tolerances)}
        chosen = []
        reads = []
        resolve = cli._resolve_tolerances

        def resolved(args):
            chosen.append(resolve(args))
            return chosen[-1]

        def recording(self, name, _get=object.__getattribute__):
            if chosen and name in fields:
                reads.append((self is chosen[-1], self is DEFAULT_TOLERANCES, name))
            return _get(self, name)

        monkeypatch.setattr(cli, "_resolve_tolerances", resolved)
        monkeypatch.setattr(Tolerances, "__getattribute__", recording)
        for argv in argvs[command]:
            chosen.clear()  # until this run has resolved its own
            code, _, err = run(capsys, *argv, "--tol", "identity=0.5")
            assert code in (0, 1), err
        assert sorted({name for _, default, name in reads if default}) == []
        assert all(from_chosen for from_chosen, _, _ in reads)
        assert {name for _, _, name in reads} == _readme_read_by()[command]


class TestLemma:
    def test_dim8_decomposition_branch(self, capsys):
        code, out, _ = run(capsys, "lemma", "--dim", "8", "--trials", "5")
        assert code == 0
        assert "branch: decomposition" in out
        assert "VERDICT: PASS" in out

    def test_dim6_forced_singularity_branch(self, capsys):
        code, out, _ = run(capsys, "lemma", "--dim", "6", "--trials", "5")
        assert code == 0
        assert "branch: forced_singularity" in out

    def test_odd_dim_rejected(self, capsys):
        code, _, err = run(capsys, "lemma", "--dim", "7")
        assert code == 2
        assert "even" in err

    def test_dim_two_rejected_up_front(self, capsys):
        # Y, JY and AY can never be independent in two dimensions, so the
        # flag is refused before any operator is drawn
        code, out, err = run(capsys, "lemma", "--dim", "2")
        assert code == 2
        assert out == ""
        assert "--dim must be an even integer >= 4, got 2" in err

    @pytest.mark.parametrize("dim", ["66", "1000000"])
    def test_dim_above_largest_chart_rejected_up_front(self, capsys, dim):
        # refused before any dim x dim operator is allocated
        start = time.perf_counter()
        code, out, err = run(capsys, "lemma", "--dim", dim)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert err == f"acmslab: error: --dim must be at most 64, got {dim}\n"

    @pytest.mark.parametrize("value", ["999", "-1"])
    def test_probes_flag_rejected(self, capsys, value):
        # lemma samples no chart points, so --probes is not one of its flags
        with pytest.raises(SystemExit) as exc:
            main(["lemma", "--dim", "8", "--trials", "2", "--probes", value])
        assert exc.value.code == 2
        assert "unrecognized arguments: --probes" in capsys.readouterr().err

    @pytest.mark.parametrize("dim", ["6", "8"])
    def test_one_space_per_command(self, capsys, monkeypatch, dim):
        # both campaigns run in the space the command builds
        calls = count_calls(monkeypatch, [(ComplexStructuredSpace, "standard")])
        code, _, _ = run(capsys, "lemma", "--dim", dim, "--trials", "3")
        assert code == 0
        assert calls == {"standard": 1}

    def test_zero_trials_rejected(self, capsys):
        code, _, err = run(capsys, "lemma", "--dim", "4", "--trials", "0")
        assert code == 2

    @pytest.mark.parametrize("dim", range(4, 17, 2))
    def test_dimension_sweep(self, capsys, dim):
        code, out, _ = run(capsys, "lemma", "--dim", str(dim), "--trials", "3", "--json")
        assert code == 0
        doc = strict_json(out)
        if dim % 4 == 0:
            branch = "decomposition"
            names = ["worst_gram_off_diagonal", "all_decompositions_complete"]
        else:
            branch = "forced_singularity"
            names = ["max_sigma_min", "all_draws_singular"]
        assert doc["summary"] == {"dim_mod_4": dim % 4, "branch": branch}
        assert [c["name"] for c in doc["checks"]] == [
            "min_triple_gram_det", "min_witness_overlap", *names]
        assert all(c["pass"] for c in doc["checks"])
        assert doc["verdict"] == "PASS"

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_benchmark_answers(self, capsys, seed):
        # the answers the lemma_mod4 benchmark checks: dim 16 decomposes into
        # quadruples and dim 14 forces every skew anticommuting draw singular
        code, out, _ = run(capsys, "lemma", "--dim", "16", "--trials", "8", "--json",
                           "--seed", str(seed))
        doc = strict_json(out)
        assert code == 0
        assert doc["summary"]["branch"] == "decomposition"
        assert all(c["pass"] for c in doc["checks"])
        code, out, _ = run(capsys, "lemma", "--dim", "14", "--trials", "8", "--json",
                           "--seed", str(seed))
        checks = {c["name"]: c for c in strict_json(out)["checks"]}
        assert code == 0
        assert checks["all_draws_singular"]["pass"]

    def test_json_deterministic(self, capsys):
        args = ("lemma", "--dim", "4", "--trials", "5", "--json", "--seed", "9")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second


class TestCurvature:
    def test_s5_constant(self, capsys):
        code, out, _ = run(capsys, "curvature", *S5, *FAST, "--planes", "4")
        assert code == 0
        assert "CONSISTENT" in out
        mean = float(out.split("mean: ", 1)[1].split()[0])
        assert abs(mean - 1.0) < 1e-12

    def test_sasakian_varies_but_still_exits_zero(self, capsys):
        code, out, _ = run(capsys, "curvature", "--gallery", "sasakian_r5",
                           *FAST, "--planes", "6")
        assert code == 0
        assert "N/A" in out

    def test_json_deterministic(self, capsys):
        args = ("curvature", *S5, *FAST, "--planes", "4", "--json", "--seed", "2")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_nan_sample_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(curvature, "sectional",
                            lambda riem, gram, x, y, **kwargs: np.full(x[..., 0, :].shape, math.nan))
        code, out, _ = run(capsys, "curvature", *S5, *FAST, "--planes", "4", "--json")
        assert code == 1
        doc = strict_json(out)
        assert [c["pass"] for c in doc["checks"]] == [False]
        assert doc["checks"][0]["name"] == "sectional_curvature_sampled"
        assert doc["summary"]["mean"] is None

    def test_planes_default_is_the_config_constant(self, capsys):
        assert build_parser().parse_args(["curvature", *S5]).planes == PROBES_PER_RESIDUAL
        with pytest.raises(SystemExit):
            main(["curvature", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert f"planes sampled per point (default {PROBES_PER_RESIDUAL})" in help_text


class TestIdentities:
    def test_s5_all_suites(self, capsys):
        code, out, _ = run(capsys, "identities", *S5, *FAST)
        assert code == 0
        assert "skipped_suites: none" in out
        assert "[PASS] defect_collapse" in out
        assert "[PASS] defect_factorization" in out
        assert "[PASS] curvature_reconstruction_full" in out

    def test_sasakian_gated_suites(self, capsys):
        code, out, _ = run(capsys, "identities", "--gallery", "sasakian_r5", *FAST)
        assert code == 1
        assert "factorization" in out.split("skipped_suites:")[1]
        assert "reconstruction" in out.split("skipped_suites:")[1]

    def test_explicit_constant(self, capsys):
        code, out, _ = run(capsys, "identities", *S5, *FAST, "--c", "1.0", "--json")
        assert code == 0
        assert json.loads(out)["verdict"] == "PASS"

    def test_json_deterministic(self, capsys):
        args = ("identities", *S5, *FAST, "--json", "--seed", "6")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    @pytest.mark.parametrize("probes", ["1", "3"])
    @pytest.mark.parametrize("fd", [False, True])
    def test_suites_share_one_geometry_stack(self, capsys, monkeypatch, tmp_path, probes, fd):
        # the sample is one geometry, and every suite reads its one
        # Levi-Civita and one modified curvature; both modes differentiate
        # both connections at the points alone, so no stencil adds a
        # geometry, and both eta-parallel gates read the one horizontal
        # frame and the one eta-parallel residual
        calls = count_calls(monkeypatch, (
            (curvature, "riemann"), (curvature, "modified_riemann"),
            (curvature, "christoffel"), (charts, "christoffel"),
            (curvature.PointGeometry, "__init__"),
            (curvature, "horizontal_basis"), (structure, "horizontal_basis"),
            (curvature, "check_eta_parallel"), (structure, "check_eta_parallel")))
        source = S5
        if fd:
            path = tmp_path / "s5_fd.chart"
            path.write_text(chart_to_text(gallery_chart("s5").with_mode(DerivativeMode("fd"))))
            source = ["--chart", str(path)]
        code, out, _ = run(capsys, "identities", *source, "--probes", probes)
        assert code == 0
        assert "skipped_suites: none" in out
        assert calls == {"riemann": 1, "modified_riemann": 1, "christoffel": 1,
                         "__init__": 1, "horizontal_basis": 1, "check_eta_parallel": 1}

    @pytest.mark.parametrize("probes", ["1", "3"])
    @pytest.mark.parametrize("fd", [False, True])
    def test_curvature_reads_one_geometry_stack(self, capsys, monkeypatch, tmp_path, probes,
                                                fd):
        # both modes differentiate the Christoffel symbols in closed form at
        # the points alone, so one geometry checks its metrics once, as one
        # stack, and the probes of each point are drawn in the gram it
        # already checked
        calls = count_calls(monkeypatch, ((curvature.PointGeometry, "__init__"),
                                          (curvature, "riemann"),
                                          *((module, "check_gram")
                                            for module in (linalg, curvature, structure))))
        source = S5
        if fd:
            path = tmp_path / "s5_fd.chart"
            path.write_text(chart_to_text(gallery_chart("s5").with_mode(DerivativeMode("fd"))))
            source = ["--chart", str(path)]
        code, _, _ = run(capsys, "curvature", *source, "--probes", probes, "--planes", "2")
        assert code == 0
        assert calls == {"__init__": 1, "riemann": 1, "check_gram": 1}

    def test_duplicate_name_lookup_is_ambiguous(self, capsys, monkeypatch):
        # the collapse and factorization suites each report an eta_parallel_gate
        reports = []
        emit = cli._emit

        def capture(args, command, config, report, summary):
            reports.append(report)
            return emit(args, command, config, report, summary)

        monkeypatch.setattr(cli, "_emit", capture)
        code, _, _ = run(capsys, "identities", "--gallery", "sasakian_r5", *FAST)
        assert code == 1
        assert [c.name for c in reports[0].checks].count("eta_parallel_gate") == 2
        with pytest.raises(KeyError, match="'eta_parallel_gate' occurs 2 times"):
            reports[0]["eta_parallel_gate"]
        assert reports[0]["defect_collapse"].name == "defect_collapse"

    @pytest.mark.parametrize("target, value, failing", [
        ("check_eta_parallel", lambda table, gram, basis: np.full(len(gram), math.nan),
         ["eta_parallel_gate", "eta_parallel_gate"]),
        ("skew_phi_anticommutation_residual", lambda pg: np.full(len(pg.y), math.nan),
         ["skew_anticommutation_gate"]),
        ("nearly_cosymplectic_residual", lambda pg: np.full(len(pg.y), math.nan),
         ["nearly_cosymplectic_gate"]),
    ])
    def test_nan_gate_fails(self, capsys, monkeypatch, target, value, failing):
        # the suites look these up in the curvature module; each residual
        # comes one per point of the sample's geometry
        monkeypatch.setattr(curvature, target, value)
        code, out, _ = run(capsys, "identities", *S5, *FAST, "--json")
        assert code == 1
        checks = strict_json(out)["checks"]
        assert [c["name"] for c in checks if not c["pass"]] == failing
        assert all(c["residual"] is None for c in checks if not c["pass"])


class TestNoProbeDraws:
    """`validate` and `identities` decide every identity on frames: with
    the probe generators made to raise, both still reach their verdicts."""

    @pytest.mark.parametrize("command, chart, code", [
        (command, chart, code)
        for command in ("validate", "identities")
        for chart, code in (("s5", 0), ("sasakian_r5", 1), ("s5_fd", 0))
    ])
    def test_verdict_without_probes(self, capsys, monkeypatch, tmp_path, command, chart,
                                    code):
        def refuse(*args, **kwargs):
            raise AssertionError("a probe was drawn")

        monkeypatch.setattr(curvature, "unit_probes", refuse)
        monkeypatch.setattr(curvature, "_probe_tuples", refuse)
        if chart == "s5_fd":
            path = tmp_path / "s5_fd.chart"
            path.write_text(chart_to_text(
                gallery_chart("s5").with_mode(DerivativeMode.parse("fd"))))
            source = ["--chart", str(path)]
        else:
            source = ["--gallery", chart]
        got, out, _ = run(capsys, command, *source, "--probes", "3", "--json")
        assert got == code
        assert strict_json(out)["verdict"] == ("PASS" if code == 0 else "FAIL")


class TestUsageErrors:
    def test_chart_and_gallery_conflict(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--gallery", "s5", "--chart", "x"])
        assert exc.value.code == 2

    def test_chart_source_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["validate"])
        assert exc.value.code == 2

    def test_unknown_gallery_name(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--gallery", "s9"])
        assert exc.value.code == 2


class TestInputErrors:
    @pytest.mark.parametrize("argv", [
        ("validate", *S5, "--probes", "0"),
        ("identities", *S5, "--probes", "0"),
        ("curvature", *S5, "--probes", "-1"),
        ("curvature", *S5, *FAST, "--planes", "0"),
    ])
    def test_empty_counts_rejected(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert "must be positive" in err
        assert out == ""

    @pytest.mark.parametrize("command", ["validate", "identities"])
    def test_non_finite_component_rejected(self, capsys, tmp_path, command):
        # x1*1e200*1e200 overflows to inf without raising, so inf - inf = nan
        path = tmp_path / "nan.chart"
        path.write_text(FLAT_TEXT + "phi[2][1] = 1 + (x1*1e200*1e200 - x1*1e200*1e200)\n")
        code, out, err = run(capsys, command, "--chart", str(path), *FAST)
        assert code == 2
        assert "phi[2][1] at point" in err
        assert "non-finite value nan" in err
        assert "VERDICT" not in out

    # sampled, these bounds gave NaN coordinates, over which this flat
    # chart passed `identities` and `curvature`
    @pytest.mark.parametrize("command", ["validate", "curvature", "identities"])
    @pytest.mark.parametrize("bounds", ["-inf inf", "0 1e400", "-1e308 1e308"])
    def test_domain_must_be_finite(self, capsys, tmp_path, command, bounds):
        path = tmp_path / "flat.chart"
        path.write_text("dim = 3\ng[1][1] = 1\ng[2][2] = 1\ng[3][3] = 1\n"
                        "phi[2][1] = 1\nphi[1][2] = -1\nxi[3] = 1\neta[3] = 1\n"
                        f"domain[2] = {bounds}\n")
        code, out, err = run(capsys, command, "--chart", str(path), *FAST)
        assert (code, out) == (2, "")
        lo, hi = (float(b) for b in bounds.split())
        assert err == (f"acmslab: error: line 9: domain [{lo}, {hi}] is unbounded or too "
                       "wide: its bounds, width and midpoint must be finite\n")

    @pytest.mark.parametrize("command", ["validate", "curvature", "identities"])
    def test_non_utf8_chart_file_rejected(self, capsys, tmp_path, command):
        path = tmp_path / "bad.chart"
        for bom in (b"", b"\xef\xbb\xbf"):  # the offset counts a byte-order mark
            path.write_bytes(bom + b"dim = 3\ng[1][1] = 1\xff\n")
            code, out, err = run(capsys, command, "--chart", str(path), *FAST)
            assert (code, out) == (2, "")
            assert err == (f"acmslab: error: {path}: byte {19 + len(bom)} is not UTF-8 "
                           "(invalid start byte)\n")

    # a NaN step makes NaN derivatives and an infinite one zero derivatives;
    # 0 is a number, out of range
    @pytest.mark.parametrize("command", ["validate", "curvature", "identities"])
    @pytest.mark.parametrize("step", ["nan", "inf", "-inf", "0"])
    def test_fd_step_must_be_finite_and_positive(self, capsys, tmp_path, command, step):
        path = tmp_path / "flat.chart"
        path.write_text(f"dim = 3\nderivative_mode = fd:{step}\n"
                        "g[1][1] = 1\ng[2][2] = 1\ng[3][3] = 1\n"
                        "phi[2][1] = 1\nphi[1][2] = -1\nxi[3] = 1\neta[3] = 1\n")
        code, out, err = run(capsys, command, "--chart", str(path), *FAST)
        assert (code, out) == (2, "")
        assert err == ("acmslab: error: line 2: finite-difference step must be finite "
                       f"and positive, got {float(step)}\n")

    # grids that read finite, but a quantity taken from them overflows: an
    # fd difference, and the horizontal skew operator whose SVD `validate`
    # takes; both once ended in a traceback or blamed the wrong cause
    @pytest.mark.parametrize("command, text, message", [
        ("validate", OVERFLOWING_FD_TEXT, "d xi[1] / d x2 at point ["),
        ("identities", OVERFLOWING_FD_TEXT, "d xi[1] / d x2 at point ["),
        ("validate", OVERFLOWING_SKEW_TEXT, "horizontal skew operator at point ["),
        # the horizontal projector is finite, but the probes it projects
        # overflow in their g-norms: once normalized to zero vectors and
        # blamed on "a degenerate plane"
        ("curvature", OVERFLOWING_FD_TEXT, "horizontal probes at point ["),
        pytest.param("curvature", OVERFLOWING_S5_FD_TEXT, "horizontal probes at point [",
                     id="curvature-fd S^5 probes"),
    ])
    def test_overflow_from_finite_grids_rejected(self, capsys, tmp_path, command, text,
                                                 message):
        path = tmp_path / "overflow.chart"
        path.write_text(text)
        code, out, err = run(capsys, command, "--chart", str(path), *FAST)
        assert (code, out) == (2, "")
        assert err.startswith(f"acmslab: error: {message}") and err.count("\n") == 1
        assert "non-finite value" in err

    @pytest.mark.parametrize("command", ["validate", "curvature", "identities"])
    def test_sample_too_large_for_memory(self, capsys, command):
        # numpy refuses the 364 TiB sample up front, before any point is read
        start = time.perf_counter()
        code, out, err = run(capsys, command, *S5, "--probes", "10000000000000")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err.startswith("acmslab: error: out of memory: ") and err.count("\n") == 1

    # a non-finite constant once reached the reconstruction suite and ended
    # in residual=nan or inf verdicts with exit 1
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_constant_rejected(self, capsys, value):
        code, out, err = run(capsys, "identities", *S5, *FAST, f"--c={value}")
        assert (code, out) == (2, "")
        assert err == f"acmslab: error: --c must be finite, got {value}\n"


class TestDegenerateCharts:
    @pytest.mark.parametrize("command, message", [
        ("validate", "structure dimension must be odd and at least 3, got 1"),
        ("curvature", "structure dimension must be odd and at least 3, got 1"),
        ("identities", "structure dimension must be odd and at least 3, got 1"),
    ])
    def test_one_dimensional_chart_is_usage_error(self, capsys, tmp_path, command,
                                                  message):
        path = tmp_path / "one.chart"
        path.write_text(ONE_DIM_TEXT)
        code, out, err = run(capsys, command, "--chart", str(path), *FAST)
        assert code == 2
        assert out == ""
        assert err.startswith("acmslab: error: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("command", ["validate", "curvature", "identities"])
    def test_even_dimensional_chart_is_usage_error(self, capsys, tmp_path, command):
        path = tmp_path / "four.chart"
        path.write_text(FOUR_DIM_TEXT)
        code, out, err = run(capsys, command, "--chart", str(path), *FAST)
        assert code == 2
        assert out == ""
        assert err == ("acmslab: error: structure dimension must be odd and at least 3, "
                       "got 4\n")

    @pytest.mark.parametrize("command", ["validate", "curvature", "identities"])
    def test_huge_dimension_rejected_at_its_line(self, capsys, tmp_path, command):
        # rejected before any dim x dim grid is built
        path = tmp_path / "huge.chart"
        path.write_text("# no structure fits\ndim = 99999999999\n")
        start = time.perf_counter()
        code, out, err = run(capsys, command, "--chart", str(path), *FAST)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert err == "acmslab: error: line 2: dim must be at most 64, got 99999999999\n"

    @pytest.mark.parametrize("command, message", [
        ("curvature", "no horizontal plane with |g(x, w)| <= 0.99"),
        # phi vanishes, so every phi-plane of the curvature estimate is
        # degenerate: the error names phi, the first point and the way out
        pytest.param("identities",
                     "cannot estimate c at point [0.24653103717861777, "
                     "-0.41438391522503343, -0.8262476569148496, -0.8702502560486477, "
                     "0.5638864305604904]: phi maps a horizontal frame vector h to zero "
                     "or into span{h}, so the phi-plane span{h, phi h} is degenerate; "
                     "give c (--c) instead", id="identities-degenerate phi-plane"),
    ])
    def test_steep_metric_ends(self, capsys, tmp_path, command, message):
        path = tmp_path / "steep.chart"
        path.write_text(STEEP_TEXT)
        code, out, err = run(capsys, command, "--chart", str(path), *FAST)
        assert code == 2
        assert out == ""
        assert message in err


def test_cli_import_leaves_scipy_out():
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", "import sys, acmslab.cli; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


class TestLongLiterals:
    @pytest.mark.parametrize("expr,message", [
        ("x1^" + "1" * 5000, "line 2, column 14: exponent too long (5000 digits)"),
        ("1 + x" + "1" * 5000, "line 2, column 15: variable index too long (5000 digits)"),
    ], ids=["exponent", "variable_index"])
    def test_integer_beyond_int_conversion_is_usage_error(self, capsys, tmp_path, expr,
                                                          message):
        path = tmp_path / "long.chart"
        path.write_text(FLAT_TEXT.replace("g[1][1] = 1\n", f"g[1][1] = {expr}\n"))
        code, out, err = run(capsys, "validate", "--chart", str(path), *FAST)
        assert code == 2
        assert out == ""
        assert err == f"acmslab: error: {message}\n"


class TestDeepExpressions:
    DEEP_METRIC = "g[1][1] = 1" + " + 0 * x1" * 2999 + "\n"

    def test_fd_mode_reaches_verdict(self, capsys, tmp_path):
        path = tmp_path / "deep.chart"
        path.write_text("derivative_mode = fd\n"
                        + FLAT_TEXT.replace("g[1][1] = 1\n", self.DEEP_METRIC))
        code, out, _ = run(capsys, "validate", "--chart", str(path), *FAST)
        assert code == 1  # still not contact
        assert "VERDICT: FAIL" in out
        assert "[PASS] phi_squared" in out

    # flat R^5 is still not contact, and every identity holds on it
    @pytest.mark.parametrize("command, code, verdict", [("validate", 1, "FAIL"),
                                                        ("identities", 0, "PASS")])
    def test_symbolic_mode_reaches_verdict(self, capsys, tmp_path, command, code, verdict):
        # the jets read a deep tree group by group, with no recursion
        path = tmp_path / "deep.chart"
        path.write_text(FLAT_TEXT.replace("g[1][1] = 1\n", self.DEEP_METRIC))
        got, out, _ = run(capsys, command, "--chart", str(path), *FAST)
        assert got == code
        assert f"VERDICT: {verdict}" in out

    @pytest.mark.parametrize("mode", ["symbolic", "fd"])
    def test_failing_deep_component_is_usage_error(self, capsys, tmp_path, mode):
        # naming the failing component walks its tree recursively
        path = tmp_path / "deep.chart"
        path.write_text(f"derivative_mode = {mode}\n" + FLAT_TEXT.replace(
            "g[1][1] = 1\n", self.DEEP_METRIC.replace("\n", " + sqrt(x1 - 5)\n")))
        code, out, err = run(capsys, "validate", "--chart", str(path), *FAST)
        assert (code, out) == (2, "")
        assert err == "acmslab: error: expression nested too deeply to name its failing component\n"

    @pytest.mark.parametrize("expr", ["(" * 3000 + "x1" + ")" * 3000,
                                      "-" * 3000 + "x1",
                                      "sin(" * 3000 + "x1" + ")" * 3000],
                             ids=["parentheses", "minuses", "calls"])
    def test_nesting_too_deep_to_parse_is_usage_error(self, capsys, tmp_path, expr):
        path = tmp_path / "nested.chart"
        path.write_text(FLAT_TEXT.replace("g[1][1] = 1\n", f"g[1][1] = {expr}\n"))
        code, out, err = run(capsys, "validate", "--chart", str(path), *FAST)
        assert code == 2
        assert out == ""
        assert err == "acmslab: error: line 2: expression nested too deeply\n"


# a 3-D chart whose components other than g[1][1] are constant
READ_BASE = ("dim = 3\ng[2][2] = 1\ng[3][3] = 1\nphi[2][1] = 1\nphi[1][2] = -1\n"
             "xi[3] = 1\neta[3] = 1\n")
NEAR_ZERO = "domain[1] = 0 0.00002\n"  # fd stencils step below x1 = 0
SAMPLE_POINT = "[-0.8702502560486477, 0.5638864305604904, 0.7429600390998992]"
FIRST_POINT = "[0.24653103717861777, -0.41438391522503343, -0.8262476569148496]"


class TestFailingReads:
    """A failing read ends a command with one error line, which names the
    first failing sample point in either mode, else on an fd chart the
    first failing stencil row, and a hidden floating-point exception as the
    tree-walker names it."""

    @pytest.mark.parametrize("mode", ["symbolic", "fd"])
    @pytest.mark.parametrize("command", ["validate", "curvature", "identities"])
    @pytest.mark.parametrize("g11, message", [
        ("1 + sqrt(x1)", f"g[1][1] at point {SAMPLE_POINT}: square root of negative value "
                         "-0.87025 in 'sqrt(x1)'"),
        ("x1", "gram matrix is not positive definite (min eigenvalue -8.703e-01)"),
        # 1 / 0 is inf, and 1 / inf is 0.0
        ("1 + 1 / (1 / (x1 - x1))", f"g[1][1] at point {FIRST_POINT}: division by zero "
                                    "in '1 / (x1 - x1)'"),
        # sqrt(x1 - 2) is NaN, and NaN^0 is 1.0
        ("sqrt(x1 - 2)^0", f"g[1][1] at point {FIRST_POINT}: square root of negative value "
                           "-1.75347 in 'sqrt(x1 - 2)'"),
    ], ids=["point", "not_positive_definite", "hidden_division", "hidden_square_root"])
    def test_one_error_line(self, capsys, tmp_path, mode, command, g11, message):
        path = tmp_path / "failing.chart"
        path.write_text(f"derivative_mode = {mode}\n{READ_BASE}g[1][1] = {g11}\n")
        assert run(capsys, command, "--chart", str(path), "--probes", "4") == \
            (2, "", f"acmslab: error: {message}\n")

    @pytest.mark.parametrize("command, point, value", [
        # validate reads g's first derivatives, at the chart's step 1e-5
        ("validate", "[-8.702502560486477e-06, 0.5638864305604904, 0.7429600390998992]",
         "-8.7025e-06"),
        # the curvatures read g's second derivatives, at FD_SECOND_STEP 1e-4
        ("curvature", "[-8.753468962821383e-05, -0.41438391522503343, -0.8262476569148496]",
         "-8.75347e-05"),
        ("identities", "[-8.753468962821383e-05, -0.41438391522503343, -0.8262476569148496]",
         "-8.75347e-05"),
    ])
    def test_fd_stencil_row(self, capsys, tmp_path, command, point, value):
        # every sample point reads; the symbolic chart reads them alone
        text = f"{READ_BASE}{NEAR_ZERO}g[1][1] = 1 + sqrt(x1)\n"
        path = tmp_path / "stencil.chart"
        path.write_text(text)
        assert run(capsys, command, "--chart", str(path), "--probes", "4")[0] in (0, 1)
        path.write_text("derivative_mode = fd\n" + text)
        assert run(capsys, command, "--chart", str(path), "--probes", "4") == \
            (2, "", f"acmslab: error: g[1][1] at point {point}: square root of negative "
                    f"value {value} in 'sqrt(x1)'\n")

    @pytest.mark.parametrize("mode", ["symbolic", "fd"])
    def test_hidden_overflow_reads(self, capsys, tmp_path, mode):
        # x1 * x1 overflows to inf, and g[1][1] = 1 + 1 / inf is 1.0: a verdict
        path = tmp_path / "overflow.chart"
        path.write_text(f"derivative_mode = {mode}\n{READ_BASE}domain[1] = 1e200 2e200\n"
                        "g[1][1] = 1 + 1 / (x1 * x1)\n")
        code, out, err = run(capsys, "identities", "--chart", str(path), "--probes", "4")
        assert (code, err) == (0, "")
        assert "VERDICT: PASS" in out

    @pytest.mark.parametrize("command", ["curvature", "identities"])
    def test_no_numpy_warning(self, tmp_path, command):
        # g = 1e150 I overflows in linalg.inners: numpy's warning, which
        # changes no value, would print before the error line
        path = tmp_path / "huge.chart"
        path.write_text("dim = 3\n" + "".join(f"g[{i}][{i}] = 1e150\n" for i in (1, 2, 3))
                        + "phi[1][2] = -1\nphi[2][1] = 1\nxi[3] = 1\neta[3] = 1e150\n")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(REPO / "src"), os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-m", "acmslab.cli", command, "--chart",
                               str(path), "--probes", "2"], env=env, capture_output=True,
                              text=True)
        assert done.returncode == 2
        assert len(done.stderr.splitlines()) == 1
        assert done.stderr.startswith("acmslab: error: ")
