"""End-to-end tests of the command line front end (in-process)."""
import dataclasses
import importlib.util
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

from acmslab import charts, cli, curvature, structure
from acmslab.charts import DerivativeMode, chart_to_text
from acmslab.cli import build_parser, main
from acmslab.config import DEFAULT_TOLERANCES, Tolerances
from acmslab.gallery import GALLERY_NAMES, gallery_chart

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
        # the eta-parallel and contact checks share the geometry's one frame
        calls = count_calls(monkeypatch, ((curvature, "horizontal_basis"),
                                          (structure, "horizontal_basis")))
        code, _, _ = run(capsys, "validate", *S5, "--probes", "3")
        assert code == 0
        assert calls["horizontal_basis"] <= 3

    @pytest.mark.parametrize("target, value, failing", [
        ("killing_residual", math.nan, ["reeb_killing"]),
        ("contact_residuals", (math.nan, math.nan),
         ["contact_sigma_min", "contact_volume"]),
    ])
    def test_nan_residual_fails(self, capsys, monkeypatch, target, value, failing):
        # max(0.0, nan) is 0.0 and min(inf, nan) is inf: a NaN must not pass
        monkeypatch.setattr(f"acmslab.cli.{target}", lambda *args, **kwargs: value)
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

    @pytest.mark.parametrize("value", ["999", "-1"])
    def test_probes_flag_rejected(self, capsys, value):
        # lemma samples no chart points, so --probes is not one of its flags
        with pytest.raises(SystemExit) as exc:
            main(["lemma", "--dim", "8", "--trials", "2", "--probes", value])
        assert exc.value.code == 2
        assert "unrecognized arguments: --probes" in capsys.readouterr().err

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
        monkeypatch.setattr(curvature.CurvatureTensor, "sectional",
                            lambda *args, **kwargs: math.nan)
        code, out, _ = run(capsys, "curvature", *S5, *FAST, "--planes", "4", "--json")
        assert code == 1
        doc = strict_json(out)
        assert [c["pass"] for c in doc["checks"]] == [False]
        assert doc["checks"][0]["name"] == "sectional_curvature_sampled"
        assert doc["summary"]["mean"] is None


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

    def test_suites_share_one_geometry_per_point(self, capsys, monkeypatch):
        # every suite reads the same per-point curvature, so each point pays
        # for one geometry (and one over its Richardson rows), one Levi-Civita
        # and one modified curvature tensor, and both eta-parallel gates read
        # its one horizontal frame and its one eta-parallel residual
        calls = count_calls(monkeypatch, (
            (curvature, "riemann"), (curvature, "modified_riemann"),
            (curvature, "christoffel"), (charts, "christoffel"),
            (curvature.PointGeometry, "__init__"),
            (curvature, "horizontal_basis"), (structure, "horizontal_basis"),
            (curvature, "check_eta_parallel"), (structure, "check_eta_parallel")))
        code, out, _ = run(capsys, "identities", *S5, "--probes", "3")
        assert code == 0
        assert "skipped_suites: none" in out
        assert calls["riemann"] == 3 and calls["modified_riemann"] == 3
        assert calls["__init__"] == 2 * 3
        assert calls["horizontal_basis"] <= 3
        assert calls["check_eta_parallel"] == 3
        # Christoffel tables per point: the geometry's own, and one stacked
        # pass over the 4d Richardson stencil points
        assert calls["christoffel"] == 2 * 3

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
        ("eta_parallel_residual", math.nan, ["eta_parallel_gate", "eta_parallel_gate"]),
        ("skew_phi_anticommutation_residual", math.nan, ["skew_anticommutation_gate"]),
        ("nearly_cosymplectic_residuals",
         dict.fromkeys(("horizontal", "full", "symmetrized"), math.nan),
         ["nearly_cosymplectic_gate"]),
    ])
    def test_nan_gate_fails(self, capsys, monkeypatch, target, value, failing):
        # the suites look these up in the curvature module
        monkeypatch.setattr(curvature, target, lambda *args, **kwargs: value)
        code, out, _ = run(capsys, "identities", *S5, *FAST, "--json")
        assert code == 1
        checks = strict_json(out)["checks"]
        assert [c["name"] for c in checks if not c["pass"]] == failing
        assert all(c["residual"] is None for c in checks if not c["pass"])


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

    @pytest.mark.parametrize("command", ["validate", "curvature", "identities"])
    def test_non_utf8_chart_file_rejected(self, capsys, tmp_path, command):
        path = tmp_path / "bad.chart"
        path.write_bytes(b"dim = 3\ng[1][1] = 1\xff\n")
        code, out, err = run(capsys, command, "--chart", str(path), *FAST)
        assert (code, out) == (2, "")
        assert err == (f"acmslab: error: {path}: byte 19 is not UTF-8 "
                       "(invalid start byte)\n")

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

    @pytest.mark.parametrize("command, message", [
        ("curvature", "no horizontal plane with |g(x, w)| <= 0.99"),
        ("identities", "no nondegenerate phi-plane found"),
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

    def test_symbolic_mode_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "deep.chart"
        path.write_text(FLAT_TEXT.replace("g[1][1] = 1\n", self.DEEP_METRIC))
        code, out, err = run(capsys, "validate", "--chart", str(path), *FAST)
        assert code == 2
        assert "nested too deeply" in err
        assert "derivative_mode = fd" in err
