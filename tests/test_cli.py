"""End-to-end tests of the command line front end (in-process)."""
import json

import pytest

from acmslab.cli import main

S5 = ["--gallery", "s5"]
FAST = ["--probes", "2"]

# flat R^5 with a constant structure: valid, but not contact
FLAT_TEXT = ("dim = 5\n"
             + "".join(f"g[{i}][{i}] = 1\n" for i in range(1, 6))
             + "phi[3][1] = 1\nphi[1][3] = -1\nphi[4][2] = 1\nphi[2][4] = -1\n"
             + "xi[5] = 1\neta[5] = 1\n")


@pytest.fixture(autouse=True)
def clean_seed_env(monkeypatch):
    monkeypatch.delenv("ACMSLAB_SEED", raising=False)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_zero_trials_rejected(self, capsys):
        code, _, err = run(capsys, "lemma", "--dim", "4", "--trials", "0")
        assert code == 2

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
        assert "mean: 1.0" in out

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
