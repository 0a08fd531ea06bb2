"""Known answers for every CLI call the benchmark makes.

Each checker takes the exit code and the parsed ``--json`` document of one
call and returns a list of problems; an empty list means the call gave the
answer known by hand. Nothing here is derived from the program's own output:
the identities hold exactly on the round S^5, whose horizontal sectional
curvature is 1; the Darboux answers are derived in `darboux`; the lemma
branch follows from the dimension mod 4.

Residuals are compared with tolerances here rather than trusting each
check's ``pass`` flag, and the check list must match name for name, so a
tampered residual or a dropped check is caught.
"""
from __future__ import annotations

import math

_REL = 1e-9  # agreement required of residuals known exactly


def below(c: dict) -> list[str]:
    """The identity holds: residual under tolerance, and reported passing."""
    if c["residual"] < c["tolerance"] and c["pass"]:
        return []
    return [f"{c['name']}: residual {c['residual']!r} should pass below {c['tolerance']!r}"]


def above(c: dict) -> list[str]:
    """A lower gate is cleared: residual over tolerance, reported passing."""
    if c["residual"] > c["tolerance"] and c["pass"]:
        return []
    return [f"{c['name']}: residual {c['residual']!r} should pass above {c['tolerance']!r}"]


def violated(c: dict) -> list[str]:
    """The condition fails on this chart: residual over tolerance, reported failing."""
    if c["residual"] > c["tolerance"] and not c["pass"]:
        return []
    return [f"{c['name']}: residual {c['residual']!r} should fail its tolerance "
            f"{c['tolerance']!r}"]


def flag(c: dict) -> list[str]:
    if c["residual"] == 0.0 and c["pass"]:
        return []
    return [f"{c['name']}: flag should be set"]


def equals(value: float, passed: bool):
    def rule(c: dict) -> list[str]:
        if abs(c["residual"] - value) <= _REL * max(1.0, abs(value)) and c["pass"] is passed:
            return []
        return [f"{c['name']}: residual {c['residual']!r} pass={c['pass']}, "
                f"expected {value!r} pass={passed}"]
    return rule


def _compare_checks(doc: dict, expected) -> list[str]:
    checks = doc.get("checks", [])
    names = [c.get("name") for c in checks]
    want = [name for name, _ in expected]
    if names != want:
        return [f"check list {names} differs from expected {want}"]
    problems = []
    for c, (_, rule) in zip(checks, expected):
        if not math.isfinite(c["residual"]):
            problems.append(f"{c['name']}: residual {c['residual']!r} is not finite")
        else:
            problems.extend(rule(c))
    return problems


def _common(rc: int, doc: dict, *, command: str, exit_code: int,
            config: dict) -> list[str]:
    problems = []
    if rc != exit_code:
        problems.append(f"exit code {rc}, expected {exit_code}")
    if doc.get("command") != command:
        problems.append(f"command {doc.get('command')!r}, expected {command!r}")
    want_verdict = "PASS" if exit_code == 0 else "FAIL"
    if doc.get("verdict") != want_verdict:
        problems.append(f"verdict {doc.get('verdict')!r}, expected {want_verdict}")
    got = doc.get("config", {})
    for key, value in config.items():
        if got.get(key) != value:
            problems.append(f"config {key}={got.get(key)!r}, expected {value!r}")
    return problems


IDENTITY_CHECKS = tuple((name, below) for name in (
    "correction_kills_reeb_pair", "modified_reeb_parallel", "modified_phi_horizontal",
    "modified_curvature_mode_agreement", "eta_parallel_gate", "defect_collapse",
    "eta_parallel_gate", "skew_anticommutation_gate", "defect_factorization",
    "nearly_cosymplectic_gate", "curvature_reconstruction_full",
    "curvature_reconstruction_horizontal", "nabla_phi_pairing"))


def check_identities(rc: int, doc: dict, *, seed: int, points: int) -> list[str]:
    """S^5 is nearly cosymplectic with constant phi-sectional curvature, so
    every suite runs and every identity holds."""
    problems = _common(rc, doc, command="identities", exit_code=0,
                       config={"seed": seed, "points": points})
    skipped = doc.get("summary", {}).get("skipped_suites")
    if skipped != "none":
        problems.append(f"skipped_suites {skipped!r}, expected 'none'")
    return problems + _compare_checks(doc, IDENTITY_CHECKS)


def check_curvature(rc: int, doc: dict, *, seed: int, points: int,
                    planes: int) -> list[str]:
    """The unit sphere has sectional curvature 1 on every plane."""
    problems = _common(rc, doc, command="curvature", exit_code=0,
                       config={"seed": seed, "points": points, "planes": planes})
    summary = doc.get("summary", {})
    if summary.get("samples") != points * planes:
        problems.append(f"samples {summary.get('samples')!r}, expected {points * planes}")
    for key in ("min", "max", "mean"):
        value = summary.get(key)
        if not (isinstance(value, float) and abs(value - 1.0) <= 1e-3):
            problems.append(f"sectional curvature {key} {value!r} is not 1 within 1e-3")
    if summary.get("constant") is not True:
        problems.append("curvature not assessed constant")
    return problems + _compare_checks(doc, (("sectional_curvature_sampled", flag),))


def check_validate_darboux(rc: int, doc: dict, *, seed: int, points: int, n: int,
                           volume: float) -> list[str]:
    """Darboux Sasakian structure: a valid contact metric structure whose
    Reeb gradient is -phi, so it fails anticommutation with residual 2 and
    is not nearly cosymplectic."""
    problems = _common(rc, doc, command="validate", exit_code=1,
                       config={"seed": seed, "points": points})
    expected = (
        ("phi_squared", below), ("eta_xi", below), ("metric_compatibility", below),
        ("phi_xi", below), ("eta_phi", below), ("rank_phi", equals(1.0, True)),
        ("eta_flat_xi", below),
        ("phi_anticommutation", equals(2.0, False)),
        ("skew_phi_anticommutation", equals(2.0, False)),
        ("eta_parallel", below),
        ("contact_sigma_min", equals(1.0, True)),
        ("contact_volume", equals(volume, True)),
        ("contact_bridge", below), ("reeb_killing", below),
        ("reeb_in_deta_kernel", below),
        ("nearly_cosymplectic", violated),
        ("dim_mod4_gate", flag),
    )
    summary = doc.get("summary", {})
    if summary.get("dim") != 2 * n + 1:
        problems.append(f"dim {summary.get('dim')!r}, expected {2 * n + 1}")
    return problems + _compare_checks(doc, expected)


def check_lemma(rc: int, doc: dict, *, seed: int, dim: int, trials: int) -> list[str]:
    """Nonsingular skew operators anticommuting with J exist only when
    4 divides the dimension: dim 16 decomposes into quadruples, dim 14
    forces every draw to be singular."""
    problems = _common(rc, doc, command="lemma", exit_code=0,
                       config={"seed": seed, "dim": dim, "trials": trials})
    branch = "decomposition" if dim % 4 == 0 else "forced_singularity"
    if doc.get("summary", {}).get("branch") != branch:
        problems.append(f"branch {doc.get('summary', {}).get('branch')!r}, expected {branch}")
    expected = [("min_triple_gram_det", above), ("min_witness_overlap", above)]
    if dim % 4 == 0:
        expected += [("worst_gram_off_diagonal", below),
                     ("all_decompositions_complete", flag)]
    else:
        expected += [("max_sigma_min", below), ("all_draws_singular", flag)]
    return problems + _compare_checks(doc, expected)
