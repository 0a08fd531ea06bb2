"""Acceptance suite: ten end-to-end criteria, one test each.

Every test prints a single PASS/FAIL line naming its criterion, computes its
residuals at full scale, and asserts the documented thresholds. Timing gates
use wall-clock time on the machine running the suite.
"""
import io
import json
from contextlib import redirect_stdout
from time import perf_counter

import numpy as np
import pytest

from acmslab.charts import DerivativeMode, sample_points
from acmslab.cli import main
from acmslab.config import DEFAULT_TOLERANCES
from acmslab.curvature import (
    PointGeometry,
    bridge_residual,
    contact_residuals,
    curvature_reconstruction_suite,
    defect_collapse_suite,
    defect_factorization_suite,
    dual_mode_suite,
    horizontal_sectional_values,
    modified_connection_suite,
    nearly_cosymplectic_residual,
    skew_phi_anticommutation_residual,
)
from acmslab.gallery import GALLERY_NAMES, gallery_chart
from acmslab.linalg import g_singular_values, operator_in_basis
from acmslab.quadruples import (
    ComplexStructuredSpace,
    find_generic_vector,
    find_orthogonal_witness,
    quadruple_decomposition,
    random_constrained_operator,
)
from acmslab.structure import validate_acms


def _verdict_line(number: int, label: str, ok: bool) -> None:
    print(f"criterion {number:2d} [{label}]: {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="module")
def s5():
    return gallery_chart("s5")


@pytest.fixture(scope="module")
def s5_fd(s5):
    return s5.with_mode(DerivativeMode("fd"))


def test_criterion_01_quadruple_decomposition_dims_4_8_12():
    start = perf_counter()
    worst_off = 0.0
    for dim in (4, 8, 12):
        space = ComplexStructuredSpace.standard(dim)
        rng = np.random.default_rng(dim)
        for _ in range(100):
            a = random_constrained_operator(space, rng, skew=True, min_sigma=1e-3)
            blocks, _, _ = quadruple_decomposition(space, a)
            assert len(blocks) == dim // 4
            vectors = [v / np.sqrt(v @ space.gram @ v) for block in blocks for v in block.T]
            gram = np.array([[u @ space.gram @ v for v in vectors]
                             for u in vectors])
            off = float(np.max(np.abs(gram - np.diag(np.diag(gram)))))
            worst_off = max(worst_off, off)
    elapsed = perf_counter() - start
    ok = worst_off < 1e-8 and elapsed < 10.0
    _verdict_line(1, "quadruple decomposition, dims 4/8/12 x 100", ok)
    assert worst_off < 1e-8, f"worst Gram off-diagonal {worst_off:.3e}"
    assert elapsed < 10.0, f"took {elapsed:.1f} s"


def test_criterion_02_dim6_operators_all_singular():
    start = perf_counter()
    space = ComplexStructuredSpace.standard(6)
    rng = np.random.default_rng(6)
    worst_sigma = 0.0
    for _ in range(1000):
        a = random_constrained_operator(space, rng, skew=True)
        worst_sigma = max(worst_sigma, float(g_singular_values(a, space.gram)[-1]))
    elapsed = perf_counter() - start
    ok = worst_sigma < 1e-8 and elapsed < 10.0
    _verdict_line(2, "dim-6 contrapositive, 1000 draws", ok)
    assert worst_sigma < 1e-8, f"max sigma_min {worst_sigma:.3e}"
    assert elapsed < 10.0, f"took {elapsed:.1f} s"


def test_criterion_03_generic_vector_and_witness_dims_4_to_12():
    worst_det = np.inf
    worst_overlap = np.inf
    for dim in (4, 6, 8, 10, 12):
        space = ComplexStructuredSpace.standard(dim)
        rng = np.random.default_rng(100 + dim)
        found = 0
        while found < 100:
            a = random_constrained_operator(space, rng, skew=False)
            if np.max(np.abs(a)) < 1e-8:
                continue
            y = find_generic_vector(space, a)
            z, _, _ = find_orthogonal_witness(space, a, y)
            triple = np.stack([y, space.j @ y, a @ y])
            unit = np.stack([t / np.sqrt(t @ space.gram @ t) for t in triple])
            det = float(np.linalg.det(unit @ space.gram @ unit.T))
            overlap = abs(z @ space.gram @ (space.j @ (a @ y)))
            worst_det = min(worst_det, det)
            worst_overlap = min(worst_overlap, overlap)
            found += 1
    ok = worst_det > 1e-8 and worst_overlap > 1e-8
    _verdict_line(3, "generic vector + witness, dims 4-12 x 100", ok)
    assert worst_det > 1e-8, f"worst triple Gram det {worst_det:.3e}"
    assert worst_overlap > 1e-8, f"worst witness overlap {worst_overlap:.3e}"


def test_criterion_04_s5_instantiation_fd_mode(s5_fd):
    start = perf_counter()
    points = sample_points(s5_fd, 20, seed=40)
    worst_cond3 = 0.0
    worst_cond4 = 0.0
    min_sigma_a = np.inf
    for y in points:
        pg = PointGeometry(s5_fd, y)
        assert validate_acms(pg.phi, pg.xi, pg.eta, pg.gram).verdict
        worst_cond3 = max(worst_cond3, skew_phi_anticommutation_residual(pg))
        worst_cond4 = max(worst_cond4, pg.eta_parallel)
        sigma, volume = contact_residuals(pg)
        assert sigma > DEFAULT_TOLERANCES.contact
        assert volume > DEFAULT_TOLERANCES.contact
        a_restricted = operator_in_basis(pg.reeb_gradient, pg.horizontal_basis, pg.gram)
        min_sigma_a = min(min_sigma_a, float(
            np.linalg.svd(a_restricted, compute_uv=False)[-1]))
    values = horizontal_sectional_values(s5_fd, points, seed=41, planes=50)
    assert len(values) >= 20 * 50
    curv_err = float(np.max(np.abs(np.asarray(values) - 1.0)))
    elapsed = perf_counter() - start
    ok = (worst_cond3 < 1e-5 and worst_cond4 < 1e-4 and curv_err < 1e-3
          and min_sigma_a > 0.5 and s5_fd.dim == 5 and elapsed < 60.0)
    _verdict_line(4, "round five-sphere instantiation (fd mode)", ok)
    assert worst_cond3 < 1e-5, f"skew anticommutation residual {worst_cond3:.3e}"
    assert worst_cond4 < 1e-4, f"horizontal phi-derivative residual {worst_cond4:.3e}"
    assert curv_err < 1e-3, f"sectional curvature error {curv_err:.3e}"
    assert min_sigma_a > 0.5, f"restricted shape operator sigma_min {min_sigma_a:.3e}"
    assert s5_fd.dim == 5
    assert elapsed < 60.0, f"took {elapsed:.1f} s"


def test_criterion_05_bridge_on_every_validating_chart():
    results = {}
    for name in GALLERY_NAMES:
        for mode_kind in ("symbolic", "fd"):
            chart = gallery_chart(name)
            if mode_kind == "fd":
                chart = chart.with_mode(DerivativeMode("fd"))
            points = sample_points(chart, 5, seed=50)
            stack = PointGeometry(chart, points)
            validates = validate_acms(stack.phi, stack.xi, stack.eta, stack.gram).verdict
            assert validates, f"{name} unexpectedly fails structure validation"
            worst = max(bridge_residual(PointGeometry(chart, y)) for y in points)
            results[(name, mode_kind)] = worst
    bad = {k: v for k, v in results.items()
           if v >= (1e-5 if k[1] == "symbolic" else 1e-4)}
    ok = not bad
    _verdict_line(5, "contact-form bridge, all gallery charts, both modes", ok)
    assert not bad, f"bridge residuals out of tolerance: {bad}"


def test_criterion_06_modified_connection_identities(s5):
    pg = PointGeometry(s5, sample_points(s5, 4, seed=60))
    modified = modified_connection_suite(pg)
    collapse = defect_collapse_suite(pg)
    factor = defect_factorization_suite(pg)
    phi_resid = modified["modified_phi_horizontal"].residual
    agree = modified["modified_curvature_mode_agreement"].residual
    collapse_resid = collapse["defect_collapse"].residual
    factor_resid = factor["defect_factorization"].residual
    ok = (phi_resid < 1e-4 and collapse_resid < 1e-3 and factor_resid < 1e-3
          and agree < 1e-3)
    _verdict_line(6, "modified connection identities on the five-sphere", ok)
    assert phi_resid < 1e-4, f"modified phi residual {phi_resid:.3e}"
    assert collapse_resid < 1e-3, f"collapse residual {collapse_resid:.3e}"
    assert factor_resid < 1e-3, f"factorization residual {factor_resid:.3e}"
    assert agree < 1e-3, f"two-route curvature gap {agree:.3e}"


def test_criterion_07_curvature_reconstruction_c1(s5):
    report = curvature_reconstruction_suite(PointGeometry(s5, sample_points(s5, 2, seed=70)),
                                            c=1.0)
    assert report["nearly_cosymplectic_gate"].passed
    full = report["curvature_reconstruction_full"].residual
    horizontal = report["curvature_reconstruction_horizontal"].residual
    pairing = report["nabla_phi_pairing"].residual
    ok = full < 1e-3 and horizontal < 1e-3 and pairing < 1e-3
    _verdict_line(7, "curvature reconstruction with unit constant", ok)
    assert full < 1e-3, f"full reconstruction residual {full:.3e}"
    assert horizontal < 1e-3, f"horizontal specialization residual {horizontal:.3e}"
    assert pairing < 1e-3, f"phi-derivative pairing residual {pairing:.3e}"


def test_criterion_08_negative_controls():
    sas = gallery_chart("sasakian_r5")
    star_gap = 0.0
    nearly_gap = 0.0
    for y in sample_points(sas, 5, seed=81):
        pg = PointGeometry(sas, y)
        assert validate_acms(pg.phi, pg.xi, pg.eta, pg.gram).verdict
        sigma, _ = contact_residuals(pg)
        assert sigma > DEFAULT_TOLERANCES.contact
        assert pg.eta_parallel < 1e-4
        phi, a = pg.phi, pg.reeb_gradient
        star = float(np.max(np.abs(phi @ a + a @ phi)))
        star_gap = max(star_gap, abs(star - 2.0))
        nearly_gap = max(nearly_gap, abs(nearly_cosymplectic_residual(pg) - 2.0))
    cos = gallery_chart("cosymplectic_r5")
    deta_max = max(float(np.max(np.abs(PointGeometry(cos, y).deta)))
                   for y in sample_points(cos, 5, seed=82))
    cos_sigma, cos_volume = contact_residuals(PointGeometry(cos, np.zeros(5)))
    ok = (star_gap < 1e-9 and nearly_gap < 1e-8 and deta_max == 0.0
          and cos_sigma <= DEFAULT_TOLERANCES.contact and cos_volume == 0.0)
    _verdict_line(8, "negative controls (sasakian / cosymplectic)", ok)
    assert star_gap < 1e-9, f"anticommutation residual off 2 by {star_gap:.3e}"
    assert nearly_gap < 1e-8, f"nearly-cosymplectic residual off 2 by {nearly_gap:.3e}"
    assert deta_max == 0.0, f"cosymplectic d eta not exactly zero: {deta_max:.3e}"
    assert cos_sigma <= DEFAULT_TOLERANCES.contact
    assert cos_volume == 0.0


def test_criterion_09_dual_mode_oracle_all_charts():
    worst = {}
    for name in GALLERY_NAMES:
        chart = gallery_chart(name)
        report = dual_mode_suite(chart, sample_points(chart, 20, seed=90))
        for c in report.checks:
            worst[(name, c.name)] = c.residual
    bad = {k: v for k, v in worst.items() if v >= 1e-5}
    ok = not bad
    _verdict_line(9, "symbolic vs finite-difference agreement", ok)
    assert not bad, f"dual-mode relative gaps out of tolerance: {bad}"


def test_criterion_10_cli_determinism():
    commands = [
        ["validate", "--gallery", "s5", "--probes", "3", "--seed", "5", "--json"],
        ["lemma", "--dim", "4", "--trials", "10", "--seed", "5", "--json"],
        ["curvature", "--gallery", "s5", "--probes", "2", "--planes", "5",
         "--seed", "5", "--json"],
        ["identities", "--gallery", "s5", "--probes", "2", "--seed", "5",
         "--json"],
    ]
    ok = True
    for argv in commands:
        outputs = []
        for _ in range(2):
            buf = io.StringIO()
            with redirect_stdout(buf):
                main(list(argv))
            outputs.append(buf.getvalue())
        json.loads(outputs[0])  # well-formed document
        if outputs[0] != outputs[1]:
            ok = False
    _verdict_line(10, "byte-identical JSON for repeated runs", ok)
    assert ok, "JSON output differs between identical runs"
