"""Unit tests for pointwise structure validation and the horizontal
distribution machinery."""
import numpy as np
import pytest

from acmslab.errors import DegenerateInputError, ShapeError
from acmslab.linalg import Metric, operator_in_basis, skew_matrix
from acmslab.structure import (
    AcmsPoint,
    check_eta_parallel,
    dimension_consistency_gate,
    horizontal_basis,
    validate_acms,
)


def _standard_point(dim=5):
    """Euclidean structure: a rotation by 90 degrees on consecutive
    coordinate pairs, last axis vertical."""
    phi = np.zeros((dim, dim))
    for k in range(0, dim - 1, 2):
        phi[k + 1, k] = 1.0
        phi[k, k + 1] = -1.0
    e_last = np.eye(dim)[dim - 1]
    return AcmsPoint(phi, e_last, e_last, Metric.euclidean(dim))


def _skew_anticommuting_block():
    """Operator on the standard dim-5 point: g-skew, anticommutes with phi,
    kills the vertical direction."""
    b = np.zeros((5, 5))
    b[2, 0], b[0, 2] = 1.0, -1.0
    b[3, 1], b[1, 3] = -1.0, 1.0
    return b


def _conjugated_point(seed, dim=5):
    """Push the standard structure through a random frame change; every
    defining identity is invariant."""
    rng = np.random.default_rng(seed)
    p = _standard_point(dim)
    t = rng.normal(size=(dim, dim)) * 0.3 + np.eye(dim)
    t_inv = np.linalg.inv(t)
    phi = t @ p.phi @ t_inv
    xi = t @ p.xi
    eta = t_inv.T @ p.eta
    g = Metric(t_inv.T @ p.g.gram @ t_inv)
    return AcmsPoint(phi, xi, eta, g)


class TestValidateAcms:
    def test_standard_point_passes(self):
        report = validate_acms(_standard_point())
        assert report.verdict
        names = {c.name for c in report.checks}
        assert names == {"phi_squared", "eta_xi", "metric_compatibility",
                         "phi_xi", "eta_phi", "rank_phi", "eta_flat_xi"}

    def test_dim_seven(self):
        assert validate_acms(_standard_point(7)).verdict

    @pytest.mark.parametrize("seed", range(8))
    def test_frame_change_invariance(self, seed):
        assert validate_acms(_conjugated_point(seed)).verdict

    def test_detects_broken_phi(self):
        p = _standard_point()
        phi = p.phi.copy()
        phi[0, 1] += 1e-3
        bad = AcmsPoint(phi, p.xi, p.eta, p.g)
        report = validate_acms(bad)
        assert not report.verdict
        assert not report["phi_squared"].passed

    def test_detects_scaled_eta(self):
        p = _standard_point()
        bad = AcmsPoint(p.phi, p.xi, 1.01 * p.eta, p.g)
        report = validate_acms(bad)
        assert not report["eta_xi"].passed
        assert not report["eta_flat_xi"].passed

    def test_detects_rank_drop(self):
        p = _standard_point()
        phi = p.phi.copy()
        phi[:, 0] = 0.0
        phi[0, :] = 0.0
        bad = AcmsPoint(phi, p.xi, p.eta, p.g)
        report = validate_acms(bad)
        assert not report["rank_phi"].passed

    def test_even_dim_rejected_at_construction(self):
        with pytest.raises(ShapeError):
            AcmsPoint(np.zeros((4, 4)), np.zeros(4), np.zeros(4),
                      Metric.euclidean(4))

    def test_mismatched_phi_dim(self):
        with pytest.raises(ShapeError):
            AcmsPoint(np.zeros((3, 3)), np.zeros(5), np.zeros(5),
                      Metric.euclidean(5))

    def test_non_square_phi(self):
        with pytest.raises(ShapeError):
            AcmsPoint(np.zeros((5, 4)), np.zeros(5), np.zeros(5),
                      Metric.euclidean(5))

    def test_bad_xi_shape(self):
        with pytest.raises(ShapeError):
            AcmsPoint(np.zeros((5, 5)), np.zeros(4), np.zeros(5),
                      Metric.euclidean(5))


class TestPointGeometryHelpers:
    def test_projection_kills_vertical(self):
        p = _standard_point()
        v = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        h = p.projector @ v
        assert p.eta_of(h) == pytest.approx(0.0, abs=1e-14)
        np.testing.assert_allclose(h[:4], v[:4])

    def test_projector_idempotent(self):
        p = _conjugated_point(3)
        pr = p.projector
        np.testing.assert_allclose(pr @ pr, pr, atol=1e-12)
        assert p.g.norm(pr @ p.xi) < 1e-12

    def test_phi_and_projector_are_readonly_copies(self):
        phi = _standard_point().phi.copy()
        p = AcmsPoint(phi, np.eye(5)[4], np.eye(5)[4], Metric.euclidean(5))
        phi[0, 1] = 7.0
        assert p.phi[0, 1] == -1.0
        for frozen in (p.phi, p.projector):
            with pytest.raises(ValueError):
                frozen[0, 0] = 7.0

    def test_dims(self):
        p = _standard_point(9)
        assert p.dim == 9
        assert p.horizontal_dim == 8


class TestHorizontalBasis:
    def test_standard_basis(self):
        basis = horizontal_basis(_standard_point())
        assert basis.shape == (5, 4)
        for b in basis.T:
            assert abs(b[4]) < 1e-14

    def test_orthonormal_in_curved_metric(self):
        p = _conjugated_point(5)
        basis = horizontal_basis(p)
        for i, bi in enumerate(basis.T):
            assert abs(p.eta_of(bi)) < 1e-10
            for j, bj in enumerate(basis.T):
                want = 1.0 if i == j else 0.0
                assert abs(p.g.inner(bi, bj) - want) < 1e-9

    def test_degenerate_eta_raises(self):
        p = AcmsPoint(_standard_point().phi, np.eye(5)[4], np.zeros(5),
                      Metric.euclidean(5))
        with pytest.raises(DegenerateInputError):
            horizontal_basis(p)


def _horizontal_skew(a, p):
    """The operator whose smallest singular value is the contact check
    (`curvature.contact_residuals`): P skew_matrix(A) P, with P the horizontal
    projector, in the g-orthonormal horizontal basis."""
    proj = p.projector
    return operator_in_basis(proj @ skew_matrix(a, p.g.gram) @ proj,
                             horizontal_basis(p), p.g)


class TestHorizontalSkew:
    def test_matrix_frozen_block(self):
        p = _standard_point()
        b = _horizontal_skew(_skew_anticommuting_block(), p)
        expected = np.array([
            [0.0, 0.0, -1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, -1.0, 0.0, 0.0],
        ])
        np.testing.assert_allclose(b, expected, atol=1e-12)

    def test_matrix_antisymmetric(self):
        p = _conjugated_point(9)
        a = np.random.default_rng(2).normal(size=(5, 5))
        b = _horizontal_skew(a, p)
        np.testing.assert_allclose(b, -b.T, atol=1e-9)

    def test_restricted_operator_matches(self):
        p = _standard_point()
        block = operator_in_basis(p.phi, horizontal_basis(p), p.g)
        expected = p.phi[:4, :4]
        np.testing.assert_allclose(block, expected, atol=1e-12)


def _anticommutator_residual(a, b) -> float:
    """Max-norm of AB + BA, the form `cli.cmd_validate` gates."""
    return float(np.max(np.abs(a @ b + b @ a)))


class TestPhiAnticommutation:
    def test_passes_on_anticommuting_operator(self):
        p = _standard_point()
        assert _anticommutator_residual(p.phi, _skew_anticommuting_block()) < 1e-14

    def test_fails_on_phi_itself(self):
        # phi never anticommutes with itself: the residual is 2 phi^2
        p = _standard_point()
        assert _anticommutator_residual(p.phi, p.phi) == pytest.approx(2.0)

    def test_dim_mismatch(self):
        # operators are plain arrays, so numpy refuses the product
        with pytest.raises(ValueError):
            _anticommutator_residual(np.zeros((3, 3)), _standard_point().phi)


class TestEtaParallel:
    def test_zero_table_passes(self):
        p = _standard_point()
        assert check_eta_parallel(np.zeros((5, 5, 5)), p, horizontal_basis(p)).verdict

    def test_vertical_slices_invisible(self):
        # entries with any vertical index do not contribute to the
        # horizontal-triples residual
        p = _standard_point()
        table = np.zeros((5, 5, 5))
        table[4, :, :] = 1.0
        table[:, 4, :] = -2.0
        table[:, :, 4] = 0.5
        assert check_eta_parallel(table, p, horizontal_basis(p)).verdict

    def test_horizontal_entry_detected(self):
        p = _standard_point()
        table = np.zeros((5, 5, 5))
        table[0, 1, 2] = 1.0
        report = check_eta_parallel(table, p, horizontal_basis(p))
        assert not report.verdict
        assert report["eta_parallel"].residual == pytest.approx(1.0)

    def test_shape_checked(self):
        p = _standard_point()
        with pytest.raises(ShapeError):
            check_eta_parallel(np.zeros((5, 5)), p, horizontal_basis(p))

    def test_matches_single_contraction_at_d13(self):
        # the pairwise products sum in another order than one four-operand
        # loop, so they agree to rounding only
        p = _conjugated_point(13, dim=13)
        table = np.random.default_rng(13).normal(size=(13, 13, 13))
        basis = horizontal_basis(p)
        lowered = np.einsum("ijk,jl->ilk", table, p.g.gram)
        want = np.max(np.abs(np.einsum("ia,ilk,lb,kc->abc", basis, lowered, basis, basis)))
        got = check_eta_parallel(table, p, basis)["eta_parallel"].residual
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


class TestDimensionGate:
    def test_consistent_dimension(self):
        assert dimension_consistency_gate(5, True, True).passed
        assert dimension_consistency_gate(9, True, True).passed

    def test_inconsistent_dimension(self):
        assert not dimension_consistency_gate(7, True, True).passed

    def test_vacuous_when_conditions_fail(self):
        assert dimension_consistency_gate(7, False, True).passed
        assert dimension_consistency_gate(7, True, False).passed
