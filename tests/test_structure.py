"""Unit tests for pointwise structure validation and the horizontal
distribution machinery."""
import numpy as np
import pytest

from acmslab.errors import DegenerateInputError, ShapeError
from acmslab.linalg import norms, operator_in_basis, skew_matrix
from acmslab.structure import (
    check_eta_parallel,
    dimension_consistency_gate,
    horizontal_basis,
    horizontal_projector,
    validate_acms,
)


def _standard_point(dim=5):
    """Euclidean structure (phi, xi, eta, gram): a rotation by 90 degrees
    on consecutive coordinate pairs, last axis vertical."""
    phi = np.zeros((dim, dim))
    for k in range(0, dim - 1, 2):
        phi[k + 1, k] = 1.0
        phi[k, k + 1] = -1.0
    e_last = np.eye(dim)[dim - 1]
    return phi, e_last, e_last, np.eye(dim)


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
    phi, xi, eta, gram = _standard_point(dim)
    t = rng.normal(size=(dim, dim)) * 0.3 + np.eye(dim)
    t_inv = np.linalg.inv(t)
    return t @ phi @ t_inv, t @ xi, t_inv.T @ eta, t_inv.T @ gram @ t_inv


def _basis(phi, xi, eta, gram):
    """The horizontal frame of a structure, from its projector."""
    return horizontal_basis(horizontal_projector(xi, eta), eta, gram)


class TestValidateAcms:
    def test_standard_point_passes(self):
        report = validate_acms(*_standard_point())
        assert report.verdict
        names = {c.name for c in report.checks}
        assert names == {"phi_squared", "eta_xi", "metric_compatibility",
                         "phi_xi", "eta_phi", "rank_phi", "eta_flat_xi"}

    def test_dim_seven(self):
        assert validate_acms(*_standard_point(7)).verdict

    @pytest.mark.parametrize("seed", range(8))
    def test_frame_change_invariance(self, seed):
        assert validate_acms(*_conjugated_point(seed)).verdict

    def test_detects_broken_phi(self):
        phi, xi, eta, gram = _standard_point()
        phi[0, 1] += 1e-3
        report = validate_acms(phi, xi, eta, gram)
        assert not report.verdict
        assert not report["phi_squared"].passed

    def test_detects_scaled_eta(self):
        phi, xi, eta, gram = _standard_point()
        report = validate_acms(phi, xi, 1.01 * eta, gram)
        assert not report["eta_xi"].passed
        assert not report["eta_flat_xi"].passed

    def test_detects_rank_drop(self):
        phi, xi, eta, gram = _standard_point()
        phi[:, 0] = 0.0
        phi[0, :] = 0.0
        report = validate_acms(phi, xi, eta, gram)
        assert not report["rank_phi"].passed

    def test_stack_is_worst_of_its_points(self):
        # broken points in the middle: eta scaled at one, phi losing rank
        # at the next; the stack reports each check's worst point exactly
        points = [_conjugated_point(seed) for seed in range(6)]
        phi, xi, eta, gram = points[2]
        points[2] = (phi, xi, 1.01 * eta, gram)
        phi, xi, eta, gram = _standard_point()
        phi[:, 0] = phi[0, :] = 0.0
        points[3] = (phi, xi, eta, gram)
        singles = [validate_acms(*p) for p in points]
        stack = [np.stack(arrays) for arrays in zip(*points)]
        report = validate_acms(*stack)
        assert not report.verdict and not report["rank_phi"].passed
        assert report["rank_phi"].residual == 3.0
        for check in report.checks:
            at_points = [single[check.name] for single in singles]
            assert check.residual == max(c.residual for c in at_points)
            assert check.passed == all(c.passed for c in at_points)
            assert check.tolerance == at_points[0].tolerance
        grid = [a.reshape((2, 3) + a.shape[1:]) for a in stack]
        assert validate_acms(*grid) == report

    def test_even_dim_rejected(self):
        with pytest.raises(ShapeError, match="odd and at least 3"):
            validate_acms(np.zeros((4, 4)), np.zeros(4), np.zeros(4), np.eye(4))

    def test_mismatched_phi_dim(self):
        with pytest.raises(ShapeError):
            validate_acms(np.zeros((3, 3)), np.zeros(5), np.zeros(5), np.eye(5))

    def test_non_square_phi(self):
        with pytest.raises(ShapeError):
            validate_acms(np.zeros((5, 4)), np.zeros(5), np.zeros(5), np.eye(5))

    def test_empty_stack_rejected(self):
        # no point, no verdict: an empty stack must not pass vacuously
        with pytest.raises(ShapeError, match="no points"):
            validate_acms(np.zeros((0, 5, 5)), np.zeros((0, 5)), np.zeros((0, 5)),
                          np.zeros((0, 5, 5)))

    def test_bad_xi_shape(self):
        with pytest.raises(ShapeError):
            validate_acms(np.zeros((5, 5)), np.zeros(4), np.zeros(5), np.eye(5))


class TestPointGeometryHelpers:
    def test_projection_kills_vertical(self):
        _, xi, eta, _ = _standard_point()
        v = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        h = horizontal_projector(xi, eta) @ v
        assert eta @ h == pytest.approx(0.0, abs=1e-14)
        np.testing.assert_allclose(h[:4], v[:4])

    def test_projector_idempotent(self):
        _, xi, eta, gram = _conjugated_point(3)
        pr = horizontal_projector(xi, eta)
        np.testing.assert_allclose(pr @ pr, pr, atol=1e-12)
        assert norms(pr @ xi[:, None], gram)[0] < 1e-12


class TestHorizontalBasis:
    def test_standard_basis(self):
        basis = _basis(*_standard_point())
        assert basis.shape == (5, 4)
        for b in basis.T:
            assert abs(b[4]) < 1e-14

    def test_orthonormal_in_curved_metric(self):
        p = _conjugated_point(5)
        _, _, eta, gram = p
        basis = _basis(*p)
        for i, bi in enumerate(basis.T):
            assert abs(eta @ bi) < 1e-10
            for j, bj in enumerate(basis.T):
                want = 1.0 if i == j else 0.0
                assert abs(bi @ gram @ bj - want) < 1e-9

    def test_degenerate_eta_raises(self):
        phi, xi, _, gram = _standard_point()
        with pytest.raises(DegenerateInputError):
            _basis(phi, xi, np.zeros(5), gram)

    @pytest.mark.parametrize("projector, eta, gram", [
        (np.eye(4), np.eye(5)[4], np.eye(5)),
        (np.eye(5)[:, :4], np.eye(5)[4], np.eye(5)),
        (np.eye(5), np.eye(4)[3], np.eye(5)),
        (np.eye(5), np.eye(5)[None, 4], np.eye(5)),
        (np.eye(5), np.eye(5)[4], np.eye(5)[:4]),
        (np.eye(5), np.eye(5)[4], np.eye(5)[None]),
    ])
    def test_wrong_shape_rejected(self, projector, eta, gram):
        with pytest.raises(ShapeError):
            horizontal_basis(projector, eta, gram)


class TestStackedHorizontalBasis:
    """Over a stack of rows, one basis per row, and the first failing row
    raises what it raises alone."""

    @staticmethod
    def _rows(kinds):
        """Projector, eta and gram rows: "ok" is a conjugated structure,
        "rank" has eta(xi) = 2 (a full-rank projector), "leak" pairs the
        coordinate projector of ker e_5 with a tilted eta."""
        rows = []
        for n, kind in enumerate(kinds):
            _, xi, eta, gram = _conjugated_point(30 + n)
            proj = horizontal_projector(xi, eta)
            if kind == "rank":
                proj = horizontal_projector(2.0 * xi, eta)
            elif kind == "leak":
                proj, gram = np.diag([1.0, 1.0, 1.0, 1.0, 0.0]), np.eye(5)
                eta = np.eye(5)[4] + 0.01
            rows.append((proj, eta, gram))
        return tuple(np.array(a) for a in zip(*rows))

    def test_matches_rows(self):
        proj, eta, gram = self._rows(["ok"] * 4)
        stacked = horizontal_basis(proj, eta, gram)
        assert stacked.shape == (4, 5, 4)
        for n in range(4):
            assert np.array_equal(stacked[n], horizontal_basis(proj[n], eta[n], gram[n]))

    @pytest.mark.parametrize("kinds, first", [
        (["ok", "leak", "rank"], 1),
        (["ok", "rank", "leak"], 1),
        (["ok", "ok", "leak"], 2),
        (["rank", "ok", "ok"], 0),
    ])
    def test_first_failing_row_raises_its_own_message(self, kinds, first):
        proj, eta, gram = self._rows(kinds)
        with pytest.raises(DegenerateInputError) as alone:
            horizontal_basis(proj[first], eta[first], gram[first])
        with pytest.raises(DegenerateInputError) as stacked:
            horizontal_basis(proj, eta, gram)
        assert str(stacked.value) == str(alone.value)
        assert ("rank 5" if kinds[first] == "rank" else "leaks") in str(alone.value)


def _horizontal_skew(a, p):
    """The operator whose smallest singular value is the contact check
    (`curvature.contact_residuals`): P skew_matrix(A) P, with P the horizontal
    projector, in the g-orthonormal horizontal basis."""
    _, xi, eta, gram = p
    proj = horizontal_projector(xi, eta)
    return operator_in_basis(proj @ skew_matrix(a, gram) @ proj, _basis(*p), gram)


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
        phi, gram = p[0], p[3]
        block = operator_in_basis(phi, _basis(*p), gram)
        expected = phi[:4, :4]
        np.testing.assert_allclose(block, expected, atol=1e-12)


def _anticommutator_residual(a, b) -> float:
    """Max-norm of AB + BA, the form `cli.cmd_validate` gates."""
    return float(np.max(np.abs(a @ b + b @ a)))


class TestPhiAnticommutation:
    def test_passes_on_anticommuting_operator(self):
        phi = _standard_point()[0]
        assert _anticommutator_residual(phi, _skew_anticommuting_block()) < 1e-14

    def test_fails_on_phi_itself(self):
        # phi never anticommutes with itself: the residual is 2 phi^2
        phi = _standard_point()[0]
        assert _anticommutator_residual(phi, phi) == pytest.approx(2.0)

    def test_dim_mismatch(self):
        # operators are plain arrays, so numpy refuses the product
        with pytest.raises(ValueError):
            _anticommutator_residual(np.zeros((3, 3)), _standard_point()[0])


class TestEtaParallel:
    # the residual that validate and the suites gate; 1e-9 is acms_exact
    def test_zero_table_passes(self):
        p = _standard_point()
        assert check_eta_parallel(np.zeros((5, 5, 5)), p[3], _basis(*p)) < 1e-9

    def test_vertical_slices_invisible(self):
        # entries with any vertical index do not contribute to the
        # horizontal-triples residual
        p = _standard_point()
        table = np.zeros((5, 5, 5))
        table[4, :, :] = 1.0
        table[:, 4, :] = -2.0
        table[:, :, 4] = 0.5
        assert check_eta_parallel(table, p[3], _basis(*p)) < 1e-9

    def test_horizontal_entry_detected(self):
        p = _standard_point()
        table = np.zeros((5, 5, 5))
        table[0, 1, 2] = 1.0
        resid = check_eta_parallel(table, p[3], _basis(*p))
        assert not resid < 1e-9
        assert resid == pytest.approx(1.0)

    def test_shape_checked(self):
        p = _standard_point()
        with pytest.raises(ShapeError):
            check_eta_parallel(np.zeros((5, 5)), p[3], _basis(*p))

    def test_matches_single_contraction_at_d13(self):
        # the pairwise products sum in another order than one four-operand
        # loop, so they agree to rounding only
        p = _conjugated_point(13, dim=13)
        gram = p[3]
        table = np.random.default_rng(13).normal(size=(13, 13, 13))
        basis = _basis(*p)
        lowered = np.einsum("ijk,jl->ilk", table, gram)
        want = np.max(np.abs(np.einsum("ia,ilk,lb,kc->abc", basis, lowered, basis, basis)))
        got = check_eta_parallel(table, gram, basis)
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
