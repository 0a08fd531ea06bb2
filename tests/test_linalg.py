"""Unit tests for the metric linear algebra layer."""
import re

import numpy as np
import pytest

from acmslab.errors import DegenerateInputError, PreconditionError, ShapeError
from acmslab.linalg import (
    Metric,
    adjoint,
    check_gram,
    g_singular_values,
    gram_schmidt,
    operator_in_basis,
    project_out,
    skew_matrix,
    symmetric_eigen,
)


class TestMetric:
    def test_euclidean_gram(self):
        g = Metric.euclidean(3)
        np.testing.assert_allclose(g.gram, np.eye(3))

    def test_rejects_asymmetric(self):
        with pytest.raises(DegenerateInputError):
            Metric(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(DegenerateInputError):
            Metric(np.diag([1.0, -1.0]))

    def test_rejects_nonsquare(self):
        with pytest.raises(ShapeError):
            Metric(np.ones((2, 3)))

    @pytest.mark.parametrize("first, message", [
        (np.array([[1.0, 0.5], [0.0, 1.0]]), "not symmetric (residual 5.000e-01)"),
        (np.diag([1.0, -2.0]), "not positive definite (min eigenvalue -2.000e+00)"),
    ])
    def test_stack_reports_first_failure(self, first, message):
        # the later matrix fails both checks; the earlier failure is reported
        stack = np.array([np.eye(2), first, [[1.0, 1.0], [0.0, -1.0]]])
        check_gram(stack[:1])
        with pytest.raises(DegenerateInputError, match=re.escape(message)):
            check_gram(stack)

    def test_inner_and_norm(self):
        g = Metric(np.diag([1.0, 2.0]))
        x = np.array([1.0, 1.0])
        assert g.inner(x, x) == pytest.approx(3.0)
        assert g.norm(x) == pytest.approx(np.sqrt(3.0))

    def test_unit_rejects_zero(self):
        g = Metric.euclidean(2)
        with pytest.raises(DegenerateInputError):
            g.unit(np.zeros(2))

    def test_to_orthonormal_preserves_singulars(self):
        # conjugating by the Cholesky factor turns g-singular values into
        # plain ones
        g = Metric(np.diag([1.0, 4.0]))
        op = np.array([[0.0, 1.0], [0.0, 0.0]])
        plain = np.linalg.svd(g.to_orthonormal(op), compute_uv=False)
        np.testing.assert_allclose(sorted(plain), sorted(g_singular_values(op, g)))

    def test_gram_is_readonly(self):
        g = Metric.euclidean(2)
        with pytest.raises(ValueError):
            g.gram[0, 0] = 7.0


class TestAdjoint:
    def test_weighted_adjoint_frozen(self):
        # g = diag(1, 2): adjoint of the nilpotent shift [[0,1],[0,0]]
        # picks up the weight ratio
        g = Metric(np.diag([1.0, 2.0]))
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        expected = np.array([[0.0, 0.0], [0.5, 0.0]])
        np.testing.assert_allclose(adjoint(a, g.gram), expected, atol=1e-14)

    def test_defining_pairing(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            m = rng.normal(size=(5, 5))
            g = Metric(m @ m.T + 5.0 * np.eye(5))
            a = rng.normal(size=(5, 5))
            a_star = adjoint(a, g.gram)
            x = rng.normal(size=5)
            y = rng.normal(size=5)
            lhs = g.inner(a @ x, y)
            rhs = g.inner(x, a_star @ y)
            assert abs(lhs - rhs) < 1e-10 * (1.0 + abs(lhs))

    def test_involution(self):
        rng = np.random.default_rng(12)
        m = rng.normal(size=(4, 4))
        g = Metric(m @ m.T + 4.0 * np.eye(4))
        a = rng.normal(size=(4, 4))
        np.testing.assert_allclose(adjoint(adjoint(a, g.gram), g.gram), a, atol=1e-12)

    def test_over_leading_axes(self):
        # one solve over a stack equals the adjoints taken one at a time
        rng = np.random.default_rng(13)
        m = rng.normal(size=(3, 4, 4))
        grams = m @ m.swapaxes(-1, -2) + 4.0 * np.eye(4)
        mats = rng.normal(size=(3, 4, 4))
        np.testing.assert_allclose(adjoint(mats, grams),
                                   [adjoint(a, gr) for a, gr in zip(mats, grams)],
                                   rtol=1e-12, atol=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            adjoint(np.eye(3), Metric.euclidean(2).gram)

    def test_rejects_vector(self):
        with pytest.raises(ShapeError):
            adjoint(np.ones(3), np.eye(3))


class TestSkewPart:
    def test_euclidean_frozen(self):
        a = np.array([[1.0, 2.0], [0.0, 1.0]])
        expected = np.array([[0.0, 1.0], [-1.0, 0.0]])
        np.testing.assert_allclose(skew_matrix(a, Metric.euclidean(2).gram), expected)

    def test_is_g_skew(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            m = rng.normal(size=(6, 6))
            g = Metric(m @ m.T + 6.0 * np.eye(6))
            s = skew_matrix(rng.normal(size=(6, 6)), g.gram)
            gs = g.gram @ s
            assert np.max(np.abs(gs + gs.T)) < 1e-10 * (1.0 + np.max(np.abs(gs)))

    def test_idempotent_on_skew(self):
        g = Metric.euclidean(3)
        s = np.array([[0.0, 1.0, -2.0], [-1.0, 0.0, 3.0], [2.0, -3.0, 0.0]])
        np.testing.assert_allclose(skew_matrix(s, g.gram), s, atol=1e-14)


class TestSymmetricEigen:
    def test_diagonal_oracle(self):
        g = Metric.euclidean(3)
        op = np.diag([3.0, 1.0, 2.0])
        vals, _ = symmetric_eigen(op, g, tol=1e-8)
        assert list(vals) == pytest.approx([1.0, 2.0, 3.0])

    def test_weighted_self_adjoint(self):
        # with g = diag(1, 2) the matrix [[0, 2], [1, 0]] is self-adjoint:
        # G A = [[0, 2], [2, 0]] is symmetric; eigenvalues +-sqrt(2)
        g = Metric(np.diag([1.0, 2.0]))
        op = np.array([[0.0, 2.0], [1.0, 0.0]])
        vals, vecs = symmetric_eigen(op, g, tol=1e-8)
        assert list(vals) == pytest.approx([-np.sqrt(2.0), np.sqrt(2.0)])
        for lam, v in zip(vals, vecs.T):
            assert g.norm(op @ v - lam * v) < 1e-10

    def test_vectors_g_orthonormal(self):
        rng = np.random.default_rng(31)
        m = rng.normal(size=(5, 5))
        g = Metric(m @ m.T + 5.0 * np.eye(5))
        sym = rng.normal(size=(5, 5))
        op = np.linalg.inv(g.gram) @ (sym + sym.T)
        _, vecs = symmetric_eigen(op, g, tol=1e-8)
        for i, vi in enumerate(vecs.T):
            for j, vj in enumerate(vecs.T):
                want = 1.0 if i == j else 0.0
                assert abs(g.inner(vi, vj) - want) < 1e-9

    def test_rejects_non_self_adjoint(self):
        g = Metric.euclidean(2)
        with pytest.raises(PreconditionError):
            symmetric_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]), g, tol=1e-8)

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            symmetric_eigen(np.eye(3), Metric.euclidean(2), tol=1e-8)


class TestGramSchmidt:
    def test_orthonormalizes(self):
        g = Metric(np.diag([1.0, 2.0, 3.0]))
        basis = gram_schmidt(np.column_stack([[1.0, 1.0, 0.0],
                                              [0.0, 1.0, 1.0],
                                              [1.0, 0.0, 1.0]]), g, rank_tol=1e-8)
        assert basis.shape == (3, 3)
        for i, bi in enumerate(basis.T):
            for j, bj in enumerate(basis.T):
                want = 1.0 if i == j else 0.0
                assert abs(g.inner(bi, bj) - want) < 1e-10

    def test_drops_dependent(self):
        g = Metric.euclidean(3)
        vecs = np.column_stack([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        basis = gram_schmidt(vecs, g, rank_tol=1e-8)
        assert basis.shape == (3, 2)

    def test_require_all_raises(self):
        g = Metric.euclidean(2)
        vecs = np.column_stack([[1.0, 1.0], [2.0, 2.0]])
        with pytest.raises(DegenerateInputError):
            gram_schmidt(vecs, g, rank_tol=1e-8, require_all=True)

    def test_span_preserved(self):
        rng = np.random.default_rng(41)
        m = rng.normal(size=(4, 4))
        g = Metric(m @ m.T + 4.0 * np.eye(4))
        vecs = np.column_stack([rng.normal(size=4) for _ in range(3)])
        basis = gram_schmidt(vecs, g, rank_tol=1e-8)
        # each input is reproduced by its coordinates in the output basis
        for v in vecs.T:
            coords = [g.inner(b, v) for b in basis.T]
            rebuilt = sum(c * b for c, b in zip(coords, basis.T))
            assert g.norm(v - rebuilt) < 1e-9


class TestComplementAndProjection:
    def test_project_out(self):
        g = Metric.euclidean(3)
        basis = gram_schmidt(np.array([[1.0], [0.0], [0.0]]), g, rank_tol=1e-8)
        v = project_out(np.array([2.0, 3.0, 0.0]), basis, g)
        np.testing.assert_allclose(v, [0.0, 3.0, 0.0], atol=1e-13)


class TestBasisRepresentation:
    def test_operator_in_basis_rotation(self):
        g = Metric.euclidean(3)
        rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0],
                        [0.0, 0.0, 1.0]])
        basis = np.eye(3)[:, :2]
        b = operator_in_basis(rot, basis, g)
        np.testing.assert_allclose(b, [[0.0, -1.0], [1.0, 0.0]], atol=1e-14)

    def test_weighted_coordinates(self):
        g = Metric(np.diag([1.0, 4.0]))
        basis = gram_schmidt(np.array([[0.0], [1.0]]), g, rank_tol=1e-8)
        # basis vector is e2 / 2, so the coefficient of (3, 2) is 4
        assert g.inner(basis[:, 0], np.array([3.0, 2.0])) == pytest.approx(4.0)


class TestGSingularValues:
    def test_euclidean_matches_svd(self):
        rng = np.random.default_rng(61)
        a = rng.normal(size=(4, 4))
        got = g_singular_values(a, Metric.euclidean(4))
        want = np.linalg.svd(a, compute_uv=False)
        np.testing.assert_allclose(sorted(got), sorted(want), atol=1e-12)

    def test_norm_bounds_application(self):
        rng = np.random.default_rng(62)
        m = rng.normal(size=(5, 5))
        g = Metric(m @ m.T + 5.0 * np.eye(5))
        a = rng.normal(size=(5, 5))
        bound = float(np.max(g_singular_values(a, g)))
        for _ in range(30):
            x = rng.normal(size=5)
            assert g.norm(a @ x) <= bound * g.norm(x) + 1e-9

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            g_singular_values(np.eye(3), Metric.euclidean(2))
