"""Unit tests for the metric linear algebra layer."""
import re

import numpy as np
import pytest

from acmslab.charts import sample_points
from acmslab.curvature import PointGeometry
from acmslab.errors import DegenerateInputError, PreconditionError, ShapeError
from acmslab.gallery import GALLERY_NAMES, gallery_chart
from acmslab.linalg import (
    adjoint,
    check_gram,
    first_nonfinite,
    g_singular_values,
    gram_schmidt,
    inners,
    norms,
    operator_in_basis,
    project_out,
    skew_matrix,
    symmetric_eigen,
)


def _norm(v, gram):
    """g-norm of one vector."""
    return np.sqrt(max(v @ gram @ v, 0.0))


class TestCheckGram:
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


class TestInners:
    def test_weighted_inner_and_norm(self):
        gram = np.diag([1.0, 2.0])
        x = np.array([[1.0, 3.0], [1.0, 0.0]])  # columns (1, 1) and (3, 0)
        np.testing.assert_allclose(inners(x, x, gram), [3.0, 9.0])
        np.testing.assert_allclose(norms(x, gram), [np.sqrt(3.0), 3.0])

    def test_over_leading_axes(self):
        # the same formula over a stack of grams as one call per gram
        rng = np.random.default_rng(14)
        m = rng.normal(size=(3, 4, 4))
        grams = m @ m.swapaxes(-1, -2) + 4.0 * np.eye(4)
        x, y = rng.normal(size=(2, 3, 4, 5))
        assert np.array_equal(inners(x, y, grams),
                              [inners(*args) for args in zip(x, y, grams)])
        assert np.array_equal(norms(x, grams), [norms(*args) for args in zip(x, grams)])


class TestAdjoint:
    def test_weighted_adjoint_frozen(self):
        # g = diag(1, 2): adjoint of the nilpotent shift [[0,1],[0,0]]
        # picks up the weight ratio
        g = np.diag([1.0, 2.0])
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        expected = np.array([[0.0, 0.0], [0.5, 0.0]])
        np.testing.assert_allclose(adjoint(a, g), expected, atol=1e-14)

    def test_defining_pairing(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            m = rng.normal(size=(5, 5))
            g = m @ m.T + 5.0 * np.eye(5)
            a = rng.normal(size=(5, 5))
            a_star = adjoint(a, g)
            x = rng.normal(size=5)
            y = rng.normal(size=5)
            lhs = (a @ x) @ g @ y
            rhs = x @ g @ (a_star @ y)
            assert abs(lhs - rhs) < 1e-10 * (1.0 + abs(lhs))

    def test_involution(self):
        rng = np.random.default_rng(12)
        m = rng.normal(size=(4, 4))
        g = m @ m.T + 4.0 * np.eye(4)
        a = rng.normal(size=(4, 4))
        np.testing.assert_allclose(adjoint(adjoint(a, g), g), a, atol=1e-12)

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
            adjoint(np.eye(3), np.eye(2))

    def test_rejects_vector(self):
        with pytest.raises(ShapeError):
            adjoint(np.ones(3), np.eye(3))


class TestSkewPart:
    def test_euclidean_frozen(self):
        a = np.array([[1.0, 2.0], [0.0, 1.0]])
        expected = np.array([[0.0, 1.0], [-1.0, 0.0]])
        np.testing.assert_allclose(skew_matrix(a, np.eye(2)), expected)

    def test_is_g_skew(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            m = rng.normal(size=(6, 6))
            g = m @ m.T + 6.0 * np.eye(6)
            s = skew_matrix(rng.normal(size=(6, 6)), g)
            gs = g @ s
            assert np.max(np.abs(gs + gs.T)) < 1e-10 * (1.0 + np.max(np.abs(gs)))

    def test_idempotent_on_skew(self):
        g = np.eye(3)
        s = np.array([[0.0, 1.0, -2.0], [-1.0, 0.0, 3.0], [2.0, -3.0, 0.0]])
        np.testing.assert_allclose(skew_matrix(s, g), s, atol=1e-14)


class TestSymmetricEigen:
    def test_diagonal_oracle(self):
        g = np.eye(3)
        op = np.diag([3.0, 1.0, 2.0])
        vals, _ = symmetric_eigen(op, g, tol=1e-8)
        assert list(vals) == pytest.approx([1.0, 2.0, 3.0])

    def test_weighted_self_adjoint(self):
        # with g = diag(1, 2) the matrix [[0, 2], [1, 0]] is self-adjoint:
        # G A = [[0, 2], [2, 0]] is symmetric; eigenvalues +-sqrt(2)
        g = np.diag([1.0, 2.0])
        op = np.array([[0.0, 2.0], [1.0, 0.0]])
        vals, vecs = symmetric_eigen(op, g, tol=1e-8)
        assert list(vals) == pytest.approx([-np.sqrt(2.0), np.sqrt(2.0)])
        for lam, v in zip(vals, vecs.T):
            assert _norm(op @ v - lam * v, g) < 1e-10

    def test_vectors_g_orthonormal(self):
        rng = np.random.default_rng(31)
        m = rng.normal(size=(5, 5))
        g = m @ m.T + 5.0 * np.eye(5)
        sym = rng.normal(size=(5, 5))
        op = np.linalg.inv(g) @ (sym + sym.T)
        _, vecs = symmetric_eigen(op, g, tol=1e-8)
        for i, vi in enumerate(vecs.T):
            for j, vj in enumerate(vecs.T):
                want = 1.0 if i == j else 0.0
                assert abs(vi @ g @ vj - want) < 1e-9

    def test_rejects_non_self_adjoint(self):
        g = np.eye(2)
        with pytest.raises(PreconditionError):
            symmetric_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]), g, tol=1e-8)

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            symmetric_eigen(np.eye(3), np.eye(2), tol=1e-8)

    @staticmethod
    def _self_adjoint_stack(n, seed):
        """A Gram matrix and ``n`` operators self-adjoint in it."""
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(5, 5))
        g = m @ m.T + 5.0 * np.eye(5)
        sym = rng.normal(size=(n, 5, 5))
        return g, np.linalg.inv(g) @ (sym + sym.swapaxes(-1, -2))

    def test_stack_equals_each_slice_alone(self):
        g, ops = self._self_adjoint_stack(6, seed=37)
        vals, vecs = symmetric_eigen(ops, g, tol=1e-8)
        for op, val, vec in zip(ops, vals, vecs):
            alone = symmetric_eigen(op, g, tol=1e-8)
            assert np.array_equal(alone[0], val) and np.array_equal(alone[1], vec)
        nested = symmetric_eigen(ops.reshape(2, 3, 5, 5), g, tol=1e-8)
        assert np.array_equal(nested[0], vals.reshape(2, 3, 5))
        assert np.array_equal(nested[1], vecs.reshape(2, 3, 5, 5))

    def test_first_failing_slice_raises(self):
        g, ops = self._self_adjoint_stack(5, seed=41)
        ops[2, 0, 1] += 1e-3
        ops[4, 0, 1] += 2e-3
        with pytest.raises(PreconditionError) as alone:
            symmetric_eigen(ops[2], g, tol=1e-8)
        with pytest.raises(PreconditionError) as stacked:
            symmetric_eigen(ops, g, tol=1e-8)
        assert str(stacked.value) == str(alone.value)


class TestGramSchmidt:
    def test_orthonormalizes(self):
        g = np.diag([1.0, 2.0, 3.0])
        basis = gram_schmidt(np.column_stack([[1.0, 1.0, 0.0],
                                              [0.0, 1.0, 1.0],
                                              [1.0, 0.0, 1.0]]), g, rank_tol=1e-8)
        assert basis.shape == (3, 3)
        for i, bi in enumerate(basis.T):
            for j, bj in enumerate(basis.T):
                want = 1.0 if i == j else 0.0
                assert abs(bi @ g @ bj - want) < 1e-10

    def test_drops_dependent(self):
        g = np.eye(3)
        vecs = np.column_stack([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        basis = gram_schmidt(vecs, g, rank_tol=1e-8)
        assert basis.shape == (3, 2)

    def test_require_all_raises(self):
        g = np.eye(2)
        vecs = np.column_stack([[1.0, 1.0], [2.0, 2.0]])
        with pytest.raises(DegenerateInputError):
            gram_schmidt(vecs, g, rank_tol=1e-8, require_all=True)

    def test_span_preserved(self):
        rng = np.random.default_rng(41)
        m = rng.normal(size=(4, 4))
        g = m @ m.T + 4.0 * np.eye(4)
        vecs = np.column_stack([rng.normal(size=4) for _ in range(3)])
        basis = gram_schmidt(vecs, g, rank_tol=1e-8)
        # each input is reproduced by its coordinates in the output basis
        for v in vecs.T:
            coords = [b @ g @ v for b in basis.T]
            rebuilt = sum(c * b for c, b in zip(coords, basis.T))
            assert _norm(v - rebuilt, g) < 1e-9


class TestStackedGramSchmidt:
    """A stack pivots slice by slice: each slice's columns are exactly what
    the slice alone gives, and a slice of lower rank than the widest is
    padded with zero columns."""

    @staticmethod
    def _stack(seed):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(6, 4, 4))
        grams = m @ m.swapaxes(-1, -2) + 4.0 * np.eye(4)
        vecs = rng.normal(size=(6, 4, 4))
        vecs[1, :, 2] = 2.0 * vecs[1, :, 0]                         # rank 3
        vecs[3, :, 1:] = vecs[3, :, :1] * [1.0, -3.0, 0.5]          # rank 1
        vecs[4, :, 3] = vecs[4, :, 0] - vecs[4, :, 1] + 1e-12       # rank 3, late
        return vecs, grams

    def test_matches_slices(self):
        vecs, grams = self._stack(7)
        stacked = gram_schmidt(vecs, grams, rank_tol=1e-8)
        assert stacked.shape == (6, 4, 4)
        for v, g, got in zip(vecs, grams, stacked):
            one = gram_schmidt(v, g, rank_tol=1e-8)
            assert np.array_equal(got[:, :one.shape[1]], one)
            assert not got[:, one.shape[1]:].any()
        assert [np.any(b != 0.0, axis=0).sum() for b in stacked] == [4, 3, 4, 1, 3, 4]

    def test_narrows_to_the_largest_rank(self):
        vecs, grams = self._stack(8)
        stacked = gram_schmidt(vecs[[1, 4]], grams[[1, 4]], rank_tol=1e-8)
        assert stacked.shape == (2, 4, 3)

    def test_require_all_raises_for_the_first_failing_slice(self):
        # slice 3 stops first, at its second pick, and slice 1 later, at its
        # fourth: a loop of one-slice calls raises for slice 1, and so does
        # the stack
        vecs, grams = self._stack(9)
        with pytest.raises(DegenerateInputError) as one:
            gram_schmidt(vecs[1], grams[1], rank_tol=1e-8, require_all=True)
        with pytest.raises(DegenerateInputError) as stacked:
            gram_schmidt(vecs, grams, rank_tol=1e-8, require_all=True)
        assert str(stacked.value) == str(one.value)
        assert gram_schmidt(vecs[[0, 2, 5]], grams[[0, 2, 5]], rank_tol=1e-8,
                            require_all=True).shape == (3, 4, 4)


class TestComplementAndProjection:
    def test_project_out(self):
        g = np.eye(3)
        basis = gram_schmidt(np.array([[1.0], [0.0], [0.0]]), g, rank_tol=1e-8)
        v = project_out(np.array([2.0, 3.0, 0.0]), basis, g)
        np.testing.assert_allclose(v, [0.0, 3.0, 0.0], atol=1e-13)


class TestBasisRepresentation:
    def test_operator_in_basis_rotation(self):
        g = np.eye(3)
        rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0],
                        [0.0, 0.0, 1.0]])
        basis = np.eye(3)[:, :2]
        b = operator_in_basis(rot, basis, g)
        np.testing.assert_allclose(b, [[0.0, -1.0], [1.0, 0.0]], atol=1e-14)

    def test_weighted_coordinates(self):
        g = np.diag([1.0, 4.0])
        basis = gram_schmidt(np.array([[0.0], [1.0]]), g, rank_tol=1e-8)
        # basis vector is e2 / 2, so the coefficient of (3, 2) is 4
        assert basis[:, 0] @ g @ np.array([3.0, 2.0]) == pytest.approx(4.0)


class TestFirstNonfinite:
    def test_all_finite(self):
        assert first_nonfinite(np.ones((3, 2, 2))) is None
        assert first_nonfinite(np.empty((0, 2))) is None

    def test_first_row_then_first_entry(self):
        # row 0 is finite; row 1 holds nan then inf in C order, row 2 -inf
        a = np.zeros((3, 2, 2))
        a[1, 0, 1], a[1, 1, 0], a[2, 0, 0] = np.nan, np.inf, -np.inf
        r, value = first_nonfinite(a)
        assert r == 1 and np.isnan(value)
        a[1, 0, 1] = 0.0
        assert first_nonfinite(a) == (1, np.inf)
        assert first_nonfinite(a[2:]) == (0, -np.inf)


class TestGSingularValues:
    def test_euclidean_matches_svd(self):
        rng = np.random.default_rng(61)
        a = rng.normal(size=(4, 4))
        got = g_singular_values(a, np.eye(4))
        want = np.linalg.svd(a, compute_uv=False)
        np.testing.assert_allclose(sorted(got), sorted(want), atol=1e-12)

    def test_norm_bounds_application(self):
        rng = np.random.default_rng(62)
        m = rng.normal(size=(5, 5))
        g = m @ m.T + 5.0 * np.eye(5)
        a = rng.normal(size=(5, 5))
        bound = float(np.max(g_singular_values(a, g)))
        for _ in range(30):
            x = rng.normal(size=5)
            assert _norm(a @ x, g) <= bound * _norm(x, g) + 1e-9

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            g_singular_values(np.eye(3), np.eye(2))


class TestStackedGSingularValues:
    """Over an ``(n, d, d)`` stack, each row of singular values is exactly
    what the row's matrix and gram give alone."""

    @staticmethod
    def _assert_rows(mats, grams):
        stacked = g_singular_values(mats, grams)
        assert stacked.shape == np.shape(mats)[:-1]
        for mat, gram, got in zip(mats, grams, stacked):
            assert np.array_equal(got, g_singular_values(mat, gram))

    @pytest.mark.parametrize("name", GALLERY_NAMES)
    def test_gallery_phi(self, name):
        chart = gallery_chart(name)
        pg = PointGeometry(chart, sample_points(chart, 4, seed=17))
        self._assert_rows(pg.phi, pg.gram)

    def test_random_spd_stack(self):
        rng = np.random.default_rng(63)
        m = rng.normal(size=(5, 6, 6))
        self._assert_rows(rng.normal(size=(5, 6, 6)),
                          m @ m.swapaxes(-1, -2) + 6.0 * np.eye(6))

    def test_conjugation_by_cholesky_factor(self):
        # conjugating by the Cholesky factor turns g-singular values into
        # plain ones; the shift e2 -> e1 has g-norm 1/2 when g = diag(1, 4)
        gram = np.diag([1.0, 4.0])
        op = np.array([[0.0, 1.0], [0.0, 0.0]])
        r = np.linalg.cholesky(gram).T
        plain = np.linalg.svd(r @ op @ np.linalg.inv(r), compute_uv=False)
        np.testing.assert_allclose(sorted(plain), sorted(g_singular_values(op, gram)))
        np.testing.assert_allclose(g_singular_values(op, gram), [0.5, 0.0])

    @pytest.mark.parametrize("mats, grams", [
        (np.zeros((3, 3, 3)), np.broadcast_to(np.eye(4), (3, 4, 4))),
        (np.zeros((3, 4, 4)), np.broadcast_to(np.eye(3), (3, 3, 3))),
        (np.zeros((3, 4)), np.eye(4)),
    ])
    def test_dim_mismatch(self, mats, grams):
        with pytest.raises(ShapeError):
            g_singular_values(mats, grams)
