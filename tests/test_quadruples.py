"""Unit tests for the quadruple decomposition and the mod-4 dimension law."""
import numpy as np
import pytest

from acmslab.config import DEFAULT_TOLERANCES
from acmslab.errors import (
    DegenerateInputError,
    PreconditionError,
    SearchError,
    ShapeError,
)
from acmslab.linalg import Metric, adjoint, g_singular_values
from acmslab.quadruples import (
    ComplexStructuredSpace,
    _constrained_dimension,
    constrained_operator_basis,
    constrained_projection,
    decomposition_campaign,
    find_generic_vector,
    find_orthogonal_witness,
    generic_vector_campaign,
    quadruple_decomposition,
    random_constrained_operator,
)


def _per_row_basis(space, *, skew):
    """Oracle for constrained_operator_basis: one constraint row per entry
    of AJ + JA (and G A + A^T G), built one row at a time, then the null
    space of the stacked rows from a full SVD."""
    d = space.dim
    jm = space.j
    gram = space.g.gram
    rows = []
    for i in range(d):
        for j in range(d):
            row = np.zeros((d, d))
            row[i, :] += jm[:, j]
            row[:, j] += jm[i, :]
            rows.append(row.ravel())
    if skew:
        for i in range(d):
            for j in range(d):
                row = np.zeros((d, d))
                row[:, i] += gram[:, j]
                row[:, j] += gram[i, :]
                rows.append(row.ravel())
    system = np.vstack(rows)
    _, s, vh = np.linalg.svd(system)
    rank = int(np.sum(s > s.max(initial=0.0) * np.finfo(float).eps * max(system.shape)))
    return vh[rank:].reshape(-1, d, d)


def _projection_trace(space, *, skew):
    """Trace of constrained_projection as a map on d x d matrices, from one
    application to the stack of the d^2 unit matrices."""
    d = space.dim
    units = np.eye(d * d).reshape(d * d, d, d)
    return float(np.trace(constrained_projection(space, units, skew=skew).reshape(d * d, d * d)))


def _non_euclidean_space(dim, seed):
    """G = S^T S and J = S^-1 J0 S for the standard J0 and a random S, so J
    is a g-isometry with J^2 = -I and G is not a multiple of the identity."""
    s = np.eye(dim) + 0.3 * np.random.default_rng(seed).standard_normal((dim, dim))
    j0 = ComplexStructuredSpace.standard(dim).j
    return ComplexStructuredSpace(np.linalg.solve(s, j0 @ s), Metric(s.T @ s))


def _skew_anticommuting_dim4():
    """Rotation-like operator on the standard dim-4 space: g-skew,
    anticommutes with J, A^2 = -I."""
    a = np.zeros((4, 4))
    a[1, 0], a[0, 1] = -1.0, 1.0
    a[3, 2], a[2, 3] = 1.0, -1.0
    return a


def _symmetric_anticommuting_dim4():
    """Reflection-like operator: anticommutes with J but is symmetric, so it
    is valid input for the generic-vector search and invalid for the
    decomposition."""
    return np.diag([1.0, -1.0, -1.0, 1.0])


class TestComplexStructuredSpace:
    def test_standard_block_structure(self):
        space = ComplexStructuredSpace.standard(4)
        jm = space.j
        np.testing.assert_allclose(jm @ jm, -np.eye(4))
        np.testing.assert_allclose(jm.T @ jm, np.eye(4))

    def test_odd_dim_rejected(self):
        with pytest.raises(ShapeError):
            ComplexStructuredSpace.standard(5)

    def test_bad_square_rejected(self):
        with pytest.raises(PreconditionError):
            ComplexStructuredSpace(np.eye(2), Metric.euclidean(2))

    @pytest.mark.parametrize("jm", [np.eye(2), np.zeros((4, 2)), np.zeros(4)])
    def test_wrong_shape_rejected(self, jm):
        with pytest.raises(ShapeError):
            ComplexStructuredSpace(jm, Metric.euclidean(4))

    def test_j_is_a_readonly_copy(self):
        jm = ComplexStructuredSpace.standard(4).j.copy()
        space = ComplexStructuredSpace(jm, Metric.euclidean(4))
        jm[0, 0] = 7.0
        assert space.j[0, 0] == 0.0
        with pytest.raises(ValueError):
            space.j[0, 0] = 7.0

    def test_non_isometry_rejected(self):
        jm = np.array([[0.0, -1.0], [1.0, 0.0]])
        with pytest.raises(PreconditionError):
            ComplexStructuredSpace(jm, Metric(np.diag([1.0, 4.0])))


class TestGenericVector:
    def test_first_frame_vector_wins(self):
        space = ComplexStructuredSpace.standard(4)
        y = find_generic_vector(space, _skew_anticommuting_dim4())
        np.testing.assert_allclose(y, np.eye(4)[0], atol=1e-14)

    def test_scan_order_skips_degenerate_frame(self):
        # every coordinate vector is an eigenvector of this operator, so the
        # frame triples are dependent and the scan advances to pair sums
        space = ComplexStructuredSpace.standard(4)
        y = find_generic_vector(space, _symmetric_anticommuting_dim4())
        want = np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2.0)
        np.testing.assert_allclose(y, want, atol=1e-14)

    def test_zero_operator_rejected(self):
        space = ComplexStructuredSpace.standard(4)
        with pytest.raises(PreconditionError):
            find_generic_vector(space, np.zeros((4, 4)))

    @pytest.mark.parametrize("a", [np.eye(2), np.zeros((4, 2))])
    def test_wrong_shape_rejected(self, a):
        space = ComplexStructuredSpace.standard(4)
        with pytest.raises(ShapeError):
            find_generic_vector(space, a)

    def test_non_anticommuting_rejected(self):
        space = ComplexStructuredSpace.standard(4)
        with pytest.raises(PreconditionError):
            find_generic_vector(space, np.eye(4))

    def test_dim_two_has_no_generic_vector(self):
        # three vectors cannot be independent in two dimensions
        space = ComplexStructuredSpace.standard(2)
        a = np.diag([1.0, -1.0])
        with pytest.raises(SearchError):
            find_generic_vector(space, a)

    def test_triple_independent_across_random_draws(self):
        space = ComplexStructuredSpace.standard(8)
        rng = np.random.default_rng(17)
        for _ in range(20):
            a = random_constrained_operator(space, rng, skew=False)
            if np.max(np.abs(a)) < 1e-8:
                continue
            y = find_generic_vector(space, a)
            triple = np.stack([y, space.j @ y, a @ y])
            gram = triple @ space.g.gram @ triple.T
            assert np.linalg.det(gram) > 1e-10


class TestOrthogonalWitness:
    def test_frozen_witness(self):
        space = ComplexStructuredSpace.standard(4)
        a = _skew_anticommuting_dim4()
        y = np.eye(4)[0]
        z = find_orthogonal_witness(space, a, y)
        # JAY = -e4 and it is already orthogonal to span{e1, e3, e2}
        np.testing.assert_allclose(z, -np.eye(4)[3], atol=1e-12)

    def test_witness_properties(self):
        space = ComplexStructuredSpace.standard(6)
        rng = np.random.default_rng(23)
        g = space.g
        for _ in range(15):
            a = random_constrained_operator(space, rng, skew=False)
            if np.max(np.abs(a)) < 1e-8:
                continue
            y = find_generic_vector(space, a)
            z = find_orthogonal_witness(space, a, y)
            assert g.norm(z) == pytest.approx(1.0)
            for t in (y, space.j @ y, a @ y):
                assert abs(g.inner(z, t)) < 1e-9
            assert abs(g.inner(z, space.j @ (a @ y))) > 1e-8

    def test_dependent_triple_rejected(self):
        space = ComplexStructuredSpace.standard(2)
        a = np.diag([1.0, -1.0])
        with pytest.raises(DegenerateInputError):
            find_orthogonal_witness(space, a, np.eye(2)[0])


class TestQuadrupleDecomposition:
    def test_dim4_frozen(self):
        space = ComplexStructuredSpace.standard(4)
        quads = quadruple_decomposition(space, _skew_anticommuting_dim4())
        assert len(quads) == 1
        q = quads[0]
        assert q.eigenvalue == pytest.approx(-1.0)
        x, jx, ax, jax = q.vectors
        np.testing.assert_allclose(jx, space.j @ x, atol=1e-12)
        np.testing.assert_allclose(jax, space.j @ ax, atol=1e-12)
        gram = np.array([[space.g.inner(u, v) for v in q.vectors]
                         for u in q.vectors])
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-10)

    def test_symmetric_operator_rejected(self):
        space = ComplexStructuredSpace.standard(4)
        with pytest.raises(PreconditionError):
            quadruple_decomposition(space, _symmetric_anticommuting_dim4())

    def test_singular_operator_rejected(self):
        space = ComplexStructuredSpace.standard(4)
        with pytest.raises(PreconditionError):
            quadruple_decomposition(space, np.zeros((4, 4)))

    def test_wrong_shape_rejected(self):
        space = ComplexStructuredSpace.standard(4)
        with pytest.raises(ShapeError):
            quadruple_decomposition(space, _skew_anticommuting_dim4()[:2, :2])

    def test_dim_not_divisible_by_four_refused(self):
        # genuine operators in dim 6 are always singular; drop the
        # singularity gate to expose the dimension refusal itself
        space = ComplexStructuredSpace.standard(6)
        rng = np.random.default_rng(3)
        a = random_constrained_operator(space, rng, skew=True)
        loose = DEFAULT_TOLERANCES.replace(singular=0.0)
        with pytest.raises((DegenerateInputError, PreconditionError)):
            quadruple_decomposition(space, a, tol=loose)

    @pytest.mark.parametrize("dim", [4, 8, 12, 16])
    def test_random_decompositions(self, dim):
        # properties only: the eigenvectors of A^2 come from LAPACK, so no
        # vector is frozen
        space = ComplexStructuredSpace.standard(dim)
        g, jm = space.g, space.j
        rng = np.random.default_rng(dim)
        for _ in range(10):
            a = random_constrained_operator(space, rng, skew=True, min_sigma=1e-3)
            a2 = a @ a
            quads = quadruple_decomposition(space, a)
            assert len(quads) == dim // 4
            for q in quads:
                x, jx, ax, jax = q.vectors
                np.testing.assert_allclose(jx, jm @ x, atol=1e-12)
                np.testing.assert_allclose(ax, a @ x, atol=1e-12)
                np.testing.assert_allclose(jax, jm @ ax, atol=1e-12)
                for v in q.vectors:
                    assert g.norm(a2 @ v - q.eigenvalue * v) < 1e-8 * (1.0 + g.norm(v))
            vectors = np.column_stack([v / g.norm(v) for q in quads for v in q.vectors])
            np.testing.assert_allclose(vectors.T @ g.gram @ vectors, np.eye(dim),
                                       atol=1e-8)


class TestChosenTolerances:
    def test_generic_vector_honours_acms_exact(self):
        # anticommutation residual 1e-10: inside the default 1e-9 gate, outside 1e-12
        space = ComplexStructuredSpace.standard(4)
        a = _skew_anticommuting_dim4()
        a[0, 0] = 1e-10
        find_generic_vector(space, a)
        strict = DEFAULT_TOLERANCES.replace(acms_exact=1e-12)
        with pytest.raises(PreconditionError, match="does not anticommute"):
            find_generic_vector(space, a, tol=strict)

    def test_witness_honours_rank(self):
        # the triple of Y = e1 + e2 / 2 has normalized Gram determinant 0.64
        space = ComplexStructuredSpace.standard(4)
        a = _symmetric_anticommuting_dim4()
        y = np.array([1.0, 0.5, 0.0, 0.0])
        find_orthogonal_witness(space, a, y)
        with pytest.raises(DegenerateInputError, match="numerically dependent"):
            find_orthogonal_witness(space, a, y, tol=DEFAULT_TOLERANCES.replace(rank=0.9))


class TestConstrainedProjection:
    @pytest.mark.parametrize("skew", [False, True])
    @pytest.mark.parametrize("space", [
        *(ComplexStructuredSpace.standard(dim) for dim in range(2, 17, 2)),
        _non_euclidean_space(8, seed=5),
    ], ids=[*(f"standard{dim}" for dim in range(2, 17, 2)), "non_euclidean8"])
    def test_trace_counts_basis_and_basis_is_fixed(self, space, skew):
        basis = constrained_operator_basis(space, skew=skew)
        assert abs(_projection_trace(space, skew=skew) - basis.shape[0]) < 1e-9
        assert _constrained_dimension(space, skew=skew) == basis.shape[0]
        np.testing.assert_allclose(constrained_projection(space, basis, skew=skew), basis,
                                   atol=1e-12)

    def test_skew_dimensions(self):
        dims = [_constrained_dimension(ComplexStructuredSpace.standard(d), skew=True)
                for d in (4, 6, 8, 14, 16)]
        assert dims == [2, 6, 12, 42, 56]

    def test_non_euclidean_draw_decomposes(self):
        # the G^-1 A^T G adjoint differs from the transpose here
        space = _non_euclidean_space(8, seed=5)
        a = random_constrained_operator(space, np.random.default_rng(11), skew=True,
                                        min_sigma=1e-3)
        assert np.max(np.abs(a + a.T)) > 1e-3
        assert np.max(np.abs(a + adjoint(a, space.g.gram))) < 1e-12 * (1.0 + np.max(np.abs(a)))
        quads = quadruple_decomposition(space, a)
        assert len(quads) == 2
        vectors = np.column_stack([v / space.g.norm(v) for q in quads for v in q.vectors])
        np.testing.assert_allclose(vectors.T @ space.g.gram @ vectors, np.eye(8), atol=1e-8)


class TestConstrainedBasis:
    def test_anticommuting_dimension(self):
        # real-linear maps anticommuting with J form a space of dimension
        # 2 m^2 with m = dim / 2
        for dim in (4, 6):
            space = ComplexStructuredSpace.standard(dim)
            basis = constrained_operator_basis(space, skew=False)
            assert basis.shape == (dim * dim // 2, dim, dim)

    def test_elements_satisfy_constraints(self):
        space = ComplexStructuredSpace.standard(6)
        jm = space.j
        for skew in (False, True):
            basis = constrained_operator_basis(space, skew=skew)
            assert basis.shape[0] > 0
            for b in basis:
                assert np.max(np.abs(b @ jm + jm @ b)) < 1e-10
                if skew:
                    resid = np.max(np.abs(b + adjoint(b, space.g.gram)))
                    assert resid < 1e-10

    @pytest.mark.parametrize("skew", [False, True])
    @pytest.mark.parametrize("dim", range(2, 17, 2))
    def test_matches_per_row_construction(self, dim, skew):
        space = ComplexStructuredSpace.standard(dim)
        got = constrained_operator_basis(space, skew=skew)
        assert np.array_equal(got, _per_row_basis(space, skew=skew))

    def test_trivial_in_dim_two(self):
        space = ComplexStructuredSpace.standard(2)
        basis = constrained_operator_basis(space, skew=True)
        assert basis.shape[0] == 0
        with pytest.raises(DegenerateInputError):
            random_constrained_operator(space, np.random.default_rng(0), skew=True)

    def test_min_sigma_resampling(self):
        space = ComplexStructuredSpace.standard(4)
        rng = np.random.default_rng(29)
        a = random_constrained_operator(space, rng, skew=True, min_sigma=0.1)
        assert float(g_singular_values(a, space.g)[-1]) > 0.1


class TestCampaigns:
    def test_generic_vector_campaign(self):
        report = generic_vector_campaign(6, 25, seed=101)
        assert report.verdict
        assert report["min_triple_gram_det"].passed

    def test_decomposition_campaign_mod4(self):
        report = decomposition_campaign(8, 10, seed=59)
        assert report.verdict
        assert report["all_decompositions_complete"].passed

    def test_decomposition_campaign_other_dims(self):
        report = decomposition_campaign(6, 10, seed=61)
        assert report.verdict
        assert report["all_draws_singular"].passed

    def test_decomposition_campaign_degenerate(self):
        report = decomposition_campaign(2, 5, seed=3)
        assert report.verdict
        assert report["degenerate_dimension_notice"].passed

    def test_campaign_deterministic(self):
        a = generic_vector_campaign(4, 10, seed=7)
        b = generic_vector_campaign(4, 10, seed=7)
        assert a.to_dicts() == b.to_dicts()
