"""Unit tests for the quadruple decomposition and the mod-4 dimension law."""
import numpy as np
import pytest

from acmslab import quadruples
from acmslab.cli import main
from acmslab.config import DEFAULT_TOLERANCES
from acmslab.errors import (
    DegenerateInputError,
    PreconditionError,
    SearchError,
    ShapeError,
)
from acmslab.linalg import adjoint, g_singular_values
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


def _norm(v, gram):
    """g-norm of one vector."""
    return np.sqrt(max(v @ gram @ v, 0.0))


def _per_row_basis(space, *, skew):
    """Oracle for constrained_operator_basis: one constraint row per entry
    of AJ + JA (and G A + A^T G), built one row at a time, then the null
    space of the stacked rows from a full SVD."""
    d = space.dim
    jm = space.j
    gram = space.gram
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
    return ComplexStructuredSpace(np.linalg.solve(s, j0 @ s), s.T @ s)


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
            ComplexStructuredSpace(np.eye(2), np.eye(2))

    @pytest.mark.parametrize("jm", [np.eye(2), np.zeros((4, 2)), np.zeros(4)])
    def test_wrong_shape_rejected(self, jm):
        with pytest.raises(ShapeError):
            ComplexStructuredSpace(jm, np.eye(4))

    def test_j_is_a_readonly_copy(self):
        jm = ComplexStructuredSpace.standard(4).j.copy()
        space = ComplexStructuredSpace(jm, np.eye(4))
        jm[0, 0] = 7.0
        assert space.j[0, 0] == 0.0
        with pytest.raises(ValueError):
            space.j[0, 0] = 7.0

    def test_non_isometry_rejected(self):
        jm = np.array([[0.0, -1.0], [1.0, 0.0]])
        with pytest.raises(PreconditionError):
            ComplexStructuredSpace(jm, np.diag([1.0, 4.0]))

    # the gram is checked before J, so each J below would pass on its own
    # or fail with another error type

    def test_rejects_asymmetric_gram(self):
        with pytest.raises(DegenerateInputError, match="not symmetric"):
            ComplexStructuredSpace(ComplexStructuredSpace.standard(2).j,
                                   np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_indefinite_gram(self):
        with pytest.raises(DegenerateInputError, match="not positive definite"):
            ComplexStructuredSpace(np.eye(2), np.diag([1.0, -1.0]))

    @pytest.mark.parametrize("gram", [np.ones((2, 3)), np.ones(4), np.ones((1, 4, 4))])
    def test_rejects_nonsquare_gram(self, gram):
        with pytest.raises(ShapeError, match="gram must be a square matrix"):
            ComplexStructuredSpace(np.eye(2), gram)

    def test_gram_is_a_readonly_copy(self):
        gram = np.eye(2)
        space = ComplexStructuredSpace(ComplexStructuredSpace.standard(2).j, gram)
        gram[0, 0] = 7.0
        assert space.gram[0, 0] == 1.0
        with pytest.raises(ValueError):
            space.gram[0, 0] = 7.0


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
            gram = triple @ space.gram @ triple.T
            assert np.linalg.det(gram) > 1e-10


class TestOrthogonalWitness:
    def test_frozen_witness(self):
        space = ComplexStructuredSpace.standard(4)
        a = _skew_anticommuting_dim4()
        y = np.eye(4)[0]
        z, _, _ = find_orthogonal_witness(space, a, y)
        # JAY = -e4 and it is already orthogonal to span{e1, e3, e2}
        np.testing.assert_allclose(z, -np.eye(4)[3], atol=1e-12)

    def test_witness_properties(self):
        space = ComplexStructuredSpace.standard(6)
        rng = np.random.default_rng(23)
        g = space.gram
        for _ in range(15):
            a = random_constrained_operator(space, rng, skew=False)
            if np.max(np.abs(a)) < 1e-8:
                continue
            y = find_generic_vector(space, a)
            z, _, _ = find_orthogonal_witness(space, a, y)
            assert _norm(z, g) == pytest.approx(1.0)
            for t in (y, space.j @ y, a @ y):
                assert abs(z @ g @ t) < 1e-9
            assert abs(z @ g @ (space.j @ (a @ y))) > 1e-8

    def test_dependent_triple_rejected(self):
        space = ComplexStructuredSpace.standard(2)
        a = np.diag([1.0, -1.0])
        with pytest.raises(DegenerateInputError):
            find_orthogonal_witness(space, a, np.eye(2)[0])


class TestQuadrupleDecomposition:
    def test_dim4_frozen(self):
        space = ComplexStructuredSpace.standard(4)
        blocks, lams, _ = quadruple_decomposition(space, _skew_anticommuting_dim4())
        assert len(blocks) == 1
        assert lams[0] == pytest.approx(-1.0)
        x, jx, ax, jax = blocks[0].T
        np.testing.assert_allclose(jx, space.j @ x, atol=1e-12)
        np.testing.assert_allclose(jax, space.j @ ax, atol=1e-12)
        gram = np.array([[u @ space.gram @ v for v in blocks[0].T]
                         for u in blocks[0].T])
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
        g, jm = space.gram, space.j
        rng = np.random.default_rng(dim)
        for _ in range(10):
            a = random_constrained_operator(space, rng, skew=True, min_sigma=1e-3)
            a2 = a @ a
            blocks, lams, _ = quadruple_decomposition(space, a)
            assert len(blocks) == dim // 4
            for block, lam in zip(blocks, lams):
                x, jx, ax, jax = block.T
                np.testing.assert_allclose(jx, jm @ x, atol=1e-12)
                np.testing.assert_allclose(ax, a @ x, atol=1e-12)
                np.testing.assert_allclose(jax, jm @ ax, atol=1e-12)
                for v in block.T:
                    assert _norm(a2 @ v - lam * v, g) < 1e-8 * (1.0 + _norm(v, g))
            vectors = np.column_stack([v / _norm(v, g) for block in blocks for v in block.T])
            np.testing.assert_allclose(vectors.T @ g @ vectors, np.eye(dim),
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
        assert np.max(np.abs(a + adjoint(a, space.gram))) < 1e-12 * (1.0 + np.max(np.abs(a)))
        blocks, _, _ = quadruple_decomposition(space, a)
        assert len(blocks) == 2
        vectors = np.column_stack([v / _norm(v, space.gram) for block in blocks
                                   for v in block.T])
        np.testing.assert_allclose(vectors.T @ space.gram @ vectors, np.eye(8), atol=1e-8)


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
                    resid = np.max(np.abs(b + adjoint(b, space.gram)))
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
        assert float(g_singular_values(a, space.gram)[-1]) > 0.1


class TestCampaigns:
    def test_generic_vector_campaign(self):
        report = generic_vector_campaign(ComplexStructuredSpace.standard(6), 25, seed=101)
        assert report.verdict
        assert report["min_triple_gram_det"].passed

    def test_decomposition_campaign_mod4(self):
        report = decomposition_campaign(ComplexStructuredSpace.standard(8), 10, seed=59)
        assert report.verdict
        assert report["all_decompositions_complete"].passed

    def test_decomposition_campaign_other_dims(self):
        report = decomposition_campaign(ComplexStructuredSpace.standard(6), 10, seed=61)
        assert report.verdict
        assert report["all_draws_singular"].passed

    def test_decomposition_campaign_degenerate(self):
        report = decomposition_campaign(ComplexStructuredSpace.standard(2), 5, seed=3)
        assert report.verdict
        assert report["degenerate_dimension_notice"].passed

    def test_generic_campaign_reduces_the_gated_values(self, monkeypatch):
        # only the generic-vector scan and the witness's gate compute the
        # triple Gram determinant: the campaign computes it no more often
        # than those two calls on the same draws
        space = ComplexStructuredSpace.standard(8)
        calls = []
        det = quadruples._normalized_triple_gram_det
        monkeypatch.setattr(quadruples, "_normalized_triple_gram_det",
                            lambda *args: calls.append(1) or det(*args))
        generic_vector_campaign(space, 5, seed=4)
        campaign = len(calls)
        a = random_constrained_operator(space, np.random.default_rng(4), 5, skew=False)
        calls.clear()
        find_orthogonal_witness(space, a, find_generic_vector(space, a))
        assert campaign == len(calls) > 1

    def test_campaign_deterministic(self):
        a = generic_vector_campaign(ComplexStructuredSpace.standard(4), 10, seed=7)
        b = generic_vector_campaign(ComplexStructuredSpace.standard(4), 10, seed=7)
        assert a.to_dicts() == b.to_dicts()


def _per_trial(fn, *stacks):
    """Oracle for a stacked call: ``fn`` on each trial alone, as one
    ``(d, d)`` operator, with the results stacked on a new leading axis."""
    outs = [fn(*args) for args in zip(*stacks)]
    if isinstance(outs[0], tuple):
        return tuple(np.stack(parts) for parts in zip(*outs))
    return np.stack(outs)


def _conditioned_draws(space, seed, trials, *, min_sigma, cap):
    """Oracle for skew draws with ``min_sigma``: the first ``trials`` draws of
    the unconditioned stream whose sigma_min exceeds it, or None when ``cap``
    draws in a row fail first."""
    stream = random_constrained_operator(space, np.random.default_rng(seed), 20 * trials,
                                         skew=True)
    kept, misses = [], 0
    for a, sigma in zip(stream, g_singular_values(stream, space.gram)[:, -1]):
        misses = 0 if sigma > min_sigma else misses + 1
        if misses == cap:
            return None
        if not misses:
            kept.append(a)
            if len(kept) == trials:
                return np.stack(kept)
    raise AssertionError("stream too short")


def _split_operator(dim):
    """diag(v, -v): anticommutes with the standard J, and every coordinate
    vector is an eigenvector, so the generic-vector scan passes the frame."""
    v = np.arange(1.0, dim // 2 + 1)
    return np.diag(np.concatenate([v, -v]))


class TestStacks:
    """A stack gives each trial exactly what the trial gives alone."""

    SPACES = [*(ComplexStructuredSpace.standard(dim) for dim in range(4, 17, 2)),
              _non_euclidean_space(8, seed=5)]
    IDS = [*(f"standard{dim}" for dim in range(4, 17, 2)), "non_euclidean8"]

    @pytest.mark.parametrize("space", SPACES, ids=IDS)
    def test_generic_vector_and_witness_match_per_trial_calls(self, space):
        a = random_constrained_operator(space, np.random.default_rng(space.dim), 7, skew=False)
        split = space is not self.SPACES[-1]
        if split:
            a[2] = _split_operator(space.dim)  # found later in the scan than the others
        y = find_generic_vector(space, a)
        assert np.array_equal(y, _per_trial(lambda x: find_generic_vector(space, x), a))
        if split:
            assert np.count_nonzero(y[2]) == 2 and np.count_nonzero(y[0]) == 1
        z, _, _ = find_orthogonal_witness(space, a, y)
        assert np.array_equal(z, _per_trial(
            lambda x, v: find_orthogonal_witness(space, x, v)[0], a, y))
        lead = (2, 3)
        assert np.array_equal(find_generic_vector(space, a[1:].reshape(*lead, *a.shape[1:])),
                              y[1:].reshape(*lead, space.dim))

    @pytest.mark.parametrize("space", SPACES, ids=IDS)
    def test_witness_returns_the_values_it_gated(self, space):
        # the two values the generic-vector campaign reduces: the triple's
        # Gram determinant and |<Z, JAY>|
        a = random_constrained_operator(space, np.random.default_rng(space.dim), 7, skew=False)
        y = find_generic_vector(space, a)
        z, det, overlap = find_orthogonal_witness(space, a, y)
        jay = quadruples._apply(space.j, quadruples._apply(a, y))
        assert np.array_equal(det, quadruples._normalized_triple_gram_det(space, a, y))
        assert np.array_equal(overlap, np.abs(quadruples._quadratic(z, space.gram, jay)))
        assert det.shape == overlap.shape == (7,)
        assert [part.shape for part in find_orthogonal_witness(space, a[0], y[0])] == [
            (space.dim,), (), ()]

    @pytest.mark.parametrize("space", [s for s in SPACES if s.dim % 4 == 0],
                             ids=[i for s, i in zip(SPACES, IDS) if s.dim % 4 == 0])
    def test_decomposition_matches_per_trial_calls(self, space):
        rng = np.random.default_rng(space.dim)
        a = random_constrained_operator(space, rng, 6, skew=True, min_sigma=1e-3)
        got = quadruple_decomposition(space, a)
        want = _per_trial(lambda x: quadruple_decomposition(space, x), a)
        assert [part.shape for part in got] == [
            (6, space.dim // 4, space.dim, 4), (6, space.dim // 4), (6,)]
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        nested = quadruple_decomposition(space, a.reshape(2, 3, space.dim, space.dim))
        assert all(np.array_equal(n, g.reshape(2, 3, *g.shape[1:]))
                   for n, g in zip(nested, got))

    @pytest.mark.parametrize("dim,skew,min_sigma", [
        (6, False, 0.0), (6, True, 0.0), (4, True, 0.5), (8, True, 0.5)])
    def test_stacked_draw_equals_one_operator_draws(self, dim, skew, min_sigma):
        space = ComplexStructuredSpace.standard(dim)
        stacked_rng, loop_rng = np.random.default_rng(5), np.random.default_rng(5)
        stack = random_constrained_operator(space, stacked_rng, 12, skew=skew,
                                            min_sigma=min_sigma)
        loop = [random_constrained_operator(space, loop_rng, skew=skew, min_sigma=min_sigma)
                for _ in range(12)]
        assert np.array_equal(stack, np.stack(loop))
        # the stack drew no more than the loop: the streams go on together
        assert np.array_equal(stacked_rng.standard_normal(4), loop_rng.standard_normal(4))
        if min_sigma:
            # some of the first 12 draws were rejected and replaced
            first = random_constrained_operator(space, np.random.default_rng(5), 12, skew=skew)
            assert (g_singular_values(first, space.gram)[:, -1] <= min_sigma).any()

    def test_consecutive_rejection_cap(self, monkeypatch):
        # with a cap of 3, some seeds meet three rejections in a row within
        # 12 trials and some do not; the stack and the loop must both stop
        # where the unconditioned stream says
        monkeypatch.setattr(quadruples, "_MAX_OPERATOR_DRAWS", 3)
        space = ComplexStructuredSpace.standard(4)

        def outcome(draw):
            try:
                return draw()
            except SearchError as exc:
                assert str(exc) == "no operator with sigma_min > 0.5 after 3 draws"
                return None

        raised = []
        for seed in range(12):
            want = _conditioned_draws(space, seed, 12, min_sigma=0.5, cap=3)
            rng = np.random.default_rng(seed)
            stack = outcome(lambda: random_constrained_operator(
                space, rng, 12, skew=True, min_sigma=0.5))
            rng = np.random.default_rng(seed)
            loop = outcome(lambda: np.stack([random_constrained_operator(
                space, rng, skew=True, min_sigma=0.5) for _ in range(12)]))
            for got in (stack, loop):
                assert (got is None) == (want is None)
                assert want is None or np.array_equal(got, want)
            raised.append(want is None)
        assert any(raised) and not all(raised)

    @pytest.mark.parametrize("trials", [None, 1, 3])
    def test_two_hundred_rejections_raise(self, trials):
        space = ComplexStructuredSpace.standard(4)
        with pytest.raises(SearchError, match="sigma_min > 1000000.0 after 200 draws"):
            random_constrained_operator(space, np.random.default_rng(0), trials, skew=True,
                                        min_sigma=1e6)

    @pytest.mark.parametrize("dim", [6, 8, 14, 16])
    def test_campaigns_do_not_depend_on_the_block_size(self, monkeypatch, capsys, dim):
        argv = ["lemma", "--dim", str(dim), "--trials", "8", "--json", "--seed", "3"]
        assert main(argv) == 0
        whole = capsys.readouterr().out
        monkeypatch.setattr(quadruples, "_BLOCK", 3)  # blocks of 3, 3 and 2 trials
        space = ComplexStructuredSpace.standard(dim)
        assert [len(a) for a in quadruples._draws(space, 8, 3, skew=False)] == [3, 3, 2]
        # lazily, whatever --trials is
        assert len(next(quadruples._draws(space, 10**18, 3, skew=False))) == 3
        assert main(argv) == 0
        assert capsys.readouterr().out == whole

    @pytest.mark.parametrize("fn", [find_generic_vector, quadruple_decomposition],
                             ids=lambda fn: fn.__name__)
    def test_first_failing_trial_names_the_error(self, fn):
        space = ComplexStructuredSpace.standard(8)
        a = random_constrained_operator(space, np.random.default_rng(8), 5, skew=True,
                                        min_sigma=1e-3)
        a[2] += 1e-3 * np.eye(8)  # no longer anticommutes with J
        a[4] += 2e-3 * np.eye(8)
        messages = []
        for trial in (a[2], a[4], a):
            with pytest.raises(PreconditionError, match="does not anticommute") as exc:
                fn(space, trial)
            messages.append(str(exc.value))
        third, fifth, stacked = messages
        assert stacked == third != fifth

    def test_earlier_stage_wins_over_earlier_trial(self):
        # trial 0 is singular (checked after skewness), trial 2 is not g-skew
        space = ComplexStructuredSpace.standard(8)
        a = random_constrained_operator(space, np.random.default_rng(8), 4, skew=True,
                                        min_sigma=1e-3)
        a[0] *= 1e-12
        a[2] += 1e-3 * _split_operator(8)  # symmetric and anticommuting
        with pytest.raises(PreconditionError, match="not g-skew") as alone:
            quadruple_decomposition(space, a[2])
        with pytest.raises(PreconditionError, match="numerically singular"):
            quadruple_decomposition(space, a[0])
        with pytest.raises(PreconditionError) as stacked:
            quadruple_decomposition(space, a)
        assert str(stacked.value) == str(alone.value)

    def test_vector_shape_must_match_the_operators(self):
        space = ComplexStructuredSpace.standard(4)
        a = np.stack([_skew_anticommuting_dim4()] * 3)
        with pytest.raises(ShapeError, match="vector shape"):
            find_orthogonal_witness(space, a, np.eye(4)[0])
