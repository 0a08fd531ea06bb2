"""Constructive dimension constraints for operators anticommuting with a
complex structure.

Two facts are made computable here. First, for any nonzero A with
AJ + JA = 0 there is a vector Y whose triple {Y, JY, AY} is independent,
plus an orthogonal witness Z with <Z, JAY> nonzero. Second, when A is also
g-skew and nonsingular, the space splits into orthogonal quadruples
{X, JX, AX, JAX} built from eigenvectors of A*A, which forces the dimension
to be divisible by four. The companion campaign helpers drive randomized
checks of both facts, including the contrapositive (in dimensions not
divisible by four every skew anticommuting operator is singular).

Every function here works over a leading trial axis: an operator argument
is one ``(d, d)`` matrix or a stack ``(..., d, d)`` of them, a vector
argument has the matching leading shape, and each result keeps it. One
operator is a stack of one, so a stack gives each trial exactly the floats
its own call gives. A check over a stack raises for its first failing
trial, and the checks run stage by stage, each over the whole stack, so
the first failing trial of the first failing stage raises. The campaigns
draw, check and reduce their trials as stacks of at most ``_BLOCK``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import DegenerateInputError, PreconditionError, SearchError, ShapeError
from .linalg import (adjoint, check_gram, g_singular_values, gram_schmidt, norms,
                     project_out, skew_matrix, symmetric_eigen)
from .report import Check, VerificationReport, least, worst

_MAX_OPERATOR_DRAWS = 200  # consecutive rejected draws before a min_sigma search gives up
_J_EXACT = 1e-9            # J^2 + I and g-isometry residual gate for J
_GENERIC_SEED = 0          # seed of the random tail of the generic-vector scan
_GENERIC_RANDOM = 200      # random candidates after the deterministic scan
_BLOCK = 64                # trials per campaign stack, so --trials scales time, not memory


@dataclass(frozen=True)
class ComplexStructuredSpace:
    """Even-dimensional space with a complex structure J that is an isometry
    of the Gram matrix ``gram``. When built, the gram must be square,
    symmetric and positive definite (checked first), and J is checked at the
    fixed ``_J_EXACT``; both are kept as read-only copies."""

    j: np.ndarray
    gram: np.ndarray

    def __post_init__(self):
        gram = np.array(self.gram, dtype=float)
        if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
            raise ShapeError(f"gram must be a square matrix, got shape {gram.shape}")
        check_gram(gram)
        gram.setflags(write=False)
        object.__setattr__(self, "gram", gram)
        dim = len(gram)
        if dim % 2 != 0:
            raise ShapeError(f"complex structure needs even dimension, got {dim}")
        jm = np.array(self.j, dtype=float)
        if jm.shape != (dim, dim):
            raise ShapeError(f"J has shape {jm.shape}, expected ({dim}, {dim})")
        jm.setflags(write=False)
        object.__setattr__(self, "j", jm)
        square = float(np.max(np.abs(jm @ jm + np.eye(dim))))
        if square > _J_EXACT:
            raise PreconditionError(f"J^2 + I residual {square:.3e} too large")
        iso = float(np.max(np.abs(jm.T @ gram @ jm - gram)))
        if iso > _J_EXACT * (1.0 + float(np.max(np.abs(gram)))):
            raise PreconditionError(f"J is not a g-isometry (residual {iso:.3e})")

    @property
    def dim(self) -> int:
        return len(self.gram)

    @classmethod
    def standard(cls, dim: int) -> "ComplexStructuredSpace":
        """Euclidean metric with the block complex structure e_i -> e_{m+i}."""
        if dim % 2 != 0:
            raise ShapeError(f"complex structure needs even dimension, got {dim}")
        m = dim // 2
        jm = np.zeros((dim, dim))
        jm[m:, :m] = np.eye(m)
        jm[:m, m:] = -np.eye(m)
        return cls(jm, np.eye(dim))


def _first(bad) -> int | None:
    """Index of the first true entry of ``bad`` in C order, or None."""
    hit = np.flatnonzero(bad)
    return int(hit[0]) if hit.size else None


def _operators(space: ComplexStructuredSpace, a) -> tuple[np.ndarray, tuple[int, ...]]:
    """``a`` as an ``(n, d, d)`` stack, and its leading shape (``()`` for
    one operator)."""
    a = np.asarray(a, dtype=float)
    d = space.dim
    if a.shape[-2:] != (d, d):
        raise ShapeError(f"operator shape {a.shape} does not match space dim {d}")
    return a.reshape(-1, d, d), a.shape[:-2]


def _apply(mat, v) -> np.ndarray:
    """``mat @ v`` for one vector per slice: one matrix-vector product each,
    the product a lone vector gets."""
    return (mat @ v[..., None])[..., 0]


def _quadratic(u, gram, v) -> np.ndarray:
    """``u @ gram @ v`` for one pair of vectors per slice, in that order."""
    return (u[..., None, :] @ gram @ v[..., None])[..., 0, 0]


def _check_anticommutes(space: ComplexStructuredSpace, a: np.ndarray, tol: float):
    resid = np.abs(a @ space.j + space.j @ a).max(axis=(-2, -1))
    n = _first(resid > tol * (1.0 + np.abs(a).max(axis=(-2, -1))))
    if n is not None:
        raise PreconditionError(
            f"operator does not anticommute with J (residual {resid[n]:.3e})")


def _check_skew(space: ComplexStructuredSpace, a: np.ndarray, tol: float):
    resid = np.abs(a + adjoint(a, space.gram)).max(axis=(-2, -1))
    n = _first(resid > tol * (1.0 + np.abs(a).max(axis=(-2, -1))))
    if n is not None:
        raise PreconditionError(f"operator is not g-skew (residual {resid[n]:.3e})")


def _triple(space: ComplexStructuredSpace, a: np.ndarray, y) -> np.ndarray:
    """The column stacks (Y, JY, AY), one per operator of ``a``; ``y`` is
    one vector per operator or one vector for all of them."""
    y = np.broadcast_to(y, a.shape[:-1])
    return np.stack([y, _apply(space.j, y), _apply(a, y)], axis=-1)


def _normalized_triple_gram_det(space: ComplexStructuredSpace, a: np.ndarray,
                                y) -> np.ndarray:
    """Gram determinant of the normalized triple of each operator; 0.0
    where a member of the triple is shorter than 1e-14."""
    triple = _triple(space, a, y)
    lengths = norms(triple, space.gram)
    short = (lengths < 1e-14).any(axis=-1)
    unit = triple / np.where(short[:, None], 1.0, lengths)[:, None, :]
    det = np.linalg.det(unit.swapaxes(-1, -2) @ space.gram @ unit)
    return np.where(short, 0.0, det)


def _candidate_vectors(space: ComplexStructuredSpace):
    dim = space.dim
    eye = np.eye(dim)
    for i in range(dim):
        yield eye[i]
    for i in range(dim):
        for j in range(i + 1, dim):
            yield eye[i] + eye[j]
    for i in range(dim):
        for j in range(dim):
            if i != j:
                yield eye[i] + space.j @ eye[j]
    rng = np.random.default_rng(_GENERIC_SEED)
    for _ in range(_GENERIC_RANDOM):
        yield rng.standard_normal(dim)


def find_generic_vector(space: ComplexStructuredSpace, a,
                        *, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """For each operator, the first vector (in a deterministic scan order)
    whose triple {Y, JY, AY} has normalized Gram determinant above
    ``tol.rank``.

    Scans the coordinate frame, then pairwise sums, then J-mixed sums, then
    seeded random draws, each candidate for every operator still without a
    vector, until every operator has one. Returns the g-unit
    representatives, one per operator. Every operator must be nonzero and
    anticommute with J to within ``tol.acms_exact``.
    """
    a, lead = _operators(space, a)
    if not a.any(axis=(-2, -1)).all():
        raise PreconditionError("operator is identically zero")
    _check_anticommutes(space, a, tol.acms_exact)
    found = np.zeros(a.shape[:-1])
    pending = np.arange(len(a))
    for candidate in _candidate_vectors(space):
        hit = _normalized_triple_gram_det(space, a[pending], candidate) > tol.rank
        if hit.any():
            found[pending[hit]] = candidate / np.sqrt(candidate @ space.gram @ candidate)
            pending = pending[~hit]
            if not pending.size:
                return found.reshape(*lead, space.dim)
    raise SearchError("no generic vector found; operator may be numerically degenerate")


def find_orthogonal_witness(space: ComplexStructuredSpace, a, y,
                            *, tol: Tolerances = DEFAULT_TOLERANCES
                            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each operator and its vector Y, a unit Z orthogonal to
    span{Y, JY, AY} with <Z, JAY> above ``tol.witness``.

    Each triple must be independent to within ``tol.rank``. The component
    of JAY orthogonal to the triple can never vanish when the triple is
    independent, so the projection of JAY itself serves as witness. All
    triples are orthonormalized in one `gram_schmidt` call.

    Returns ``(z, det, overlap)`` over the leading shape of ``a``: the
    witnesses, and the two values their gates checked, the normalized
    Gram determinant of each triple and |<Z, JAY>|.
    """
    a, lead = _operators(space, a)
    y = np.asarray(y, dtype=float)
    if y.shape != (*lead, space.dim):
        raise ShapeError(f"vector shape {y.shape} does not match operators {(*lead, space.dim)}")
    y, gram = y.reshape(-1, space.dim), space.gram
    det = _normalized_triple_gram_det(space, a, y)
    if (det <= tol.rank).any():
        raise DegenerateInputError("triple {Y, JY, AY} is numerically dependent")
    onb = gram_schmidt(_triple(space, a, y), gram, rank_tol=tol.rank, require_all=True)
    jay = _apply(space.j, _apply(a, y))
    residue = project_out(jay[..., None], onb, gram)[..., 0]
    norm = np.sqrt(np.maximum(_quadratic(residue, gram, residue), 0.0))
    n = _first(norm < tol.witness)
    if n is not None:
        raise SearchError(
            f"witness overlap {norm[n]:.3e} below threshold; JAY almost lies in the triple span"
        )
    z = residue / norm[:, None]
    overlap = np.abs(_quadratic(z, gram, jay))
    n = _first(overlap < tol.witness)
    if n is not None:
        raise SearchError(f"witness overlap {overlap[n]:.3e} below threshold")
    return z.reshape(*lead, space.dim), det.reshape(lead), overlap.reshape(lead)


def quadruple_decomposition(space: ComplexStructuredSpace, a,
                            *, tol: Tolerances = DEFAULT_TOLERANCES
                            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split the space into g-orthogonal quadruples (X, JX, AX, JAX), for
    each operator of ``a``.

    Requires A g-skew, anticommuting with J and nonsingular; under these
    hypotheses each eigenspace of A^2 is J- and A-invariant, and picking
    eigenvectors with orthogonal deflation yields dim/4 blocks. A dimension
    not divisible by four therefore certifies that no such operator exists.

    Returns ``(blocks, eigenvalues, off)`` over the leading shape of ``a``:
    ``blocks[..., k, :, :]`` holds the columns X, JX, AX, JAX of block k,
    ``eigenvalues[..., k]`` its eigenvalue of A^2, and ``off`` the largest
    off-diagonal entry of the Gram matrix of all the normalized vectors.
    """
    a, lead = _operators(space, a)
    dim, gram, jm = space.dim, space.gram, space.j
    _check_anticommutes(space, a, tol.acms_exact)
    _check_skew(space, a, tol.acms_exact)
    sigma_min = g_singular_values(a, gram)[:, -1]
    n = _first(sigma_min <= tol.singular)
    if n is not None:
        raise PreconditionError(
            f"operator is numerically singular (sigma_min {sigma_min[n]:.3e}); "
            "the decomposition needs a nonsingular operator"
        )
    if dim % 4 != 0:
        raise DegenerateInputError(
            f"dimension {dim} is not divisible by 4, so no nonsingular skew "
            "anticommuting operator exists; refusing to decompose"
        )
    a2 = a @ a
    _, candidates = symmetric_eigen(a2, gram, tol=tol.self_adjoint)
    trials = np.arange(len(a))
    used = candidates[..., :0]
    blocks, lams = [], []
    a_scale = 1.0 + np.abs(a).max(axis=(-2, -1)) ** 2
    pairs = np.triu_indices(4, 1)
    for k in range(dim // 4):
        # deflate every eigenvector candidate against the blocks found so far
        residues = project_out(candidates, used, gram)
        lengths = norms(residues, gram)
        best = lengths.argmax(axis=-1)
        top = lengths[trials, best]
        if (top < 1e-6).any():
            raise SearchError(
                f"deflation pivot collapsed at quadruple {k + 1}; "
                "eigenvectors no longer span the remaining space"
            )
        x = residues[trials, :, best] / top[:, None]
        lam = _quadratic(_apply(a2, x), gram, x)
        ax = _apply(a, x)
        block = np.stack([x, _apply(jm, x), ax, _apply(jm, ax)], axis=-1)
        lengths = norms(block, gram)
        if (lengths < tol.quad).any():
            raise DegenerateInputError("quadruple vector collapsed to zero")
        eig_resid = norms(a2 @ block - lam[:, None, None] * block, gram) / lengths
        n = _first(eig_resid > (tol.quad * (1.0 + abs(lam)) * a_scale)[:, None])
        if n is not None:
            raise DegenerateInputError(
                "quadruple member drifts off the A^2 eigenspace "
                f"(residual {np.ravel(eig_resid)[n]:.3e})"
            )
        normalized = block / lengths[:, None, :]
        inner = np.abs(normalized.swapaxes(-1, -2) @ gram @ normalized)[:, pairs[0], pairs[1]]
        n = _first(inner > tol.quad)
        if n is not None:
            raise DegenerateInputError(
                f"quadruple members are not orthogonal (inner {np.ravel(inner)[n]:.3e})"
            )
        used = np.concatenate([used, normalized], axis=-1)
        blocks.append(block)
        lams.append(lam)
    overlaps = used.swapaxes(-1, -2) @ gram @ used
    diagonal = np.arange(dim)
    overlaps[:, diagonal, diagonal] -= overlaps[:, diagonal, diagonal]
    off = np.abs(overlaps).max(axis=(-2, -1))
    n = _first(off > tol.quad)
    if n is not None:
        raise DegenerateInputError(f"global quadruple Gram off-diagonal {off[n]:.3e}")
    return (np.stack(blocks, axis=1).reshape(*lead, dim // 4, dim, 4),
            np.stack(lams, axis=1).reshape(*lead, dim // 4), off.reshape(lead))


# ---------------------------------------------------------------------------
# constrained random generation

def constrained_operator_basis(space: ComplexStructuredSpace, *, skew: bool) -> np.ndarray:
    """Basis of {A : AJ + JA = 0} (optionally also g-skew) as an array of
    matrices, obtained from the null space of the stacked linear constraints.

    The draws use ``constrained_projection``; this basis is its test oracle.
    """
    d = space.dim
    jm = space.j
    gram = space.gram
    # system[0, i, j] holds the coefficients of (AJ + JA)[i, j] in the
    # entries of A, and system[1, i, j] those of (G A + A^T G)[i, j]
    system = np.zeros((2 if skew else 1, d, d, d, d))
    idx = np.arange(d)
    for j in range(d):
        system[0, idx, j, idx, :] += jm[:, j]
        system[0, :, j, :, j] += jm
        if skew:
            system[1, idx, j, :, idx] += gram[:, j]
            system[1, :, j, :, j] += gram
    system = system.reshape(-1, d * d)
    _, s, vh = np.linalg.svd(system, full_matrices=False)
    rank = int(np.sum(s > s.max(initial=0.0) * np.finfo(float).eps * max(system.shape)))
    return vh[rank:].reshape(-1, d, d)


def constrained_projection(space: ComplexStructuredSpace, a, *, skew: bool) -> np.ndarray:
    """Project matrices onto {A : AJ + JA = 0}, and with ``skew`` also onto
    the g-skew operators, over any leading axes of ``a``.

    P1(A) = (A + JAJ) / 2 fixes exactly the operators that anticommute with
    J, and P2(A) = (A - G^-1 A^T G) / 2 the g-skew ones. J is a g-isometry
    with J^2 = -I, so its adjoint is -J and the two projections commute:
    P2 P1 projects onto the intersection.
    """
    jm = space.j
    a = 0.5 * (a + jm @ a @ jm)
    return skew_matrix(a, space.gram) if skew else a


def _constrained_dimension(space: ComplexStructuredSpace, *, skew: bool) -> int:
    """Dimension of the constrained space: the trace of ``constrained_projection``
    as a map on d x d matrices.

    A map A -> L A R has trace tr(L) tr(R), and A -> L A^T R has trace
    tr(L R^T). With tr J = 0 (J^2 = -I) and J^T G J = G, P1 has trace
    d^2 / 2 and P2 P1 has trace (d^2 - 2d) / 4.
    """
    d = space.dim
    return d * (d - 2) // 4 if skew else d * d // 2


def random_constrained_operator(space: ComplexStructuredSpace, rng, trials: int | None = None,
                                *, skew: bool, min_sigma: float = 0.0) -> np.ndarray:
    """Draw A = P(Z), with P the ``constrained_projection`` and Z a d x d
    matrix of i.i.d. standard normal entries from ``rng``: one ``(d, d)``
    operator, or with ``trials`` a ``(trials, d, d)`` stack from one
    ``rng.standard_normal((trials, d, d))`` call.

    With ``min_sigma`` set, a draw whose sigma_min does not exceed it is
    rejected (used to condition the decomposition campaigns), and each
    further call draws exactly the shortfall. Accepted draws fill the stack
    in stream order, so a stack equals ``trials`` one-operator calls on the
    same generator. ``_MAX_OPERATOR_DRAWS`` consecutive rejections raise
    SearchError. Each draw is verified against the constraints before use,
    in stream order.
    """
    if _constrained_dimension(space, skew=skew) == 0:
        raise DegenerateInputError(
            f"constraint space is trivial in dimension {space.dim}; only A = 0 qualifies"
        )
    d, jm = space.dim, space.j
    wanted = 1 if trials is None else trials
    kept, count, misses = [np.empty((0, d, d))], 0, 0  # misses: consecutive rejections so far
    while count < wanted:
        a = constrained_projection(space, rng.standard_normal((wanted - count, d, d)),
                                   skew=skew)
        gate = 1e-12 * (1.0 + np.abs(a).max(axis=(-2, -1)))
        resid = np.abs(a @ jm + jm @ a).max(axis=(-2, -1))
        skew_resid = (np.abs(a + adjoint(a, space.gram)).max(axis=(-2, -1)) if skew
                      else np.zeros(len(a)))
        accept = (np.ones(len(a), dtype=bool) if min_sigma <= 0.0
                  else g_singular_values(a, space.gram)[:, -1] > min_sigma)
        # rejections in a row up to and including each draw
        draws = np.arange(len(a))
        run = draws - np.maximum.accumulate(np.where(accept, draws, -1 - misses))
        n = _first((resid > gate) | (skew_resid > gate) | (run >= _MAX_OPERATOR_DRAWS))
        if n is not None:
            if resid[n] > gate[n]:
                raise DegenerateInputError(
                    f"sampled operator violates anticommutation ({resid[n]:.3e})")
            if skew_resid[n] > gate[n]:
                raise DegenerateInputError(f"sampled operator is not g-skew ({skew_resid[n]:.3e})")
            raise SearchError(
                f"no operator with sigma_min > {min_sigma} after {_MAX_OPERATOR_DRAWS} draws")
        kept.append(a[accept])
        count += int(accept.sum())
        misses = int(run[-1])
    out = np.concatenate(kept)
    return out[0] if trials is None else out


# ---------------------------------------------------------------------------
# campaigns

def _draws(space: ComplexStructuredSpace, trials: int, seed: int,
           *, skew: bool, min_sigma: float = 0.0):
    """The ``trials`` operators of a campaign, as stacks of at most
    ``_BLOCK`` drawn in turn from one generator seeded with ``seed``, made
    one at a time so that no list grows with ``trials``."""
    rng = np.random.default_rng(seed)
    for start in range(0, trials, _BLOCK):
        yield random_constrained_operator(space, rng, min(_BLOCK, trials - start),
                                          skew=skew, min_sigma=min_sigma)


def generic_vector_campaign(space: ComplexStructuredSpace, trials: int, seed: int,
                            *, tol: Tolerances = DEFAULT_TOLERANCES) -> VerificationReport:
    """Randomized existence check for the generic vector and its witness in
    ``space``, reducing the values the witness gated."""
    dets, overlaps = [], []
    for a in _draws(space, trials, seed, skew=False):
        y = find_generic_vector(space, a, tol=tol)
        _, det, overlap = find_orthogonal_witness(space, a, y, tol=tol)
        dets.extend(det)
        overlaps.extend(overlap)
    return VerificationReport.of([
        Check.above("min_triple_gram_det", least(dets), tol.rank),
        Check.above("min_witness_overlap", least(overlaps), tol.witness),
    ])


def decomposition_campaign(space: ComplexStructuredSpace, trials: int, seed: int,
                           *, tol: Tolerances = DEFAULT_TOLERANCES) -> VerificationReport:
    """Randomized mod-4 campaign over skew anticommuting operators of ``space``.

    Dimensions divisible by four get conditioned nonsingular draws and full
    decompositions; the others certify that every draw is singular.
    """
    checks = []
    if _constrained_dimension(space, skew=True) == 0:
        checks.append(Check.flag("degenerate_dimension_notice", True))
        checks.append(Check.below("max_sigma_min", 0.0, tol.singular))
        return VerificationReport.of(checks)
    if space.dim % 4 == 0:
        offs = []
        for a in _draws(space, trials, seed, skew=True, min_sigma=1e-3):
            offs.extend(quadruple_decomposition(space, a, tol=tol)[2])
        checks.append(Check.below("worst_gram_off_diagonal", worst(offs), tol.quad))
        # quadruple_decomposition returns dim // 4 blocks or raises, which exits 2
        checks.append(Check.flag("all_decompositions_complete", True))
    else:
        sigmas = []
        for a in _draws(space, trials, seed, skew=True):
            sigmas.extend(g_singular_values(a, space.gram)[:, -1])
        worst_sigma = worst(sigmas)
        checks.append(Check.below("max_sigma_min", worst_sigma,
                                  tol.singular * tol.singular_slack))
        checks.append(Check.flag("all_draws_singular", worst_sigma < tol.singular * tol.singular_slack))
    return VerificationReport.of(checks)
