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
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import DegenerateInputError, PreconditionError, SearchError, ShapeError
from .linalg import (adjoint, check_gram, g_singular_values, gram_schmidt, norms,
                     project_out, skew_matrix, symmetric_eigen)
from .report import Check, VerificationReport, least, worst

_MAX_OPERATOR_DRAWS = 200  # draws before a min_sigma search gives up
_J_EXACT = 1e-9            # J^2 + I and g-isometry residual gate for J
_GENERIC_SEED = 0          # seed of the random tail of the generic-vector scan
_GENERIC_RANDOM = 200      # random candidates after the deterministic scan


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


@dataclass(frozen=True)
class Quadruple:
    """One orthogonal block (X, JX, AX, JAX) tied to an eigenvalue of A^2."""

    vectors: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    eigenvalue: float


def _check_anticommutes(space: ComplexStructuredSpace, a: np.ndarray, tol: float):
    resid = float(np.max(np.abs(a @ space.j + space.j @ a)))
    if resid > tol * (1.0 + float(np.max(np.abs(a)))):
        raise PreconditionError(f"operator does not anticommute with J (residual {resid:.3e})")


def _check_skew(space: ComplexStructuredSpace, a: np.ndarray, tol: float):
    resid = float(np.max(np.abs(a + adjoint(a, space.gram))))
    if resid > tol * (1.0 + float(np.max(np.abs(a)))):
        raise PreconditionError(f"operator is not g-skew (residual {resid:.3e})")


def _triple(space: ComplexStructuredSpace, a: np.ndarray, y) -> np.ndarray:
    """The stack (Y, JY, AY)."""
    y = np.asarray(y, float)
    return np.column_stack([y, space.j @ y, a @ y])


def _normalized_triple_gram_det(space: ComplexStructuredSpace, a: np.ndarray, y) -> float:
    triple = _triple(space, a, y)
    lengths = norms(triple, space.gram)
    if np.any(lengths < 1e-14):
        return 0.0
    unit = triple / lengths
    return float(np.linalg.det(unit.T @ space.gram @ unit))


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


def find_generic_vector(space: ComplexStructuredSpace, a: np.ndarray,
                        *, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """First vector (in a deterministic scan order) whose triple
    {Y, JY, AY} has normalized Gram determinant above ``tol.rank``.

    Scans the coordinate frame, then pairwise sums, then J-mixed sums, then
    seeded random draws. Returns the g-unit representative. The operator
    must anticommute with J to within ``tol.acms_exact``.
    """
    if np.shape(a) != (space.dim, space.dim):
        raise ShapeError(f"operator shape {np.shape(a)} does not match space dim {space.dim}")
    if not np.any(a):
        raise PreconditionError("operator is identically zero")
    _check_anticommutes(space, a, tol.acms_exact)
    for candidate in _candidate_vectors(space):
        if _normalized_triple_gram_det(space, a, candidate) > tol.rank:
            return candidate / np.sqrt(candidate @ space.gram @ candidate)
    raise SearchError("no generic vector found; operator may be numerically degenerate")


def find_orthogonal_witness(space: ComplexStructuredSpace, a: np.ndarray, y,
                            *, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Unit Z orthogonal to span{Y, JY, AY} with <Z, JAY> above ``tol.witness``.

    The triple must be independent to within ``tol.rank``. The component of
    JAY orthogonal to the triple can never vanish when the triple is
    independent, so the projection of JAY itself serves as witness.
    """
    gram = space.gram
    if _normalized_triple_gram_det(space, a, y) <= tol.rank:
        raise DegenerateInputError("triple {Y, JY, AY} is numerically dependent")
    onb = gram_schmidt(_triple(space, a, y), gram, rank_tol=tol.rank, require_all=True)
    jay = space.j @ (a @ y)
    residue = project_out(jay, onb, gram)
    norm = float(np.sqrt(max(residue @ gram @ residue, 0.0)))
    if norm < tol.witness:
        raise SearchError(
            f"witness overlap {norm:.3e} below threshold; JAY almost lies in the triple span"
        )
    z = residue / norm
    overlap = abs(float(z @ gram @ jay))
    if overlap < tol.witness:
        raise SearchError(f"witness overlap {overlap:.3e} below threshold")
    return z


def quadruple_decomposition(space: ComplexStructuredSpace, a: np.ndarray,
                            *, tol: Tolerances = DEFAULT_TOLERANCES) -> list[Quadruple]:
    """Split the space into g-orthogonal quadruples (X, JX, AX, JAX).

    Requires A g-skew, anticommuting with J and nonsingular; under these
    hypotheses each eigenspace of A^2 is J- and A-invariant, and picking
    eigenvectors with orthogonal deflation yields dim/4 blocks. A dimension
    not divisible by four therefore certifies that no such operator exists.
    """
    return _decompose(space, a, tol)[0]


def _decompose(space: ComplexStructuredSpace, a: np.ndarray,
               tol: Tolerances) -> tuple[list[Quadruple], float]:
    """The quadruples and the largest off-diagonal entry of the Gram matrix
    of all their normalized vectors."""
    dim = space.dim
    if np.shape(a) != (dim, dim):
        raise ShapeError(f"operator shape {np.shape(a)} does not match space dim {dim}")
    _check_anticommutes(space, a, tol.acms_exact)
    _check_skew(space, a, tol.acms_exact)
    sigma_min = float(g_singular_values(a, space.gram)[-1])
    if sigma_min <= tol.singular:
        raise PreconditionError(
            f"operator is numerically singular (sigma_min {sigma_min:.3e}); "
            "the decomposition needs a nonsingular operator"
        )
    if dim % 4 != 0:
        raise DegenerateInputError(
            f"dimension {dim} is not divisible by 4, so no nonsingular skew "
            "anticommuting operator exists; refusing to decompose"
        )
    gram, jm, a2 = space.gram, space.j, a @ a
    _, candidates = symmetric_eigen(a2, gram, tol=tol.self_adjoint)
    used = candidates[:, :0]
    quads: list[Quadruple] = []
    a_scale = 1.0 + float(np.max(np.abs(a))) ** 2
    pairs = np.triu_indices(4, 1)
    while len(quads) < dim // 4:
        # deflate every eigenvector candidate against the blocks found so far
        residues = project_out(candidates, used, gram)
        lengths = norms(residues, gram)
        best = int(np.argmax(lengths))
        if lengths[best] < 1e-6:
            raise SearchError(
                f"deflation pivot collapsed at quadruple {len(quads) + 1}; "
                "eigenvectors no longer span the remaining space"
            )
        x = residues[:, best] / lengths[best]
        lam = float((a2 @ x) @ gram @ x)
        ax = a @ x
        block = np.column_stack([x, jm @ x, ax, jm @ ax])
        lengths = norms(block, gram)
        if np.any(lengths < tol.quad):
            raise DegenerateInputError("quadruple vector collapsed to zero")
        eig_resid = norms(a2 @ block - lam * block, gram) / lengths
        drift = eig_resid[eig_resid > tol.quad * (1.0 + abs(lam)) * a_scale]
        if drift.size:
            raise DegenerateInputError(
                f"quadruple member drifts off the A^2 eigenspace (residual {drift[0]:.3e})"
            )
        normalized = block / lengths
        inner = np.abs(normalized.T @ gram @ normalized)[pairs]
        skewed = inner[inner > tol.quad]
        if skewed.size:
            raise DegenerateInputError(
                f"quadruple members are not orthogonal (inner {skewed[0]:.3e})"
            )
        used = np.column_stack([used, normalized])
        quads.append(Quadruple(tuple(block.T), lam))
    overlaps = used.T @ gram @ used
    off = float(np.max(np.abs(overlaps - np.diag(np.diag(overlaps)))))
    if off > tol.quad:
        raise DegenerateInputError(f"global quadruple Gram off-diagonal {off:.3e}")
    return quads, off


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


def random_constrained_operator(space: ComplexStructuredSpace, rng,
                                *, skew: bool, min_sigma: float = 0.0) -> np.ndarray:
    """Draw A = P(Z), with P the ``constrained_projection`` and Z a d x d
    matrix of i.i.d. standard normal entries from ``rng``.

    With ``min_sigma`` set, resamples until sigma_min exceeds it (used to
    condition the decomposition campaigns), at most ``_MAX_OPERATOR_DRAWS``
    times. Each draw is verified against the constraints before use.
    """
    if _constrained_dimension(space, skew=skew) == 0:
        raise DegenerateInputError(
            f"constraint space is trivial in dimension {space.dim}; only A = 0 qualifies"
        )
    d, jm = space.dim, space.j
    for _ in range(_MAX_OPERATOR_DRAWS):
        a = constrained_projection(space, rng.standard_normal((d, d)), skew=skew)
        gate = 1e-12 * (1.0 + float(np.max(np.abs(a))))
        resid = float(np.max(np.abs(a @ jm + jm @ a)))
        if resid > gate:
            raise DegenerateInputError(f"sampled operator violates anticommutation ({resid:.3e})")
        if skew:
            skew_resid = float(np.max(np.abs(a + adjoint(a, space.gram))))
            if skew_resid > gate:
                raise DegenerateInputError(f"sampled operator is not g-skew ({skew_resid:.3e})")
        if min_sigma <= 0.0:
            return a
        if float(g_singular_values(a, space.gram)[-1]) > min_sigma:
            return a
    raise SearchError(
        f"no operator with sigma_min > {min_sigma} after {_MAX_OPERATOR_DRAWS} draws")


# ---------------------------------------------------------------------------
# campaigns

def generic_vector_campaign(dim: int, trials: int, seed: int,
                            *, tol: Tolerances = DEFAULT_TOLERANCES) -> VerificationReport:
    """Randomized existence check for the generic vector and its witness."""
    space = ComplexStructuredSpace.standard(dim)
    rng = np.random.default_rng(seed)
    dets, overlaps = [], []
    for _ in range(trials):
        a = random_constrained_operator(space, rng, skew=False)
        if float(np.max(np.abs(a))) < 1e-8:
            continue
        y = find_generic_vector(space, a, tol=tol)
        z = find_orthogonal_witness(space, a, y, tol=tol)
        dets.append(_normalized_triple_gram_det(space, a, y))
        overlaps.append(abs(float(z @ space.gram @ (space.j @ (a @ y)))))
    return VerificationReport.of([
        Check.above("min_triple_gram_det", least(dets), tol.rank),
        Check.above("min_witness_overlap", least(overlaps), tol.witness),
    ])


def decomposition_campaign(dim: int, trials: int, seed: int,
                           *, tol: Tolerances = DEFAULT_TOLERANCES) -> VerificationReport:
    """Randomized mod-4 campaign over skew anticommuting operators.

    Dimensions divisible by four get conditioned nonsingular draws and full
    decompositions; the others certify that every draw is singular.
    """
    space = ComplexStructuredSpace.standard(dim)
    rng = np.random.default_rng(seed)
    checks = []
    if _constrained_dimension(space, skew=True) == 0:
        checks.append(Check.flag("degenerate_dimension_notice", True))
        checks.append(Check.below("max_sigma_min", 0.0, tol.singular))
        return VerificationReport.of(checks)
    if dim % 4 == 0:
        offs = []
        for _ in range(trials):
            a = random_constrained_operator(space, rng, skew=True, min_sigma=1e-3)
            offs.append(_decompose(space, a, tol)[1])
        checks.append(Check.below("worst_gram_off_diagonal", worst(offs), tol.quad))
        # _decompose returns dim // 4 blocks or raises, which exits 2
        checks.append(Check.flag("all_decompositions_complete", True))
    else:
        sigmas = []
        for _ in range(trials):
            a = random_constrained_operator(space, rng, skew=True)
            sigmas.append(float(g_singular_values(a, space.gram)[-1]))
        worst_sigma = worst(sigmas)
        checks.append(Check.below("max_sigma_min", worst_sigma,
                                  tol.singular * tol.singular_slack))
        checks.append(Check.flag("all_draws_singular", worst_sigma < tol.singular * tol.singular_slack))
    return VerificationReport.of(checks)
