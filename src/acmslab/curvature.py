"""Curvature assembly and the pointwise identity suites.

The Riemann tensor of a chart comes from differentiated Christoffel symbols,
either exactly (symbolic mode) or by nested central differences. On top of
the Levi-Civita data this module builds the modified connection adapted to
the Reeb direction, its curvature (computed two independent ways), and the
residual suites that confront curvature with the structure tensors: the
commutation defect of curvature against the endomorphism field, its
factorization through the horizontal skew operator, and the reconstruction
of curvature from first derivatives of the structure on nearly cosymplectic
charts.

``PointGeometry`` is the only reader of a chart. It holds one point or a
stack of rows and reads each grid once over all of them. The connection
tensors (Christoffel symbols, Reeb gradient, modified connection) are
array formulas over the leading row axis, so the derivative stencils of
the finite-difference Christoffel derivative and of the modified
curvature's Richardson step are geometries over stacks. A stack
is read grid by grid (g, dg, xi, eta, dxi), each grid over all of its
rows: the first failing row of the first failing grid raises, after the
metrics of the g rows read before it are checked. `riemann` and
`modified_riemann` assemble curvature from the arrays it holds. The four
identity suites take a list of prebuilt ``PointGeometry`` objects, one per
point, so a caller that runs several suites over the same points (the
``identities`` subcommand) computes each point's curvature and modified
curvature once.

Index layout throughout: ``comps[i, j, k, l]`` is the i-th component of
``R(e_k, e_l) e_j``.

Random probes come as stacks, one vector per column (see `linalg`), and each
residual formula is written once for a vector and evaluated over the whole
stack at once.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .charts import (SYMBOLIC, Chart, DerivativeMode, christoffel,
                     christoffel_derivative, contact_volume_coefficient, d_eta,
                     nabla_phi, nabla_xi, stencil_difference, stencil_points)
from .config import (DEFAULT_TOLERANCES, FD_SECOND_STEP, MAX_PROBE_DRAWS,
                     PROBES_PER_RESIDUAL, Tolerances)
from .errors import DegenerateInputError, ShapeError
from .linalg import Metric, check_gram, operator_in_basis, skew_matrix
from .report import Check, VerificationReport, worst
from .structure import check_eta_parallel, horizontal_basis, horizontal_projector


@dataclass(frozen=True)
class CurvatureTensor:
    """Type (1,3) curvature at a point, with the metric that lowers it."""

    comps: np.ndarray
    metric: Metric

    def __post_init__(self):
        comps = np.asarray(self.comps, float)
        d = self.metric.dim
        if comps.shape != (d, d, d, d):
            raise ShapeError(f"curvature components have shape {comps.shape}, expected {(d,) * 4}")
        comps = comps.copy()
        comps.flags.writeable = False
        object.__setattr__(self, "comps", comps)

    def apply(self, x, y, z) -> np.ndarray:
        """The vector R(x, y) z, column by column for stacks."""
        return np.einsum("ijkl,k...,l...,j...->i...", self.comps, x, y, z)

    def pair(self, w, x, y, z):
        """The scalar g(R(x, y) z, w), column by column for stacks."""
        return self.metric.inners(np.asarray(w, float), self.apply(x, y, z))

    def antisymmetry_residual(self) -> float:
        return float(np.max(np.abs(self.comps + np.einsum("ijlk->ijkl", self.comps))))

    def first_bianchi_residual(self) -> float:
        cyc = (self.comps + np.einsum("iklj->ijkl", self.comps)
               + np.einsum("iljk->ijkl", self.comps))
        return float(np.max(np.abs(cyc)))

    def sectional(self, x, y, *, tol: Tolerances = DEFAULT_TOLERANCES):
        """Sectional curvature of the plane span{x, y}, column by column for
        stacks; raises if any plane is degenerate."""
        g = self.metric
        xx, yy, xy = g.inners(x, x), g.inners(y, y), g.inners(x, y)
        denom = xx * yy - xy * xy
        if np.any(denom <= tol.rank * np.maximum(xx * yy, 1e-30)):
            raise DegenerateInputError("sectional curvature of a degenerate plane")
        return self.pair(x, x, y, y) / denom


def _assemble_curvature(gam, dgam) -> np.ndarray:
    """comps[i, j, k, l] of a connection with coefficients gam[k, i, j] and
    their coordinate derivatives dgam[m, k, i, j]."""
    return (np.einsum("kilj->ijkl", dgam) - np.einsum("likj->ijkl", dgam)
            + np.einsum("ikm,mlj->ijkl", gam, gam)
            - np.einsum("ilm,mkj->ijkl", gam, gam))


def riemann(metric: Metric, gam, dgam, gate: float) -> CurvatureTensor:
    """Levi-Civita curvature from the metric, its Christoffel symbols
    gam[k, i, j] and their derivatives dgam[m, k, i, j].

    The antisymmetry and first Bianchi identities are verified at ``gate``,
    relative to the largest component; these hold for a torsion-free metric
    connection and catch assembly mistakes early.
    """
    out = CurvatureTensor(_assemble_curvature(gam, dgam), metric)
    scale = 1.0 + float(np.max(np.abs(out.comps)))
    anti = out.antisymmetry_residual()
    bianchi = out.first_bianchi_residual()
    if anti > gate * scale or bianchi > gate * scale:
        raise DegenerateInputError(
            f"curvature invariants fail: antisymmetry {anti:.3e}, "
            f"first Bianchi {bianchi:.3e} (gate {gate * scale:.3e})"
        )
    return out


# ---------------------------------------------------------------------------
# the modified connection


def _correction(gram, xi, eta, proj, reeb, skew_projected) -> np.ndarray:
    """Difference tensor h[..., k, i, j] between the modified connection and
    Levi-Civita, over any leading axes: the k-th component of the correction
    applied to the frame pair (e_i, e_j). ``reeb`` is the matrix of the Reeb
    gradient and ``skew_projected`` the horizontal part of its g-skew part."""
    ap = reeb @ proj
    pairing = ap.swapaxes(-1, -2) @ gram @ proj
    return (np.einsum("...ij,...k->...kij", pairing, xi)
            - np.einsum("...j,...ki->...kij", eta, ap)
            + 0.5 * np.einsum("...i,...kj->...kij", eta, skew_projected))


def modified_christoffel(chart: Chart, y) -> np.ndarray:
    """Coefficients of the modified connection at one point."""
    return PointGeometry(chart, y).modified_gamma


def modified_riemann(pg: PointGeometry) -> CurvatureTensor:
    """Curvature of the modified connection at the point of ``pg``,
    assembled from numerically differentiated connection coefficients.

    One Richardson step on the central difference (at ``FD_SECOND_STEP`` and
    half of it) keeps the truncation error at fourth order. The connection
    tables of the coarse and the fine stencil come from one `PointGeometry`
    over their 4d rows, read before the centre; the centre table is the
    geometry's own. No Bianchi check here: the modified connection carries
    torsion, so the plain cyclic identity genuinely fails.
    """
    h = FD_SECOND_STEP
    rows = np.concatenate([stencil_points(pg.y, h), stencil_points(pg.y, h / 2.0)])
    gam = PointGeometry(pg.chart, rows, tol=pg.tol).modified_gamma
    n = len(gam) // 2
    dgam = (4.0 * stencil_difference(gam[n:], h / 2.0)
            - stencil_difference(gam[:n], h)) / 3.0
    return CurvatureTensor(_assemble_curvature(pg.modified_gamma, dgam), pg.metric)


class PointGeometry:
    """Lazy bundle of every tensor the identity suites need, at one point
    ``y`` of shape ``(dim,)`` or at each row of a stack ``(n, dim)``.

    Each tensor is computed on first access and cached for the lifetime of
    the object. `_read` is its only chart reader and reads each grid once.
    The connection tensors, up to ``modified_gamma``, are array formulas
    over the leading row axis of a stack, so the derivative stencils are
    geometries too. Everything derived from the Christoffel symbols reads
    the one cached ``gamma``. ``metric``, and the tensors built on it, exist
    at a single point only.
    """

    def __init__(self, chart: Chart, y, *, tol: Tolerances = DEFAULT_TOLERANCES):
        self.chart = chart
        self.y = np.asarray(y, float)
        self.tol = tol
        if self.y.ndim not in (1, 2) or self.y.shape[-1] != chart.dim:
            raise ShapeError(f"points have shape {self.y.shape}, "
                             f"expected ({chart.dim},) or (n, {chart.dim})")

    def _read(self, name: str) -> np.ndarray:
        """Grid ``name`` at the point, or over every row of the stack. Over
        a stack the metrics of the g rows read are checked before a failing
        row raises; a point's metric is checked once, by ``metric``."""
        rows, error = self.chart._grids_at(name, self.y.reshape(-1, self.chart.dim))
        if name == "g" and self.y.ndim == 2:
            check_gram(rows)
        if error is not None:
            raise error
        return rows.reshape(self.y.shape[:-1] + rows.shape[1:])

    @cached_property
    def metric(self) -> Metric:
        return Metric(self._read("g"))

    @cached_property
    def gram(self) -> np.ndarray:
        """Gram matrix, or one per row: a point's is that of its `metric`."""
        return self.metric.gram if self.y.ndim == 1 else self._read("g")

    @cached_property
    def phi(self) -> np.ndarray:
        return self._read("phi")

    @cached_property
    def xi(self) -> np.ndarray:
        return self._read("xi")

    @cached_property
    def eta(self) -> np.ndarray:
        return self._read("eta")

    @cached_property
    def dg(self) -> np.ndarray:
        """Metric derivatives dg[..., k, i, j] along x_k."""
        return self._read("dg")

    @cached_property
    def ginv(self) -> np.ndarray:
        return np.linalg.inv(self.gram)

    @cached_property
    def gamma(self) -> np.ndarray:
        """Levi-Civita symbols Gam[..., k, i, j], evaluated once."""
        return christoffel(self.ginv, self.dg)

    @cached_property
    def dgamma(self) -> np.ndarray:
        """dGam[m, k, i, j], the x_m derivative of Gam[k, i, j].

        Symbolic mode differentiates the closed form through the metric
        inverse; finite-difference mode takes the central difference, with
        the second-level step, of the Christoffel symbols of the geometry
        over the 2d stencil points.
        """
        if self.chart.mode.kind == "fd":
            stencil = PointGeometry(self.chart, stencil_points(self.y, FD_SECOND_STEP),
                                    tol=self.tol)
            return stencil_difference(stencil.gamma, FD_SECOND_STEP)
        return christoffel_derivative(self.ginv, self.dg, self._read("ddg"))

    @cached_property
    def projector(self) -> np.ndarray:
        return horizontal_projector(self.xi, self.eta)

    @cached_property
    def horizontal_basis(self) -> np.ndarray:
        """g-orthonormal frame of ker eta, one column stack shared by the
        eta-parallel and contact checks."""
        return horizontal_basis(self.projector, self.eta, self.gram, tol=self.tol)

    @cached_property
    def reeb_gradient(self) -> np.ndarray:
        """Matrix of the covariant gradient of the Reeb field."""
        return nabla_xi(self.gamma, self.xi, self._read("dxi"))

    @cached_property
    def dxi_skew(self) -> np.ndarray:
        """The g-skew part of the Reeb gradient."""
        return skew_matrix(self.reeb_gradient, self.gram)

    @cached_property
    def skew_projected(self) -> np.ndarray:
        return self.projector @ self.dxi_skew @ self.projector

    @cached_property
    def nphi(self) -> np.ndarray:
        return nabla_phi(self.gamma, self.phi, self._read("dphi"))

    @cached_property
    def deta(self) -> np.ndarray:
        return d_eta(self._read("deta"))

    @cached_property
    def correction(self) -> np.ndarray:
        """Difference tensor h[..., k, i, j] between the modified connection
        and Levi-Civita, as a coordinate table: the k-th component of the
        correction applied to the frame pair (e_i, e_j)."""
        return _correction(self.gram, self.xi, self.eta, self.projector,
                           self.reeb_gradient, self.skew_projected)

    @cached_property
    def modified_gamma(self) -> np.ndarray:
        """Coefficients of the modified connection: the Levi-Civita symbols
        plus the correction table."""
        return self.gamma + self.correction

    @cached_property
    def eta_parallel(self) -> float:
        """The eta-parallel residual, shared by every check that gates on it."""
        return check_eta_parallel(self.nphi, self.gram, self.horizontal_basis)

    @cached_property
    def riem(self) -> CurvatureTensor:
        symbolic = self.chart.mode.kind == "symbolic"
        gate = self.tol.curvature_symbolic if symbolic else self.tol.curvature_fd
        return riemann(self.metric, self.gamma, self.dgamma, gate)

    @cached_property
    def modified_riem(self) -> CurvatureTensor:
        return modified_riemann(self)

    @cached_property
    def modified_nphi(self) -> np.ndarray:
        """Coordinate table of the modified covariant derivative of phi."""
        h = self.correction
        phi = self.phi
        return (self.nphi + np.einsum("jil,lk->ijk", h, phi)
                - np.einsum("jl,lik->ijk", phi, h))

    @cached_property
    def modified_nphi_reeb(self) -> np.ndarray:
        """Matrix of the modified derivative of phi along the Reeb field."""
        return np.einsum("i,ijk->jk", self.xi, self.modified_nphi)

    def inner(self, u, v):
        return self.metric.inners(u, v)

    def gnorm(self, v):
        return self.metric.norms(v)

    def nphi_vec(self, x, z) -> np.ndarray:
        """The vector (nabla_x phi) z from the coordinate table, column by
        column for stacks."""
        return np.einsum("ijk,i...,k...->j...", self.nphi, x, z)

    def modified_curvature_horizontal(self, x, y, z) -> np.ndarray:
        """Horizontal part of the modified curvature on horizontal arguments,
        by the closed algebraic formula (no differentiation).

        This is the second, independent route to the modified curvature; the
        differentiated route must agree with it on horizontal triples.
        """
        a = self.reeb_gradient
        ax, ay = a @ x, a @ y
        sx = self.dxi_skew @ x
        return (self.projector @ self.riem.apply(x, y, z)
                + self.inner(ay, z) * ax - self.inner(ax, z) * ay
                + self.inner(sx, y) * (self.skew_projected @ z))


# ---------------------------------------------------------------------------
# probe generation


def _accepted_draws(draw, keep, count: int, what: str) -> np.ndarray:
    """``count`` accepted items in the order drawn, stacked along the last
    axis. ``draw(n)`` returns n fresh items stacked that way and ``keep``
    marks the acceptable ones.

    No batch asks for more items than are missing, nor for more than the
    consecutive rejections left under ``MAX_PROBE_DRAWS``, so the random
    stream is consumed exactly as by drawing one item at a time, and
    DegenerateInputError ("no <what> in ... draws") is raised after the
    same draw."""
    parts, missing, run = [], count, 0
    while True:
        items = draw(min(missing, MAX_PROBE_DRAWS - run))
        ok = keep(items)
        parts.append(items[..., ok])
        missing -= int(np.count_nonzero(ok))
        if missing == 0:
            return np.concatenate(parts, axis=-1)
        hits = np.flatnonzero(ok)
        run = run + ok.size if hits.size == 0 else ok.size - 1 - int(hits[-1])
        if run >= MAX_PROBE_DRAWS:
            raise DegenerateInputError(f"no {what} in {MAX_PROBE_DRAWS} draws")


def unit_probes(metric: Metric, rng, count: int, *, projector=None) -> np.ndarray:
    """Stack of ``count`` g-unit vectors, one per column, from standard
    normal draws (projected first when a projector is given), redrawing any
    whose g-norm is at most 1e-6.

    The draws are rows of one ``standard_normal((n, dim))`` matrix, which
    holds the same numbers as n draws of ``standard_normal(dim)``. Raises
    DegenerateInputError after ``MAX_PROBE_DRAWS`` consecutive redraws, as
    on a chart whose horizontal space is trivial."""
    def draw(n):
        v = rng.standard_normal((n, metric.dim)).T
        return v if projector is None else projector @ v

    probes = _accepted_draws(draw, lambda v: metric.norms(v) > 1e-6, count,
                             "probe vector with g-norm above 1e-6")
    return probes / metric.norms(probes)


def horizontal_unit_probes(pg: PointGeometry, rng, count: int) -> np.ndarray:
    return unit_probes(pg.metric, rng, count, projector=pg.projector)


def _probe_tuples(metric: Metric, rng, k: int, count: int, *, projector=None) -> np.ndarray:
    """``count`` k-tuples of g-unit probes as a ``(k, dim, count)`` array,
    so that ``x, y = _probe_tuples(...)`` unpacks k stacks; the members of
    each tuple are consecutive in one draw of ``k * count`` from
    `unit_probes`."""
    probes = unit_probes(metric, rng, k * count, projector=projector)
    return probes.reshape(metric.dim, count, k).transpose(2, 0, 1)


# ---------------------------------------------------------------------------
# pointwise residuals


def killing_residual(pg: PointGeometry) -> float:
    ga = pg.metric.gram @ pg.reeb_gradient
    return float(np.max(np.abs(ga + ga.T)))


def reeb_deta_kernel_residual(pg: PointGeometry) -> float:
    return float(np.max(np.abs(pg.deta @ pg.xi)))


def nearly_cosymplectic_residuals(pg: PointGeometry, rng,
                                  probes: int = PROBES_PER_RESIDUAL) -> dict[str, float]:
    """Residuals of the defining symmetry (nabla_v phi) v = 0.

    Probed three ways: on horizontal g-unit vectors, on arbitrary g-unit
    vectors, and through the symmetrized pairing on horizontal pairs.
    """
    hor = horizontal_unit_probes(pg, rng, probes)
    full = unit_probes(pg.metric, rng, probes)
    x, y = _probe_tuples(pg.metric, rng, 2, probes // 2, projector=pg.projector)
    return {
        "horizontal": worst(pg.gnorm(pg.nphi_vec(hor, hor))),
        "full": worst(pg.gnorm(pg.nphi_vec(full, full))),
        "symmetrized": worst(pg.gnorm(pg.nphi_vec(x, y) + pg.nphi_vec(y, x))),
    }


def skew_phi_anticommutation_residual(pg: PointGeometry) -> float:
    """Anticommutator of the projected skew operator with phi, on the
    horizontal subspace."""
    b = pg.skew_projected
    phi = pg.phi
    m = pg.projector @ (b @ phi + phi @ b) @ pg.projector
    return float(np.max(np.abs(m)))


def bridge_residual(pg: PointGeometry, rng, pairs: int = PROBES_PER_RESIDUAL) -> float:
    """Worst gap between the exterior derivative of the contact form and the
    skew pairing of the Reeb gradient, on horizontal pairs."""
    x, y = _probe_tuples(pg.metric, rng, 2, pairs, projector=pg.projector)
    deta_xy = np.sum(x * (pg.deta @ y), axis=0)
    return worst(np.abs(deta_xy - pg.inner(pg.dxi_skew @ x, y)))


def factorization_lhs(pg: PointGeometry, x, y, z) -> np.ndarray:
    v = (pg.projector @ (pg.modified_nphi_reeb @ z)
         - pg.skew_projected @ (pg.phi @ z))
    return 2.0 * pg.inner(pg.dxi_skew @ x, y) * v


def factorization_rhs(pg: PointGeometry, x, y, z) -> np.ndarray:
    """Curvature side of the factorization identity on a horizontal triple."""
    phi = pg.phi
    a = pg.reeb_gradient
    r = pg.riem
    phz = phi @ z
    ax, ay = a @ x, a @ y
    out = pg.projector @ r.apply(x, y, phz) - phi @ r.apply(x, y, z)
    out = out + pg.inner(ay, phz) * ax - pg.inner(ax, phz) * ay
    out = out - pg.inner(ay, z) * (phi @ ax) + pg.inner(ax, z) * (phi @ ay)
    return out


# ---------------------------------------------------------------------------
# identity suites


def modified_connection_suite(geoms: Sequence[PointGeometry], seed: int = 0, *,
                              tol: Tolerances = DEFAULT_TOLERANCES,
                              probes: int = PROBES_PER_RESIDUAL) -> VerificationReport:
    """Structural checks of the modified connection plus the two-route
    agreement of its curvature."""
    rng = np.random.default_rng(seed)
    fix, reeb, phi_h, agree = [], [], [], []
    for pg in geoms:
        h = pg.correction
        a = pg.reeb_gradient
        fix.append(float(np.max(np.abs(np.einsum("kij,i,j->k", h, pg.xi, pg.xi)))))
        x = horizontal_unit_probes(pg, rng, probes)
        # h(x, xi) as the matrix h(., xi) times x: where that matrix is -A
        # exactly, both products round alike and cancel to 0
        reeb.extend(pg.gnorm(a @ x + (h @ pg.xi) @ x))
        x, z = _probe_tuples(pg.metric, rng, 2, probes, projector=pg.projector)
        phi_h.extend(pg.gnorm(np.einsum("ijk,i...,k...->j...", pg.modified_nphi, x, z)))
        x, w, z = _probe_tuples(pg.metric, rng, 3, probes, projector=pg.projector)
        one = pg.projector @ pg.modified_riem.apply(x, w, z)
        two = pg.modified_curvature_horizontal(x, w, z)
        agree.extend(pg.gnorm(one - two))
    return VerificationReport.of([
        Check.below("correction_kills_reeb_pair", worst(fix), tol.acms_exact),
        Check.below("modified_reeb_parallel", worst(reeb), tol.condition_gate),
        Check.below("modified_phi_horizontal", worst(phi_h), tol.condition_gate),
        Check.below("modified_curvature_mode_agreement", worst(agree), tol.identity),
    ])


def defect_collapse_suite(geoms: Sequence[PointGeometry], seed: int = 0, *,
                          tol: Tolerances = DEFAULT_TOLERANCES,
                          probes: int = PROBES_PER_RESIDUAL) -> VerificationReport:
    """Commutation defect of the modified curvature against phi, collapsed
    onto the Reeb-direction derivative of phi.

    Gated on the horizontal derivative of phi vanishing (the identity only
    holds on charts where it does)."""
    rng = np.random.default_rng(seed)
    gate_resid = worst(pg.eta_parallel for pg in geoms)
    gate_ok = bool(gate_resid < tol.condition_gate)
    checks = [Check("eta_parallel_gate", gate_resid, tol.condition_gate, gate_ok)]
    if not gate_ok:
        return VerificationReport.of(checks)
    resid = []
    for pg in geoms:
        phi = pg.phi
        x, y_, z = _probe_tuples(pg.metric, rng, 3, probes, projector=pg.projector)
        lhs = (pg.modified_riem.apply(x, y_, phi @ z)
               - phi @ pg.modified_riem.apply(x, y_, z))
        factor = 2.0 * pg.inner(pg.dxi_skew @ x, y_)
        rhs = factor * (pg.modified_nphi_reeb @ z)
        resid.extend(pg.gnorm(pg.projector @ (lhs - rhs)))
    checks.append(Check.below("defect_collapse", worst(resid), tol.identity))
    return VerificationReport.of(checks)


def defect_factorization_suite(geoms: Sequence[PointGeometry], seed: int = 0, *,
                               tol: Tolerances = DEFAULT_TOLERANCES,
                               probes: int = PROBES_PER_RESIDUAL) -> VerificationReport:
    """Fully expanded form of the commutation defect, phrased against the
    Levi-Civita curvature.

    Needs both gates: the horizontal derivative of phi must vanish and the
    projected skew operator must anticommute with phi."""
    rng = np.random.default_rng(seed)
    eta_par, skew = [], []
    for pg in geoms:
        eta_par.append(pg.eta_parallel)
        skew.append(skew_phi_anticommutation_residual(pg))
    gate4, gate3 = worst(eta_par), worst(skew)
    ok4 = bool(gate4 < tol.condition_gate)
    ok3 = bool(gate3 < tol.condition_gate)
    checks = [Check("eta_parallel_gate", gate4, tol.condition_gate, ok4),
              Check("skew_anticommutation_gate", gate3, tol.condition_gate, ok3)]
    if not (ok4 and ok3):
        return VerificationReport.of(checks)
    resid = []
    for pg in geoms:
        x, y_, z = _probe_tuples(pg.metric, rng, 3, probes, projector=pg.projector)
        diff = factorization_lhs(pg, x, y_, z) - factorization_rhs(pg, x, y_, z)
        resid.extend(pg.gnorm(diff))
    checks.append(Check.below("defect_factorization", worst(resid), tol.identity))
    return VerificationReport.of(checks)


def _phi_plane_curvature(pg: PointGeometry, rng) -> float:
    x = horizontal_unit_probes(pg, rng, 8)
    px = pg.phi @ x
    keep = ~(pg.gnorm(px) < 1e-6)
    if not keep.any():
        raise DegenerateInputError("no nondegenerate phi-plane found")
    return float(np.mean(pg.riem.sectional(x[:, keep], px[:, keep], tol=pg.tol)))


def curvature_reconstruction_suite(geoms: Sequence[PointGeometry], seed: int = 0, *,
                                   tol: Tolerances = DEFAULT_TOLERANCES,
                                   tuples: int = PROBES_PER_RESIDUAL,
                                   c: float | None = None) -> VerificationReport:
    """Reconstruction of the full curvature from first derivatives of the
    structure tensors, valid on nearly cosymplectic charts whose phi-plane
    curvature is the constant ``c``.

    Includes the horizontal specialization and the pairing identity for the
    derivative of phi. Gated on the nearly cosymplectic residual."""
    rng = np.random.default_rng(seed)
    nearly = [nearly_cosymplectic_residuals(pg, rng, probes=max(8, tuples // 4))
              for pg in geoms]
    gate = worst(r for res in nearly for r in res.values())
    gate_ok = bool(gate < tol.nearly_gate)
    checks = [Check("nearly_cosymplectic_gate", gate, tol.nearly_gate, gate_ok)]
    if not gate_ok:
        return VerificationReport.of(checks)
    if c is None:
        c = float(np.mean([_phi_plane_curvature(pg, rng) for pg in geoms]))
    full, hor, pair = [], [], []
    for pg in geoms:
        g = pg.metric
        phi = pg.phi
        a = pg.reeb_gradient
        a2 = a @ a
        eta = pg.eta

        ip = g.inners
        w, x, y_, z = _probe_tuples(g, rng, 4, tuples)
        lhs = 4.0 * pg.riem.pair(z, w, x, y_)
        aw, ax, ay, az = a @ w, a @ x, a @ y_, a @ z
        ew, ex, ey, ez = eta @ w, eta @ x, eta @ y_, eta @ z
        rhs = (ip(pg.nphi_vec(w, z), pg.nphi_vec(x, y_))
               - ip(pg.nphi_vec(w, y_), pg.nphi_vec(x, z))
               - 2.0 * ip(pg.nphi_vec(w, x), pg.nphi_vec(y_, z))
               + ip(aw, z) * ip(ax, y_) - ip(aw, y_) * ip(ax, z)
               - 2.0 * ip(aw, x) * ip(ay, z)
               - ew * ey * ip(ax, az) + ew * ez * ip(ax, ay)
               + ex * ey * ip(aw, az) - ex * ez * ip(aw, ay))
        rhs += c * (ip(x, y_) * ip(z, w) - ip(z, x) * ip(y_, w)
                    + ez * ex * ip(y_, w) - ey * ex * ip(z, w)
                    + ey * ew * ip(z, x) - ez * ew * ip(y_, x)
                    + ip(phi @ y_, x) * ip(phi @ z, w)
                    - ip(phi @ z, x) * ip(phi @ y_, w)
                    - 2.0 * ip(phi @ z, y_) * ip(phi @ x, w))
        full.extend(np.abs(lhs - rhs))

        x, y_, w = _probe_tuples(g, rng, 3, tuples, projector=pg.projector)
        lhs_v = 3.0 * c * (ip(y_, x) * w - ip(y_, w) * x)
        py, px, pw = phi @ y_, phi @ x, phi @ w
        ax, aw, ay = a @ x, a @ w, a @ y_
        rhs_v = (-ip(py, ax) * (phi @ aw) + ip(py, aw) * (phi @ ax)
                 + 2.0 * ip(px, aw) * (phi @ ay)
                 + ip(ax, y_) * aw - ip(aw, y_) * ax - 2.0 * ip(aw, x) * ay)
        rhs_v = rhs_v + c * (-ip(x, py) * pw + ip(py, w) * px + 2.0 * ip(px, w) * py)
        hor.extend(pg.gnorm(lhs_v - rhs_v))

        x, y_, z = _probe_tuples(g, rng, 3, tuples)
        ex, ey = eta @ x, eta @ y_
        lhs_s = ip(pg.nphi_vec(x, y_), a @ z)
        rhs_s = ey * ip(a2 @ x, phi @ z) - ex * ip(a2 @ y_, phi @ z)
        pair.extend(np.abs(lhs_s - rhs_s))
    checks.append(Check.below("curvature_reconstruction_full", worst(full), tol.identity))
    checks.append(Check.below("curvature_reconstruction_horizontal", worst(hor), tol.identity))
    checks.append(Check.below("nabla_phi_pairing", worst(pair), tol.identity))
    return VerificationReport.of(checks)


def dual_mode_suite(chart: Chart, points, *,
                    tol: Tolerances = DEFAULT_TOLERANCES) -> VerificationReport:
    """Relative agreement of symbolic and finite-difference derivatives for
    the Christoffel symbols, the Reeb gradient, the derivative of phi and
    the curvature, over the given points."""
    sym = chart.with_mode(SYMBOLIC)
    fd = chart.with_mode(DerivativeMode("fd"))
    names = ("dual_mode_christoffel", "dual_mode_reeb_gradient",
             "dual_mode_nabla_phi", "dual_mode_riemann")
    rels: dict[str, list[float]] = {name: [] for name in names}
    for y in np.atleast_2d(np.asarray(points, float)):
        one, two = PointGeometry(sym, y, tol=tol), PointGeometry(fd, y, tol=tol)
        got = {
            "dual_mode_christoffel": (one.gamma, two.gamma),
            "dual_mode_reeb_gradient": (one.reeb_gradient, two.reeb_gradient),
            "dual_mode_nabla_phi": (one.nphi, two.nphi),
            "dual_mode_riemann": (one.riem.comps, two.riem.comps),
        }
        for name, (a, b) in got.items():
            rel = float(np.max(np.abs(a - b))) / (1.0 + float(np.max(np.abs(a))))
            rels[name].append(rel)
    return VerificationReport.of([
        Check.below(name, worst(rels[name]), tol.dual_mode) for name in names
    ])


def horizontal_sectional_values(chart: Chart, points, seed: int = 0, *,
                                tol: Tolerances = DEFAULT_TOLERANCES,
                                planes: int = PROBES_PER_RESIDUAL) -> list[float]:
    """Sectional curvatures of random horizontal planes across the points.

    A probe pair with |g(x, w)| > 0.99 is redrawn; raises
    DegenerateInputError after ``MAX_PROBE_DRAWS`` consecutive redraws.
    Each point's pairs are drawn and evaluated as one stack."""
    rng = np.random.default_rng(seed)
    values: list[float] = []
    for y in np.atleast_2d(np.asarray(points, float)):
        pg = PointGeometry(chart, y, tol=tol)
        x, w = _accepted_draws(
            lambda n: _probe_tuples(pg.metric, rng, 2, n, projector=pg.projector),
            lambda xw: np.abs(pg.inner(*xw)) <= 0.99, planes,
            "horizontal plane with |g(x, w)| <= 0.99")
        values.extend(np.atleast_1d(pg.riem.sectional(x, w, tol=tol)).tolist())
    return values


def contact_residuals(pg: PointGeometry) -> tuple[float, float]:
    """Pair (sigma_min of the horizontal skew operator, absolute top-form
    coefficient of the contact volume)."""
    b = operator_in_basis(pg.skew_projected, pg.horizontal_basis, pg.metric)
    sigma = float(np.linalg.svd(b, compute_uv=False)[-1])
    volume = abs(contact_volume_coefficient(pg.eta, pg.deta))
    return sigma, volume
