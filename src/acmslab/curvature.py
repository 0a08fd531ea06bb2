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
`modified_riemann` assemble curvature from the arrays it holds. The
pointwise residuals (`killing_residual` through `contact_residuals`) take a
geometry over a point, giving a float, or over a stack, giving one value
per row, so ``validate`` checks its whole sample as one geometry. The four
identity suites take a list of prebuilt ``PointGeometry`` objects, one per
point, so a caller that runs several suites over the same points (the
``identities`` subcommand) computes each point's curvature and modified
curvature once.

Index layout throughout: ``comps[i, j, k, l]`` is the i-th component of
``R(e_k, e_l) e_j``.

Each identity is decided on the point's g-orthonormal frame, not on random
vectors: a multilinear identity holds exactly when it holds on every tuple
of frame vectors. The suites write the tensors involved (curvature, the
Reeb gradient, phi, eta, the derivative of phi) in the frame by contracting
one index at a time, and report the largest entry of the difference
tensor, the convention of `structure.check_eta_parallel`. Horizontal
identities take their arguments from the horizontal frame, full-space ones
from `PointGeometry.frame`. Only `horizontal_sectional_values` (the
``curvature`` command) draws random probes, as stacks with one vector per
column (see `linalg`).
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
from .linalg import Metric, check_gram, max_entry, operator_in_basis, skew_matrix
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

    def pair(self, w, x, y, z):
        """The scalar g(R(x, y) z, w), column by column for stacks."""
        rxyz = np.einsum("ijkl,k...,l...,j...->i...", self.comps, x, y, z)
        return self.metric.inners(np.asarray(w, float), rxyz)

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
    half of it) keeps the truncation error at fourth order. The coarse
    connection table comes from the geometry's `coarse_stencil`, which the
    fd Christoffel derivative shares, and the fine one from a geometry over
    the 2d fine rows; both stencils are read before the centre, whose table
    is the geometry's own. No Bianchi check here: the modified connection
    carries torsion, so the plain cyclic identity genuinely fails.
    """
    h = FD_SECOND_STEP
    coarse = pg.coarse_stencil.modified_gamma
    fine = PointGeometry(pg.chart, stencil_points(pg.y, h / 2.0), tol=pg.tol).modified_gamma
    dgam = (4.0 * stencil_difference(fine, h / 2.0) - stencil_difference(coarse, h)) / 3.0
    return CurvatureTensor(_assemble_curvature(pg.modified_gamma, dgam), pg.metric)


class PointGeometry:
    """Lazy bundle of every tensor the identity suites need, at one point
    ``y`` of shape ``(dim,)`` or at each row of a stack ``(n, dim)``.

    Each tensor is computed on first access and cached for the lifetime of
    the object. `_read` is its only chart reader and reads each grid once.
    The connection tensors, up to ``modified_gamma``, are array formulas
    over the leading row axis of a stack, so the derivative stencils are
    geometries too; so are the structure tensors ``validate`` checks
    (``nphi``, ``deta``, ``projector``, ``horizontal_basis``, ``frame``,
    ``eta_parallel``), each row exactly what the point alone gives.
    Everything derived from the Christoffel symbols reads the one cached
    ``gamma``. ``metric``, ``dgamma``, ``coarse_stencil``, ``riem``,
    ``modified_riem``, ``modified_nphi`` and ``modified_nphi_reeb`` exist
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
        the second-level step, of the Christoffel symbols of the
        `coarse_stencil`.
        """
        if self.chart.mode.kind == "fd":
            return stencil_difference(self.coarse_stencil.gamma, FD_SECOND_STEP)
        return christoffel_derivative(self.ginv, self.dg, self._read("ddg"))

    @cached_property
    def coarse_stencil(self) -> PointGeometry:
        """Geometry over the 2d `stencil_points` of step ``FD_SECOND_STEP``:
        the rows the fd Christoffel derivative differences and the coarse
        rows of `modified_riemann`'s Richardson step, read once for both."""
        return PointGeometry(self.chart, stencil_points(self.y, FD_SECOND_STEP), tol=self.tol)

    @cached_property
    def projector(self) -> np.ndarray:
        return horizontal_projector(self.xi, self.eta)

    @cached_property
    def horizontal_basis(self) -> np.ndarray:
        """g-orthonormal frame of ker eta, one column stack shared by the
        eta-parallel and contact checks and the horizontal identities."""
        return horizontal_basis(self.projector, self.eta, self.gram, tol=self.tol)

    @cached_property
    def frame(self) -> np.ndarray:
        """g-orthonormal frame of the whole space as a ``(dim, dim)`` column
        stack: the horizontal frame, then the g-unit normal of ker eta (xi
        itself when the structure holds). Adapted to the splitting, the
        frame gives residuals that do not depend on the chart's coordinates.
        """
        normal = np.linalg.solve(self.gram, self.eta[..., None])
        norm = np.sqrt(np.maximum(normal.swapaxes(-1, -2) @ self.gram @ normal, 0.0))
        return np.concatenate([self.horizontal_basis, normal / norm], axis=-1)

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


# ---------------------------------------------------------------------------
# probe generation (the sampled sectional curvatures of `curvature`)


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


def _probe_tuples(metric: Metric, rng, k: int, count: int, *, projector=None) -> np.ndarray:
    """``count`` k-tuples of g-unit probes as a ``(k, dim, count)`` array,
    so that ``x, y = _probe_tuples(...)`` unpacks k stacks; the members of
    each tuple are consecutive in one draw of ``k * count`` from
    `unit_probes`."""
    probes = unit_probes(metric, rng, k * count, projector=projector)
    return probes.reshape(metric.dim, count, k).transpose(2, 0, 1)


# ---------------------------------------------------------------------------
# tensors in a frame


def _in_frames(table, *mats) -> np.ndarray:
    """``table`` with each axis n contracted against the first axis of
    ``mats[n]``, one axis at a time: out[a, b, ...] = sum over i, j, ... of
    table[i, j, ...] mats[0][i, a] mats[1][j, b] ...; over a stack, every
    array carries the same leading axes, which ride along.

    An argument slot takes a frame (its columns the arguments); a vector
    output slot takes ``gram @ frame``, which gives the output's components
    g(v, f_a) in a g-orthonormal frame, or ``m.T @ gram @ frame`` for the
    components of ``m @ v``."""
    out = np.asarray(table)
    for mat in mats:  # the new axis goes last, so after every axis the order is back
        lead = mat.shape[:-2]
        rest = out.shape[len(lead) + 1:]
        out = (out.reshape(lead + (mat.shape[-2], -1)).swapaxes(-1, -2) @ mat).reshape(
            lead + rest + mat.shape[-1:])
    return out


def _terms(out: str, *terms) -> np.ndarray:
    """Sum of ``sign * einsum(f"{spec}->{out}", *operands)`` over the terms
    ``(sign, spec, *operands)``: a tensor written index by index."""
    return sum(sign * np.einsum(f"{spec}->{out}", *ops) for sign, spec, *ops in terms)


# ---------------------------------------------------------------------------
# pointwise residuals


def killing_residual(pg: PointGeometry) -> float | np.ndarray:
    ga = pg.gram @ pg.reeb_gradient
    return max_entry(ga + ga.swapaxes(-1, -2), 2)


def reeb_deta_kernel_residual(pg: PointGeometry) -> float | np.ndarray:
    return max_entry((pg.deta @ pg.xi[..., None])[..., 0], 1)


def nearly_cosymplectic_residual(pg: PointGeometry) -> float | np.ndarray:
    """Residual of the defining symmetry (nabla_v phi) v = 0: the largest
    entry of its polarization (nabla_x phi) z + (nabla_z phi) x in the
    point's frame."""
    f = pg.frame
    n = _in_frames(pg.nphi, f, pg.gram @ f, f)  # n[..., x, a, z]: (nabla_x phi) z
    return max_entry(n + n.swapaxes(-1, -3), 3)


def skew_phi_anticommutation_residual(pg: PointGeometry) -> float | np.ndarray:
    """Anticommutator of the projected skew operator with phi, on the
    horizontal subspace."""
    b = pg.skew_projected
    phi = pg.phi
    m = pg.projector @ (b @ phi + phi @ b) @ pg.projector
    return max_entry(m, 2)


def bridge_residual(pg: PointGeometry) -> float | np.ndarray:
    """Gap between the exterior derivative of the contact form and the skew
    pairing g(Bx, y) of the Reeb gradient, on the horizontal frame."""
    h = pg.horizontal_basis
    return max_entry(h.swapaxes(-1, -2) @ (pg.deta - pg.dxi_skew.swapaxes(-1, -2) @ pg.gram)
                     @ h, 2)


# ---------------------------------------------------------------------------
# identity suites


def modified_connection_suite(geoms: Sequence[PointGeometry], *,
                              tol: Tolerances = DEFAULT_TOLERANCES) -> VerificationReport:
    """Structural checks of the modified connection plus the two-route
    agreement of its curvature on horizontal triples."""
    fix, reeb, phi_h, agree = [], [], [], []
    for pg in geoms:
        h, a, b = pg.correction, pg.reeb_gradient, pg.horizontal_basis
        gf = pg.gram @ pg.frame
        fix.append(float(np.max(np.abs(np.einsum("kij,i,j->k", h, pg.xi, pg.xi)))))
        # h(x, xi) as the matrix h(., xi) times x: where that matrix is -A
        # exactly, both products round alike and cancel to 0
        reeb.append(max_entry(gf.T @ (a @ b + (h @ pg.xi) @ b)))
        phi_h.append(max_entry(_in_frames(pg.modified_nphi, b, gf, b)))
        # the differentiated route against the closed formula
        # P R(x, w) z + g(Aw, z) Ax - g(Ax, z) Aw + g(Bx, w) P B P z
        ab, af = operator_in_basis(a, b, pg.gram), gf.T @ a @ b
        bb, sf = operator_in_basis(pg.dxi_skew, b, pg.gram), gf.T @ pg.skew_projected @ b
        routes = _in_frames(pg.modified_riem.comps - pg.riem.comps,
                            pg.projector.T @ gf, b, b, b)
        agree.append(max_entry(routes - _terms("azxw", (1, "zw,ax", ab, af),
                                               (-1, "zx,aw", ab, af), (1, "wx,az", bb, sf))))
    return VerificationReport.of([
        Check.below("correction_kills_reeb_pair", worst(fix), tol.acms_exact),
        Check.below("modified_reeb_parallel", worst(reeb), tol.condition_gate),
        Check.below("modified_phi_horizontal", worst(phi_h), tol.condition_gate),
        Check.below("modified_curvature_mode_agreement", worst(agree), tol.identity),
    ])


def defect_collapse_suite(geoms: Sequence[PointGeometry], *,
                          tol: Tolerances = DEFAULT_TOLERANCES) -> VerificationReport:
    """Commutation defect of the modified curvature against phi, collapsed
    onto the Reeb-direction derivative of phi: on horizontal x, y, z,
    P(R(x, y) phi z - phi R(x, y) z) = 2 g(Bx, y) P (nabla_xi phi) z.

    Gated on the horizontal derivative of phi vanishing (the identity only
    holds on charts where it does)."""
    gate_resid = worst(pg.eta_parallel for pg in geoms)
    gate_ok = bool(gate_resid < tol.condition_gate)
    checks = [Check("eta_parallel_gate", gate_resid, tol.condition_gate, gate_ok)]
    if not gate_ok:
        return VerificationReport.of(checks)
    resid = []
    for pg in geoms:
        b, phi, r = pg.horizontal_basis, pg.phi, pg.modified_riem.comps
        pt = pg.projector.T @ pg.gram @ pg.frame
        rhs = 2.0 * np.einsum("yx,az->azxy", operator_in_basis(pg.dxi_skew, b, pg.gram),
                              pt.T @ pg.modified_nphi_reeb @ b)
        resid.append(max_entry(_in_frames(r, pt, phi @ b, b, b)
                               - _in_frames(r, phi.T @ pt, b, b, b) - rhs))
    checks.append(Check.below("defect_collapse", worst(resid), tol.identity))
    return VerificationReport.of(checks)


def defect_factorization_suite(geoms: Sequence[PointGeometry], *,
                               tol: Tolerances = DEFAULT_TOLERANCES) -> VerificationReport:
    """Fully expanded form of the commutation defect, phrased against the
    Levi-Civita curvature: on horizontal x, y, z,
    2 g(Bx, y) W z = P R(x, y) phi z - phi R(x, y) z + g(Ay, phi z) Ax
    - g(Ax, phi z) Ay - g(Ay, z) phi Ax + g(Ax, z) phi Ay, with
    W = P (nabla_xi phi) - P B P phi for the modified derivative.

    Needs both gates: the horizontal derivative of phi must vanish and the
    projected skew operator must anticommute with phi."""
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
        b, phi, a, r = pg.horizontal_basis, pg.phi, pg.reeb_gradient, pg.riem.comps
        gf = pg.gram @ pg.frame
        w = pg.projector @ pg.modified_nphi_reeb - pg.skew_projected @ phi
        ab = (a @ b).T @ pg.gram  # rows g(A h_i, .)
        a_phi, a_z, af, phi_af = ab @ phi @ b, ab @ b, gf.T @ a @ b, gf.T @ phi @ a @ b
        rhs = (_in_frames(r, pg.projector.T @ gf, phi @ b, b, b)
               - _in_frames(r, phi.T @ gf, b, b, b)
               + _terms("azxy", (1, "yz,ax", a_phi, af), (-1, "xz,ay", a_phi, af),
                        (-1, "yz,ax", a_z, phi_af), (1, "xz,ay", a_z, phi_af)))
        lhs = 2.0 * np.einsum("yx,az->azxy", operator_in_basis(pg.dxi_skew, b, pg.gram),
                              gf.T @ w @ b)
        resid.append(max_entry(lhs - rhs))
    checks.append(Check.below("defect_factorization", worst(resid), tol.identity))
    return VerificationReport.of(checks)


def _reconstruction_residuals(pg: PointGeometry, c: float) -> tuple[float, float, float]:
    """(full, horizontal, pairing) residuals of the curvature
    reconstruction at one point with phi-plane constant ``c``."""
    f, b = pg.frame, pg.horizontal_basis
    gf = pg.gram @ f
    n = _in_frames(pg.nphi, f, gf, f)  # n[x, a, z]: (nabla_x phi) z
    a, phi = gf.T @ pg.reeb_gradient @ f, gf.T @ pg.phi @ f  # [i, j] = g(f_i, M f_j)
    e, one, aa = pg.eta @ f, np.eye(len(f)), a.T @ a

    # 4 g(R(w, x) y, z) from first derivatives of the structure
    lhs = 4.0 * np.einsum("zywx->wxyz", _in_frames(pg.riem.comps, gf, f, f, f))
    rhs = _terms("wxyz", (1, "waz,xay", n, n), (-1, "way,xaz", n, n), (-2, "wax,yaz", n, n),
                 (1, "zw,yx", a, a), (-1, "yw,zx", a, a), (-2, "xw,zy", a, a),
                 (-1, "w,y,xz", e, e, aa), (1, "w,z,xy", e, e, aa),
                 (1, "x,y,wz", e, e, aa), (-1, "x,z,wy", e, e, aa))
    rhs = rhs + c * _terms("wxyz", (1, "xy,zw", one, one), (-1, "zx,yw", one, one),
                           (1, "z,x,yw", e, e, one), (-1, "y,x,zw", e, e, one),
                           (1, "y,w,zx", e, e, one), (-1, "z,w,yx", e, e, one),
                           (1, "xy,wz", phi, phi), (-1, "xz,wy", phi, phi),
                           (-2, "yz,wx", phi, phi))
    full = max_entry(lhs - rhs)

    # its horizontal specialization, a vector identity in horizontal x, y, w
    ah, ph = pg.reeb_gradient @ b, pg.phi @ b
    pa, a_y = ph.T @ pg.gram @ ah, ah.T @ pg.gram @ b  # g(phi h_i, A h_j), g(A h_i, h_j)
    p_y = operator_in_basis(pg.phi, b, pg.gram)         # g(h_i, phi h_j)
    af, pf, paf, hf = gf.T @ ah, gf.T @ ph, gf.T @ pg.phi @ ah, gf.T @ b
    hone = np.eye(b.shape[1])
    horizontal = max_entry(_terms(
        "axyw", (3 * c, "yx,aw", hone, hf), (-3 * c, "yw,ax", hone, hf),
        (1, "yx,aw", pa, paf), (-1, "yw,ax", pa, paf), (-2, "xw,ay", pa, paf),
        (-1, "xy,aw", a_y, af), (1, "wy,ax", a_y, af), (2, "wx,ay", a_y, af),
        (c, "xy,aw", p_y, pf), (-c, "wy,ax", p_y, pf), (-2 * c, "wx,ay", p_y, pf)))

    # g((nabla_x phi) y, Az) = eta(y) g(A^2 x, phi z) - eta(x) g(A^2 y, phi z)
    q = (a @ a).T @ phi
    pairing = max_entry(_terms("xyz", (1, "xay,az", n, a), (-1, "y,xz", e, q),
                               (1, "x,yz", e, q)))
    return full, horizontal, pairing


def curvature_reconstruction_suite(geoms: Sequence[PointGeometry], *,
                                   tol: Tolerances = DEFAULT_TOLERANCES,
                                   c: float | None = None) -> VerificationReport:
    """Reconstruction of the full curvature from first derivatives of the
    structure tensors, valid on nearly cosymplectic charts whose phi-plane
    curvature is the constant ``c``; without ``c``, the mean of
    K(h, phi h) over the horizontal frame vectors h of every point, and a
    point where some phi-plane is degenerate raises DegenerateInputError.

    Includes the horizontal specialization and the pairing identity for the
    derivative of phi. Gated on the nearly cosymplectic residual."""
    gate = worst(nearly_cosymplectic_residual(pg) for pg in geoms)
    gate_ok = bool(gate < tol.nearly_gate)
    checks = [Check("nearly_cosymplectic_gate", gate, tol.nearly_gate, gate_ok)]
    if not gate_ok:
        return VerificationReport.of(checks)
    if c is None:
        sections = []
        for pg in geoms:
            riem, b = pg.riem, pg.horizontal_basis
            try:
                sections.append(np.mean(riem.sectional(b, pg.phi @ b, tol=pg.tol)))
            except DegenerateInputError as exc:
                raise DegenerateInputError(
                    f"cannot estimate c at point {pg.y.tolist()}: phi maps a horizontal "
                    "frame vector h to zero or into span{h}, so the phi-plane "
                    "span{h, phi h} is degenerate; give c (--c) instead") from exc
        c = float(np.mean(sections))
    full, hor, pair = zip(*(_reconstruction_residuals(pg, c) for pg in geoms))
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
            lambda xw: np.abs(pg.metric.inners(*xw)) <= 0.99, planes,
            "horizontal plane with |g(x, w)| <= 0.99")
        values.extend(np.atleast_1d(pg.riem.sectional(x, w, tol=tol)).tolist())
    return values


def contact_residuals(pg: PointGeometry) -> tuple[float | np.ndarray, float | np.ndarray]:
    """Pair (sigma_min of the horizontal skew operator, absolute top-form
    coefficient of the contact volume): floats at a point, one value per
    row each over a stack."""
    b = operator_in_basis(pg.skew_projected, pg.horizontal_basis, pg.gram)
    sigma = np.linalg.svd(b, compute_uv=False)[..., -1]
    volume = abs(contact_volume_coefficient(pg.eta, pg.deta))
    return (float(sigma), volume) if sigma.ndim == 0 else (sigma, volume)
