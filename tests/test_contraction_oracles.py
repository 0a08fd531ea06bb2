"""Each batched contraction against the `np.einsum` formula it replaced.

The einsum specs below are the oracle: every rewritten function must agree
with its spec to 1e-13 of the largest entry, on random stacks with no, one
and two leading axes, at d = 3, 5 and 13 (the paper's charts live in
dimension 4n + 1). The random operands carry no symmetry, so a rewrite
that leans on one (the inverse metric's, say) fails here."""
import numpy as np
import pytest

from acmslab.charts import (christoffel, christoffel_derivative, nabla_phi, nabla_xi,
                            sample_points)
from acmslab.curvature import PointGeometry, _assemble_curvature, riemann
from acmslab.errors import DegenerateInputError
from acmslab.gallery import gallery_chart
from acmslab.linalg import max_entry
from acmslab.structure import check_eta_parallel

CASES = [(lead, d) for lead in [(), (4,), (2, 3)] for d in (3, 5, 13)]


def _agree(got, want, scale=None):
    """Agreement to 1e-13 of ``scale``, by default the largest entry of want."""
    assert got.shape == want.shape
    scale = np.max(np.abs(want)) if scale is None else scale
    assert np.max(np.abs(got - want)) <= 1e-13 * scale


def _lowered(dg):
    """term[..., i, j, l] = dg[..., i, j, l] + dg[..., j, i, l] - dg[..., l, i, j]."""
    return dg + np.einsum("...jil->...ijl", dg) - np.einsum("...lij->...ijl", dg)


def _old_assemble(gam, dgam):
    return (np.einsum("...kilj->...ijkl", dgam) - np.einsum("...likj->...ijkl", dgam)
            + np.einsum("...ikm,...mlj->...ijkl", gam, gam)
            - np.einsum("...ilm,...mkj->...ijkl", gam, gam))


@pytest.fixture(params=CASES, ids=lambda case: f"lead{case[0]}-d{case[1]}")
def stack(request):
    lead, d = request.param
    rng = np.random.default_rng(d + 10 * len(lead))
    return lead, d, lambda *shape: rng.standard_normal(lead + shape)


def test_christoffel(stack):
    _, d, draw = stack
    ginv, dg = draw(d, d), draw(d, d, d)
    _agree(christoffel(ginv, dg), 0.5 * np.einsum("...kl,...ijl->...kij", ginv, _lowered(dg)))


def test_christoffel_derivative(stack):
    _, d, draw = stack
    ginv, dg, ddg = draw(d, d), draw(d, d, d), draw(d, d, d, d)
    dginv = -np.einsum("...ka,...mab,...bl->...mkl", ginv, dg, ginv)
    want = (0.5 * np.einsum("...mkl,...ijl->...mkij", dginv, _lowered(dg))
            + 0.5 * np.einsum("...kl,...mijl->...mkij", ginv, _lowered(ddg)))
    _agree(christoffel_derivative(ginv, dg, ddg), want)


def test_nabla_xi(stack):
    _, d, draw = stack
    gam, xi, dxi = draw(d, d, d), draw(d), draw(d, d)
    _agree(nabla_xi(gam, xi, dxi),
           dxi.swapaxes(-1, -2) + np.einsum("...ijk,...k->...ij", gam, xi))


def test_nabla_phi(stack):
    _, d, draw = stack
    gam, phi, dphi = draw(d, d, d), draw(d, d), draw(d, d, d)
    _agree(nabla_phi(gam, phi, dphi),
           dphi + np.einsum("...jil,...lk->...ijk", gam, phi)
           - np.einsum("...lik,...jl->...ijk", gam, phi))


def test_check_eta_parallel(stack):
    lead, d, draw = stack
    table, gram, basis = draw(d, d, d), draw(d, d), draw(d, d - 1)
    lowered = np.einsum("...ijk,...jl->...ilk", table, gram)
    resid = np.einsum("...alk,...lb->...abk",
                      np.einsum("...ia,...ilk->...alk", basis, lowered),
                      basis) @ basis[..., None, :, :]
    want = np.asarray(max_entry(resid, 3))
    got = np.asarray(check_eta_parallel(table, gram, basis))
    assert got.shape == lead
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(want)


def test_assemble_curvature_is_c_ordered(stack):
    _, d, draw = stack
    gam, dgam = draw(d, d, d), draw(d, d, d, d)
    got = _assemble_curvature(gam, dgam)
    assert got.flags.c_contiguous
    _agree(got, _old_assemble(gam, dgam))


def test_riemann_gates(stack):
    # random symbols satisfy neither identity: riemann raises with the
    # gate values of the first point, as the einsum permutations give them
    _, d, draw = stack
    gam, dgam = draw(d, d, d), draw(d, d, d, d)
    comps = riemann(gam, dgam, np.inf)
    _agree(comps, _old_assemble(gam, dgam))
    comps = comps.reshape((-1,) + (d,) * 4)[0]
    anti = max_entry(comps + np.einsum("ijlk->ijkl", comps))
    bianchi = max_entry(comps + np.einsum("iklj->ijkl", comps)
                        + np.einsum("iljk->ijkl", comps))
    with pytest.raises(DegenerateInputError) as raised:
        riemann(gam, dgam, 1e-300)
    assert f"antisymmetry {anti:.3e}, first Bianchi {bianchi:.3e}" in str(raised.value)


@pytest.mark.parametrize("name", ["s5", "sasakian_r5"])
def test_modified_nphi_is_the_two_einsum_formula(name):
    chart = gallery_chart(name)
    pg = PointGeometry(chart, sample_points(chart, 4, 7))
    h, phi = pg.correction, pg.phi
    terms = (pg.nphi, np.einsum("...jil,...lk->...ijk", h, phi),
             np.einsum("...jl,...lik->...ijk", phi, h))
    # the modified derivative nearly vanishes on these charts: scale by the terms
    _agree(pg.modified_nphi, terms[0] + terms[1] - terms[2],
           max(np.max(np.abs(t)) for t in terms))
