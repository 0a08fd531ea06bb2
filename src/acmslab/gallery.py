"""Built-in example charts.

Three charts exercise the toolkit from opposite corners:

- ``s5``: the round unit 5-sphere sitting inside the nearly Kahler 6-sphere
  as the equator, in graph coordinates over the hemisphere where the sixth
  ambient coordinate is positive. The almost contact structure is induced
  by octonion cross multiplication; the Reeb gradient anticommutes with the
  endomorphism field and the structure is nearly cosymplectic.
- ``sasakian_r5``: the standard Sasakian structure on R^5 built from the
  Darboux contact form. Contact holds; the anticommutation condition fails
  with a constant residual because here the Reeb gradient commutes with the
  endomorphism field instead.
- ``cosymplectic_r5``: the flat product structure. The contact condition
  fails identically (the contact form is closed).

All components are expression strings fed through the chart file loader, so
the gallery doubles as a round-trip fixture for the file format.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .charts import Chart, chart_from_text

#: Oriented multiplication triples of the octonion imaginary units: for each
#: triple (i, j, k), e_i e_j = e_k and cyclic rotations.
FANO_TRIPLES = ((1, 2, 3), (1, 4, 5), (1, 7, 6), (2, 4, 6),
                (2, 5, 7), (3, 4, 7), (3, 6, 5))


@lru_cache(maxsize=1)
def cayley_structure_tensor() -> np.ndarray:
    """Structure constants c[a, b, k] of the cross product on R^7 (0-based),
    the pairing of e_a x e_b with e_k."""
    c = np.zeros((7, 7, 7))
    for (i, j, k) in FANO_TRIPLES:
        for a, b, out in ((i, j, k), (j, k, i), (k, i, j)):
            c[a - 1, b - 1, out - 1] = 1.0
            c[b - 1, a - 1, out - 1] = -1.0
    c.flags.writeable = False
    return c


# ---------------------------------------------------------------------------
# chart construction

_SQ = "(x1^2 + x2^2 + x3^2 + x4^2 + x5^2)"
_W = f"sqrt(1 - {_SQ})"


def _ambient_str(a: int) -> str | None:
    """Expression string for the a-th ambient coordinate (1-based) of the
    chart point; the seventh is identically zero on the equator."""
    if a <= 5:
        return f"x{a}"
    if a == 6:
        return _W
    return None


def _signed_sum(terms: list[tuple[float, str]]) -> str:
    out = ""
    for sign, body in terms:
        if not out:
            out = body if sign > 0 else f"-{body}"
        elif sign > 0:
            out += f" + {body}"
        else:
            out += f" - {body}"
    return out or "0"


@lru_cache(maxsize=1)
def _s5_text() -> str:
    c = cayley_structure_tensor()
    lines = ["dim = 5", "derivative_mode = symbolic"]
    for i in range(1, 6):
        lines.append(f"domain[{i}] = -0.35 0.35")
    for i in range(1, 6):
        for j in range(i, 6):
            prod = f"x{i}*x{j}/(1 - {_SQ})"
            lines.append(f"g[{i}][{j}] = " + (f"1 + {prod}" if i == j else prod))
    # phi columns are the tangential parts of p x (coordinate frame)
    for i in range(1, 6):
        for j in range(1, 6):
            terms: list[tuple[float, str]] = []
            for a in range(1, 8):
                val = c[a - 1, j - 1, i - 1]
                body = _ambient_str(a)
                if val != 0.0 and body is not None:
                    terms.append((val, body))
            for a in range(1, 8):
                val = c[a - 1, 5, i - 1]
                body = _ambient_str(a)
                if val != 0.0 and body is not None:
                    terms.append((-val, f"x{j}*{body}/{_W}"))
            if terms:
                lines.append(f"phi[{i}][{j}] = " + _signed_sum(terms))
    # xi is the cross product of the seventh unit vector with the point
    for i in range(1, 6):
        terms = []
        for b in range(1, 8):
            val = c[6, b - 1, i - 1]
            body = _ambient_str(b)
            if val != 0.0 and body is not None:
                terms.append((val, body))
        if terms:
            lines.append(f"xi[{i}] = " + _signed_sum(terms))
    for j in range(1, 6):
        terms = []
        for a in range(1, 8):
            val = c[a - 1, j - 1, 6]
            body = _ambient_str(a)
            if val != 0.0 and body is not None:
                terms.append((val, body))
        terms.append((1.0, f"x{j}*x1/{_W}"))
        lines.append(f"eta[{j}] = " + _signed_sum(terms))
    return "\n".join(lines) + "\n"


_SASAKIAN_TEXT = """\
# Darboux-form Sasakian structure on R^5; coordinates (x1, x2, x3, x4, x5)
# play the roles (x_1, x_2, y_1, y_2, z).
dim = 5
derivative_mode = symbolic
g[1][1] = (x3^2 + 1)/4
g[1][2] = x3*x4/4
g[1][5] = -x3/4
g[2][2] = (x4^2 + 1)/4
g[2][5] = -x4/4
g[3][3] = 1/4
g[4][4] = 1/4
g[5][5] = 1/4
phi[3][1] = -1
phi[4][2] = -1
phi[1][3] = 1
phi[5][3] = x3
phi[2][4] = 1
phi[5][4] = x4
xi[5] = 2
eta[1] = -x3/2
eta[2] = -x4/2
eta[5] = 1/2
"""

_COSYMPLECTIC_TEXT = """\
# Flat product structure on R^5: closed contact form, parallel tensors.
dim = 5
derivative_mode = symbolic
g[1][1] = 1
g[2][2] = 1
g[3][3] = 1
g[4][4] = 1
g[5][5] = 1
phi[3][1] = 1
phi[1][3] = -1
phi[4][2] = 1
phi[2][4] = -1
xi[5] = 1
eta[5] = 1
"""

GALLERY_NAMES = ("s5", "sasakian_r5", "cosymplectic_r5")


@lru_cache(maxsize=None)
def gallery_chart(name: str) -> Chart:
    if name == "s5":
        return chart_from_text(_s5_text(), name="s5")
    if name == "sasakian_r5":
        return chart_from_text(_SASAKIAN_TEXT, name="sasakian_r5")
    if name == "cosymplectic_r5":
        return chart_from_text(_COSYMPLECTIC_TEXT, name="cosymplectic_r5")
    raise KeyError(f"unknown gallery chart {name!r}; available: {', '.join(GALLERY_NAMES)}")
