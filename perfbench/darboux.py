"""Darboux-form Sasakian charts on R^{2n+1}, written as chart-file text.

Coordinates (x1..xn, x{n+1}..x{2n}, x{2n+1}) play the roles
(x_1..x_n, y_1..y_n, z). The structure is

    eta = 1/2 (dz - sum y_i dx_i),   g = eta (x) eta + 1/4 sum (dx_i^2 + dy_i^2),
    xi = 2 d/dz,   phi(d/dx_i) = -d/dy_i,   phi(d/dy_i) = d/dx_i + y_i d/dz,

the standard Sasakian structure of Blair, *Riemannian Geometry of Contact
and Symplectic Manifolds*, 2nd ed., 2010. The answers `validate` must give
on it are known by hand: phi anticommutes with nothing (the Reeb gradient
is -phi, so the anticommutator is 2(I - eta (x) xi), max-norm 2), the
horizontal skew operator has unit singular values, and the contact volume
coefficient of eta ^ (d eta)^n is n! / 2^(2n+1).
"""
from __future__ import annotations

import math


def darboux_sasakian_text(n: int) -> str:
    """Chart text of the Darboux Sasakian structure on R^{2n+1}."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    d = 2 * n + 1
    y = [f"x{n + i}" for i in range(1, n + 1)]
    lines = [f"# Darboux-form Sasakian structure on R^{d}", f"dim = {d}",
             "derivative_mode = symbolic"]
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            if i == j:
                lines.append(f"g[{i}][{i}] = ({y[i - 1]}^2 + 1)/4")
            else:
                lines.append(f"g[{i}][{j}] = {y[i - 1]}*{y[j - 1]}/4")
        lines.append(f"g[{i}][{d}] = -{y[i - 1]}/4")
    for i in range(n + 1, d + 1):
        lines.append(f"g[{i}][{i}] = 1/4")
    for i in range(1, n + 1):
        lines.append(f"phi[{n + i}][{i}] = -1")
        lines.append(f"phi[{i}][{n + i}] = 1")
        lines.append(f"phi[{d}][{n + i}] = {y[i - 1]}")
    lines.append(f"xi[{d}] = 2")
    for i in range(1, n + 1):
        lines.append(f"eta[{i}] = -{y[i - 1]}/2")
    lines.append(f"eta[{d}] = 1/2")
    return "\n".join(lines) + "\n"


def contact_volume(n: int) -> float:
    """Hand-derived coefficient of eta ^ (d eta)^n on the coordinate frame."""
    return math.factorial(n) / 2.0 ** (2 * n + 1)


def self_check() -> None:
    """Raise unless the n = 2 chart reproduces the gallery's sasakian_r5
    expression for expression."""
    from acmslab.charts import chart_from_text
    from acmslab.gallery import gallery_chart

    ours = chart_from_text(darboux_sasakian_text(2))
    ref = gallery_chart("sasakian_r5")
    for field in ("dim", "g", "phi", "xi", "eta", "mode", "domain"):
        if getattr(ours, field) != getattr(ref, field):
            raise AssertionError(f"Darboux generator at n = 2 differs from "
                                 f"gallery sasakian_r5 in {field}")
