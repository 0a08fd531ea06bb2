"""How fast this machine runs the program right now, from fixed reference
kernels.

On a shared host the speed of this single-threaded program drifts by up to
half over tens of seconds to minutes, which swamps any per-run median.
Each workload process therefore runs its kernel a few times after every op
(outside the op's timing) and after set-up; each op time is scaled by the
kernel times on either side of it (`scale`), and set-up by those after it
(`factor`), i.e. reported in seconds at the speed the kernel had when the
benchmark was defined. The raw times are kept next to the scaled ones in
every result file.

Different code slows down by different amounts in the host's slow phases,
so each workload uses the kernel whose slowdown tracks its ops best. Over
90-120 s of ops on the defining machine, in blocks of 8 ops, the log-log
slope of op time against kernel time was:

    workload          tree    array
    identities_s5     1.49    1.14
    fd_s5             1.46    1.13
    validate (d=3)    1.13    0.74
    lemma (dim 16)    0.75    0.60

so the s5 workloads use `array` and the others `tree`; a slope of 1 means
the scaling removes the drift. The kernels are the benchmark's own code
and call nothing in acmslab, so a change to the program cannot move them.
"""
from __future__ import annotations

import statistics
import time


def _tree(depth: int, k: int):
    if depth == 0:
        return ("x", k % 5) if k % 3 else ("c", 0.5 + k % 7)
    return ("+-*/"[k % 4], _tree(depth - 1, 2 * k + 1), _tree(depth - 1, 2 * k + 2))


_TREE = _tree(9, 0)
_POINT = (0.1, 0.2, 0.3, 0.4, 0.5)


def _walk(e) -> float:
    tag = e[0]
    if tag == "c":
        return e[1]
    if tag == "x":
        return _POINT[e[1]]
    a, b = _walk(e[1]), _walk(e[2])
    if tag == "+":
        return a + b
    if tag == "-":
        return a - b
    if tag == "*":
        return a * b
    return a / b if b != 0.0 else a


def tree_kernel() -> float:
    """Seconds to walk a fixed 1023-node arithmetic tree 20 times: pure
    interpreter work."""
    t0 = time.perf_counter()
    for _ in range(20):
        _walk(_TREE)
    return time.perf_counter() - t0


def array_kernel() -> float:
    """Seconds for 40 rounds of small-array work shaped like a chart
    point: fill a 5x5 matrix entry by entry, invert it, and contract it
    with a 5x5x5 table."""
    import numpy as np  # loaded by the program already; keeps set-up timing honest

    t0 = time.perf_counter()
    for i in range(40):
        a = np.asarray([float(i), 1.0, 2.0, 3.0, 4.0])
        m = np.empty((5, 5))
        for r in range(5):
            for c in range(5):
                m[r, c] = a[r] * 0.01 + (1.0 if r == c else 0.0)
        inv = np.linalg.inv(m)
        d = np.zeros((5, 5, 5))
        d[i % 5] = inv
        term = d + np.transpose(d, (1, 0, 2)) - np.transpose(d, (1, 2, 0))
        x = 0.5 * np.einsum("kl,ijl->kij", inv, term)
        _ = f"{float(np.max(np.abs(x - np.einsum('ijk->ikj', x)))):.3g}"
    return time.perf_counter() - t0


#: kernel name -> (kernel, mean seconds on the defining machine: a 2-vCPU
#: KVM guest on an Intel Xeon Sapphire Rapids host, CPython 3.11.7,
#: numpy 2.4.6)
KERNELS = {"tree": (tree_kernel, 0.0035), "array": (array_kernel, 0.0021)}


def factor(kernel: str, samples: list[float]) -> float:
    """Scale from this process's seconds to reference seconds. The host
    flips between a fast and a slow state, so the mean, which is linear in
    the time spent slow, tracks a slowdown; a median would jump between
    the two states."""
    return KERNELS[kernel][1] / statistics.mean(samples)


def scale(kernel: str, op_s: list[float], probe_s: list[float]) -> list[float]:
    """Op times in reference seconds. ``probe_s[i]`` is the mean kernel
    time measured right after op i, so op i is scaled by the mean of the
    kernel times before and after it (op 0 by those after it)."""
    around = [probe_s[0]] + [(a + b) / 2 for a, b in zip(probe_s, probe_s[1:])]
    return [t * KERNELS[kernel][1] / p for t, p in zip(op_s, around)]
