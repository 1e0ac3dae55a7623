"""Pluggable spectral-symbol provider: the linear symbol, the interaction
tensor and the velocity-recovery kernel, each served as rows and slabs.

The certification pipeline only consumes bounds, so any basis exposing these
accessors works.  The bundled reference model uses closed forms chosen to
reproduce the growth and sparsity structure the estimates rely on: quadratic
diffusion eigenvalues, linear-in-j/2 drift, triangle-rule interactions with
harmonic falloff away from the j = k+l diagonal, and a k^{7/2} recovery
kernel.  The operator reads the eigenvalues and the kernel as 1 x len(modes)
rows and the tensor as one slab per source mode; the scalar ``interaction``
stays only as the oracles' reference and the hook a call tracer wraps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .interval import ZERO, IntervalScalar
from .matrix import IntervalMatrix, pow_seven_halves_row

__all__ = ["BasisModel", "reference_model"]


@dataclass(frozen=True)
class BasisModel:
    """Bundle of spectral accessors; immutable, queries are pure.

    ``diffusion_row(modes)``, ``drift_row(modes)`` and ``kernel_row(modes)``
    are the 1 x len(modes) rows of lambda_j, d_j and K_rec(j) over the mode
    list ``modes``, in its order.
    ``interaction(k, l, j)`` is the coefficient C_{klj} of mode j in the
    product of modes k and l.  It must be symmetric, C_{klj} = C_{lkj}, and
    zero for j > k+l: the operator forms G and its Jacobian from sums over
    the first index alone, which needs Q(u, v) = Q(v, u), and the quadratic
    form stops at mode 2N.
    ``interaction_block(k, ls, n)`` is the n x len(ls) slab of that tensor
    for one source mode k, entry [j-1, i] = C_{k, ls[i], j}, with exactly the
    endpoints ``interaction`` gives; the operator reads the tensor only
    through it.  The scalar ``interaction`` stays only as the reference the
    oracles compare against and as the hook a call tracer wraps.
    """

    diffusion_row: Callable[[Sequence[int]], IntervalMatrix]
    drift_row: Callable[[Sequence[int]], IntervalMatrix]
    interaction: Callable[[int, int, int], IntervalScalar]
    interaction_block: Callable[[int, Sequence[int], int], IntervalMatrix]
    interaction_bound: IntervalScalar
    kernel_row: Callable[[Sequence[int]], IntervalMatrix]


def reference_model(coupling: float, coupling_rec: float = None) -> BasisModel:
    """Deterministic reference basis.

    lambda_j = j^2, d_j = j/2, C_{klj} = coupling / (1 + |j-k-l|) inside the
    triangle band |k-l| <= j <= k+l and zero outside, K_rec(k) =
    coupling_rec * k^{7/2} (coupling_rec defaults to coupling).  lambda_j
    and d_j are exact floats.  The quotients and the recovery kernel are
    read from endpoint tables that grow on demand, formed with the
    IntervalMatrix twins of the scalar expressions, so each entry has the
    bits of the scalar one.
    """
    if coupling_rec is None:
        coupling_rec = coupling
    for name, x in (("coupling", coupling), ("coupling_rec", coupling_rec)):
        if not 0.0 <= x < math.inf:  # also refuses NaN
            raise ValueError(f"{name} must be finite and nonnegative, got {x!r}")
    cpl = IntervalScalar(coupling, coupling)
    crec = IntervalScalar(coupling_rec, coupling_rec)
    # q_lo[d], q_hi[d]: cpl / (1 + d), the interaction at distance
    # d = |j - k - l| from the band's top edge; grown on demand, each entry
    # computed once
    q_lo = q_hi = np.zeros(0)

    def quotients_to(d_max: int):
        nonlocal q_lo, q_hi
        if d_max >= q_lo.size:
            ds = np.arange(q_lo.size + 1, d_max + 2, dtype=np.float64)[None, :]
            q = cpl / IntervalMatrix.from_point(ds)
            q_lo = np.concatenate((q_lo, q.lo[0]))
            q_hi = np.concatenate((q_hi, q.hi[0]))
        return q_lo, q_hi

    # r_lo[k-1], r_hi[k-1]: K_rec(k) = crec * k^{7/2}, formed entrywise with
    # the bits of crec * pow_seven_halves(k); grown on demand to at least
    # twice its size and at least 512 entries, since a step of up to 512
    # entries costs about what one entry does (numpy's per-call overhead),
    # so a scan over k = 1, 2, ... takes O(log k) steps
    r_lo = r_hi = np.zeros(0)

    def kernels_to(k_max: int):
        nonlocal r_lo, r_hi
        if k_max > r_lo.size:
            top = max(k_max, 2 * r_lo.size, 512)
            ks = np.arange(r_lo.size + 1, top + 1, dtype=np.float64)
            r = crec * pow_seven_halves_row(IntervalMatrix.from_point(ks[None, :]))
            r_lo = np.concatenate((r_lo, r.lo[0]))
            r_hi = np.concatenate((r_hi, r.hi[0]))
        return r_lo, r_hi

    def diffusion_row(modes: Sequence[int]) -> IntervalMatrix:
        j = _mode_array(modes).astype(np.float64)[None, :]
        return IntervalMatrix.from_point(j * j)

    def drift_row(modes: Sequence[int]) -> IntervalMatrix:
        return IntervalMatrix.from_point(0.5 * _mode_array(modes)[None, :])

    def kernel_row(modes: Sequence[int]) -> IntervalMatrix:
        at = _mode_array(modes)[None, :] - 1
        lo, hi = kernels_to(int(at.max(initial=-1)) + 1)
        return IntervalMatrix(lo[at], hi[at])

    def interaction(k: int, l: int, j: int) -> IntervalScalar:
        _check_index(k)
        _check_index(l)
        _check_index(j)
        if coupling == 0.0 or not (abs(k - l) <= j <= k + l):
            return ZERO
        d = k + l - j
        lo, hi = quotients_to(d)
        return IntervalScalar(float(lo[d]), float(hi[d]))

    def interaction_block(k: int, ls: Sequence[int], n: int) -> IntervalMatrix:
        _check_index(k)
        l = _mode_array(ls)[None, :]
        _check_index(n)
        j = np.arange(1, n + 1)[:, None]
        band = (np.abs(k - l) <= j) & (j <= k + l)
        lo = np.zeros(band.shape)
        hi = np.zeros(band.shape)
        if band.any():
            d = (k + l - j)[band]
            table_lo, table_hi = quotients_to(int(d.max()))
            lo[band] = table_lo[d]
            hi[band] = table_hi[d]
        return IntervalMatrix(lo, hi)

    return BasisModel(
        diffusion_row=diffusion_row,
        drift_row=drift_row,
        interaction=interaction,
        interaction_block=interaction_block,
        interaction_bound=cpl,
        kernel_row=kernel_row,
    )


def _check_index(j: int) -> None:
    if not isinstance(j, int) or isinstance(j, bool) or j < 1:
        raise ValueError(f"mode index must be a positive integer, got {j!r}")


def _mode_array(modes: Sequence[int]) -> np.ndarray:
    """``modes`` as an intp array, every entry checked as _check_index does:
    all at once when each is exactly an int (so no bool) and none is below 1,
    otherwise one by one, to name the first bad index."""
    if not (set(map(type, modes)) <= {int} and min(modes, default=1) >= 1):
        for j in modes:
            _check_index(j)
    return np.array(modes, dtype=np.intp)
