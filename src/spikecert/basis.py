"""Pluggable spectral-symbol provider: eigenvalues, interaction coefficients,
and the velocity-recovery kernel.

The certification pipeline only consumes bounds, so any basis exposing these
callbacks works.  The bundled reference model uses closed forms chosen to
reproduce the growth and sparsity structure the estimates rely on: quadratic
diffusion eigenvalues, linear-in-j/2 drift, triangle-rule interactions with
harmonic falloff away from the j = k+l diagonal, and a k^{7/2} recovery
kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .interval import ZERO, IntervalMatrix, IntervalScalar, pow_seven_halves

__all__ = ["BasisModel", "reference_model"]


@dataclass(frozen=True)
class BasisModel:
    """Bundle of spectral callbacks; immutable, queries are pure.

    ``interaction(k, l, j)`` is the coefficient C_{klj} of mode j in the
    product of modes k and l.  It must be symmetric, C_{klj} = C_{lkj}, and
    zero for j > k+l: the Jacobian assembly reads Q(e_m, c) and Q(c, e_m)
    from the same entries, and the quadratic form stops at mode 2N.
    ``interaction_block(k, ls, n)`` is the n x len(ls) slab of that tensor
    for one source mode k, entry [j-1, i] = C_{k, ls[i], j}, with exactly the
    endpoints ``interaction`` gives; the operator reads the tensor only
    through it.  The scalar ``interaction`` stays only as the reference the
    oracles compare against and as the hook a call tracer wraps.
    """

    diffusion_eig: Callable[[int], IntervalScalar]
    drift_eig: Callable[[int], IntervalScalar]
    interaction: Callable[[int, int, int], IntervalScalar]
    interaction_block: Callable[[int, Sequence[int], int], IntervalMatrix]
    interaction_bound: IntervalScalar
    recovery_kernel: Callable[[int], IntervalScalar]


def reference_model(coupling: float, coupling_rec: float = None) -> BasisModel:
    """Deterministic reference basis.

    lambda_j = j^2, d_j = j/2, C_{klj} = coupling / (1 + |j-k-l|) inside the
    triangle band |k-l| <= j <= k+l and zero outside, K_rec(k) =
    coupling_rec * k^{7/2} (coupling_rec defaults to coupling).
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

    def diffusion_eig(j: int) -> IntervalScalar:
        _check_index(j)
        return IntervalScalar(float(j) * float(j), float(j) * float(j))

    def drift_eig(j: int) -> IntervalScalar:
        _check_index(j)
        return IntervalScalar(0.5 * j, 0.5 * j)

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
        for l in ls:
            _check_index(l)
        _check_index(n)
        j = np.arange(1, n + 1)[:, None]
        l = np.array(ls, dtype=np.intp).reshape(1, -1)
        band = (np.abs(k - l) <= j) & (j <= k + l)
        lo = np.zeros(band.shape)
        hi = np.zeros(band.shape)
        if band.any():
            d = (k + l - j)[band]
            table_lo, table_hi = quotients_to(int(d.max()))
            lo[band] = table_lo[d]
            hi[band] = table_hi[d]
        return IntervalMatrix(lo, hi)

    def recovery_kernel(k: int) -> IntervalScalar:
        _check_index(k)
        if coupling_rec == 0.0:
            return ZERO
        return crec * pow_seven_halves(k)

    return BasisModel(
        diffusion_eig=diffusion_eig,
        drift_eig=drift_eig,
        interaction=interaction,
        interaction_block=interaction_block,
        interaction_bound=cpl,
        recovery_kernel=recovery_kernel,
    )


def _check_index(j: int) -> None:
    if not isinstance(j, int) or isinstance(j, bool) or j < 1:
        raise ValueError(f"mode index must be a positive integer, got {j!r}")
