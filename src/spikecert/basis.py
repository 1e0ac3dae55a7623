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
from typing import Callable

import numpy as np

from .interval import ZERO, IntervalMatrix, IntervalScalar, pow_seven_halves

__all__ = ["BasisModel", "reference_model"]


@dataclass(frozen=True)
class BasisModel:
    """Bundle of spectral callbacks; immutable, queries are pure.

    ``interaction(k, l, j)`` is the coefficient C_{klj} of mode j in the
    product of modes k and l.  It must be symmetric, C_{klj} = C_{lkj}, and
    zero off the triangle band |k-l| <= j <= k+l: the Jacobian assembly
    reads Q(e_m, c) and Q(c, e_m) from the same entries.
    ``interaction_matrix(k, N)`` is the N x N slice of that tensor for one
    source mode k, entry [j-1, m-1] = C_{kmj}, and ``interaction_row(k, l, n)``
    the 1 x n row of one pair, entry [0, j-1] = C_{klj}; both hold exactly
    the endpoints ``interaction`` gives.
    """

    diffusion_eig: Callable[[int], IntervalScalar]
    drift_eig: Callable[[int], IntervalScalar]
    interaction: Callable[[int, int, int], IntervalScalar]
    interaction_matrix: Callable[[int, int], IntervalMatrix]
    interaction_row: Callable[[int, int, int], IntervalMatrix]
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

    def interaction_matrix(k: int, N: int) -> IntervalMatrix:
        _check_index(k)
        _check_index(N)
        j = np.arange(1, N + 1)[:, None]
        m = np.arange(1, N + 1)[None, :]
        band = (np.abs(k - m) <= j) & (j <= k + m)
        # on the band |j - k - m| = k + m - j, which runs over 0 .. 2 min(k, N)
        table_lo, table_hi = quotients_to(2 * min(k, N))
        d = (k + m - j)[band]
        lo = np.zeros((N, N))
        hi = np.zeros((N, N))
        lo[band] = table_lo[d]
        hi[band] = table_hi[d]
        return IntervalMatrix(lo, hi)

    def interaction_row(k: int, l: int, n: int) -> IntervalMatrix:
        _check_index(k)
        _check_index(l)
        _check_index(n)
        lo = np.zeros((1, n))
        hi = np.zeros((1, n))
        first, last = max(1, abs(k - l)), min(k + l, n)
        if coupling != 0.0 and first <= last:
            # modes first..last sit at distances k + l - first down to k + l - last
            table_lo, table_hi = quotients_to(k + l - first)
            ds = slice(k + l - last, k + l - first + 1)
            lo[0, first - 1 : last] = table_lo[ds][::-1]
            hi[0, first - 1 : last] = table_hi[ds][::-1]
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
        interaction_matrix=interaction_matrix,
        interaction_row=interaction_row,
        interaction_bound=cpl,
        recovery_kernel=recovery_kernel,
    )


def _check_index(j: int) -> None:
    if not isinstance(j, int) or isinstance(j, bool) or j < 1:
        raise ValueError(f"mode index must be a positive integer, got {j!r}")
