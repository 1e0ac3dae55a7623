"""Pluggable spectral-symbol provider: the linear symbol, the interaction
tensor and the velocity-recovery kernel, each served as rows and slabs.

The certification pipeline only consumes bounds, so any basis exposing these
accessors works.  The bundled reference model uses closed forms chosen to
reproduce the growth and sparsity structure the estimates rely on: quadratic
diffusion eigenvalues, linear-in-j/2 drift, triangle-rule interactions with
harmonic falloff away from the j = k+l diagonal, and a k^{7/2} recovery
kernel.  The operator reads the eigenvalues and the kernel as 1 x len(modes)
rows and the tensor as one slab per source mode, already split into the
midpoint and radius arrays it sums (``matrix._mid_rad``'s split); the
scalar ``interaction`` stays only as the oracles' reference and the hook a
call tracer wraps.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .interval import ZERO, IntervalError, IntervalScalar
from .matrix import IntervalMatrix, _mid_rad, endpoint_table, pow_seven_halves_row

__all__ = ["BasisModel", "reference_model"]


def _quotient_table(coupling: float, need: int):
    """(mid, rad) of the quotients coupling / (1 + d) at index d < n, the
    interaction at distance d = k + l - j from the band's top edge, n the
    least power of two at or above ``need``, and a zero slot, (0.0, 0.0), at
    index n: read-only arrays formed whole, as endpoint_table forms its
    tables, split by matrix._mid_rad, and kept in a bounded cache that
    serves them to every model of the process.  -0.0 and +0.0 hash and
    compare equal and share a table, whose quotients are +0.0 for both."""
    return _split_table(coupling, 1 << max(need - 1, 0).bit_length())


@functools.lru_cache(maxsize=32)
def _split_table(coupling: float, n: int):
    one_plus_d = IntervalMatrix.from_point(np.arange(1.0, n + 1.0)[None, :])
    mid, rad, unbounded = _mid_rad(IntervalScalar(coupling, coupling) / one_plus_d)
    # a finite coupling over 1 + d >= 1 leaves every quotient finite
    if unbounded.any() or not np.isfinite(rad).all():
        raise IntervalError("quotient table has an unbounded entry")
    ends = (np.append(mid[0], 0.0), np.append(rad[0], 0.0))
    for a in ends:
        a.flags.writeable = False
    return ends


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
    ``interaction_block(k, ls, n)`` is the len(ls) x n slab of that tensor
    for one source mode k, entry [i, j-1] = C_{k, ls[i], j}, so mode j runs
    along contiguous memory, served split as two fresh float arrays
    ``(mid, rad)`` that the caller may overwrite: entry by entry
    ``matrix._mid_rad``'s split of the interval ``interaction``, except that
    an entry with an infinite endpoint has mid = 0 and rad = inf.  The
    operator reads the tensor only through it.  The scalar ``interaction``
    stays only as the reference the oracles compare against and as the hook
    a call tracer wraps.
    """

    diffusion_row: Callable[[Sequence[int]], IntervalMatrix]
    drift_row: Callable[[Sequence[int]], IntervalMatrix]
    interaction: Callable[[int, int, int], IntervalScalar]
    interaction_block: Callable[[int, Sequence[int], int], tuple]
    interaction_bound: IntervalScalar
    kernel_row: Callable[[Sequence[int]], IntervalMatrix]


def reference_model(coupling: float, coupling_rec: float = None) -> BasisModel:
    """Deterministic reference basis.

    lambda_j = j^2, d_j = j/2, C_{klj} = coupling / (1 + |j-k-l|) inside the
    triangle band |k-l| <= j <= k+l and zero outside, K_rec(k) =
    coupling_rec * k^{7/2} (coupling_rec defaults to coupling).  lambda_j
    and d_j are exact floats.  The rows read k^{7/2} from
    ``endpoint_table``, formed with the IntervalMatrix twins of the scalar
    expressions, so each entry has the bits of the scalar one.  The slabs
    read the quotients coupling / (1 + d) from one split table per
    coupling (``_quotient_table``), formed with the IntervalMatrix twin of
    the scalar quotient and shared by every model of the process, so each
    entry has the bits of the split scalar quotient; the scalar
    ``interaction`` forms its quotient on its own.
    """
    if coupling_rec is None:
        coupling_rec = coupling
    for name, x in (("coupling", coupling), ("coupling_rec", coupling_rec)):
        if not 0.0 <= x < math.inf:  # also refuses NaN
            raise ValueError(f"{name} must be finite and nonnegative, got {x!r}")
    cpl = IntervalScalar(coupling, coupling)
    crec = IntervalScalar(coupling_rec, coupling_rec)

    def diffusion_row(modes: Sequence[int]) -> IntervalMatrix:
        j = _mode_array(modes).astype(np.float64)[None, :]
        return IntervalMatrix.from_point(j * j)

    def drift_row(modes: Sequence[int]) -> IntervalMatrix:
        return IntervalMatrix.from_point(0.5 * _mode_array(modes)[None, :])

    def kernel_row(modes: Sequence[int]) -> IntervalMatrix:
        # crec * k^{7/2} entry by entry: the bits of crec * pow_seven_halves(k)
        at = _mode_array(modes)[None, :] - 1
        lo, hi = endpoint_table(pow_seven_halves_row, int(at.max(initial=-1)) + 1)
        return crec * IntervalMatrix(lo[at], hi[at])

    def interaction(k: int, l: int, j: int) -> IntervalScalar:
        _check_index(k)
        _check_index(l)
        _check_index(j)
        if coupling == 0.0 or not (abs(k - l) <= j <= k + l):
            return ZERO
        return cpl / float(1 + k + l - j)

    def interaction_block(k: int, ls: Sequence[int], n: int):
        _check_index(k)
        l = _mode_array(ls)
        _check_index(n)
        # every d = k + l - j in the band is below k + max(ls) <= 2 max(k, ls)
        mid, rad = _quotient_table(coupling, 2 * max(k, int(l.max(initial=0))))
        d = (k + l)[:, None] - np.arange(1, n + 1)
        # |k - l| <= j <= k + l iff 0 <= d <= 2 min(k, l); read unsigned, a
        # negative d lies above every bound, so one test sends both sides
        # of the band to the zero slot
        outside = d.view(np.uintp) > (2 * np.minimum(k, l)).astype(np.uintp)[:, None]
        np.copyto(d, mid.size - 1, where=outside)
        return mid.take(d), rad.take(d)

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
