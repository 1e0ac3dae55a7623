"""Certified residual enclosure: the finite block and the quadratic spillover.

The residual is measured in the profile space X = PROFILE_SPACE (s = 6,
tau = 0.08), the one space its weights are formed for.  It splits by mode
index at the truncation N.  Everything the operator produces lives on
modes 1..2N, so the "tail" is itself a finite block and is summed outright.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import MAX_MODES
from .interval import IntervalScalar, sqrt_iv
from .matrix import IntervalMatrix, endpoint_table, row_sum
from .operator import OperatorConfig, _check_support, _G_row
from .spaces import PROFILE_SPACE, ProfileCertificate

__all__ = ["ResidualReport", "certify_residual", "weight_sq_row"]


def _weight_sq_chain(jf: IntervalMatrix) -> IntervalMatrix:
    """(1+j^2)^s e^{2 tau j} of PROFILE_SPACE for a point row jf of modes,
    the matrix twin of the scalar chain intpow_iv, exp_iv for each mode."""
    poly = (jf.intpow(2) + 1.0).intpow(int(PROFILE_SPACE.s))
    rate = IntervalScalar(2.0 * PROFILE_SPACE.tau, 2.0 * PROFILE_SPACE.tau) * jf
    return poly * rate.exp()


# the weights of modes 1, 2, ... come from one endpoint table up to 2N for
# the command line's largest N: 4096, a power of two, so no table goes past
# it, and e^{2 tau j} is far inside the double range there (2 tau * 4096 <
# 656 < 709).  A row with a mode above it, or below 1, takes the chain on
# its own, whose exp raises where it overflows, naming the first such entry
# of that row.
_WEIGHT_MODES = 2 * MAX_MODES


def weight_sq_row(j: np.ndarray) -> IntervalMatrix:
    """The squared weight (1+j^2)^s e^{2 tau j} of PROFILE_SPACE (s = 6,
    tau = 0.08) for each mode of an int array j, as a row; each entry has
    the bits of the scalar chain intpow_iv, exp_iv gives for its mode."""
    top = int(j.max(initial=0))
    if top > _WEIGHT_MODES or int(j.min(initial=1)) < 1:
        return _weight_sq_chain(IntervalMatrix.from_point(j[None, :].astype(np.float64)))
    at = j[None, :] - 1
    lo, hi = endpoint_table(_weight_sq_chain, top)
    return IntervalMatrix(lo[at], hi[at])


@dataclass(frozen=True)
class ResidualReport:
    """Residual norm pieces: delta^2 = delta_fin^2 + delta_tail^2 by construction."""

    delta_fin: IntervalScalar
    delta_tail: IntervalScalar
    delta: IntervalScalar


def certify_residual(cert: ProfileCertificate, cfg: OperatorConfig) -> ResidualReport:
    """Enclose the PROFILE_SPACE norm of G applied to the certificate profile.

    delta_fin collects modes 1..N, delta_tail the spillover N+1..2N, and
    delta is assembled literally as sqrt(delta_fin^2 + delta_tail^2) so the
    reported pieces recombine to the reported total.
    """
    coeffs = cert.coefficients
    _check_support(coeffs, cfg, "certify_residual")
    residual = _G_row(coeffs, cfg)
    N = cfg.truncation_N
    # the terms weight_sq(j) |r_j|^2 over the modes where G is not exactly
    # [0, 0] (a zero adds exactly 0), in descending j, tail modes j > N
    # first; each sum runs over its terms in that order, as the scalar loop did
    at = np.flatnonzero((residual.lo[0] != 0.0) | (residual.hi[0] != 0.0))[::-1]
    a = abs(residual[:, at])
    terms = weight_sq_row(at + 1) * a * a
    n_tail = int(np.count_nonzero(at >= N))
    sq_tail = row_sum(terms[:, :n_tail])
    sq_fin = row_sum(terms[:, n_tail:])
    delta_fin = sqrt_iv(sq_fin)
    delta_tail = sqrt_iv(sq_tail)
    delta = sqrt_iv(delta_fin * delta_fin + delta_tail * delta_tail)
    return ResidualReport(
        delta_fin=delta_fin,
        delta_tail=delta_tail,
        delta=delta,
    )
