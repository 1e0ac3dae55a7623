"""Certified residual enclosure: the finite block and the quadratic spillover.

The residual splits by mode index at the truncation N.  Everything the
operator produces lives on modes 1..2N, so the "tail" is itself a finite
block and is summed outright.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .interval import IntervalScalar, sqrt_iv
from .matrix import IntervalMatrix, row_sum
from .operator import OperatorConfig, _G_row
from .spaces import ProfileCertificate, WeightedSpace

__all__ = ["ResidualReport", "certify_residual", "weight_sq_row"]


def weight_sq_row(j: np.ndarray, space: WeightedSpace) -> IntervalMatrix:
    """The squared weight (1+j^2)^s e^{2 tau j} for each mode of an int array
    j, as a row; each entry has the bits of the scalar chain intpow_iv,
    exp_iv (or ln_iv for a fractional s) gives for its mode."""
    jf = IntervalMatrix.from_point(j[None, :].astype(np.float64))
    base = jf.intpow(2) + 1.0
    s = space.s
    if float(s).is_integer():
        poly = base.intpow(int(s))
    else:
        poly = (base.log() * s).exp()
    rate = IntervalScalar(2.0 * space.tau, 2.0 * space.tau) * jf
    return poly * rate.exp()


@dataclass(frozen=True)
class ResidualReport:
    """Residual norm pieces: delta^2 = delta_fin^2 + delta_tail^2 by construction."""

    delta_fin: IntervalScalar
    delta_tail: IntervalScalar
    delta: IntervalScalar


def certify_residual(
    cert: ProfileCertificate, cfg: OperatorConfig, space: WeightedSpace
) -> ResidualReport:
    """Enclose the weighted norm of G applied to the certificate profile.

    delta_fin collects modes 1..N, delta_tail the spillover N+1..2N, and
    delta is assembled literally as sqrt(delta_fin^2 + delta_tail^2) so the
    reported pieces recombine to the reported total.
    """
    coeffs = cert.coefficients
    if coeffs.entries and coeffs.support[-1] > cfg.truncation_N:
        raise ValueError(
            f"certificate mode {coeffs.support[-1]} exceeds truncation "
            f"N={cfg.truncation_N}"
        )
    residual = _G_row(coeffs, cfg)
    N = cfg.truncation_N
    # the terms weight_sq(j) |r_j|^2 over the modes where G is not exactly
    # [0, 0] (a zero adds exactly 0), in descending j, tail modes j > N
    # first; each sum runs over its terms in that order, as the scalar loop did
    at = np.flatnonzero((residual.lo[0] != 0.0) | (residual.hi[0] != 0.0))[::-1]
    a = abs(residual[:, at])
    terms = weight_sq_row(at + 1, space) * a * a
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
