"""Certified residual enclosure: the finite block and the quadratic spillover.

The residual splits by mode index at the truncation N.  Everything the
operator produces lives on modes 1..2N, so the "tail" is itself a finite
block and is summed outright.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .interval import IntervalScalar, row_sum, sqrt_iv
from .operator import OperatorConfig, _absent, _G_row
from .spaces import ProfileCertificate, WeightedSpace, weight_sq_row

__all__ = ["ResidualReport", "certify_residual"]


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
    # the terms weight_sq(j) |r_j|^2 over the modes G reaches, in descending
    # j, tail modes j > N first; each sum runs over its terms in that order,
    # as the scalar loop did
    at = np.flatnonzero(~_absent(residual)[0])[::-1]
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
