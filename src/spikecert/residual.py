"""Certified residual enclosure: finite block, quadratic spillover, and the
analytic envelope cross-check.

The residual splits by mode index at the truncation N.  Everything the
operator produces lives on modes 1..2N, so the "tail" is itself a finite
block and is summed outright; the exponential-envelope bound exists as an
independent, much cruder ceiling used to cross-check that summation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from .basis import recovery_kernel_bound
from .errors import CertificationError
from .interval import (
    ONE,
    ZERO,
    IntervalMatrix,
    IntervalScalar,
    exp_iv,
    intpow_iv,
    ln_iv,
    row_sum,
    sqrt_iv,
)
from .operator import OperatorConfig, apply_G
from .spaces import ProfileCertificate, WeightedSpace, weight_sq_row

__all__ = ["ResidualReport", "certify_residual", "tail_envelope_bound"]

_QUADRATURE_NOTE = (
    "structural zero: coefficients are contracted exactly in the model basis, "
    "no grid quadrature is performed"
)


@dataclass(frozen=True)
class ResidualReport:
    """Residual norm pieces: delta^2 = delta_fin^2 + delta_tail^2 by construction."""

    delta_fin: IntervalScalar
    delta_tail: IntervalScalar
    delta: IntervalScalar
    per_mode: Mapping[int, IntervalScalar] = field(default_factory=dict)
    quadrature: IntervalScalar = ZERO
    quadrature_note: str = _QUADRATURE_NOTE


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
    residual = apply_G(coeffs, cfg)
    N = cfg.truncation_N
    # the terms weight_sq(j) |r_j|^2 in descending j, tail modes j > N first;
    # each sum runs over its terms in that order, as the scalar loop did
    desc = sorted(residual.items(), reverse=True)
    r = IntervalMatrix.from_scalars([[rj for _, rj in desc]])
    a = abs(r)
    terms = weight_sq_row(np.array([j for j, _ in desc], dtype=np.int64), space) * a * a
    n_tail = sum(1 for j, _ in desc if j > N)
    sq_tail = row_sum(terms[:, :n_tail])
    sq_fin = row_sum(terms[:, n_tail:])
    delta_fin = sqrt_iv(sq_fin)
    delta_tail = sqrt_iv(sq_tail)
    delta = sqrt_iv(delta_fin * delta_fin + delta_tail * delta_tail)
    return ResidualReport(
        delta_fin=delta_fin,
        delta_tail=delta_tail,
        delta=delta,
        per_mode=dict(residual.items()),
    )


def tail_envelope_bound(
    cert: ProfileCertificate,
    cfg: OperatorConfig,
    space: WeightedSpace,
    amplitude: Optional[float] = None,
) -> IntervalScalar:
    """Analytic ceiling on the squared weighted tail sum_{j>N} w_j^2 |R_j|^2.

    Assumes every coefficient obeys |c_k| <= A e^{-tau_audited k}; with
    amplitude=None, A is fitted as the smallest such constant over the
    certificate's own modes, otherwise the given amplitude is verified first
    and a violating mode is reported by index.

    The bound is deliberately coarse (a few orders of slack at N=450); its
    job is to dominate the directly summed spillover block, not to be tight.
    """
    coeffs = cert.coefficients
    if len(coeffs) == 0:
        return ZERO
    tau = cert.tau_audited
    envelope_at = {}
    for k, ck in coeffs.items():
        growth = exp_iv(IntervalScalar(tau, tau) * float(k))
        envelope_at[k] = abs(ck) * growth
    if amplitude is None:
        a_up = max(e.hi for e in envelope_at.values())
    else:
        a_up = float(amplitude)
        for k, e in envelope_at.items():
            if e.hi > a_up:
                raise CertificationError(
                    f"mode {k} violates the coefficient envelope: "
                    f"|c_{k}| e^(tau k) reaches {e.hi:.6e} > A = {a_up:.6e}"
                )
    A = IntervalScalar(0.0, a_up)
    N = cfg.truncation_N
    cb = abs(cfg.model.interaction_bound)
    if cb.hi == 0.0:
        return ZERO
    kr_max = ZERO
    for k in range(1, N + 1):
        b = recovery_kernel_bound(cfg.model, k)
        if b.hi > kr_max.hi:
            kr_max = b
    if space.tau > tau:
        raise CertificationError(
            f"space rate {space.tau} exceeds the audited envelope rate {tau}; "
            "the envelope cannot dominate these weights"
        )
    one_minus = ONE - exp_iv(IntervalScalar(-tau, -tau))
    if one_minus.lo <= 0.0:
        raise CertificationError(
            f"audited decay rate tau={tau} is too small to sum the envelope"
        )
    # per-mode envelope: |R_j| <= D e^{-tau j} with
    # D = Cb (1 + 2 KRmax) A^2 N / (1 - e^{-tau})
    D = cb * (ONE + kr_max * 2.0) * A * A * float(N) / one_minus
    # the weights' exponential is absorbed by the envelope decay (any surplus
    # decay only helps, bounded by its value at the first tail mode), leaving
    # the polynomial part of the weight
    surplus = exp_iv(
        IntervalScalar(2.0 * (space.tau - tau), 2.0 * (space.tau - tau))
        * float(N + 1)
    )
    s_poly = ZERO
    s = space.s
    for j in range(2 * N, N, -1):
        base = intpow_iv(IntervalScalar(float(j), float(j)), 2) + 1.0
        if float(s).is_integer():
            s_poly = s_poly + intpow_iv(base, int(s))
        else:
            s_poly = s_poly + exp_iv(ln_iv(base) * s)
    bound = D * D * s_poly * surplus
    return IntervalScalar(0.0, bound.hi)
