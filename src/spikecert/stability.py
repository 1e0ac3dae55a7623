"""Certified inverse bounds and tail coercivity.

Two halves of the linearized-stability argument live here.  The first is
a residual test for the truncated Jacobian: given an approximate inverse
R, if the row-sum norm of E = I - R @ J is certifiably below one then J
is invertible and

    || J^{-1} || <= || R || / (1 - || E ||),

with every quantity an interval enclosure.  The second half controls the
modes the truncation cut off: past the audited support the interaction
term admits the envelope

    Inter(j) <= C_prof * j^{7/2} * e^{-tau_X*j} * sum_k |c_k| e^{tau_X*k},

with the rate tau_X = PROFILE_SPACE.tau of the profile space X, and once
its one-step ratio is below one at j_min (and nu > 0) the gap
nu*j^2 - Inter(j) increases for every j >= j_min.  Its value at j_min is
then a global coercivity constant, which is what makes the finite
residual test sufficient for the full operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CertificationError
from .interval import (
    ONE,
    ZERO,
    IntervalScalar,
    as_nonneg,
    decay_ratio,
    exp_iv,
    pow_seven_halves,
)
from .matrix import IntervalMatrix, identity_minus, inf_norm, point_times_interval
from .operator import OperatorConfig
from .spaces import PROFILE_SPACE, ProfileCertificate

# the rate tau_X of the profile space X, the only rate of the tail envelope
_TAU = IntervalScalar(PROFILE_SPACE.tau, PROFILE_SPACE.tau)


@dataclass(frozen=True)
class InverseReport:
    """Outcome of the approximate-inverse residual test; a value that was
    never formed is None."""

    verified: bool
    R_norm: Optional[IntervalScalar] = None
    E_norm: Optional[IntervalScalar] = None
    M: Optional[IntervalScalar] = None
    diagnostic: str = ""


def _bound_report(r_norm: IntervalScalar, e_norm: IntervalScalar) -> InverseReport:
    if e_norm.hi < 1.0:
        m = r_norm / (ONE - e_norm)
        return InverseReport(R_norm=r_norm, E_norm=e_norm, M=m, verified=True)
    return InverseReport(
        R_norm=r_norm,
        E_norm=e_norm,
        verified=False,
        diagnostic=(
            f"residual norm upper bound {e_norm.hi!r} is not below one; "
            "the inverse is not certified"
        ),
    )


def inverse_bound_from_norms(r_norm, e_norm) -> InverseReport:
    """Inverse bound from already-certified norms of R and I - R @ J.

    This is the reduction step alone, for audits that receive the two
    norms from an external computation instead of the matrices.
    """
    return _bound_report(
        as_nonneg(r_norm, "norm of the approximate inverse"),
        as_nonneg(e_norm, "residual norm"),
    )


def certify_inverse(J: IntervalMatrix) -> InverseReport:
    """Certify invertibility of every point matrix inside J.

    The candidate inverse is the float64 inverse of the midpoint matrix;
    the certification itself never trusts it, only the interval residual
    E = I - R @ J.  A Jacobian midpoint that is not finite, or a singular
    or non-finite midpoint inverse, is a verdict (verified=False with a
    diagnostic), not an exception, since the certificate under audit may
    genuinely be bad.
    """
    if not isinstance(J, IntervalMatrix):
        raise CertificationError("certify_inverse expects an IntervalMatrix")
    n, m = J.shape
    if n != m:
        raise CertificationError(f"Jacobian must be square, got {n}x{m}")
    mid = J.midpoint()
    if not np.isfinite(mid).all():
        return InverseReport(
            verified=False,
            diagnostic="Jacobian midpoint has non-finite entries; no candidate inverse",
        )
    try:
        R = np.linalg.inv(mid)
    except np.linalg.LinAlgError:
        return InverseReport(
            verified=False, diagnostic="midpoint matrix is singular; no candidate inverse"
        )
    if not np.isfinite(R).all():
        return InverseReport(
            verified=False, diagnostic="midpoint inverse overflowed; no candidate inverse"
        )
    e_norm = inf_norm(identity_minus(point_times_interval(R, J)))
    r_norm = inf_norm(IntervalMatrix.from_point(R))
    return _bound_report(r_norm, e_norm)


def _envelope_total(cert: ProfileCertificate) -> IntervalScalar:
    """The j-independent factor sum_k |c_k| e^{tau_X*k} of the envelope."""
    total = ZERO
    for k, c in cert.coefficients.items():
        total = total + abs(c) * exp_iv(_TAU * float(k))
    return total


def interaction_envelope(cert: ProfileCertificate, C_prof, j: int) -> IntervalScalar:
    """Upper envelope for the interaction felt by mode j past the support.

    Valid only for j strictly above every audited mode: there the
    coupling weight is bounded by C_prof * j^{7/2} * e^{-tau_X*(j-k)} per
    source mode k, and the k-sum factors out as a j-independent total.
    """
    if not isinstance(j, int) or isinstance(j, bool):
        raise CertificationError(f"mode index must be an integer, got {j!r}")
    top = cert.coefficients.max_mode
    if j <= top:
        raise CertificationError(
            f"envelope only covers indices past the audited support "
            f"(j={j} but modes reach {top})"
        )
    cp = as_nonneg(C_prof, "C_prof")
    if not cert.coefficients.entries:
        return ZERO
    return cp * pow_seven_halves(j) * exp_iv(-(_TAU * float(j))) * _envelope_total(cert)


@dataclass(frozen=True)
class CoercivityReport:
    """The coercivity gap at j_min and the tail argument that makes it global."""

    gamma: IntervalScalar
    j_min: int
    monotone_tail_verified: bool = False
    verified: bool = False
    diagnostic: str = ""


def certify_tail_coercivity(
    cert: ProfileCertificate,
    cfg: OperatorConfig,
    C_prof,
    j_min: int,
) -> CoercivityReport:
    """Certify nu*j^2 - Inter(j) >= gamma.lo for every j >= j_min.

    gamma is the gap at j_min alone.  It bounds the whole tail because
    nu*j^2 is increasing (needs nu > 0) while the envelope is decreasing
    once its one-step ratio e^{-tau_X} ((j+1)/j)^{7/2} is below one; that
    ratio is itself decreasing in j, so checking it once at j_min covers
    every later mode, and the gap is smallest at j_min.  Failed
    monotonicity is a verdict, not an exception.
    """
    if not isinstance(j_min, int) or j_min < 1:
        raise CertificationError(f"j_min must be a positive integer, got {j_min!r}")
    if j_min <= cfg.truncation_N:
        raise CertificationError(
            f"j_min={j_min} must exceed the truncation N={cfg.truncation_N}"
        )
    if j_min <= cert.coefficients.max_mode:
        raise CertificationError(
            f"j_min={j_min} must exceed the last audited mode "
            f"{cert.coefficients.max_mode}"
        )
    nu = cfg.nu
    gamma = nu * float(j_min * j_min) - interaction_envelope(cert, C_prof, j_min)

    notes = []
    ratio_ok = True  # an empty profile has no envelope to decay
    if cert.coefficients.entries:
        ratio = decay_ratio(j_min, _TAU)
        ratio_ok = ratio.hi < 1.0
        if not ratio_ok:
            notes.append(
                f"envelope ratio bound {ratio.hi!r} at j={j_min} is not below one"
            )
    increasing_ok = nu.lo > 0.0
    if not increasing_ok:
        notes.append(f"nu lower bound {nu.lo!r} is not positive")
    monotone = ratio_ok and increasing_ok
    verified = monotone and gamma.lo > 0.0
    if monotone and not verified:
        notes.append(f"coercivity lower bound {gamma.lo!r} at j={j_min} is not positive")
    return CoercivityReport(
        gamma=gamma,
        j_min=j_min,
        monotone_tail_verified=monotone,
        verified=verified,
        diagnostic="; ".join(notes),
    )
