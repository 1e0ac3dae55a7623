"""Certified inverse bounds and tail coercivity.

Two halves of the linearized-stability argument live here.  The first is
a residual test for the truncated Jacobian: given an approximate inverse
R, if the row-sum norm of E = I - R @ J is certifiably below one then J
is invertible and

    || J^{-1} || <= || R || / (1 - || E ||),

with every quantity an interval enclosure.  The second half controls the
modes the truncation cut off: past the audited support the interaction
term admits the envelope

    Inter(j) <= C_prof * j^{7/2} * e^{-tau*j} * sum_k |c_k| e^{tau*k},

so the diagonal growth nu*j^2 wins for every j beyond a finite window
once a single ratio test passes.  The window minimum is then a global
coercivity constant, which is what makes the finite residual test
sufficient for the full operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CertificationError
from .interval import (
    ONE,
    ZERO,
    IntervalMatrix,
    IntervalScalar,
    _chunks,
    as_nonneg,
    exp_iv,
    identity_minus,
    inf_norm,
    intpow_iv,
    point_times_interval,
    pow_seven_halves,
    sqrt_iv,
)
from .operator import OperatorConfig
from .spaces import ProfileCertificate


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
    E = I - R @ J.  A singular or non-finite midpoint inverse is a
    verdict (verified=False with a diagnostic), not an exception, since
    the certificate under audit may genuinely be bad.
    """
    if not isinstance(J, IntervalMatrix):
        raise CertificationError("certify_inverse expects an IntervalMatrix")
    n, m = J.shape
    if n != m:
        raise CertificationError(f"Jacobian must be square, got {n}x{m}")
    mid = J.midpoint()
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
    """The j-independent factor sum_k |c_k| e^{tau*k} of the envelope."""
    tau = IntervalScalar(cert.tau_audited, cert.tau_audited)
    total = ZERO
    for k, c in cert.coefficients.items():
        total = total + abs(c) * exp_iv(tau * float(k))
    return total


def interaction_envelope(cert: ProfileCertificate, C_prof, j: int) -> IntervalScalar:
    """Upper envelope for the interaction felt by mode j past the support.

    Valid only for j strictly above every audited mode: there the
    coupling weight is bounded by C_prof * j^{7/2} * e^{-tau*(j-k)} per
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
    tau = IntervalScalar(cert.tau_audited, cert.tau_audited)
    return cp * pow_seven_halves(j) * exp_iv(-(tau * float(j))) * _envelope_total(cert)


@dataclass(frozen=True)
class CoercivityReport:
    """Window scan plus tail argument for the diagonal-dominance constant."""

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
    window: int,
) -> CoercivityReport:
    """Certify nu*j^2 - Inter(j) >= gamma.lo for every j >= j_min.

    The scan takes the elementwise minimum over [j_min, j_min+window].
    Beyond the window the bound persists because nu*j^2 is increasing
    (needs nu > 0) while the envelope is decreasing: its one-step ratio
    e^{-tau} ((j+1)/j)^{7/2} is itself decreasing in j, so checking it
    once at j_min covers the whole tail.  Failed monotonicity is a
    verdict, not an exception.
    """
    if not isinstance(j_min, int) or j_min < 1:
        raise CertificationError(f"j_min must be a positive integer, got {j_min!r}")
    if not isinstance(window, int) or window < 0:
        raise CertificationError(f"window must be a nonnegative integer, got {window!r}")
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
    cp = as_nonneg(C_prof, "C_prof")
    tau = IntervalScalar(cert.tau_audited, cert.tau_audited)
    total = _envelope_total(cert)
    lo_min = np.inf
    hi_min = np.inf
    # nu*j^2 - interaction_envelope(j) over the window, a chunk of modes at a
    # time; each entry has the bits of the scalar expression, and the running
    # minima keep the first of equal values, as min() does
    for part in _chunks(j_min, j_min + window + 1):
        j = np.arange(part.start, part.stop)[None, :]
        val = nu * IntervalMatrix.from_point((j * j).astype(np.float64))
        if cert.coefficients.entries:  # else the envelope is ZERO, and x - ZERO is x
            jj = IntervalMatrix.from_point(j.astype(np.float64))
            val = val - cp * (jj.intpow(3) * jj.sqrt()) * (-(tau * jj)).exp() * total
        lo, hi = val.lo[0], val.hi[0]
        lo_min = min(lo_min, lo[np.argmin(lo)])
        hi_min = min(hi_min, hi[np.argmin(hi)])
    gamma = IntervalScalar(float(lo_min), float(hi_min))

    notes = []
    empty_profile = not cert.coefficients.entries
    if empty_profile:
        ratio_ok = True
    else:
        step = IntervalScalar(float(j_min + 1), float(j_min + 1)) / IntervalScalar(
            float(j_min), float(j_min)
        )
        ratio = exp_iv(-tau) * sqrt_iv(intpow_iv(step, 7))
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
        notes.append(f"window minimum lower bound {gamma.lo!r} is not positive")
    return CoercivityReport(
        gamma=gamma,
        j_min=j_min,
        monotone_tail_verified=monotone,
        verified=verified,
        diagnostic="; ".join(notes),
    )
