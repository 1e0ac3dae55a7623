"""Certified inverse bounds and tail coercivity.

Two halves of the linearized-stability argument live here.  The first is
a residual test for the truncated Jacobian: given an approximate inverse
R, if the row-sum norm of E = I - R @ J is certifiably below one then J
is invertible and

    || J^{-1} || <= || R || / (1 - || E ||),

with every quantity an interval enclosure.  ||E|| is bounded in one
midpoint-radius pass over the three float products R @ mid J, |R| @ rad J
and |R| @ (|mid J| + rad J): the largest row sum of |I - R @ mid J| plus
the a-priori radius of the product, every rounding folded into one scalar
factor (the derivation is in `certify_inverse`).  The second half controls the
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

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import MAX_J_MIN
from .errors import CertificationError
from .interval import (
    ONE,
    ZERO,
    IntervalScalar,
    as_nonneg,
    exp_iv,
    intpow_iv,
    pow_seven_halves,
    sqrt_iv,
)
from .matrix import IntervalMatrix, _gamma_factor, _mid_rad_products, inf_norm
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


def inverse_bound_from_norms(r_norm, e_norm) -> InverseReport:
    """The reduction step of the inverse test: M = ||R|| / (1 - ||E||) from
    certified enclosures of the norms of R and E = I - R @ J, verified only
    when ||E|| is below one.  `certify_inverse` ends in it."""
    r_norm = as_nonneg(r_norm, "norm of the approximate inverse")
    e_norm = as_nonneg(e_norm, "residual norm")
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


def certify_inverse(J: IntervalMatrix) -> InverseReport:
    """Certify invertibility of every point matrix inside J.

    The candidate inverse is the float64 inverse R of the midpoint matrix;
    the certification never trusts it, only the enclosure of ||E||, E =
    I - R @ J', over the point matrices J' of J.  A Jacobian midpoint that
    is not finite, or a singular or non-finite midpoint inverse, is a
    verdict (verified=False with a diagnostic), not an exception, since the
    certificate under audit may genuinely be bad.

    The bound.  Bm = mid J and Br = max(Bm - lo, hi - Bm) are rounded to
    nearest, and P = R @ Bm, rad = |R| @ Br and S = |R| @ (|Bm| + Br) are
    float products (``_mid_rad_products``).  Each entry of R @ J' lies
    within rho = rad + g S + n 1e-300 of P in exact arithmetic, g =
    _gamma_factor(n): the bound ``_mid_rad_enclosure`` documents (Rump,
    BIT 39, 1999; Acta Numerica 19, 2010, section 10), where rounding Br is
    the second rounding of a radius term and the third of a scale term.
    With a = |I - P| and max(0, a - rho) = a - min(a, rho), every row i has

        sum_j a_ij - sum_j min(a_ij, rho_ij) <= sum_j |E_ij|
                                              <= sum_j a_ij + sum_j rho_ij.

    The factor.  In floats, D = a (|1 - P_ii| on the diagonal), rho~ =
    rad + g S and m = min(D, rho~); sa_i, sr_i and sm_i are the row sums of
    D, rho~ and m, and v = n n 1e-300.  Every term is nonnegative, so each
    rounding to nearest scales it by a factor in [1/(1+u), 1+u], u = 2^-53
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2002,
    (2.4)-(2.5)).  A term of t_i = sa_i + sr_i passes through at most n + 2
    roundings (1 - P_ii or the two that form rho~, n - 1 in its row sum,
    one in t_i), and (1+u)^(n+2) <= 1 + gamma_(n+2) <= 1 + g.  So the right
    side is at most (1 + g) t_i, the left side at least (1 - g) sa_i - (1 +
    g) sm_i, and the underflow terms (n 1e-300 per entry of rho, 2^-1075
    for g S_ij) add less than (1 + g) v.  Hence, with t = max_i t_i,

        E_norm = [max(0, max_i ((1 - 2g) sa_i - (1 + 2g) (sm_i + v))),
                  (t + v) (1 + 2g)]

    evaluated in floats: the second g of each factor absorbs the three
    roundings of each side (the factor, the sum, the product or difference),
    since g >= 3.03u.  Where t is not finite (an overflow, or inf - inf),
    E_norm is [0, inf].  R_norm is inf_norm of R.
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
    r_norm = inf_norm(IntervalMatrix.from_point(R))
    return inverse_bound_from_norms(r_norm, _residual_norm(R, J, mid))


@np.errstate(over="ignore", invalid="ignore")
def _residual_norm(R: np.ndarray, J: IntervalMatrix, Bm: np.ndarray) -> IntervalScalar:
    """E_norm of ``certify_inverse``'s docstring, Bm = mid J: lo <= ||I -
    R @ J'||_inf <= hi for every point matrix J' of J and any float R."""
    n = J.shape[0]
    Br = Bm - J.lo
    np.maximum(Br, J.hi - Bm, out=Br)
    P, rad, rho = _mid_rad_products(R, Bm, Br)
    g = _gamma_factor(n)
    rho *= g  # rho~ = rad + g S, in the array of S
    rho += rad
    D = np.abs(P)
    np.fill_diagonal(D, np.abs(1.0 - P.diagonal()))
    sa = D.sum(axis=1)
    v = n * n * 1e-300
    t = float((sa + rho.sum(axis=1)).max())
    if not math.isfinite(t):
        return IntervalScalar(0.0, math.inf)
    np.minimum(rho, D, out=rho)
    lo = float(((1.0 - 2.0 * g) * sa - (1.0 + 2.0 * g) * (rho.sum(axis=1) + v)).max())
    return IntervalScalar(max(lo, 0.0), (t + v) * (1.0 + 2.0 * g))


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


def _decay_ratio(j: int) -> IntervalScalar:
    """Enclosure of e^{-tau_X} ((j+1)/j)^{7/2}, the envelope's one-step
    ratio; below one at j, it stays below one for every later j, since
    ((j+1)/j)^{7/2} decreases."""
    step = IntervalScalar(float(j + 1), float(j + 1)) / IntervalScalar(float(j), float(j))
    return exp_iv(-_TAU) * sqrt_iv(intpow_iv(step, 7))


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
    if j_min > MAX_J_MIN:
        raise CertificationError(
            f"j_min must be at most 2**53 - 1 = {MAX_J_MIN}, past which j_min + 1 "
            "has no exact binary64 value"
        )
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
    j = IntervalScalar(float(j_min), float(j_min))
    gamma = nu * (j * j) - interaction_envelope(cert, C_prof, j_min)

    notes = []
    ratio_ok = True  # an empty profile has no envelope to decay
    if cert.coefficients.entries:
        ratio = _decay_ratio(j_min)
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
