"""End-to-end audit driver: certificate in, tagged log and exit code out.

The audit runs the full pipeline in a fixed order (residual, inverse
bound, tail coercivity, constants, closure) and writes one line per
result in a small tagged grammar:

    [EXEC]    run identification, magic string first
    [PREC]    arithmetic precision statement
    [TASK]    stage boundary
    [STEP]    intermediate progress inside a stage
    [RSLT]    a quantity that feeds the verdict, marked declared/computed
    [CALC]    supporting computation, never gating on its own
    [VERDICT] the closure comparison, immediately before the status
    [STATUS]  exactly one, last line; contains VERIFIED only on success

Numbers are printed with seven significant digits so two runs diff
cleanly; the only line that varies between identical runs is the
timestamp.  Exit codes: 0 verified, 1 a gate or the closure failed,
2 the certificate could not be read at all.

Trust policy for declared constants: delta, M and K drive the closure
verbatim once their consistency gates pass.  gamma and C_rec_map are
recomputed and the declared values must sit on the sound side (declared
gamma at or below the certified lower bound, declared C_rec_map at or
above the certified value but within five percent).  C_prof, C_rec_ker
and eps_T3 are checked against fixed caps.  C_conv has no independent
recomputation at certificate scale, so it is admitted only through the
two-sided consistency gate K within five percent of C_rec_map * C_conv.
Residual recomputation on a declared certificate is logged as a
diagnostic and does not gate: published residuals come from larger mode
sets than a portable certificate carries.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import List, Optional, Tuple

from .basis import reference_model
from .closure import image_overlap_bound, nk_closure, torus_closure
from .constants import certify_constants, recovery_mapping_constant
from .errors import CertificateError, CertificationError
from .interval import IntervalScalar, interval_from_decimal
from .operator import OperatorConfig, assemble_jacobian
from .residual import certify_residual
from .spaces import PROFILE_SPACE, SOURCE_SPACE, load_certificate
from .stability import certify_inverse, certify_tail_coercivity

AUDIT_MAGIC = "NS_GHOST_SPIKE_AUDIT_v1.0"

AUDIT_TAGS = ("EXEC", "PREC", "TASK", "STEP", "RSLT", "CALC", "VERDICT", "STATUS")

# fixed trust caps for declared constants with no recomputation route
_CAPS = {
    "C_prof": interval_from_decimal("0.125"),
    "C_rec_ker": interval_from_decimal("200.0"),
    "eps_T3": interval_from_decimal("1.42e-20"),
}

# declared/computed agreement window for recomputed constants
_HEADROOM = 1.05

class AuditLog:
    """Ordered tagged lines with the grammar invariants enforced."""

    def __init__(self, lines: List[Tuple[str, str]]):
        if not lines:
            raise ValueError("an audit log cannot be empty")
        for tag, _ in lines:
            if tag not in AUDIT_TAGS:
                raise ValueError(f"unknown audit tag {tag!r}")
        status = [i for i, (tag, _) in enumerate(lines) if tag == "STATUS"]
        if len(status) != 1 or status[0] != len(lines) - 1:
            raise ValueError("exactly one STATUS line is required, emitted last")
        verdicts = [i for i, (tag, _) in enumerate(lines) if tag == "VERDICT"]
        if len(verdicts) > 1:
            raise ValueError("at most one VERDICT line is allowed")
        if verdicts and verdicts[0] > status[0]:
            raise ValueError("VERDICT must precede STATUS")
        self.lines = tuple(lines)

    @property
    def status(self) -> str:
        return self.lines[-1][1]

    def render(self) -> str:
        return "\n".join(f"[{tag}] {text}" for tag, text in self.lines) + "\n"

    def __iter__(self):
        return iter(self.lines)


@dataclass(frozen=True)
class AuditResult:
    log: AuditLog
    exit_code: int
    verified: bool


@dataclass
class AuditConfig:
    """Knobs for one audit run; defaults match the bundled certificate.

    ``coupling`` and ``coupling_rec`` select the reference basis model,
    ``truncation_N`` the operator truncation, ``tau_prime`` the source-space
    rate of the recovery scan, ``j_min`` and ``window`` the tail-coercivity
    scan, ``lattice_radius`` the image-overlap enumeration; a fixed
    ``timestamp`` makes the whole log reproducible.
    """

    coupling: float = 1.0
    coupling_rec: Optional[float] = None
    truncation_N: int = 450
    tau_prime: float = SOURCE_SPACE.tau
    j_min: int = 1200
    window: int = 2048
    lattice_radius: int = 3
    timestamp: Optional[str] = None


def _iv(x: IntervalScalar) -> str:
    return f"[{x.lo:.6e}, {x.hi:.6e}]"


def run_audit(certificate_path, config: Optional[AuditConfig] = None) -> AuditResult:
    """Audit one certificate file; never raises for content problems."""
    cfg = config or AuditConfig()
    lines: List[Tuple[str, str]] = []
    failures: List[str] = []

    def add(tag: str, text: str) -> None:
        lines.append((tag, text))

    def gate(name: str, ok: bool, text: str) -> None:
        add("RSLT", f"{text}: {'pass' if ok else 'FAIL'}")
        if not ok:
            failures.append(name)

    add("EXEC", AUDIT_MAGIC)
    stamp = cfg.timestamp or datetime.now(timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%SZ"
    )
    add("EXEC", f"run started {stamp}")
    add("PREC", "binary64 interval endpoints, outward rounding, 53 mantissa bits")

    add("TASK", "certificate load")
    try:
        cert = load_certificate(certificate_path)
    except (CertificateError, OSError, ValueError, json.JSONDecodeError) as exc:
        add("STATUS", f"certificate REJECTED, unreadable: {exc}")
        return AuditResult(AuditLog(lines), 2, False)
    n_modes = len(cert.coefficients)
    max_mode = cert.coefficients.max_mode
    add(
        "STEP",
        f"loaded {n_modes} modes, max mode {max_mode}, "
        f"nu = {_iv(cert.nu)}, tau = {cert.tau_audited:.6e}, "
        f"sigma = {cert.sigma:.6e}",
    )

    model = reference_model(cfg.coupling, cfg.coupling_rec)
    op_cfg = OperatorConfig(
        model=model, nu=cert.nu, truncation_N=cfg.truncation_N
    )

    def declared(name: str) -> Optional[IntervalScalar]:
        return cert.constant(name)

    # ---------------------------------------------------------- residual
    add("TASK", "residual bound")
    delta_used = None
    d_delta = declared("delta")
    try:
        residual_rep = certify_residual(cert, op_cfg, PROFILE_SPACE)
    except (ValueError, CertificationError) as exc:
        residual_rep = None
        add("CALC", f"residual recomputation skipped: {exc}")
    if d_delta is not None:
        add("RSLT", f"residual delta (declared) = {_iv(d_delta)}")
        delta_used = d_delta
        if residual_rep is not None:
            add(
                "CALC",
                f"residual delta (computed, diagnostic, N={cfg.truncation_N}) "
                f"= {_iv(residual_rep.delta)}",
            )
    elif residual_rep is not None:
        add("RSLT", f"residual delta (computed) = {_iv(residual_rep.delta)}")
        delta_used = residual_rep.delta
    else:
        failures.append("delta")
        add("RSLT", "residual delta: neither declared nor computable: FAIL")

    # ------------------------------------------------------------ inverse
    add("TASK", "inverse bound")
    m_used = None
    d_m = declared("M")
    if d_m is not None:
        add("RSLT", f"inverse bound M (declared) = {_iv(d_m)}")
        m_used = d_m
    else:
        inv_rep = certify_inverse(assemble_jacobian(cert.coefficients, op_cfg))
        if inv_rep.verified:
            add("RSLT", f"inverse bound M (computed) = {_iv(inv_rep.M)}")
            m_used = inv_rep.M
        else:
            failures.append("M")
            add("RSLT", f"inverse bound M not certified: {inv_rep.diagnostic}: FAIL")

    # ----------------------------------------------------- tail coercivity
    add("TASK", "tail coercivity")
    d_cprof = declared("C_prof")
    if d_cprof is not None:
        cap = _CAPS["C_prof"]
        gate(
            "C_prof",
            d_cprof.hi <= cap.hi,
            f"profile envelope constant (declared) = {_iv(d_cprof)}, "
            f"cap {cap.hi:.6e}",
        )
        cprof_used = d_cprof
    else:
        cprof_used = _CAPS["C_prof"]
        add("CALC", f"profile envelope constant defaulted to cap {_iv(cprof_used)}")
    try:
        coer = certify_tail_coercivity(
            cert, op_cfg, cprof_used, j_min=cfg.j_min, window=cfg.window
        )
        add(
            "CALC",
            f"coercivity gamma (computed, j_min={cfg.j_min}, "
            f"window={cfg.window}) = {_iv(coer.gamma)}",
        )
        add(
            "CALC",
            "monotone tail ratio "
            + ("verified" if coer.monotone_tail_verified else "NOT verified")
            + f" at j = {cfg.j_min}",
        )
        if not coer.verified:
            failures.append("gamma")
            add("RSLT", f"tail coercivity not certified: {coer.diagnostic}: FAIL")
        d_gamma = declared("gamma")
        if d_gamma is not None and coer.verified:
            gate(
                "gamma",
                d_gamma.hi <= coer.gamma.lo,
                f"coercivity gamma (declared) = {_iv(d_gamma)}, "
                f"gate declared <= certified lower bound {coer.gamma.lo:.6e}",
            )
    except (ValueError, CertificationError) as exc:
        failures.append("gamma")
        add("RSLT", f"tail coercivity stage failed: {exc}: FAIL")

    # ---------------------------------------------------------- constants
    add("TASK", "constants")
    rec = recovery_mapping_constant(cert.tau_audited, cfg.tau_prime)
    add(
        "CALC",
        f"recovery mapping constant (computed) = {_iv(rec.value)}, "
        f"argmax k = {rec.argmax_k}",
    )
    d_recmap = declared("C_rec_map")
    if d_recmap is not None:
        gate(
            "C_rec_map",
            rec.value.hi <= d_recmap.hi <= _HEADROOM * rec.value.hi,
            f"recovery mapping constant (declared) = {_iv(d_recmap)}, "
            f"gate within [1, {_HEADROOM}] times computed",
        )
        recmap_used = d_recmap
    else:
        recmap_used = rec.value
    d_recker = declared("C_rec_ker")
    if d_recker is not None:
        cap = _CAPS["C_rec_ker"]
        gate(
            "C_rec_ker",
            d_recker.hi <= cap.hi,
            f"recovery kernel constant (declared) = {_iv(d_recker)}, "
            f"cap {cap.hi:.6e}",
        )
    d_conv = declared("C_conv")
    conv_used = None
    if d_conv is not None:
        add(
            "RSLT",
            f"convolution constant (declared) = {_iv(d_conv)}, "
            "pass-through, gated via K consistency",
        )
        conv_used = d_conv
    k_used = None
    d_k = declared("K")
    if d_k is not None and conv_used is not None:
        product = recmap_used * conv_used
        gate(
            "K",
            0.95 * product.lo <= d_k.lo and d_k.hi <= _HEADROOM * product.hi,
            f"lipschitz constant K (declared) = {_iv(d_k)}, gate within "
            f"five percent of C_rec_map * C_conv = {_iv(product)}",
        )
        k_used = d_k
    elif d_k is not None:
        add(
            "RSLT",
            f"lipschitz constant K (declared) = {_iv(d_k)}, "
            "no C_conv declared, admitted without the consistency gate",
        )
        k_used = d_k
    else:
        try:
            cons = certify_constants(
                cert.tau_audited,
                cfg.tau_prime,
                model,
                cfg.truncation_N,
                PROFILE_SPACE,
                SOURCE_SPACE,
                rec=rec,
            )
            add(
                "RSLT",
                f"lipschitz constant K (computed) = {_iv(cons.K)}, "
                f"C_conv (computed) = {_iv(cons.C_conv)}",
            )
            k_used = cons.K
        except (ValueError, CertificationError) as exc:
            failures.append("K")
            add("RSLT", f"lipschitz constant K not computable: {exc}: FAIL")

    # ------------------------------------------------------ transfer error
    add("TASK", "transfer error")
    d_eps = declared("eps_T3")
    if d_eps is not None:
        cap = _CAPS["eps_T3"]
        gate(
            "eps_T3",
            d_eps.hi <= cap.hi,
            f"transfer error (declared) = {_iv(d_eps)}, cap {cap.hi:.6e}",
        )
        eps_used = d_eps
    else:
        overlap = image_overlap_bound(cert.sigma, cfg.lattice_radius)
        eps_used = overlap.to_interval()
        add(
            "RSLT",
            f"transfer error (computed from image overlap) = {_iv(eps_used)}, "
            f"log10 <= {overlap.log10_value:.6e}",
        )

    # ------------------------------------------------------------- closure
    add("TASK", "closure")
    if delta_used is None or m_used is None or k_used is None:
        add("VERDICT", "closure product not computable")
        add(
            "STATUS",
            "certificate REJECTED: " + ", ".join(sorted(set(failures))),
        )
        return AuditResult(AuditLog(lines), 1, False)

    local = nk_closure(delta_used, m_used, k_used)
    torus = torus_closure(delta_used, eps_used, m_used, k_used)
    add("CALC", f"local product 2 delta M K = {_iv(local.product)}")
    add("CALC", f"torus product 2 (delta + eps) M K = {_iv(torus.product)}")
    add(
        "CALC",
        "closure product digit variants on record: 8.9e-05, 8.9328e-05, "
        f"8.9415e-05; this run rounds to {torus.product.hi:.4e}",
    )

    closed = local.verdict and torus.verdict
    worst = torus.product
    add(
        "VERDICT",
        f"{worst.hi:.6e} {'<' if closed else '>='} 1.000000e+00",
    )
    if closed and not failures:
        add(
            "STATUS",
            f"certificate VERIFIED, closure margin >= {torus.margin.lo:.6e}",
        )
        return AuditResult(AuditLog(lines), 0, True)
    reasons = []
    if not closed:
        reasons.append("closure product reaches one")
    reasons.extend(sorted(set(failures)))
    add("STATUS", "certificate REJECTED: " + ", ".join(reasons))
    return AuditResult(AuditLog(lines), 1, False)
