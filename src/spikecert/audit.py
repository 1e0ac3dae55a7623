"""End-to-end audit driver: certificate in, tagged log and exit code out.

`run_audit` loads the certificate and calls one stage function per bound
in a fixed order, `_residual` (delta), `_inverse` (M), `_tail` (gamma),
`_constants` (K), `_transfer` (eps) and `_closure` (verdict and status),
which all write through one `_Run`.  A stage that cannot produce its value
logs a failing RSLT line, so content problems end in REJECTED, never in an
exception.  `run_audit` skips a computed M when the tail stage must fail
on the options alone (`j_min` not above N); a CALC line says so.
`run_stage` runs one of the first four stages alone, on the certificate
with its declared constants set aside: the `residual`, `inverse`, `tail`
and `constants` subcommands print its block, the lines the audit writes
for that stage, under a status that names the failed gates and never says
VERIFIED.  Every rate is that of the profile space X, `PROFILE_SPACE.tau`:
a certificate whose `tau` names another does not load.  The log has one
line per result in a small tagged grammar:

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
timestamp.  Exit codes: 0 verified, 1 a gate or the closure failed, 2 the
certificate could not be read at all; the STATUS line names why.  No
option exits 2 here: `AuditConfig` refuses a bad one when it is built.

Trust policy for declared constants: delta, M and K drive the closure
verbatim once their consistency gates pass.  gamma and C_rec_map are
recomputed and the declared values must sit on the sound side (declared
gamma at or below the certified lower bound, declared C_rec_map at or
above the certified value but within five percent).  C_prof, C_rec_ker
and eps_T3 are checked against fixed caps.  C_conv is computed, but a
declared C_conv is not compared with it: it is admitted only through
the consistency gate on K, which the closure reads as an upper bound:
declared K at or above C_rec_map * C_conv, and within five percent of it.
A declared K without a declared C_conv has no gate at all: it drives the
closure as written, and its RSLT line says so.
Residual recomputation on a declared certificate is logged as a
diagnostic and does not gate: published residuals come from larger mode
sets than a portable certificate carries.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from datetime import datetime, timezone
from typing import List, Mapping, Optional, Tuple

from .basis import reference_model
from .closure import image_overlap_bound, nk_closure, torus_closure
from .config import AuditConfig, _iv, one_line
from .constants import certify_constants, recovery_mapping_constant
from .errors import CertificateError, CertificationError
from .interval import IntervalScalar, interval_from_decimal
from .operator import OperatorConfig, assemble_jacobian
from .residual import certify_residual
from .spaces import PROFILE_SPACE, ProfileCertificate, load_certificate
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
        for tag, text in lines:
            if tag not in AUDIT_TAGS:
                raise ValueError(f"unknown audit tag {tag!r}")
            if not one_line(text):
                raise ValueError(f"an audit log line holds a line break: {text!r}")
        status = [i for i, (tag, _) in enumerate(lines) if tag == "STATUS"]
        if len(status) != 1 or status[0] != len(lines) - 1:
            raise ValueError("exactly one STATUS line is required, emitted last")
        verdicts = [i for i, (tag, _) in enumerate(lines) if tag == "VERDICT"]
        if len(verdicts) > 1:
            raise ValueError("at most one VERDICT line is allowed")
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


class _Run:
    """The lines and failed gates of one audit, in the order the stages add them."""

    def __init__(self) -> None:
        self.lines: List[Tuple[str, str]] = []
        self.failures: List[str] = []

    def add(self, tag: str, text: str) -> None:
        self.lines.append((tag, text))

    def fail(self, name: str, text: str) -> None:
        self.failures.append(name)
        self.add("RSLT", f"{text}: FAIL")

    def gate(self, name: str, ok: bool, text: str) -> None:
        if ok:
            self.add("RSLT", f"{text}: pass")
        else:
            self.fail(name, text)

    def cap(self, name: str, label: str, declared: Optional[IntervalScalar]):
        """Gate a declared constant against its fixed cap; hand the constant back."""
        if declared is not None:
            cap = _CAPS[name].hi
            text = f"{label} (declared) = {_iv(declared)}, cap {cap:.6e}"
            self.gate(name, declared.hi <= cap, text)
        return declared

    def end(self, status: str, exit_code: int = 1) -> AuditResult:
        self.add("STATUS", status)
        return AuditResult(AuditLog(self.lines), exit_code, exit_code == 0)


def run_audit(certificate_path, config: Optional[AuditConfig] = None) -> AuditResult:
    """Audit one certificate file; never raises for content problems."""
    cfg = config or AuditConfig()
    run = _Run()
    run.add("EXEC", AUDIT_MAGIC)
    stamp = cfg.timestamp or datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    run.add("EXEC", f"run started {stamp}")
    run.add("PREC", "binary64 interval endpoints, outward rounding, 53 mantissa bits")

    run.add("TASK", "certificate load")
    try:
        cert = load_certificate(certificate_path)
    except (CertificateError, OSError, ValueError) as exc:
        return run.end(f"certificate REJECTED, unreadable: {exc}", 2)
    run.add(
        "STEP",
        f"loaded {len(cert.coefficients)} modes, "
        f"max mode {cert.coefficients.max_mode}, "
        f"nu = {_iv(cert.nu)}, tau = {PROFILE_SPACE.tau:.6e}, "
        f"sigma = {cert.sigma:.6e}",
    )
    op_cfg = _operator_config(cert, cfg)
    delta = _residual(run, cert, op_cfg)
    skip = ""  # M is moot when the tail stage must fail on the options alone
    if cfg.j_min <= cfg.truncation_N:
        skip = (
            f"the tail stage needs j_min={cfg.j_min} "
            f"above the truncation N={cfg.truncation_N}"
        )
    m = _inverse(run, cert, op_cfg, skip)
    _tail(run, cert, cfg, op_cfg)
    k = _constants(run, cert.constants or {}, op_cfg.model)
    eps = _transfer(run, cert, cfg)
    return _closure(run, delta, m, k, eps)


def run_stage(
    stage: str, cert: Optional[ProfileCertificate], cfg: AuditConfig
) -> Tuple[AuditLog, int]:
    """One of the stages `residual`, `inverse`, `tail` and `constants` alone.

    It runs on ``cert`` with its declared constants set aside; `constants`
    reads no certificate, and ``cert`` may be None for it.  The log is the
    stage's block of `run_audit`'s log for that certificate without declared
    constants, from its TASK line on, then a status
    naming the gates that failed; the exit code is 0 when none did, else 1.
    `inverse` assembles the Jacobian whatever ``cfg.j_min`` is: skipping it
    is `run_audit`'s rule, for an audit whose tail stage must fail.
    """
    run = _Run()
    if stage == "constants":
        _constants(run, {}, reference_model(cfg.coupling, cfg.coupling_rec))
    else:
        cert = replace(cert, constants=None)
        op_cfg = _operator_config(cert, cfg)
        if stage == "residual":
            _residual(run, cert, op_cfg)
        elif stage == "inverse":
            _inverse(run, cert, op_cfg)
        elif stage == "tail":
            _tail(run, cert, cfg, op_cfg)
        else:
            raise ValueError(f"unknown audit stage {stage!r}")
    failed = ", ".join(sorted(set(run.failures)))
    run.add("STATUS", f"{stage} stage REJECTED: {failed}" if failed else f"{stage} stage passed")
    return AuditLog(run.lines), 1 if failed else 0


def _operator_config(cert, cfg) -> OperatorConfig:
    model = reference_model(cfg.coupling, cfg.coupling_rec)
    return OperatorConfig(model=model, nu=cert.nu, truncation_N=cfg.truncation_N)


def _residual(run, cert, op_cfg) -> Optional[IntervalScalar]:
    """delta: declared if given (the recomputation is a diagnostic), else computed."""
    run.add("TASK", "residual bound")
    try:
        computed = certify_residual(cert, op_cfg).delta
    except (ValueError, CertificationError) as exc:
        computed = None
        run.add("CALC", f"residual recomputation skipped: {exc}")
    declared = cert.constant("delta")
    if declared is not None:
        run.add("RSLT", f"residual delta (declared) = {_iv(declared)}")
        if computed is not None:
            run.add(
                "CALC",
                f"residual delta (computed, diagnostic, N={op_cfg.truncation_N}) "
                f"= {_iv(computed)}",
            )
        return declared
    if computed is not None:
        run.add("RSLT", f"residual delta (computed) = {_iv(computed)}")
        return computed
    run.fail("delta", "residual delta: neither declared nor computable")
    return None


def _inverse(run, cert, op_cfg, skip: str = "") -> Optional[IntervalScalar]:
    """M: declared if given, else the verified inverse bound of the Jacobian,
    which is not assembled when ``skip`` gives a reason not to."""
    run.add("TASK", "inverse bound")
    declared = cert.constant("M")
    if declared is not None:
        run.add("RSLT", f"inverse bound M (declared) = {_iv(declared)}")
        return declared
    if skip:
        run.add("CALC", f"inverse bound M skipped: {skip}")
        return None
    try:
        rep = certify_inverse(assemble_jacobian(cert.coefficients, op_cfg))
    except (ValueError, CertificationError) as exc:
        run.fail("M", f"inverse bound M not computable: {exc}")
        return None
    if rep.verified:
        run.add("RSLT", f"inverse bound M (computed) = {_iv(rep.M)}")
        return rep.M
    run.fail("M", f"inverse bound M not certified: {rep.diagnostic}")
    return None


def _tail(run, cert, cfg, op_cfg) -> None:
    """Gate C_prof against its cap, certify gamma, gate a declared gamma."""
    run.add("TASK", "tail coercivity")
    c_prof = run.cap("C_prof", "profile envelope constant", cert.constant("C_prof"))
    if c_prof is None:
        c_prof = _CAPS["C_prof"]
        run.add("CALC", f"profile envelope constant defaulted to cap {_iv(c_prof)}")
    try:
        coer = certify_tail_coercivity(cert, op_cfg, c_prof, j_min=cfg.j_min)
    except (ValueError, CertificationError) as exc:
        run.fail("gamma", f"tail coercivity stage failed: {exc}")
        return
    run.add("CALC", f"coercivity gamma (computed, j_min={cfg.j_min}) = {_iv(coer.gamma)}")
    monotone = "verified" if coer.monotone_tail_verified else "NOT verified"
    run.add("CALC", f"monotone tail ratio {monotone} at j = {cfg.j_min}")
    if not coer.verified:
        run.fail("gamma", f"tail coercivity not certified: {coer.diagnostic}")
        return
    declared = cert.constant("gamma")
    if declared is not None:
        run.gate(
            "gamma",
            declared.hi <= coer.gamma.lo,
            f"coercivity gamma (declared) = {_iv(declared)}, "
            f"gate declared <= certified lower bound {coer.gamma.lo:.6e}",
        )


def _constants(run, declared: Mapping[str, IntervalScalar], model) -> Optional[IntervalScalar]:
    """K: declared (gated against C_rec_map * C_conv if C_conv is declared) or
    computed; ``declared`` holds the certificate's declared constants."""
    run.add("TASK", "constants")
    rec = recovery_mapping_constant()
    run.add(
        "CALC",
        f"recovery mapping constant (computed) = {_iv(rec.value)}, "
        f"argmax k = {rec.argmax_k}",
    )
    rec_map = declared.get("C_rec_map")
    if rec_map is not None:
        run.gate(
            "C_rec_map",
            rec.value.hi <= rec_map.hi <= _HEADROOM * rec.value.hi,
            f"recovery mapping constant (declared) = {_iv(rec_map)}, "
            f"gate within [1, {_HEADROOM}] times computed",
        )
    else:
        rec_map = rec.value
    run.cap("C_rec_ker", "recovery kernel constant", declared.get("C_rec_ker"))
    conv = declared.get("C_conv")
    if conv is not None:
        run.add(
            "RSLT",
            f"convolution constant (declared) = {_iv(conv)}, "
            "pass-through, gated via K consistency",
        )
    k = declared.get("K")
    if k is not None and conv is not None:
        product = rec_map * conv
        run.gate(
            "K",
            product.hi <= k.hi <= _HEADROOM * product.hi,
            f"lipschitz constant K (declared) = {_iv(k)}, gate within "
            f"five percent of C_rec_map * C_conv = {_iv(product)}",
        )
        return k
    if k is not None:
        run.add(
            "RSLT",
            f"lipschitz constant K (declared) = {_iv(k)}, "
            "no C_conv declared, admitted without the consistency gate",
        )
        return k
    try:
        cons = certify_constants(rec, model)
    except (ValueError, CertificationError) as exc:
        run.fail("K", f"lipschitz constant K not computable: {exc}")
        return None
    run.add(
        "RSLT",
        f"lipschitz constant K (computed) = {_iv(cons.K)}, "
        f"C_conv (computed) = {_iv(cons.C_conv)}",
    )
    return cons.K


def _transfer(run, cert, cfg) -> Optional[IntervalScalar]:
    """eps: declared and capped if given, else the image-overlap bound."""
    run.add("TASK", "transfer error")
    eps = run.cap("eps_T3", "transfer error", cert.constant("eps_T3"))
    if eps is not None:
        return eps
    try:
        overlap = image_overlap_bound(cert.sigma, cfg.lattice_radius)
    except (ValueError, CertificationError) as exc:
        run.fail("eps_T3", f"transfer error not computable: {exc}")
        return None
    eps = overlap.to_interval()
    run.add(
        "RSLT",
        f"transfer error (computed from image overlap) = {_iv(eps)}, "
        f"log10 <= {overlap.log10_value:.6e}",
    )
    return eps


def _closure(run, delta, m, k, eps) -> AuditResult:
    """Both contraction products, the verdict and the status."""
    run.add("TASK", "closure")
    if any(x is None for x in (delta, m, k, eps)):
        run.add("VERDICT", "closure product not computable")
        return run.end("certificate REJECTED: " + ", ".join(sorted(set(run.failures))))
    local = nk_closure(delta, m, k)
    torus = torus_closure(delta, eps, m, k)
    run.add("CALC", f"local product 2 delta M K = {_iv(local.product)}")
    run.add("CALC", f"torus product 2 (delta + eps) M K = {_iv(torus.product)}")
    run.add(
        "CALC",
        "closure product digit variants on record: 8.9e-05, 8.9328e-05, "
        f"8.9415e-05; this run rounds to {torus.product.hi:.4e}",
    )
    closed = local.verdict and torus.verdict
    run.add(
        "VERDICT", f"{torus.product.hi:.6e} {'<' if closed else '>='} 1.000000e+00"
    )
    if closed and not run.failures:
        return run.end(
            f"certificate VERIFIED, closure margin >= {torus.margin.lo:.6e}", 0
        )
    reasons = [] if closed else ["closure product reaches one"]
    return run.end("certificate REJECTED: " + ", ".join(reasons + sorted(set(run.failures))))
