"""Command line front end.

One subcommand per pipeline stage plus the end-to-end audit driver and
a deterministic test-certificate generator.  Options can also come from
a plain-text config file (`key = value` per line, `#` comments); flags
given on the command line win over the file, the file wins over
defaults, and a key that names no option of any subcommand is refused.
Exit codes follow the audit contract: 0 verified, 1 a check
failed, 2 unusable input or usage error: a flag or config value that does
not parse, decimal options included, exits 2 and names the option.

The stages that need numpy are imported by the handlers that run them, so
parsing the options, `closure` and `gen-profile` load only the numpy-free
core (the scalar interval calculus, the certificate format, the closure
products and the option defaults).
"""

from __future__ import annotations

import argparse
import math
import random
import sys
from typing import Dict, List, Optional

from .closure import nk_closure, torus_closure
from .config import AuditConfig, _iv
from .errors import CertificateError, CertificationError
from .interval import IntervalError, IntervalScalar, interval_from_decimal
from .oracle import _SUITES, MeridionalGrid, standard_checks
from .spaces import (
    PROFILE_SPACE,
    CoefficientVector,
    ProfileCertificate,
    load_certificate,
    save_certificate,
)

# AuditConfig's defaults, read by every flag that sets one of its fields
_AUDIT = AuditConfig()


def _finite_float(text: str) -> float:
    """The type of every float option: NaN and infinities are refused."""
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {text!r}")
    return x


_finite_float.__name__ = "finite float"  # as argparse and config errors name it


def _decimal(text: str) -> str:
    """The type of every decimal option: refused unless interval_from_decimal
    reads it, and kept as the exact string, which the handler reads."""
    try:
        interval_from_decimal(text)
    except IntervalError:
        raise argparse.ArgumentTypeError(
            f"not a finite decimal within double range: {text!r}"
        ) from None
    return text


# the largest truncation N an option accepts: the constant-free audit of the
# bundled certificate with --modes 2048 --j-min 4096, which assembles and
# inverts the 2048 x 2048 Jacobian, ends in about 4 s with a peak RSS of
# 508 MB on a 2-vCPU x86-64 host, while G's dense 2N rows at N = 10^8 would
# exhaust memory before any check ran
_MAX_MODES = 2048


def _bounded_int(low: int, high: Optional[int] = None):
    """The type of every integer option that sizes the audit: refused below
    low or above high, as a command-line flag or as a config key."""

    def parse(text: str) -> int:
        n = int(text)
        if n < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {n}")
        if high is not None and n > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {n}")
        return n

    parse.__name__ = "int"  # as argparse and config errors name a non-integer
    return parse


def _read_config(path: str) -> Dict[str, str]:
    values: Dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, val = line.split("=", 1)
            key = key.strip().replace("-", "_")
            val = val.strip()
            if not key or not val:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            values[key] = val
    return values


def _apply_config(values: Dict[str, str], subparsers) -> None:
    """Make config values the defaults of each subcommand with that option,
    converted by the option's `type=`; decimal options have none and keep the
    exact string.  ValueError names an unknown key or an unconvertible value."""
    owners = [
        (p, {a.dest: a.type or str for a in p._actions}) for p in subparsers.values()
    ]
    for key in values:
        if not any(key in types for _, types in owners):
            raise ValueError(f"unknown key {key!r}")
    for p, types in owners:
        defaults = {}
        for key, val in values.items():
            if key not in types:
                continue
            try:
                defaults[key] = types[key](val)
            except argparse.ArgumentTypeError as exc:
                raise ValueError(f"{key} = {val!r}: {exc}") from None
            except ValueError:
                raise ValueError(
                    f"{key} = {val!r} is not a valid {types[key].__name__}"
                ) from None
        p.set_defaults(**defaults)


def _emit(text: str, out: Optional[str]) -> None:
    sys.stdout.write(text)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="spikecert",
        description="interval certification pipeline for spectral blowup profiles",
    )
    parser.add_argument(
        "--config", help="plain-text config file, key = value per line"
    )
    sub = parser.add_subparsers(dest="command")

    def common(p, *names):
        if "profile" in names:
            p.add_argument("--profile", help="certificate JSON path")
        if "model" in names:
            p.add_argument("--coupling", type=_finite_float, default=_AUDIT.coupling)
            p.add_argument("--coupling-rec", type=_finite_float, default=_AUDIT.coupling_rec)
        if "modes" in names:
            p.add_argument(
                "--modes",
                type=_bounded_int(1, _MAX_MODES),
                default=_AUDIT.truncation_N,
                help=f"truncation level, at most {_MAX_MODES}",
            )
        if "out" in names:
            p.add_argument("--out", help="also write the output to this path")

    p = sub.add_parser("audit", help="full pipeline, tagged log, exit code")
    common(p, "profile", "model", "modes", "out")
    p.add_argument("--j-min", type=_bounded_int(1), default=_AUDIT.j_min)
    p.add_argument("--lattice-radius", type=_bounded_int(1), default=_AUDIT.lattice_radius)

    p = sub.add_parser("residual", help="certified residual norm of a profile")
    common(p, "profile", "model", "modes", "out")
    p.add_argument("--nu", type=_decimal, help="override the certificate viscosity (decimal)")

    p = sub.add_parser("inverse", help="verified inverse bound M")
    common(p, "profile", "model", "modes", "out")
    p.add_argument("--r-norm", type=_decimal, help="declared candidate-inverse norm (decimal)")
    p.add_argument("--e-norm", type=_decimal, help="declared residual-matrix norm (decimal)")

    p = sub.add_parser("tail", help="tail coercivity constant gamma")
    common(p, "profile", "modes", "out")
    p.add_argument("--j-min", type=_bounded_int(1), default=_AUDIT.j_min)
    p.add_argument("--c-prof", type=_decimal, help="profile envelope constant (decimal)")

    p = sub.add_parser("constants", help="recovery, convolution and K constants")
    common(p, "model", "modes", "out")

    p = sub.add_parser("closure", help="scalar closure verdict from constants")
    common(p, "out")
    p.add_argument("--delta", type=_decimal, required=True, help="residual bound (decimal)")
    p.add_argument("--M", type=_decimal, required=True, help="inverse bound (decimal)")
    p.add_argument("--K", type=_decimal, required=True, help="lipschitz bound (decimal)")
    p.add_argument("--eps", type=_decimal, help="transfer error for the torus variant (decimal)")

    p = sub.add_parser("oracle", help="grid falsification battery")
    p.add_argument("suite", nargs="?", default="all", choices=("all", *_SUITES))
    # every suite runs from 9 nodes; at the cap, `oracle --grid 1024` takes
    # 1.1-1.4 s and 168 MB peak RSS on a 2-vCPU x86-64 host
    p.add_argument(
        "--grid", type=_bounded_int(9, 1024), default=256, help="nodes per direction, 9 to 1024"
    )
    common(p, "out")

    p = sub.add_parser("gen-profile", help="deterministic random test certificate")
    common(p, "modes", "out")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--nu", type=_decimal, default="0.005")
    p.add_argument("--sigma", type=_finite_float, default=0.05)
    p.add_argument("--amplitude", type=_finite_float, default=1.0)
    return parser, sub.choices


def _require_profile(args) -> str:
    if not getattr(args, "profile", None):
        raise SystemExit2("--profile is required for this subcommand")
    return args.profile


class SystemExit2(Exception):
    """Usage-level failure: message printed, exit code 2."""


def _op_config(args, cert):
    from .basis import reference_model
    from .operator import OperatorConfig

    nu = cert.nu
    if getattr(args, "nu", None):
        nu = interval_from_decimal(args.nu)
    # `tail` has no model flags: certify_tail_coercivity reads only nu and truncation_N
    coupling = getattr(args, "coupling", _AUDIT.coupling)
    model = reference_model(coupling, getattr(args, "coupling_rec", _AUDIT.coupling_rec))
    return OperatorConfig(model=model, nu=nu, truncation_N=args.modes)


def _cmd_audit(args) -> int:
    from .audit import run_audit

    path = _require_profile(args)
    cfg = AuditConfig(
        coupling=args.coupling,
        coupling_rec=args.coupling_rec,
        truncation_N=args.modes,
        j_min=args.j_min,
        lattice_radius=args.lattice_radius,
    )
    result = run_audit(path, cfg)
    _emit(result.log.render(), args.out)
    if result.exit_code == 2:
        # as every other subcommand does for an input it cannot read
        sys.stderr.write(f"spikecert: {result.log.status}\n")
    return result.exit_code


def _cmd_residual(args) -> int:
    from .residual import certify_residual

    cert = load_certificate(_require_profile(args))
    rep = certify_residual(cert, _op_config(args, cert))
    text = (
        f"delta_fin  = {_iv(rep.delta_fin)}\n"
        f"delta_tail = {_iv(rep.delta_tail)}\n"
        f"delta      = {_iv(rep.delta)}\n"
    )
    _emit(text, args.out)
    return 0


def _cmd_inverse(args) -> int:
    from .operator import assemble_jacobian
    from .stability import certify_inverse, inverse_bound_from_norms

    if args.r_norm or args.e_norm:
        if not (args.r_norm and args.e_norm):
            raise SystemExit2("--r-norm and --e-norm must be given together")
        rep = inverse_bound_from_norms(
            interval_from_decimal(args.r_norm), interval_from_decimal(args.e_norm)
        )
    else:
        cert = load_certificate(_require_profile(args))
        rep = certify_inverse(assemble_jacobian(cert.coefficients, _op_config(args, cert)))
    lines = [
        f"R_norm = {'(not computed)' if rep.R_norm is None else _iv(rep.R_norm)}",
        f"E_norm = {'(not computed)' if rep.E_norm is None else _iv(rep.E_norm)}",
        f"M      = {_iv(rep.M)}" if rep.verified else "M      = (not certified)",
        f"verified = {rep.verified}",
    ]
    if rep.diagnostic:
        lines.append(f"diagnostic = {rep.diagnostic}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if rep.verified else 1


def _cmd_tail(args) -> int:
    from .audit import _CAPS
    from .stability import certify_tail_coercivity

    cert = load_certificate(_require_profile(args))
    if args.c_prof:
        c_prof = interval_from_decimal(args.c_prof)
    else:
        c_prof = cert.constant("C_prof") or _CAPS["C_prof"]
    rep = certify_tail_coercivity(cert, _op_config(args, cert), c_prof, j_min=args.j_min)
    text = (
        f"gamma = {_iv(rep.gamma)}\n"
        f"j_min = {rep.j_min}\n"
        f"monotone_tail_verified = {rep.monotone_tail_verified}\n"
        f"verified = {rep.verified}\n"
    )
    if rep.diagnostic:
        text += f"diagnostic = {rep.diagnostic}\n"
    _emit(text, args.out)
    return 0 if rep.verified else 1


def _cmd_constants(args) -> int:
    from .basis import reference_model
    from .constants import certify_constants, recovery_mapping_constant

    rep = certify_constants(
        recovery_mapping_constant(),
        reference_model(args.coupling, args.coupling_rec),
        args.modes,
    )
    text = (
        f"C_rec_map = {_iv(rep.C_rec_map)} (argmax k = {rep.argmax_k})\n"
        f"C_conv    = {_iv(rep.C_conv)}\n"
        f"K         = {_iv(rep.K)}\n"
    )
    _emit(text, args.out)
    return 0


def _cmd_closure(args) -> int:
    delta = interval_from_decimal(args.delta)
    m = interval_from_decimal(args.M)
    k = interval_from_decimal(args.K)
    local = nk_closure(delta, m, k)
    lines = [
        f"local product 2 delta M K = {_iv(local.product)}",
        f"local verdict = {local.verdict}",
    ]
    verdict = local.verdict
    if args.eps:
        torus = torus_closure(delta, interval_from_decimal(args.eps), m, k)
        lines.append(f"torus product 2 (delta + eps) M K = {_iv(torus.product)}")
        lines.append(f"torus verdict = {torus.verdict}")
        verdict = verdict and torus.verdict
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if verdict else 1


def _cmd_oracle(args) -> int:
    grid = MeridionalGrid(n_rho=args.grid, n_zeta=args.grid)
    rows = standard_checks(grid, args.suite)
    width = max(len(r["check"]) for r in rows)
    lines = [
        f"{r['check']:<{width}}  {r['value']:>14.6e}  "
        f"{r['criterion']:<28} {'pass' if r['passed'] else 'FAIL'}"
        for r in rows
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if all(r["passed"] for r in rows) else 1


def _cmd_gen_profile(args) -> int:
    if not args.out:
        raise SystemExit2("gen-profile needs --out for the certificate path")
    rng = random.Random(args.seed)
    entries = {}
    for j in range(1, args.modes + 1):
        u = 0.1 + 0.9 * rng.random()
        sign = 1.0 if rng.random() < 0.5 else -1.0
        c = sign * args.amplitude * math.exp(-PROFILE_SPACE.tau * j) * u
        entries[j] = IntervalScalar(c, c)
    cert = ProfileCertificate(
        coefficients=CoefficientVector.from_dict(entries, max_mode=args.modes),
        nu=interval_from_decimal(args.nu),
        sigma=args.sigma,
        constants=None,
    )
    save_certificate(cert, args.out)
    sys.stdout.write(
        f"wrote {args.modes}-mode certificate (seed {args.seed}) to {args.out}\n"
    )
    return 0


_HANDLERS = {
    "audit": _cmd_audit,
    "residual": _cmd_residual,
    "inverse": _cmd_inverse,
    "tail": _cmd_tail,
    "constants": _cmd_constants,
    "closure": _cmd_closure,
    "oracle": _cmd_oracle,
    "gen-profile": _cmd_gen_profile,
}


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subparsers = _build_parser()

    # pull --config early so its values become parser defaults that
    # explicit flags then override
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config")
    known, _ = probe.parse_known_args(argv)
    if known.config:
        try:
            _apply_config(_read_config(known.config), subparsers)
        except (OSError, ValueError) as exc:
            sys.stderr.write(f"spikecert: bad config file: {exc}\n")
            return 2

    args = parser.parse_args(argv)
    if not args.command:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return _HANDLERS[args.command](args)
    except SystemExit2 as exc:
        sys.stderr.write(f"spikecert: {exc}\n")
        return 2
    except (CertificateError, OSError) as exc:
        sys.stderr.write(f"spikecert: unreadable input: {exc}\n")
        return 2
    except (CertificationError, ValueError) as exc:
        sys.stderr.write(f"spikecert: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
