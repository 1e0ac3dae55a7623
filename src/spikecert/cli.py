"""Command line front end.

`audit` runs the end-to-end audit.  `residual`, `inverse`, `tail` and
`constants` each run that one stage of it on the certificate with its
declared constants set aside (`constants` reads no certificate), and print
the stage's block of the audit log under a status line, `<stage> stage
passed` or `<stage> stage REJECTED: <gates>`.  A stage verifies no
certificate and takes no bound from the command line.  `closure` is the
closure arithmetic on the constants it is given, `oracle` the calculus
falsification battery, and `gen-profile` writes a deterministic test
certificate.

Options can also come from a plain-text config file (`key = value` per
line, `#` comments); flags given on the command line win over the file,
the file wins over defaults, and a key that names no option of any
subcommand is refused.  Exit codes follow the audit contract: 0 verified (for a stage, no gate
failed), 1 a check failed, 2 unusable input or usage error: a flag or config
value that does not parse, decimal options included, a negative closure
constant, or an `AuditConfig` field's value that `AuditConfig` would refuse
exits 2 and names the option.

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
from .config import MAX_LATTICE_RADIUS, MAX_MODES, AuditConfig, _iv, field_error, range_error
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

# the flag that sets each AuditConfig field, and its help
_FIELD_FLAGS = {
    "coupling": ("--coupling", "interaction coupling of the reference model"),
    "coupling_rec": ("--coupling-rec", "recovery kernel coupling, --coupling if not given"),
    "truncation_N": ("--modes", f"truncation level, at most {MAX_MODES}"),
    "j_min": ("--j-min", "first mode of the tail coercivity bound"),
    "lattice_radius": ("--lattice-radius", f"image-overlap radius, at most {MAX_LATTICE_RADIUS}"),
}


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


def _nonneg_decimal(text: str) -> str:
    """The type of the closure constants: a decimal whose enclosure does not
    reach below zero."""
    if interval_from_decimal(_decimal(text)).lo < 0.0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {text}")
    return text


def _checked(convert, check):
    """An option type: ``convert`` the text, then refuse the value for the
    reason ``check`` gives, as a command-line flag or as a config key."""

    def parse(text: str):
        value = convert(text)
        error = check(value)
        if error:
            raise argparse.ArgumentTypeError(error)
        return value

    parse.__name__ = convert.__name__  # as argparse and config errors name a value
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
        for name in names:  # each AuditConfig field's flag, refused as AuditConfig refuses it
            if name in _FIELD_FLAGS:
                flag, text = _FIELD_FLAGS[name]
                convert = _finite_float if name.startswith("coupling") else int
                kind = _checked(convert, lambda value, name=name: field_error(name, value))
                p.add_argument(flag, type=kind, default=getattr(_AUDIT, name), help=text)
        if "out" in names:
            p.add_argument("--out", help="also write the output to this path")

    p = sub.add_parser("audit", help="full pipeline, tagged log, exit code")
    common(p, "profile", *_FIELD_FLAGS, "out")

    p = sub.add_parser("residual", help="the audit's residual stage: delta")
    common(p, "profile", "coupling", "coupling_rec", "truncation_N", "out")

    p = sub.add_parser("inverse", help="the audit's inverse stage: M")
    common(p, "profile", "coupling", "coupling_rec", "truncation_N", "out")

    p = sub.add_parser("tail", help="the audit's tail coercivity stage: gamma")
    common(p, "profile", "truncation_N", "j_min", "out")

    p = sub.add_parser("constants", help="the audit's constants stage: C_rec_map, C_conv, K")
    # K reads the interaction bound alone, not the recovery coupling
    common(p, "coupling", "out")

    p = sub.add_parser("closure", help="scalar closure verdict from constants")
    common(p, "out")
    p.add_argument("--delta", type=_nonneg_decimal, required=True, help="residual bound (decimal)")
    p.add_argument("--M", type=_nonneg_decimal, required=True, help="inverse bound (decimal)")
    p.add_argument("--K", type=_nonneg_decimal, required=True, help="lipschitz bound (decimal)")
    p.add_argument(
        "--eps", type=_nonneg_decimal, help="transfer error for the torus variant (decimal)"
    )

    p = sub.add_parser("oracle", help="grid falsification battery")
    p.add_argument("suite", nargs="?", default="all", choices=("all", *_SUITES))
    # every suite runs from 9 nodes; at the cap, `oracle --grid 1024` takes
    # 1.1-1.4 s and 168 MB peak RSS on a 2-vCPU x86-64 host
    p.add_argument(
        "--grid",
        type=_checked(int, lambda n: range_error(n, 9, 1024)),
        default=256,
        help="nodes per direction, 9 to 1024",
    )
    common(p, "out")

    p = sub.add_parser("gen-profile", help="deterministic random test certificate")
    common(p, "truncation_N", "out")
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


def _audit_config(args) -> AuditConfig:
    """The AuditConfig of a subcommand's flags; a field it has no flag for
    keeps its default."""
    dests = {name: flag[2:].replace("-", "_") for name, (flag, _) in _FIELD_FLAGS.items()}
    return AuditConfig(**{n: getattr(args, d) for n, d in dests.items() if hasattr(args, d)})


def _cmd_audit(args) -> int:
    from .audit import run_audit

    result = run_audit(_require_profile(args), _audit_config(args))
    _emit(result.log.render(), args.out)
    if result.exit_code == 2:
        # as every other subcommand does for an input it cannot read
        sys.stderr.write(f"spikecert: {result.log.status}\n")
    return result.exit_code


def _cmd_stage(args) -> int:
    from .audit import run_stage

    cert = None
    if args.command != "constants":
        cert = load_certificate(_require_profile(args))
    log, code = run_stage(args.command, cert, _audit_config(args))
    _emit(log.render(), args.out)
    return code


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
        coefficients=CoefficientVector(entries, max_mode=args.modes),
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
    "residual": _cmd_stage,
    "inverse": _cmd_stage,
    "tail": _cmd_stage,
    "constants": _cmd_stage,
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
