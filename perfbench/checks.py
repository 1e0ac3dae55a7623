"""Output checks: each operation either passes or counts as one failure.

An audit fails when it raises, exits 2, produces a log the `AuditLog`
grammar rejects once re-parsed from its rendered text, or reports an exit
code or VERIFIED/REJECTED word other than the expected one.  A CLI closure
call fails when its exit code or printed verdicts differ from the exact
rational verdict, or when a printed product endpoint disagrees with the
exact product in its seven significant digits.
"""

from __future__ import annotations

import re
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import List, Optional, Tuple

from workloads import ClosureArgs

_LINE = re.compile(r"^\[([A-Z]+)\] (.*)$")
_VERDICT = re.compile(r"^(\S+) (<|>=) 1\.000000e\+00$")
_TORUS = re.compile(r"^torus product 2 \(delta \+ eps\) M K = \[(\S+), (\S+)\]$")


def parse_log(text: str) -> List[Tuple[str, str]]:
    """Split a rendered audit log back into (tag, text) pairs."""
    lines = []
    for raw in text.splitlines():
        m = _LINE.match(raw)
        if m is None:
            raise ValueError(f"untagged audit log line {raw!r}")
        lines.append((m.group(1), m.group(2)))
    return lines


def check_audit(
    rendered: str, exit_code: int, expected_exit: int, log_type, magic: str
) -> Optional[str]:
    """Reason the audit output is wrong, or None when it is as expected.

    `log_type` is the program's `AuditLog`, whose constructor enforces the
    grammar; the rendered text is re-parsed so the check sees what a reader
    of the log sees.
    """
    if exit_code == 2:
        return "exit code 2: certificate unreadable"
    if exit_code != expected_exit:
        return f"exit code {exit_code}, expected {expected_exit}"
    try:
        lines = parse_log(rendered)
        log_type(lines)
    except ValueError as exc:
        return f"log grammar: {exc}"
    if lines[0] != ("EXEC", magic):
        return f"first line {lines[0]!r} is not the magic string"
    word = "VERIFIED" if expected_exit == 0 else "REJECTED"
    status = lines[-1][1]
    if not status.startswith(f"certificate {word}"):
        return f"status {status!r}, expected {word}"
    verdicts = [text for tag, text in lines if tag == "VERDICT"]
    if expected_exit == 0:
        m = _VERDICT.match(verdicts[0]) if verdicts else None
        if m is None or m.group(2) != "<":
            return f"VERIFIED without a closing VERDICT line: {verdicts!r}"
    return None


def _agrees_to_7_digits(printed: str, exact: Fraction) -> bool:
    """True when `printed` is `exact` correctly rounded to 7 significant
    digits, allowing the neighbouring digit that an outward-rounded endpoint
    can show when the exact value sits on a rounding boundary."""
    with localcontext() as ctx:
        ctx.prec = 60
        value = Decimal(exact.numerator) / Decimal(exact.denominator)
        unit = Decimal(1).scaleb(value.adjusted() - 6)
    return abs(Fraction(printed) - exact) <= Fraction(unit)


def check_closure_cli(stdout: str, exit_code: int, args: ClosureArgs) -> Optional[str]:
    """Reason the CLI closure output is wrong, or None when it is exact."""
    exact = args.exact_product
    local_exact = 2 * Fraction(args.delta) * Fraction(args.M) * Fraction(args.K)
    if exit_code != (0 if args.closes else 1):
        return f"exit code {exit_code}, exact product {float(exact):.6e}"
    lines = stdout.splitlines()
    fields = dict(line.split(" = ", 1) for line in lines if " = " in line)
    torus = [m for m in map(_TORUS.match, lines) if m is not None]
    if len(torus) != 1:
        return "expected one torus product line"
    if fields.get("torus verdict") != str(args.closes):
        return f"torus verdict {fields.get('torus verdict')!r}"
    if fields.get("local verdict") != str(local_exact < 1):
        return f"local verdict {fields.get('local verdict')!r}"
    for end in torus[0].groups():
        if not _agrees_to_7_digits(end, exact):
            return f"printed endpoint {end} disagrees with exact {float(exact):.9e}"
    return None
