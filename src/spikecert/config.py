"""The audit's options, their bounds, and the interval format its log prints.

They live apart from ``spikecert.audit``, which loads the numpy stages, so
the command line reads the option defaults and bounds and prints the
``closure`` products without loading numpy.  ``field_error`` is the one
check of each option: ``AuditConfig``, the command line's option types and
the stages' entry points all call it, so each refusal has one wording.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional

from .interval import IntervalScalar

# the largest truncation N an option accepts: the constant-free audit of the
# bundled certificate with --modes 2048 --j-min 4096, which assembles and
# inverts the 2048 x 2048 Jacobian, ends in 2.0-2.6 s with a peak RSS of
# 377 MB on a 2-vCPU x86-64 host, while G's dense 2N rows at N = 10^8 would
# exhaust memory before any check ran
MAX_MODES = 2048

# the largest first tail mode j_min an option or the tail stage accepts: the
# stage reads j_min and j_min + 1 as floats, exact only up to 2^53
MAX_J_MIN = 2**53 - 1

# the largest lattice radius R an option or the overlap bound accepts: it
# enumerates the (2R + 1)^3 lattice points in Python, about 0.5 s at R = 64
# on a 2-vCPU x86-64 host, and the time grows as R^3
MAX_LATTICE_RADIUS = 64

# the integer fields of AuditConfig, each from 1 to its ceiling
_CEILINGS = {"truncation_N": MAX_MODES, "j_min": MAX_J_MIN, "lattice_radius": MAX_LATTICE_RADIUS}


def range_error(n: int, low: int, high: int) -> str:
    """Why the integer ``n`` lies outside [low, high], or "" when it does not."""
    if n < low:
        return f"must be at least {low}, got {n}"
    return f"must be at most {high}, got {n}" if n > high else ""


def one_line(text: str) -> bool:
    """True when ``text`` holds no line break that str.splitlines splits at."""
    return text.splitlines() in ([], [text])


def field_error(name: str, value) -> str:
    """Why ``value`` cannot be the AuditConfig field ``name``, or ""; a bool
    is no number here, and ``window``, read by nothing, takes anything."""
    if name in _CEILINGS:
        if isinstance(value, bool) or not isinstance(value, int):
            return f"must be an int, got {value!r}"
        return range_error(value, 1, _CEILINGS[name])
    if value is None and name in ("coupling_rec", "timestamp"):
        return ""
    if name == "timestamp" and not (isinstance(value, str) and one_line(value)):
        return f"must be one line of text, got {value!r}"
    if not name.startswith("coupling"):
        return ""
    if not (isinstance(value, float) and math.isfinite(value)):
        return f"must be a finite float, got {value!r}"
    # -1.0 reads as the -1 a flag gave
    return f"must be nonnegative, got {repr(value).removesuffix('.0')}" if value < 0.0 else ""


def check_field(name: str, value, error=ValueError) -> None:
    """Raise ``error`` naming ``name`` when ``value`` cannot be that field."""
    reason = field_error(name, value)
    if reason:
        raise error(f"{name}: {reason}")


@dataclass(frozen=True)
class AuditConfig:
    """Knobs for one audit run; defaults match the bundled certificate.

    ``coupling`` and ``coupling_rec`` select the reference basis model,
    ``truncation_N`` the operator truncation, ``j_min`` the first mode of
    the tail coercivity bound, ``lattice_radius`` the image-overlap
    enumeration; a fixed ``timestamp`` makes the whole log reproducible.
    Building a config checks every field (``field_error``) and raises
    ``ValueError`` naming the first bad one, so the audit meets none it
    cannot run.  No option sets a rate: every stage reads the two fixed
    spaces of ``spikecert.spaces``.  ``window`` is read by nothing; it stays
    only because the benchmark's tests build ``AuditConfig(window=64)``,
    and the next change to the benchmark deletes it.
    """

    coupling: float = 1.0
    coupling_rec: Optional[float] = None
    truncation_N: int = 450
    j_min: int = 1200
    window: int = 2048
    lattice_radius: int = 3
    timestamp: Optional[str] = None

    def __post_init__(self):
        for f in fields(self):
            check_field(f.name, getattr(self, f.name))


def _iv(x: IntervalScalar) -> str:
    return f"[{x.lo:.6e}, {x.hi:.6e}]"
