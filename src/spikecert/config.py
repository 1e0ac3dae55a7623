"""The audit's options and the interval format its log prints.

``AuditConfig``, ``MAX_MODES``, ``MAX_J_MIN`` and ``_iv`` live apart from
``spikecert.audit``, which loads the numpy stages, so the command line reads
the option defaults and bounds and prints the ``closure`` products without
loading numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass
class AuditConfig:
    """Knobs for one audit run; defaults match the bundled certificate.

    ``coupling`` and ``coupling_rec`` select the reference basis model,
    ``truncation_N`` the operator truncation, ``j_min`` the first mode of
    the tail coercivity bound, ``lattice_radius`` (at least 1) the
    image-overlap enumeration; a fixed ``timestamp`` makes the whole log
    reproducible.  No option sets a rate: every stage reads the two fixed
    spaces of ``spikecert.spaces``.  ``window`` is read by nothing: the tail
    bound is its value at ``j_min`` alone.  It stays only because the
    benchmark's tests build ``AuditConfig(window=64)``; the next change to
    the benchmark deletes it.
    """

    coupling: float = 1.0
    coupling_rec: Optional[float] = None
    truncation_N: int = 450
    j_min: int = 1200
    window: int = 2048
    lattice_radius: int = 3
    timestamp: Optional[str] = None


def _iv(x: IntervalScalar) -> str:
    return f"[{x.lo:.6e}, {x.hi:.6e}]"
