"""Weighted analytic sequence spaces, coefficient vectors and the
profile-certificate file format.

A coefficient vector lives in a scale of Hilbert spaces with weights
(1+j^2)^s e^{2 tau j}.  The audit uses two fixed members, recorded here
once: the profile space X = ``PROFILE_SPACE`` (s=6, tau=0.08), where
candidate profiles live and the residual is measured
(``residual.weight_sq_row``), and the source space Y = ``SOURCE_SPACE``
(s=7, tau=0.081), the input space of the convolution bound
(``constants.convolution_constant``).  No stage takes a space as a
parameter, and a certificate's ``tau`` field must name X's rate.

Certificates are JSON files whose numbers are decimal strings, so the
published 32-digit coefficient table survives byte-for-byte and a
load/save/load cycle reproduces identical double endpoints.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from typing import Mapping, Optional

from .config import one_line
from .errors import CertificateError
from .interval import (
    _DEC_PREC,
    ZERO,
    IntervalScalar,
    _parse_decimal,
    float_to_decimal_string,
    interval_from_mid_rad_decimal,
)

__all__ = [
    "WeightedSpace",
    "PROFILE_SPACE",
    "SOURCE_SPACE",
    "CoefficientVector",
    "ProfileCertificate",
    "load_certificate",
    "save_certificate",
    "CONSTANT_NAMES",
]

@dataclass(frozen=True)
class WeightedSpace:
    """Weight parameters: polynomial power s and analyticity radius tau."""

    s: float
    tau: float


PROFILE_SPACE = WeightedSpace(s=6.0, tau=0.08)
SOURCE_SPACE = WeightedSpace(s=7.0, tau=0.081)


@dataclass(frozen=True)
class CoefficientVector:
    """Sparse mode-indexed coefficients; absent indices are exactly zero."""

    entries: tuple = ()
    max_mode: int = 0

    def __post_init__(self):
        raw = self.entries
        pairs = raw.items() if isinstance(raw, Mapping) else raw
        ent = []
        seen = set()
        for j, c in pairs:
            j = int(j)
            if j < 1:
                raise CertificateError(f"mode index must be >= 1, got {j}")
            if j in seen:
                raise CertificateError(f"duplicate mode index {j}")
            seen.add(j)
            if not isinstance(c, IntervalScalar):
                raise CertificateError(f"mode {j}: coefficient is not an interval")
            ent.append((j, c))
        ent = tuple(sorted(ent))
        top = max((j for j, _ in ent), default=0)
        m = self.max_mode if self.max_mode else top
        if m < top:
            raise CertificateError(f"max_mode {m} below largest index {top}")
        object.__setattr__(self, "entries", ent)
        object.__setattr__(self, "max_mode", m)

    @property
    def support(self):
        return tuple(j for j, _ in self.entries)

    def get(self, j: int) -> IntervalScalar:
        for jj, c in self.entries:
            if jj == j:
                return c
        return ZERO

    def items(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)


# -- certificate files ---------------------------------------------------------

CONSTANT_NAMES = (
    "delta",
    "M",
    "K",
    "gamma",
    "eps_T3",
    "C_prof",
    "C_rec_ker",
    "C_rec_map",
    "C_conv",
)

_FORMAT_VERSION = "1.0"


@dataclass(frozen=True)
class ProfileCertificate:
    """A candidate profile plus the constants its author claims for it."""

    coefficients: CoefficientVector
    nu: IntervalScalar
    sigma: float
    constants: Optional[Mapping[str, IntervalScalar]] = None

    def __post_init__(self):
        if not (self.sigma > 0.0):
            raise CertificateError(f"sigma must be positive, got {self.sigma!r}")
        if self.constants is not None:
            for name, val in self.constants.items():
                if name not in CONSTANT_NAMES:
                    raise CertificateError(f"unknown constant name {name!r}")
                if val.lo < 0.0:
                    raise CertificateError(
                        f"constant {name} must be a nonnegative interval, got {val}"
                    )
            object.__setattr__(self, "constants", dict(self.constants))

    def constant(self, name: str) -> Optional[IntervalScalar]:
        if self.constants is None:
            return None
        return self.constants.get(name)


def _require(obj: Mapping, key: str, where: str):
    if key not in obj:
        raise CertificateError(f"{where}: missing field {key!r}")
    return obj[key]


def _interval_field(obj, where: str) -> IntervalScalar:
    if not isinstance(obj, Mapping):
        raise CertificateError(f"{where}: expected an object with mid/rad strings")
    mid = _require(obj, "mid", where)
    rad = _require(obj, "rad", where)
    if not all(isinstance(x, str) and one_line(x) for x in (mid, rad)):
        raise CertificateError(f"{where}: mid/rad must be one-line decimal strings")
    try:
        return interval_from_mid_rad_decimal(mid, rad)
    except ValueError as exc:
        raise CertificateError(f"{where}: {exc}") from None


def _decimal_field(obj, where: str) -> float:
    if not isinstance(obj, str) or not one_line(obj):
        raise CertificateError(f"{where}: expected a one-line decimal string")
    try:
        value = float(_parse_decimal(obj, where))
    except ValueError as exc:
        raise CertificateError(f"{where}: {exc}") from None
    if not math.isfinite(value):
        raise CertificateError(f"{where}: decimal {obj} beyond double range")
    return value


def load_certificate(path) -> ProfileCertificate:
    """Parse a certificate file; every malformation names its field."""
    source = repr(str(path))  # quoted, as the file's own text is: no message breaks a line
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise CertificateError(f"{source}: invalid JSON at line {exc.lineno}: {exc.msg}")
    if not isinstance(doc, dict):
        raise CertificateError(f"{source}: top level must be an object")
    ver = _require(doc, "format_version", source)
    if ver != _FORMAT_VERSION:
        raise CertificateError(
            f"{source}: unsupported format_version {ver!r} (expected {_FORMAT_VERSION!r})"
        )
    nu = _interval_field(_require(doc, "nu", source), "nu")
    sigma = _decimal_field(_require(doc, "sigma", source), "sigma")
    tau = _require(doc, "tau", source)
    if _decimal_field(tau, "tau") != PROFILE_SPACE.tau:
        raise CertificateError(
            f"tau: the audit runs in the profile space X, whose rate is "
            f"{PROFILE_SPACE.tau!r}; got {tau}"
        )
    modes_raw = _require(doc, "modes", source)
    if not isinstance(modes_raw, list):
        raise CertificateError("modes: expected an array")
    entries = {}
    for i, row in enumerate(modes_raw):
        where = f"modes[{i}]"
        if not isinstance(row, Mapping):
            raise CertificateError(f"{where}: expected an object")
        j = _require(row, "j", where)
        if not isinstance(j, int) or isinstance(j, bool) or j < 1:
            raise CertificateError(f"{where}.j: expected a positive integer, got {j!r}")
        if j in entries:
            raise CertificateError(f"{where}.j: duplicate mode index {j}")
        entries[j] = _interval_field(row, where)
    constants = None
    if "constants" in doc and doc["constants"] is not None:
        raw = doc["constants"]
        if not isinstance(raw, Mapping):
            raise CertificateError("constants: expected an object")
        constants = {}
        for name, val in raw.items():
            if name not in CONSTANT_NAMES:
                raise CertificateError(f"constants: unknown constant name {name!r}")
            constants[name] = _interval_field(val, f"constants.{name}")
    return ProfileCertificate(
        coefficients=CoefficientVector(entries),
        nu=nu,
        sigma=sigma,
        constants=constants,
    )


def _interval_to_midrad(iv: IntervalScalar) -> dict:
    # exact decimal endpoint arithmetic, so loading reproduces lo/hi bit-for-bit
    with localcontext() as ctx:
        ctx.prec = _DEC_PREC
        lo = Decimal(iv.lo)
        hi = Decimal(iv.hi)
        mid = (lo + hi) / 2
        rad = (hi - lo) / 2
    return {"mid": str(mid), "rad": str(rad)}


def save_certificate(cert: ProfileCertificate, path) -> None:
    doc = {
        "format_version": _FORMAT_VERSION,
        "nu": _interval_to_midrad(cert.nu),
        "sigma": float_to_decimal_string(cert.sigma),
        "tau": float_to_decimal_string(PROFILE_SPACE.tau),
        "modes": [
            dict(j=j, **_interval_to_midrad(c)) for j, c in cert.coefficients.items()
        ],
    }
    if cert.constants is not None:
        doc["constants"] = {
            name: _interval_to_midrad(val) for name, val in sorted(cert.constants.items())
        }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
