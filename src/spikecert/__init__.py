"""Certified interval-arithmetic toolkit for spectral blowup-profile certificates.

The package exports the audit API; the stages, the interval calculus and
the basis are imported from their modules (``spikecert.operator`` and so
on).  ``run_audit``, ``AuditConfig``, ``AuditLog`` and ``AuditResult`` are
resolved on first use, so ``import spikecert`` loads neither numpy nor
scipy; only the audit stages, the dense matrices and the oracle's checks
need numpy.  Importing the package also loads ``spikecert.oracle``, whose
reconstruction check is re-exported here.
"""

from .errors import CertificateError, CertificationError
from .oracle import check_reconstruction_scaling

__version__ = "0.1.0"

_AUDIT_API = ("run_audit", "AuditConfig", "AuditLog", "AuditResult")


def __getattr__(name: str):
    if name in _AUDIT_API:
        from . import audit

        return getattr(audit, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
