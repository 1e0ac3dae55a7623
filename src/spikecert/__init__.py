"""Certified interval-arithmetic toolkit for spectral blowup-profile certificates.

The package exports the audit API; the stages, the interval calculus and
the basis are imported from their modules (``spikecert.operator`` and so
on).  Importing the package also loads ``spikecert.oracle``, whose
reconstruction check is re-exported here.
"""

from .audit import AuditConfig, AuditLog, AuditResult, run_audit
from .errors import CertificateError, CertificationError
from .oracle import check_reconstruction_scaling

__version__ = "0.1.0"
