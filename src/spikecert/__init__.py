"""Certified interval-arithmetic toolkit for spectral blowup-profile certificates."""

from .audit import AuditConfig, AuditLog, AuditResult, run_audit
from .basis import BasisModel, reference_model
from .closure import ClosureReport, image_overlap_bound, nk_closure, torus_closure
from .constants import (
    ConstantsReport,
    RecoveryMapResult,
    certify_constants,
    convolution_constant,
    level_multiplier,
    lipschitz_constant,
    recovery_mapping_constant,
)
from .errors import CertificateError, CertificationError
from .interval import (
    IntervalError,
    IntervalMatrix,
    IntervalOverflowError,
    IntervalScalar,
    LogMagnitude,
    SingularDivisionError,
    arith,
    exp_iv,
    inf_norm,
    interval_from_decimal,
    intpow_iv,
    ln_iv,
    make_interval,
    sqrt_iv,
)
from .operator import (
    OperatorConfig,
    apply_G,
    apply_linear,
    apply_quadratic,
    assemble_jacobian,
    recover_velocity,
)
from .oracle import (
    AxisVanishingReport,
    GridField,
    MeridionalGrid,
    PolynomialField,
    ReconstructionReport,
    check_axis_vanishing,
    check_conjugation,
    check_divergence,
    check_reconstruction_scaling,
    default_grid,
    standard_checks,
)
from .residual import ResidualReport, certify_residual
from .spaces import (
    PROFILE_SPACE,
    SOURCE_SPACE,
    CoefficientVector,
    ProfileCertificate,
    WeightedSpace,
    load_certificate,
    norm,
    save_certificate,
)
from .stability import (
    CoercivityReport,
    InverseReport,
    certify_inverse,
    certify_tail_coercivity,
    interaction_envelope,
    inverse_bound_from_norms,
)

__version__ = "0.1.0"
