"""Grid falsification oracle for the analytic identities.

Everything else in this package proves; this module only probes.  It
samples closed-form fields on a meridional (rho, zeta) grid and checks
the identities the certification argument leans on: the conjugation
identity for the 5D axisymmetric Laplacian B = d_rr + (3/r) d_r + d_zz,
the divergence-free structure of the reconstructed velocity, the axis
vanishing rate of the boundary term, and the reciprocal blowup scaling
with its logarithmically divergent time integral.

Deliberately plain float64, no intervals: a failed check here falsifies
an identity (or the implementation of it), it never certifies one.
Conjugation uses second-order central differences, so its discrepancy
on smooth non-polynomial fields shrinks by ~4x when the spacing halves.
The divergence check uses fourth-order stencils instead: its test cases
are quartic polynomials that second-order differences would miss.

Each function imports numpy when it runs, and the two quadrature checks
import scipy on their first call, so importing the package loads neither:
the audit and every CLI command but `oracle` run without scipy, and
`closure` and `gen-profile` without numpy as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Union


@dataclass(frozen=True)
class MeridionalGrid:
    """Uniform tensor grid on [rho_min, rho_max] x [zeta_min, zeta_max]."""

    rho_min: float = 0.1
    rho_max: float = 6.0
    zeta_min: float = -6.0
    zeta_max: float = 6.0
    n_rho: int = 256
    n_zeta: int = 256

    def __post_init__(self):
        if not self.rho_min > 0.0:
            raise ValueError(
                f"grid must exclude the axis: rho_min must be positive, got "
                f"{self.rho_min!r}"
            )
        if not self.rho_max > self.rho_min:
            raise ValueError("rho_max must exceed rho_min")
        if not self.zeta_max > self.zeta_min:
            raise ValueError("zeta_max must exceed zeta_min")
        for n in (self.n_rho, self.n_zeta):
            if not isinstance(n, int) or isinstance(n, bool) or n < 2:
                raise ValueError(f"grid sizes must be integers >= 2, got {n!r}")

    @property
    def h_rho(self) -> float:
        return (self.rho_max - self.rho_min) / (self.n_rho - 1)

    @property
    def h_zeta(self) -> float:
        return (self.zeta_max - self.zeta_min) / (self.n_zeta - 1)

    def nodes(self):
        import numpy as np

        rho = np.linspace(self.rho_min, self.rho_max, self.n_rho)
        zeta = np.linspace(self.zeta_min, self.zeta_max, self.n_zeta)
        return np.meshgrid(rho, zeta, indexing="ij")


def default_grid() -> MeridionalGrid:
    return MeridionalGrid()


@dataclass(frozen=True)
class GridField:
    """Dense nodal values with a label for the pass/fail table."""

    values: np.ndarray
    name: str = ""

    def __post_init__(self):
        import numpy as np

        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2:
            raise ValueError(f"field must be a 2d array, got shape {v.shape}")
        if not np.isfinite(v).all():
            raise ValueError(f"field {self.name!r} has non-finite values")
        object.__setattr__(self, "values", v)

    @classmethod
    def sample(cls, f: Callable, grid: MeridionalGrid, name: str = "") -> "GridField":
        import numpy as np

        rho, zeta = grid.nodes()
        return cls(np.asarray(f(rho, zeta), dtype=np.float64), name)


@dataclass(frozen=True)
class PolynomialField:
    """Bivariate polynomial sum_ij c[i, j] rho^i zeta^j.

    Polynomial inputs carry their derivatives exactly, so the identity
    checks can evaluate both sides analytically and land at rounding
    level instead of truncation level.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        import numpy as np

        c = np.asarray(self.coeffs, dtype=np.float64)
        if c.ndim != 2 or c.size == 0:
            raise ValueError(f"coefficients must be a 2d array, got shape {c.shape}")
        if not np.isfinite(c).all():
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coeffs", c)

    def deriv(self, drho: int = 0, dzeta: int = 0) -> "PolynomialField":
        import numpy as np

        c = self.coeffs
        if drho:
            if drho >= c.shape[0]:
                c = np.zeros((1, 1))
            else:
                c = np.polynomial.polynomial.polyder(c, m=drho, axis=0)
        if dzeta:
            if dzeta >= c.shape[1]:
                c = np.zeros((1, 1))
            else:
                c = np.polynomial.polynomial.polyder(c, m=dzeta, axis=1)
        return PolynomialField(c)

    def eval(self, rho: np.ndarray, zeta: np.ndarray) -> np.ndarray:
        import numpy as np

        return np.polynomial.polynomial.polyval2d(rho, zeta, self.coeffs)


FieldLike = Union[GridField, PolynomialField, Callable]


def _values(f: FieldLike, grid: MeridionalGrid) -> np.ndarray:
    if isinstance(f, GridField):
        v = f.values
        if v.shape != (grid.n_rho, grid.n_zeta):
            raise ValueError(
                f"field shape {v.shape} does not match grid "
                f"({grid.n_rho}, {grid.n_zeta})"
            )
        return v
    return GridField.sample(f, grid).values


def _d1_c2(a: np.ndarray, h: float, axis: int) -> np.ndarray:
    import numpy as np

    b = np.moveaxis(a, axis, 0)
    out = np.full_like(b, np.nan)
    out[1:-1] = (b[2:] - b[:-2]) / (2.0 * h)
    return np.moveaxis(out, 0, axis)


def _d2_c2(a: np.ndarray, h: float, axis: int) -> np.ndarray:
    import numpy as np

    b = np.moveaxis(a, axis, 0)
    out = np.full_like(b, np.nan)
    out[1:-1] = (b[2:] - 2.0 * b[1:-1] + b[:-2]) / (h * h)
    return np.moveaxis(out, 0, axis)


def _d1_c4(a: np.ndarray, h: float, axis: int) -> np.ndarray:
    import numpy as np

    b = np.moveaxis(a, axis, 0)
    out = np.full_like(b, np.nan)
    out[2:-2] = (-b[4:] + 8.0 * b[3:-1] - 8.0 * b[1:-3] + b[:-4]) / (12.0 * h)
    return np.moveaxis(out, 0, axis)


def check_conjugation(f: FieldLike, grid: Optional[MeridionalGrid] = None) -> float:
    """Max discrepancy between B(f/r^2) and r^{-2}(d_rr - r^{-1} d_r + d_zz) f.

    Both sides are formed with second-order central differences on
    interior nodes and compared in the r^2-weighted form
    r^2 B(f/r^2) = d_rr f - r^{-1} d_r f + d_zz f, so the inner-radius
    weight does not amplify truncation noise and smooth fields converge
    at a clean second order.  The return value is the max absolute
    difference normalized by the larger side's sup, floored at one so
    identically vanishing sides report their rounding noise as-is.

    A PolynomialField input takes the analytic route: its derivatives
    are formed exactly and the quotient rule is expanded by hand, so the
    two sides differ only in float operation order and the discrepancy
    sits at rounding level.
    """
    import numpy as np

    grid = grid or default_grid()
    rho, zeta = grid.nodes()
    if isinstance(f, PolynomialField):
        fv = f.eval(rho, zeta)
        fr = f.deriv(1, 0).eval(rho, zeta)
        frr = f.deriv(2, 0).eval(rho, zeta)
        fzz = f.deriv(0, 2).eval(rho, zeta)
        inv2 = 1.0 / (rho * rho)
        inv3 = inv2 / rho
        inv4 = inv3 / rho
        g_rr = frr * inv2 - 4.0 * fr * inv3 + 6.0 * fv * inv4
        g_r = fr * inv2 - 2.0 * fv * inv3
        g_zz = fzz * inv2
        li = (rho * rho) * (g_rr + (3.0 / rho) * g_r + g_zz)
        ri = frr - fr / rho + fzz
        scale = max(float(np.abs(li).max()), float(np.abs(ri).max()), 1.0)
        return float(np.abs(li - ri).max()) / scale
    fv = _values(f, grid)
    hr, hz = grid.h_rho, grid.h_zeta

    g = fv / (rho * rho)
    left = (rho * rho) * (
        _d2_c2(g, hr, 0) + (3.0 / rho) * _d1_c2(g, hr, 0) + _d2_c2(g, hz, 1)
    )
    right = _d2_c2(fv, hr, 0) - _d1_c2(fv, hr, 0) / rho + _d2_c2(fv, hz, 1)

    li = left[1:-1, 1:-1]
    ri = right[1:-1, 1:-1]
    scale = max(float(np.abs(li).max()), float(np.abs(ri).max()), 1.0)
    return float(np.abs(li - ri).max()) / scale


def check_divergence(psi: FieldLike, grid: Optional[MeridionalGrid] = None) -> float:
    """Max |d_rho u^rho + (3/rho) u^rho + d_zeta u^zeta| for the stream field.

    The velocity components are u^rho = -rho^{-3} d_zeta psi and
    u^zeta = rho^{-3} d_rho psi.  All derivatives use fourth-order
    central stencils, exact through quartics, so streams of the form
    rho^4 q(zeta) with deg q <= 4 (whose divided velocities stay
    polynomial) vanish to rounding.  Two differencing passes cost four
    layers of margin; the max runs over the remaining core, which needs
    at least a 9x9 grid.
    """
    import numpy as np

    grid = grid or default_grid()
    if grid.n_rho < 9 or grid.n_zeta < 9:
        raise ValueError("divergence check needs at least 9 nodes per direction")
    pv = _values(psi, grid)
    rho, _ = grid.nodes()
    hr, hz = grid.h_rho, grid.h_zeta

    rho3 = rho ** 3
    u_rho = -_d1_c4(pv, hz, 1) / rho3
    u_zeta = _d1_c4(pv, hr, 0) / rho3
    div = _d1_c4(u_rho, hr, 0) + (3.0 / rho) * u_rho + _d1_c4(u_zeta, hz, 1)

    core = div[4:-4, 4:-4]
    return float(np.abs(core).max())


@dataclass(frozen=True)
class AxisVanishingReport:
    """Boundary terms at shrinking radii with the fitted decay exponent."""

    epsilons: tuple
    values: tuple
    exponent: float
    passed: bool


def check_axis_vanishing(
    W_profile: Callable,
    epsilons: Sequence[float] = (0.1, 0.05, 0.025),
    phi: Optional[Callable] = None,
    tolerance: float = 0.1,
) -> AxisVanishingReport:
    """Decay rate of the axis boundary term int rho^3 d_rho W phi dzeta.

    Evaluates the integral at rho = eps for each radius (brute-force
    quadrature over zeta, centered difference in rho) and fits the
    log-log slope.  A profile with W = O(rho^2) must show exponent >= 4
    minus the tolerance; anything flatter is flagged.
    """
    import numpy as np

    eps = [float(e) for e in epsilons]
    if len(eps) < 2:
        raise ValueError("need at least two radii to fit a decay exponent")
    if any(e <= 0.0 for e in eps):
        raise ValueError("radii must be positive")
    if any(a <= b for a, b in zip(eps, eps[1:])):
        raise ValueError("radii must be strictly decreasing")
    from scipy.integrate import quad

    test = phi if phi is not None else (lambda zeta: np.ones_like(zeta))

    values = []
    for e in eps:
        h = 1e-4 * e

        def integrand(zeta, e=e, h=h):
            z = np.asarray(zeta, dtype=np.float64)
            dw = (W_profile(e + h, z) - W_profile(e - h, z)) / (2.0 * h)
            return e ** 3 * dw * test(z)

        val, _ = quad(integrand, -np.inf, np.inf, limit=200)
        values.append(float(val))

    floor = 1e-14 * (1.0 + max(abs(v) for v in values))
    if all(abs(v) <= floor for v in values):
        return AxisVanishingReport(
            epsilons=tuple(eps), values=tuple(values), exponent=math.inf, passed=True
        )
    if any(abs(v) <= 0.0 for v in values):
        raise ValueError("boundary terms mix exact zeros with nonzeros; no slope fit")
    slope = np.polyfit(np.log(eps), np.log(np.abs(values)), 1)[0]
    return AxisVanishingReport(
        epsilons=tuple(eps),
        values=tuple(values),
        exponent=float(slope),
        passed=bool(slope >= 4.0 - tolerance),
    )


@dataclass(frozen=True)
class ReconstructionReport:
    """Scaling products and the partial blowup-criterion integral."""

    products: tuple
    spread: float
    partial_integral: float
    closed_form: float
    passed: bool


def check_reconstruction_scaling(
    omega_sup: float,
    T_star: float,
    times: Sequence[float],
    epsilon: float = 1e-6,
) -> ReconstructionReport:
    """Probe the reciprocal blowup scaling and its time integral.

    The profile norm scales as ||omega(t)|| = omega_sup / (T* - t), so
    (T* - t) ||omega(t)|| must be constant; the products are checked for
    relative spread below 1e-12.  The partial integral of ||omega|| up
    to T* - epsilon is computed by quadrature and compared with the
    closed form omega_sup * ln(T*/epsilon), which diverges as epsilon
    drops, which is exactly the blowup criterion firing.
    """
    omega_sup = float(omega_sup)
    T_star = float(T_star)
    epsilon = float(epsilon)
    if not omega_sup > 0.0:
        raise ValueError(f"omega_sup must be positive, got {omega_sup!r}")
    if not T_star > 0.0:
        raise ValueError(f"T_star must be positive, got {T_star!r}")
    if not 0.0 < epsilon < T_star:
        raise ValueError(f"epsilon must lie in (0, T_star), got {epsilon!r}")
    ts = [float(t) for t in times]
    if any(t >= T_star for t in ts):
        bad = next(t for t in ts if t >= T_star)
        raise ValueError(f"time {bad!r} is not before T_star={T_star!r}")
    if any(t < 0.0 for t in ts):
        raise ValueError("times must be nonnegative")

    products = tuple((T_star - t) * (omega_sup / (T_star - t)) for t in ts)
    if products:
        lo, hi = min(products), max(products)
        spread = (hi - lo) / hi if hi > 0.0 else 0.0
    else:
        spread = 0.0

    from scipy.integrate import quad

    integral, _ = quad(
        lambda t: omega_sup / (T_star - t),
        0.0,
        T_star - epsilon,
        limit=500,
        epsabs=1e-13,
        epsrel=1e-13,
    )
    closed = omega_sup * math.log(T_star / epsilon)
    passed = spread < 1e-12 and abs(integral - closed) <= 1e-9 * max(1.0, abs(closed))
    return ReconstructionReport(
        products=products,
        spread=float(spread),
        partial_integral=float(integral),
        closed_form=float(closed),
        passed=passed,
    )


_SUITES = ("conjugation", "divergence", "axis", "reconstruction")


def standard_checks(
    grid: Optional[MeridionalGrid] = None, suite: str = "all"
) -> List[dict]:
    """The fixed battery the command line prints as a pass/fail table.

    Each row carries the check name, the measured value, the criterion
    text, and the verdict.  `suite` names one of `_SUITES` to run only its
    rows, or is "all".
    """
    import numpy as np

    if suite != "all" and suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected 'all' or one of {_SUITES}")
    grid = grid or default_grid()
    rows: List[dict] = []

    def row(name, value, criterion, passed):
        rows.append(
            {
                "check": name,
                "value": float(value),
                "criterion": criterion,
                "passed": bool(passed),
            }
        )

    # polynomial cases run the analytic-derivative route on the
    # requested grid's nodes; the convergence case always uses the
    # fixed 256 -> 511 pair, which is deep enough in the asymptotic
    # regime for the clean second-order window
    if suite in ("all", "conjugation"):
        r2z = PolynomialField([[0.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        d = check_conjugation(r2z, grid)
        row("conjugation r^2 z", d, "<= 1e-12", d <= 1e-12)
        r4 = PolynomialField([[0.0], [0.0], [0.0], [0.0], [1.0]])
        d = check_conjugation(r4, grid)
        row("conjugation r^4", d, "<= 1e-12", d <= 1e-12)
        gauss = lambda r, z: r ** 3 * np.exp(-r * r - z * z)
        c1 = check_conjugation(gauss, MeridionalGrid(n_rho=256, n_zeta=256))
        c2 = check_conjugation(gauss, MeridionalGrid(n_rho=511, n_zeta=511))
        ratio = c1 / c2 if c2 > 0.0 else math.inf
        row("conjugation h->h/2 ratio", ratio, "in [3.5, 4.5]", 3.5 <= ratio <= 4.5)
    if suite in ("all", "divergence"):
        d = check_divergence(lambda r, z: r ** 4 * z, grid)
        row("divergence rho^4 zeta", d, "<= 1e-6", d <= 1e-6)
        d = check_divergence(lambda r, z: r ** 4 * z ** 3, grid)
        h2 = grid.h_rho ** 2 + grid.h_zeta ** 2
        row("divergence rho^4 zeta^3", d, f"<= h^2 = {h2:.3e}", d <= h2)
        d = check_divergence(lambda r, z: np.zeros_like(r), grid)
        row("divergence zero field", d, "== 0", d == 0.0)
    if suite in ("all", "axis"):
        rep = check_axis_vanishing(lambda r, z: r * r * np.exp(-r * r - z * z))
        row(
            "axis exponent rho^2 gaussian",
            rep.exponent,
            ">= 3.9",
            rep.passed and rep.exponent >= 3.9,
        )
    if suite in ("all", "reconstruction"):
        rec = check_reconstruction_scaling(1.0, 1.0, [0.0, 0.5, 0.9, 0.999])
        row(
            "blowup integral vs ln(1e6)",
            rec.partial_integral,
            "matches closed form to 1e-9",
            rec.passed,
        )
    return rows
