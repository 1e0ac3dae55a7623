"""Seeded input generators for the three benchmark workloads.

Every generator is a pure function of (seed, operation index), so the same
seed yields the same inputs and each operation in a run gets a fresh input:
nothing the program could cache between operations is repeated.  The
generators write certificate files in the documented JSON format without
importing the program, so a change to the program cannot change its inputs.
"""

from __future__ import annotations

import json
import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, NamedTuple

# declared: the bundled certificate with each midpoint redrawn within +-10 %
DECLARED_SPREAD_PPM = 100_000

# computed: the bundled five-mode shape scaled from N = 450 to N = 128
COMPUTED_N = 128
COMPUTED_MODES = (1, 14, 43, 85, 128)
COMPUTED_AMPLITUDE = 5.0
COMPUTED_TAU = 0.08


def _rng(seed: int, index: int, stream: str) -> random.Random:
    return random.Random(f"{stream}:{seed}:{index}")


def declared_certificate(bundled: Dict, seed: int, index: int) -> Dict:
    """The bundled certificate with every coefficient midpoint scaled by a
    seeded factor in [0.9, 1.1]; radii, nu, sigma, tau and all nine declared
    constants are kept verbatim."""
    rng = _rng(seed, index, "declared")
    doc = json.loads(json.dumps(bundled))
    with localcontext() as ctx:
        ctx.prec = 40
        for row in doc["modes"]:
            ppm = rng.randint(-DECLARED_SPREAD_PPM, DECLARED_SPREAD_PPM)
            factor = 1 + Decimal(ppm) / Decimal(1_000_000)
            row["mid"] = str(Decimal(row["mid"]) * factor)
    return doc


def computed_certificate(seed: int, index: int) -> Dict:
    """Five modes up to N = 128 with c_j = s_j * 5 e^{-0.08 j} * u_j,
    s_j = +-1 and u_j in [0.9, 1.1] drawn from the seed; no declared
    constants, so the audit recomputes every closure input."""
    rng = _rng(seed, index, "computed")
    modes = []
    for j in COMPUTED_MODES:
        sign = rng.choice((1.0, -1.0))
        u = rng.uniform(0.9, 1.1)
        c = sign * COMPUTED_AMPLITUDE * math.exp(-COMPUTED_TAU * j) * u
        modes.append({"j": j, "mid": repr(c), "rad": "0"})
    return {
        "format_version": "1.0",
        "nu": {"mid": "0.005", "rad": "0"},
        "sigma": "0.05",
        "tau": "0.08",
        "modes": modes,
    }


class ClosureArgs(NamedTuple):
    """Decimal strings for `spikecert closure` and the exact torus product."""

    delta: str
    M: str
    K: str
    eps: str
    exact_product: Fraction

    def argv(self) -> List[str]:
        return [
            "closure",
            "--delta", self.delta,
            "--M", self.M,
            "--K", self.K,
            "--eps", self.eps,
        ]

    @property
    def closes(self) -> bool:
        return self.exact_product < 1


def _decimal7(rng: random.Random, lo_exp: float, hi_exp: float) -> str:
    """A 7-significant-digit decimal, log-uniform in [10^lo_exp, 10^hi_exp]."""
    return f"{10.0 ** rng.uniform(lo_exp, hi_exp):.6e}"


def torus_product(delta: str, M: str, K: str, eps: str) -> Fraction:
    """2 (delta + eps) M K in exact rational arithmetic."""
    d, m, k, e = (Fraction(s) for s in (delta, M, K, eps))
    return 2 * (d + e) * m * k


def closure_args(seed: int, index: int) -> ClosureArgs:
    """Constants whose exact torus product is at least a factor 2 away from 1.

    Even operations close (product drawn near [1/8, 1/2]), odd ones do not
    (near [2, 8]), so a run alternates verdicts.
    """
    rng = _rng(seed, index, "cli")
    closing = index % 2 == 0
    while True:
        delta = _decimal7(rng, -13.0, -10.0)
        eps = _decimal7(rng, -21.0, -19.0)
        M = _decimal7(rng, 1.0, 3.0)
        target = 2.0 ** rng.uniform(-3.0, -1.0) if closing else 2.0 ** rng.uniform(1.0, 3.0)
        k = target / (2.0 * (float(delta) + float(eps)) * float(M))
        K = f"{k:.6e}"
        exact = torus_product(delta, M, K, eps)
        if (closing and exact <= Fraction(1, 2)) or (not closing and exact >= 2):
            return ClosureArgs(delta, M, K, eps, exact)


def write_json(doc: Dict, path: Path) -> Path:
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path
