"""Spans and counts around the program's public functions, from outside it.

The stage modules bind helpers by name (`from .interval import exp_iv`) and
`run_audit` reaches the stages through the globals of `spikecert.audit`, so
a wrapper replaces the attribute in every `spikecert` module that holds the
original.  `Tracer.install` patches, `Tracer.restore` puts every original
back; the untraced runs execute the program exactly as shipped.

Stage functions get spans (name, start, end, parent, operation id), kept in
memory.  Interval kernels called hundreds of thousands of times per audit
get counts only; their speed is measured by the micro-timings in probes.py.
A span's self time is its duration minus that of its direct children.
"""

from __future__ import annotations

import dataclasses
import statistics
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

import spikecert.audit
import spikecert.basis
import spikecert.closure
import spikecert.constants
import spikecert.interval
import spikecert.operator
import spikecert.residual
import spikecert.spaces
import spikecert.stability
from spikecert.errors import CertificationError
from spikecert.interval import IntervalScalar

_FAILURES = (CertificationError, ValueError)

# (span name, defining module, function name); the layer is the name's prefix
SPANS = (
    ("audit.run_audit", spikecert.audit, "run_audit"),
    ("spaces.load", spikecert.spaces, "load_certificate"),
    ("residual.certify", spikecert.residual, "certify_residual"),
    ("operator.jacobian", spikecert.operator, "assemble_jacobian"),
    ("stability.inverse", spikecert.stability, "certify_inverse"),
    ("stability.tail", spikecert.stability, "certify_tail_coercivity"),
    ("constants.recovery", spikecert.constants, "recovery_mapping_constant"),
    ("constants.convolution", spikecert.constants, "convolution_constant"),
    ("constants.certify", spikecert.constants, "certify_constants"),
    ("closure.overlap", spikecert.closure, "image_overlap_bound"),
    ("closure.products", spikecert.closure, "nk_closure"),
    ("closure.products", spikecert.closure, "torus_closure"),
    ("interval.ptimes", spikecert.interval, "point_times_interval"),
)

# (count name, defining module, function name)
COUNTS = (
    ("operator.apply_quadratic_calls", spikecert.operator, "apply_quadratic"),
    ("stability.envelope_calls", spikecert.stability, "interaction_envelope"),
    ("constants.level_multiplier_calls", spikecert.constants, "level_multiplier"),
    ("interval.exp_calls", spikecert.interval, "exp_iv"),
    ("interval.sqrt_calls", spikecert.interval, "sqrt_iv"),
    ("interval.intpow_calls", spikecert.interval, "intpow_iv"),
)

# IntervalScalar operators; __sub__/__rsub__ and __rtruediv__ delegate to
# __add__ and __truediv__, so each source-level operation is counted once
OPERATORS = (
    ("interval.add_calls", "__add__"),
    ("interval.add_calls", "__radd__"),
    ("interval.mul_calls", "__mul__"),
    ("interval.mul_calls", "__rmul__"),
    ("interval.div_calls", "__truediv__"),
)


def _width_rel(iv: IntervalScalar) -> float:
    return (iv.hi - iv.lo) / abs(iv.hi) if iv.hi else 0.0


class Tracer:
    """Collects spans, counts and result values for the operations it traces."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, str, float, float, Optional[int]]] = []
        self.counts: Counter = Counter()  # the current operation's counts
        self._op_counts: List[Counter] = []
        self.values: List[Dict[str, float]] = []
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._op = -1

    # -- operations ----------------------------------------------------------

    def begin_op(self) -> None:
        """Start a new operation; spans, counts and values after this belong to it."""
        self._op += 1
        self.values.append({})
        self.counts = Counter()
        self._op_counts.append(self.counts)

    def _record(self, key: str, value: float) -> None:
        self.values[self._op][key] = float(value)

    # -- wrappers ------------------------------------------------------------

    def _span(self, name: str, fn: Callable, on_result=None) -> Callable:
        layer = name.split(".", 1)[0]
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except _FAILURES:
                self.counts[f"{layer}.failures"] += 1
                raise
            finally:
                spans[index] = (self._op, name, start, time.perf_counter(), parent)
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, name: str, fn: Callable) -> Callable:
        failures = f"{name.split('.', 1)[0]}.failures"

        def counted(*args, **kwargs):
            self.counts[name] += 1
            try:
                return fn(*args, **kwargs)
            except _FAILURES:
                self.counts[failures] += 1
                raise

        counted.__wrapped__ = fn
        return counted

    def _counted_model(self, reference_model: Callable) -> Callable:
        """reference_model whose interaction callback counts calls and nonzeros."""

        def traced_reference_model(*args, **kwargs):
            model = reference_model(*args, **kwargs)
            interaction = model.interaction

            def counted_interaction(k, l, j):
                self.counts["basis.interaction_calls"] += 1
                try:
                    value = interaction(k, l, j)
                except _FAILURES:
                    self.counts["basis.failures"] += 1
                    raise
                if value.lo != 0.0 or value.hi != 0.0:
                    self.counts["basis.interaction_nonzero"] += 1
                return value

            return dataclasses.replace(model, interaction=counted_interaction)

        return traced_reference_model

    # -- result values -------------------------------------------------------

    def _on_residual(self, rep) -> None:
        self._record("residual.delta_width_rel", _width_rel(rep.delta))

    def _on_inverse(self, rep) -> None:
        self._record("stability.inverse_verified", 1.0 if rep.verified else 0.0)
        if rep.verified:
            self._record("stability.E_norm_hi", rep.E_norm.hi)
            self._record("stability.M_hi", rep.M.hi)

    def _on_tail(self, rep) -> None:
        self._record("stability.gamma_lo", rep.gamma.lo)

    def _on_recovery(self, rep) -> None:
        self._record("constants.C_rec_map_width_rel", _width_rel(rep.value))

    def _on_constants(self, rep) -> None:
        self._record("constants.K_hi", rep.K.hi)

    def _on_closure(self, rep) -> None:
        # torus_closure runs after nk_closure, so the torus product is kept
        self._record("closure.product_hi", rep.product.hi)
        self._record("closure.product_width_rel", _width_rel(rep.product))

    # -- install / restore ---------------------------------------------------

    def _patch_everywhere(self, module, attr: str, wrapper: Callable) -> None:
        original = getattr(module, attr)
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] != "spikecert" or mod is None:
                continue
            if mod.__dict__.get(attr) is original:
                self._patches.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        hooks = {
            "residual.certify": self._on_residual,
            "stability.inverse": self._on_inverse,
            "stability.tail": self._on_tail,
            "constants.recovery": self._on_recovery,
            "constants.certify": self._on_constants,
            "closure.products": self._on_closure,
        }
        for name, module, attr in SPANS:
            fn = getattr(module, attr)
            self._patch_everywhere(module, attr, self._span(name, fn, hooks.get(name)))
        for name, module, attr in COUNTS:
            self._patch_everywhere(module, attr, self._count(name, getattr(module, attr)))
        self._patch_everywhere(
            spikecert.basis,
            "reference_model",
            self._counted_model(spikecert.basis.reference_model),
        )
        for name, attr in OPERATORS:
            original = IntervalScalar.__dict__[attr]
            self._patches.append((IntervalScalar, attr, original))
            setattr(IntervalScalar, attr, self._count(name, original))

    def restore(self) -> None:
        """Put every original back, most recent patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- aggregation ---------------------------------------------------------

    def op_summary(self, op: int) -> Dict[str, float]:
        """Busy seconds, self seconds and calls per span name, plus the counts
        and result values, of one operation."""
        rows = [(i, s) for i, s in enumerate(self.spans) if s is not None and s[0] == op]
        child: Dict[int, float] = Counter()
        for _, (_, _, start, end, parent) in rows:
            if parent is not None:
                child[parent] += end - start
        out: Dict[str, float] = Counter()
        for i, (_, name, start, end, _) in rows:
            out[f"{name}.busy_s"] += end - start
            out[f"{name}.self_s"] += end - start - child[i]
            out[f"{name}.calls"] += 1
        return {**out, **self._op_counts[op], **self.values[op]}

    def summary(self) -> Dict[str, float]:
        return summarize([self.op_summary(op) for op in range(self._op + 1)])


def summarize(ops: List[Dict[str, float]]) -> Dict[str, float]:
    """One figure per key over the traced operations.

    Times (keys ending in `_s`) are medians.  Counts and result values are
    those of the first operation, whose input depends on the seed alone, so
    two runs with one seed report them identically however many operations
    fit in the run.  A key an operation lacks counts as 0.
    """
    if not ops:
        return {}
    keys = sorted({k for op in ops for k in op})
    return {
        k: statistics.median(op.get(k, 0.0) for op in ops) if k.endswith("_s") else ops[0].get(k, 0.0)
        for k in keys
    }
