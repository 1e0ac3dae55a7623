"""The names the audit benchmark in perfbench/ reaches into the program by.

The tracer resolves stage functions, counted helpers and `reference_model`
by name and patches them in every `spikecert` module that holds them; the
import probe reads the `spikecert.oracle` line of `-X importtime`, and the
interval micro-timings read `IntervalMatrix` and `point_times_interval` from
`spikecert.interval`, which forwards them to `spikecert.matrix`.  A rename
or deletion in the program breaks `perfbench/run.py --trace 1` without
failing any other test.
"""

import sys
from pathlib import Path

import pytest

import spikecert
import spikecert.basis
import spikecert.interval
import spikecert.matrix
from spikecert.basis import BasisModel
from spikecert.interval import IntervalScalar

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
sys.path.insert(0, PERFBENCH)
try:
    import probes
    import tracer
finally:
    sys.path.remove(PERFBENCH)


def hooked_attributes():
    """Every attribute the tracer may replace: (owner, name) -> current value."""
    names = {attr for _, _, attr in tracer.SPANS + tracer.COUNTS} | {"reference_model"}
    out = {}
    for modname, mod in list(sys.modules.items()):
        if modname.split(".")[0] == "spikecert" and mod is not None:
            for attr in names & mod.__dict__.keys():
                out[(modname, attr)] = mod.__dict__[attr]
    for _, attr in tracer.OPERATORS:
        out[("IntervalScalar", attr)] = IntervalScalar.__dict__[attr]
    return out


def holders(attr, original):
    """The `spikecert` modules whose globals bind ``attr`` to ``original``."""
    return {
        modname
        for modname, mod in list(sys.modules.items())
        if modname.split(".")[0] == "spikecert"
        and mod is not None
        and mod.__dict__.get(attr) is original
    }


def test_interval_forwards_the_matrix_names_the_benchmark_reads():
    assert spikecert.interval.IntervalMatrix is spikecert.matrix.IntervalMatrix
    assert spikecert.interval.point_times_interval is spikecert.matrix.point_times_interval
    # only those two: no other matrix name, and no dunder the import system asks for
    for name in ("inf_norm", "row_sum", "__path__", "__wrapped__"):
        with pytest.raises(AttributeError):
            getattr(spikecert.interval, name)


def test_tracer_installs_and_restores_every_original():
    before = hooked_attributes()
    hooks = tracer.SPANS + tracer.COUNTS
    originals = {(module, attr): getattr(module, attr) for _, module, attr in hooks}
    owners = {key: holders(key[1], fn) for key, fn in originals.items()}
    for (module, attr), names in owners.items():
        assert names, (module.__name__, attr)
    t = tracer.Tracer()
    t.install()
    try:
        for (module, attr), names in owners.items():
            for modname in names:
                held = sys.modules[modname].__dict__[attr]
                assert held is not originals[module, attr], (modname, attr)
        # the counted model is the reference model with a wrapped callback
        model = spikecert.basis.reference_model(1.0)
        assert isinstance(model, BasisModel)
        model.interaction(1, 1, 2)
        assert t.counts["basis.interaction_calls"] == 1
    finally:
        t.restore()
    after = hooked_attributes()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
    for (module, attr), names in owners.items():
        assert holders(attr, originals[module, attr]) == names, (module.__name__, attr)


def test_interval_micro_timings_run():
    out = probes.interval_micro(1, calls=10, repeats=1)
    names = {"add", "mul", "div", "exp", "sqrt"}
    assert out.keys() == {f"interval.{k}_ns" for k in names} | {"interval.ptimes_n450_ms"}
    assert all(v > 0.0 for v in out.values())


def test_importtime_reports_the_oracle_module(tmp_path):
    src = Path(spikecert.__file__).resolve().parents[1]
    seconds = probes.importtime_seconds(src, tmp_path, 1)
    assert seconds["spikecert"] > 0.0
    assert seconds["spikecert.oracle"] > 0.0
