"""The names the audit benchmark in perfbench/ reaches into the program by.

The tracer resolves stage functions, counted helpers and `reference_model`
by name and patches them in every `spikecert` module; the import probe reads
the `spikecert.oracle` line of `-X importtime`.  A rename or deletion in the
program breaks `perfbench/run.py --trace 1` without failing any other test.
"""

import sys
from pathlib import Path

import spikecert
import spikecert.basis
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


def test_tracer_installs_and_restores_every_original():
    before = hooked_attributes()
    t = tracer.Tracer()
    t.install()
    try:
        during = hooked_attributes()
        for _, module, attr in tracer.SPANS + tracer.COUNTS:
            key = (module.__name__, attr)
            assert during[key] is not before[key], key
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


def test_importtime_reports_the_oracle_module(tmp_path):
    src = Path(spikecert.__file__).resolve().parents[1]
    seconds = probes.importtime_seconds(src, tmp_path, 1)
    assert seconds["spikecert"] > 0.0
    assert seconds["spikecert.oracle"] > 0.0
