"""Mutants of the program's modules, for tests that show an oracle or a
gate catches a specific fault: the source of a module with one text
replaced, executed as a new module beside the real one.  No file is edited.
"""

import inspect
import sys
import types


def mutant_module(monkeypatch, module, old, new):
    """``module`` with the one occurrence of ``old`` replaced by ``new``."""
    source = inspect.getsource(module)
    assert source.count(old) == 1, old
    mutant = types.ModuleType(module.__name__.replace("spikecert.", "spikecert.mutant_"))
    mutant.__package__ = "spikecert"
    monkeypatch.setitem(sys.modules, mutant.__name__, mutant)
    exec(compile(source.replace(old, new), mutant.__name__, "exec"), mutant.__dict__)
    return mutant
