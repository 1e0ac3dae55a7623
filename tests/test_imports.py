"""Import hygiene: what `import spikecert` loads, and imports nobody reads.

scipy is needed only by the quadrature checks in `oracle.py`, which import
it on their first call; the package, the CLI, the audit and the oracle
suites without a quadrature stay free of it, so those calls do not pay for
loading it.  numpy is needed only by the audit stages, the dense matrices
and the oracle's checks: `import spikecert`, `spikecert closure` and
`spikecert gen-profile` load the stdlib-backed core alone.  The checks run
in a fresh interpreter, because this test process has both loaded already.

No linter is installed, so `ast` scans guard against imported names that a
module never references, against private module-level helpers of the
package that nothing references, against public functions and methods that
no other module of the package reads unless a named consumer keeps them,
and against fields of the audit and operator configurations and of the
basis interface that nothing reads: a knob that changes nothing, or an
accessor no stage calls.
"""

import ast
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

from spikecert.audit import AuditConfig
from spikecert.basis import BasisModel
from spikecert.operator import OperatorConfig

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

CHILD = """
import contextlib, io, sys

import spikecert
assert "scipy" not in sys.modules, "import spikecert"

from spikecert.cli import main
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = main(["closure", "--delta", "8.421739e-12", "--M", "482.6", "--K", "1.1e4"])
assert code == 0 and "local verdict = True" in out.getvalue(), (code, out.getvalue())
assert "scipy" not in sys.modules, "spikecert closure"

from pathlib import Path
bundled = Path(spikecert.__file__).parent / "data" / "reference_certificate.json"
result = spikecert.run_audit(bundled)
assert result.exit_code == 0 and result.verified, result.log
assert "scipy" not in sys.modules, "run_audit"

report = spikecert.check_reconstruction_scaling(1.0, 1.0, [0.0, 0.5])
assert report.passed, report
assert "scipy.integrate" in sys.modules
print("ok")
"""


ORACLE_CHILD = """
import contextlib, io, sys

from spikecert.cli import main
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = main(["oracle", "conjugation", "--grid", "64"])
assert code == 0 and len(out.getvalue().splitlines()) == 3, (code, out.getvalue())
assert "scipy" not in sys.modules, "spikecert oracle conjugation"
print("ok")
"""


NUMPY_CHILD = """
import contextlib, io, os, sys, tempfile

def absent(where):
    for name in ("numpy", "scipy"):
        assert name not in sys.modules, (where, name)

import spikecert
absent("import spikecert")

from spikecert.cli import main
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = main(
        ["closure", "--delta", "8.421739e-12", "--M", "482.6", "--K", "1.1e4", "--eps", "1e-20"]
    )
assert code == 0 and "torus verdict = True" in out.getvalue(), (code, out.getvalue())
absent("spikecert closure")

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "cert.json")
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(["gen-profile", "--modes", "16", "--seed", "3", "--out", path])
    assert code == 0 and "wrote 16-mode certificate" in out.getvalue(), (code, out.getvalue())
    absent("spikecert gen-profile")

    # the control: the audit itself needs numpy, so the checks above can fail
    result = spikecert.run_audit(path, spikecert.AuditConfig(truncation_N=16, j_min=17))
    assert result.exit_code == 1, result.log.render()
assert "numpy" in sys.modules, "run_audit"
print("ok")
"""


def run_child(code):
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_package_cli_and_audit_do_not_load_scipy():
    run_child(CHILD)


def test_oracle_conjugation_suite_does_not_load_scipy():
    run_child(ORACLE_CHILD)


def test_package_closure_and_gen_profile_do_not_load_numpy():
    run_child(NUMPY_CHILD)


def test_closure_command_imports_no_numpy():
    # the path the benchmark's cli workload runs: a fresh `-m spikecert.cli` child
    argv = ["closure", "--delta", "8.421739e-12", "--M", "482.6", "--K", "1.1e4"]
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "spikecert.cli", *argv],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "local verdict = True" in proc.stdout
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()]
    # the report is real: it lists the package, and the oracle the import probe reads
    assert {"spikecert", "spikecert.oracle", "spikecert.closure"} <= set(imported)
    assert [name for name in imported if "numpy" in name or "scipy" in name] == []


def unused_imports(path: Path):
    """Names a module imports but never references, with their lines.

    `from __future__` imports are directives, not names, and are skipped.
    """
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


# __init__.py files import names to re-export them, not to use them
MODULES = sorted(
    p
    for p in [*(SRC / "spikecert").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    if p.name != "__init__.py"
)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_unused_import_scan_flags_an_unread_name(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import math as m\n"
        "from typing import List, Optional\n"
        "def f(x: Optional[int]) -> float:\n"
        "    return m.pi + len(os.sep)\n"
    )
    assert unused_imports(module) == [(4, "List")]


def dead_private_names(paths):
    """Module-level private names (`_x`) defined in one of `paths` that are
    referenced neither in their own module, other than at their definition,
    nor by an import in another, with their files and lines."""
    trees = {path: ast.parse(path.read_text(), str(path)) for path in paths}
    imported = {
        (node.module.rsplit(".", 1)[-1], alias.name)
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module
        for alias in node.names
    }
    dead = []
    for path, tree in trees.items():
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
        }
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            for name in names:
                private = name.startswith("_") and not name.startswith("__")
                if private and name not in read and (path.stem, name) not in imported:
                    dead.append((path.name, node.lineno, name))
    return sorted(dead)


def test_no_dead_private_helpers():
    assert dead_private_names(sorted((SRC / "spikecert").glob("*.py"))) == []


def test_dead_helper_scan_flags_an_unreferenced_helper(tmp_path):
    (tmp_path / "a.py").write_text(
        "_LIMIT = 3\n"
        "_unused: int = 4\n"
        "def _helper(x):\n"
        "    return x + _LIMIT\n"
        "def _shared():\n"
        "    return 1\n"
        "def _orphan():\n"
        "    _orphan_local = 2\n"
        "    return _orphan_local\n"
        "def public():\n"
        "    return _helper(1)\n"
    )
    (tmp_path / "b.py").write_text("from .a import _shared\nprint(_shared())\n")
    paths = [tmp_path / "a.py", tmp_path / "b.py"]
    assert dead_private_names(paths) == [("a.py", 2, "_unused"), ("a.py", 7, "_orphan")]


def unread_public_names(paths):
    """("module", "name") for each public module-level function, and each
    public method of a public class ("module", "Class.method"), defined in
    one of `paths` that no other of `paths` reads: a function is read by a
    `from ... import` of its name or an attribute load of it, a method by an
    attribute load of its name (by name alone: the scan infers no types)."""
    trees = {path: ast.parse(path.read_text(), str(path)) for path in paths}
    defined = []
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                defined.append((path, node.name, node.name, False))
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        defined.append((path, f"{node.name}.{sub.name}", sub.name, True))
    loaded, imported = {}, {}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.setdefault(node.attr, set()).add(path)
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    imported.setdefault(alias.name, set()).add(path)
    unread = []
    for path, qualname, name, method in defined:
        readers = loaded.get(name, set()) | (set() if method else imported.get(name, set()))
        if not readers - {path}:
            unread.append((path.stem, qualname))
    return sorted(unread)


# Public names no other module of the package reads, each with the consumer
# that keeps it: an acceptance criterion, a perfbench hook (the tracer wraps
# the function by name), the console script, or the oracle test of a
# function `oracle.py` runs itself.  A name that gains a reader in the
# package, or is deleted, leaves the table.
KEPT = {
    ("cli", "main"): "pyproject.toml",  # the `spikecert` console script
    ("constants", "convolution_constant"): "perfbench/tracer.py",  # constants.convolution
    ("constants", "level_multiplier"): "perfbench/tracer.py",  # level_multiplier_calls
    ("constants", "lipschitz_constant"): (
        "tests/test_acceptance.py::test_criterion_05_lipschitz_headline"
    ),
    ("interval", "IntervalScalar.contains"): (
        "tests/test_acceptance.py::test_criterion_04_recovery_mapping_constant"
    ),
    ("interval", "IntervalScalar.width"): (
        "tests/test_acceptance.py::test_criterion_04_recovery_mapping_constant"
    ),
    ("interval", "arith"): (
        "tests/test_acceptance.py::test_criterion_08_containment_fuzz_hundred_thousand"
    ),
    # the interval.ptimes_n450_ms micro-timing; the tracer also wraps it
    ("matrix", "point_times_interval"): "perfbench/probes.py",
    ("operator", "apply_G"): (
        "tests/test_acceptance.py::test_criterion_09_jacobian_matches_finite_differences"
    ),
    ("operator", "apply_quadratic"): "perfbench/tracer.py",  # apply_quadratic_calls
    ("oracle", "MeridionalGrid.h_rho"): "tests/test_oracle.py::test_grid_spacing",
    ("oracle", "MeridionalGrid.h_zeta"): "tests/test_oracle.py::test_grid_spacing",
    ("oracle", "MeridionalGrid.nodes"): "tests/test_oracle.py::test_grid_spacing",
    ("oracle", "PolynomialField.deriv"): (
        "tests/test_oracle.py::test_polynomial_field_validation_and_derivatives"
    ),
    ("oracle", "PolynomialField.eval"): (
        "tests/test_oracle.py::test_polynomial_field_validation_and_derivatives"
    ),
    ("oracle", "check_axis_vanishing"): (
        "tests/test_oracle.py::test_axis_quadratic_gaussian_exponent_four"
    ),
    ("oracle", "check_conjugation"): (
        "tests/test_oracle.py::test_conjugation_quadratic_times_linear_is_exact"
    ),
    ("oracle", "check_divergence"): "tests/test_oracle.py::test_divergence_quartic_linear_stream",
    ("oracle", "default_grid"): "tests/test_acceptance.py::test_criterion_10_calculus_oracle",
    ("residual", "weight_sq_row"): "tests/test_residual.py",  # its bits against oracles.weight_sq
    # the reduction step that certify_inverse ends in
    ("stability", "inverse_bound_from_norms"): (
        "tests/test_acceptance.py::test_criterion_02_inverse_bound_format_and_soundness"
    ),
    ("stability", "interaction_envelope"): "perfbench/tracer.py",  # envelope_calls
}


def test_every_public_name_has_a_reader():
    assert unread_public_names(sorted((SRC / "spikecert").glob("*.py"))) == sorted(KEPT)


@pytest.mark.parametrize("key", sorted(KEPT), ids=lambda key: ".".join(key))
def test_kept_names_name_their_consumer(key):
    # the consumer file reads the name, inside the named test if one is given
    where, _, test = KEPT[key].partition("::")
    text = (ROOT / where).read_text()
    if test:
        start = text.index(f"def {test}(")
        end = text.find("\ndef ", start + 1)
        text = text[start : None if end < 0 else end]
    assert key[1].rsplit(".", 1)[-1] in text, (key, KEPT[key])


def test_public_name_scan_flags_an_unread_function(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n"
        "    return 1\n"
        "def called_as_attribute():\n"
        "    return 2\n"
        "def planted():\n"
        "    return used()\n"
        "def _private():\n"
        "    return 3\n"
        "class Box:\n"
        "    def read(self):\n"
        "        return self.size()\n"
        "    def size(self):\n"
        "        return 4\n"
        "class _Hidden:\n"
        "    def method(self):\n"
        "        return 5\n"
    )
    (tmp_path / "b.py").write_text(
        "from . import a\n"
        "from .a import used\n"
        "print(used(), a.called_as_attribute(), a.Box().read())\n"
    )
    paths = [tmp_path / "a.py", tmp_path / "b.py"]
    assert unread_public_names(paths) == [("a", "Box.size"), ("a", "planted")]


def unread_fields(paths, classes):
    """(class name, field) for each dataclass field of ``classes`` that no
    attribute load in ``paths`` reads, other than inside that class."""
    trees = [ast.parse(path.read_text(), str(path)) for path in paths]
    names = {cls.__name__ for cls in classes}
    inside = {
        id(node)
        for tree in trees
        for top in tree.body
        if isinstance(top, ast.ClassDef) and top.name in names
        for node in ast.walk(top)
    }
    read = {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and id(node) not in inside
    }
    return sorted(
        (cls.__name__, f.name)
        for cls in classes
        for f in dataclasses.fields(cls)
        if f.name not in read
    )


# AuditConfig.window is read by nothing: the tail bound is the gap at j_min
# alone.  It stays only because the benchmark's own tests build
# AuditConfig(window=64); the benchmark change that deletes it takes it off
# this list.  BasisModel.interaction, the scalar C_{klj}, is read by no
# stage, which reads the tensor through interaction_block: only the oracle
# tests compare against it and perfbench/tracer.py wraps it to count calls
UNREAD = [("AuditConfig", "window"), ("BasisModel", "interaction")]


def test_every_config_field_is_read():
    configs = [AuditConfig, BasisModel, OperatorConfig]
    fields = {(cls.__name__, f.name) for cls in configs for f in dataclasses.fields(cls)}
    assert set(UNREAD) <= fields, "a deleted field leaves UNREAD too"
    paths = sorted((SRC / "spikecert").glob("*.py"))
    assert unread_fields(paths, configs) == UNREAD


def test_unread_field_scan_skips_reads_inside_the_class(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "class Config:\n"
        "    def __post_init__(self):\n"
        "        assert self.size > 0\n"
        "def run(cfg):\n"
        "    cfg.seed = 3\n"
        "    return cfg.name\n"
    )

    @dataclasses.dataclass
    class Config:
        name: str
        size: int
        seed: int

    assert unread_fields([module], [Config]) == [("Config", "seed"), ("Config", "size")]
