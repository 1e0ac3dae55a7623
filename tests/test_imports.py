"""Import hygiene: what `import spikecert` loads, and imports nobody reads.

scipy is needed only by the quadrature checks in `oracle.py`, which import
it on their first call; the package, the CLI, the audit and the oracle
suites without a quadrature stay free of it, so those calls do not pay for
loading it.  The checks run in a fresh interpreter, because this test
process has scipy loaded already.

No linter is installed, so `ast` scans guard against imported names that a
module never references, and against private module-level helpers of the
package that nothing references.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
