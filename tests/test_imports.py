"""Each name of the package has one import path: the module that defines it."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import threshauth

PACKAGE = Path(threshauth.__file__).parent
MODULES = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
README = Path(__file__).resolve().parents[1] / "README.md"


def _defined_at_top_level(tree: ast.Module) -> set[str]:
    """Names a module binds itself at top level; imported names do not count."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def test_every_relative_import_names_a_definition_of_its_module():
    defined = {name: _defined_at_top_level(tree) for name, tree in MODULES.items()}
    borrowed = [
        f"{module}: from .{node.module} import {alias.name}"
        for module, tree in MODULES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name not in defined.get(node.module, ())
    ]
    assert borrowed == []


def test_package_init_imports_nothing():
    imports = [
        ast.unparse(node)
        for node in ast.walk(MODULES["__init__"])
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert imports == []


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # numpy loads numpy.random on first use, at about 6 MB of resident
    # memory; a command that draws nothing should not pay for it
    probe = "import sys, threshauth.cli; print('numpy.random' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    assert out.stdout.strip() == "False"


def test_the_readme_quick_start_runs_and_shows_the_start_of_each_repr():
    # a comment on an assignment's line, or on a line of its own after
    # it, shows the start of the assigned value's repr, up to its "..."
    quick_start = r"## Quick start \(library\)\n.*?```python\n(.*?)```"
    [block] = re.findall(quick_start, README.read_text(), re.S)
    namespace = {}
    exec(block, namespace)
    shown, name = {}, None
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if assigned := re.match(r"(\w+) = ", code):
            name = assigned[1]
        if comment.strip():
            shown[name] = comment.strip().split("...")[0]
    assert list(shown) == ["n", "tau", "cap", "best"]
    for name, start in shown.items():
        assert repr(namespace[name]).startswith(start), (name, start)
