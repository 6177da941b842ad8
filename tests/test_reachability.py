"""The program is what the command line reaches.

Every top-level definition of the package is reachable from ``cli.main``
through the names the definitions use, or is named below with the reason
it stays. A helper that only tests call belongs in the tests' oracles
(``tests/conftest.py``), so a dead helper cannot come back unnoticed. A
reason that cites the benchmark (``bench/``) names what the benchmark
pins, and the entry expires when it stops pinning that.
"""

import ast
import re
from pathlib import Path

import threshauth

PACKAGE = Path(threshauth.__file__).parent
MODULES = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
BENCH = Path(__file__).resolve().parents[1] / "bench"

# (module, name): why it stays although cli.main does not reach it
ALLOWED = {
    ("threshauth", "__version__"): "the package version",
    ("experiments", "parse_csv"): "the CSV reader, the other side of emit_csv's schema check",
    ("experiments", "_parse_field"): "a cell of parse_csv",
    ("asymptotic", "bayes_risk"): "test oracle; bench/ pins its import (asymptotic.binomial_cdf)",
    ("exact", "BinomialSpec"): "the argument of binomial_cdf and binomial_sf",
    ("exact", "binomial_pmf"): "a layer bench/ reports on its own (exact.binomial_pmf)",
    ("exact", "binomial_cdf"): "pinned by bench/ (exact.binomial_cdf)",
    ("exact", "binomial_sf"): "called by bayes_risk",
    ("channel", "simulate_error_counts"): "pinned by bench/ (channel.simulate_error_counts)",
}


def _base(target: ast.AST) -> ast.AST:
    """The name an assignment target binds or changes: ``x`` of ``x[i].y``."""
    while isinstance(target, (ast.Subscript, ast.Attribute)):
        target = target.value
    return target


def _definitions(tree: ast.Module) -> dict[str, list[ast.AST]]:
    """Each name a module binds at top level, with the statements that bind
    or change it (an item or attribute assigned at top level changes it)."""
    defined: dict[str, list[ast.AST]] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.setdefault(node.name, []).append(node)
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            for target in getattr(node, "targets", [getattr(node, "target", None)]):
                if isinstance(_base(target), ast.Name):
                    defined.setdefault(_base(target).id, []).append(node)
    return defined


def _imported(tree: ast.Module) -> dict[str, tuple[str, str]]:
    """Each name a module imports from a sibling module: its (module, name) there."""
    return {
        alias.asname or alias.name: (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }


def _used(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _reachable() -> set[tuple[str, str]]:
    modules = {name: ("threshauth" if name == "__init__" else name) for name in MODULES}
    defined = {modules[m]: _definitions(tree) for m, tree in MODULES.items()}
    imported = {modules[m]: _imported(tree) for m, tree in MODULES.items()}
    # statements a module runs on import, other than definitions and imports
    roots = [("cli", "main")] + [
        (modules[m], name)
        for m, tree in MODULES.items()
        for node in tree.body
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Assign,
                                 ast.AugAssign, ast.AnnAssign, ast.Import, ast.ImportFrom, ast.Expr))
        for name in _used(node)
    ]
    seen, todo = set(), roots
    while todo:
        module, name = todo.pop()
        if name in imported[module]:
            module, name = imported[module][name]
        if (module, name) in seen or name not in defined.get(module, {}):
            continue
        seen.add((module, name))
        todo += [(module, used) for node in defined[module][name] for used in _used(node)]
    return seen


def test_every_definition_is_reached_from_the_cli_or_allowed():
    reached = _reachable()
    every = {
        ("threshauth" if m == "__init__" else m, name)
        for m, tree in MODULES.items()
        for name in _definitions(tree)
    }
    assert sorted(every - reached - set(ALLOWED)) == []


def test_the_allowlist_names_only_definitions_the_cli_does_not_reach():
    # an entry that the program has come to use, or that is gone, is dropped
    reached = _reachable()
    stale = [
        key for key in ALLOWED
        if key in reached or key[1] not in _definitions(MODULES[
            "__init__" if key[0] == "threshauth" else key[0]
        ])
    ]
    assert stale == []


def _pinned_by_bench() -> set[str]:
    """The program names, as module.name, that bench/ pins: the entries of
    REQUIRED_PATCHES in run.py and the keys of GROUP_OF in spans.py, read
    from their source without importing either file."""
    pinned = set()
    for file, table in (("run.py", "REQUIRED_PATCHES"), ("spans.py", "GROUP_OF")):
        tree = ast.parse((BENCH / file).read_text())
        [value] = [
            node.value for node in tree.body
            if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == [table]
        ]
        names = value.keys if isinstance(value, ast.Dict) else value.elts
        pinned |= {
            name.value.removeprefix("threshauth.") for name in names
            if isinstance(name, ast.Constant) and isinstance(name.value, str)
        }
    return pinned


def test_each_reason_citing_the_benchmark_names_what_it_still_pins():
    pinned = _pinned_by_bench()
    assert {"exact.binomial_cdf", "exact.binomial_pmf"} <= pinned
    unpinned = {
        key: reason for key, reason in ALLOWED.items()
        if "bench/" in reason and not set(re.findall(r"\w+\.\w+", reason)) & pinned
    }
    assert unpinned == {}
