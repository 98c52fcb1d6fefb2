"""`src/` holds only what a command runs.

Every module-level function, class and constant of the package, and every
method other than a dunder, must have a reader in `src/` outside its own
definition. A name counts as read where it is loaded in its own module,
taken as an attribute (`module.name`, `obj.method`) or imported with
`from ... import` anywhere in the package. The only exemptions are the
names that the benchmark (`BENCHMARK.json`, `perfbench/*.py`) mentions,
since the benchmark times and counts them by name, and `__all__`.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "helmgreen"


def _benchmark_names():
    files = [ROOT / "BENCHMARK.json", *sorted((ROOT / "perfbench").glob("*.py"))]
    return {word for path in files
            for word in re.findall(r"[A-Za-z_][A-Za-z0-9_]*", path.read_text())}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(tree):
    """(name, node, is_method) for each module-level function, class and
    constant, and each non-dunder method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not _is_dunder(item.name):
                    yield item.name, item, True
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node, False


def _reads(tree):
    """(name, line, kind) of every read in a module: a loaded Name ("name"),
    an attribute ("attr") or a from-import ("attr", as it reads another
    module's name)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno, "name"
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno, "attr"
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno, "attr"


def _unread():
    trees = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    reads = {path: list(_reads(tree)) for path, tree in trees.items()}
    exempt = _benchmark_names() | {"__all__"}
    unread = []
    for path, tree in trees.items():
        for name, node, is_method in _definitions(tree):
            if name in exempt:
                continue
            span = range(node.lineno, node.end_lineno + 1)
            found = any(
                read == name and (kind == "attr" or not is_method)
                and (where != path or line not in span) and (kind == "attr" or where == path)
                for where, module_reads in reads.items()
                for read, line, kind in module_reads
            )
            if not found:
                unread.append(f"{path.name}:{node.lineno} {name}")
    return unread


def test_the_package_has_definitions_to_check():
    tree = ast.parse((PACKAGE / "helmholtz.py").read_text())
    assert {"assemble", "Grid1D", "diagonal_rows"} <= {n for n, *_ in _definitions(tree)}


def test_every_definition_has_a_reader_in_src():
    assert _unread() == []
