"""The package API: the README's top-level names, and no definition that
the package itself never uses."""

import ast
import re
from collections import Counter
from pathlib import Path

import weyl27

README = Path(__file__).resolve().parent.parent / "README.md"


def test_all_is_the_readme_library_api():
    block = re.search(r"from weyl27 import \(([^)]*)\)", README.read_text(encoding="utf-8"))
    assert block is not None
    documented = [name.strip() for name in block.group(1).split(",") if name.strip()]
    # the README names lines_of_mask in prose, beside the imported helpers
    assert sorted([*documented, "lines_of_mask"]) == sorted(weyl27.__all__)
    for name in weyl27.__all__:
        assert callable(getattr(weyl27, name))


SRC = Path(weyl27.__file__).resolve().parent

# Names the benchmark looks up at fixed module paths (perfbench/child.py
# wraps them by name); they stay until the benchmark reads a stats side
# channel instead, the benchmark change of ROADMAP item 13.
BENCHMARK_PINNED = {
    "orbit_size",
    "matrix_rank",
    "orthogonal_complement",
    "cokernel_invariants",
    "is_even",
}


def _names(node):
    """Every name and attribute name used under an AST node."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def test_every_definition_has_a_caller_in_the_package():
    # a module-level function or class, private or public, or a public
    # method that nothing else in src/ refers to is test-only or dead: it
    # belongs in tests/oracles.py, or nowhere
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))]
    definitions = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions.append(node)
            if isinstance(node, ast.ClassDef):
                definitions += [
                    n
                    for n in node.body
                    if isinstance(n, ast.FunctionDef) and not n.name.startswith("_")
                ]
    uses = Counter(name for tree in trees for name in _names(tree))
    unused = [
        node.name
        for node in definitions
        if node.name not in weyl27.__all__
        and node.name not in BENCHMARK_PINNED
        and uses[node.name] == Counter(_names(node))[node.name]
    ]
    assert unused == []
    assert BENCHMARK_PINNED <= {node.name for node in definitions}


def test_every_module_level_import_is_used():
    # the package re-exports through __init__; every other module uses
    # each name it imports
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        uses = set(_names(tree))
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound = [(a.asname or a.name).split(".")[0] for a in node.names]
                unused += [f"{path.name}: {name}" for name in bound if name not in uses]
    assert unused == []
