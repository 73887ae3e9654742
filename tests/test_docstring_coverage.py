"""Docstring-coverage gate over the public campaign-construction API.

An ``interrogate``-style check without the dependency: walk the AST of
the gated modules and require a docstring on every public module, class,
function and method. The threshold is pinned at 100% for the scenario
layer and the campaign execution engine — the two surfaces external
consumers script against — and for the segment compiler and batch
runner the engine's hot path runs through, so an undocumented public
symbol fails CI, not a style review.
"""

import ast
import os
from typing import Iterator, List, Tuple

import pytest

_SRC = os.path.join(os.path.dirname(__file__), "..", "src", "repro")

#: The gated surface: every .py file under these paths (package-relative).
GATED_PATHS = (
    "scenarios",
    "qec",
    os.path.join("faults", "checkpoint.py"),
    os.path.join("faults", "executor.py"),
    os.path.join("faults", "plan.py"),
    os.path.join("faults", "layout_map.py"),
    os.path.join("faults", "physics.py"),
    os.path.join("simulators", "segments.py"),
    os.path.join("simulators", "backend.py"),
)

#: Pinned threshold. 100%: the gate is "no undocumented public symbol",
#: not a budget to spend.
REQUIRED_COVERAGE = 1.0


def _gated_files() -> List[str]:
    files: List[str] = []
    for entry in GATED_PATHS:
        path = os.path.join(_SRC, entry)
        if os.path.isdir(path):
            for name in sorted(os.listdir(path)):
                if name.endswith(".py"):
                    files.append(os.path.join(path, name))
        else:
            files.append(path)
    assert files, "gated paths resolve to no files — layout moved?"
    return files


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _public_symbols(
    tree: ast.Module, filename: str
) -> Iterator[Tuple[str, bool]]:
    """Yield (qualified name, has_docstring) for every gated symbol."""
    module = os.path.basename(filename)
    yield f"{module} (module)", ast.get_docstring(tree) is not None
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if _is_public(node.name):
                yield (
                    f"{module}:{node.name}",
                    ast.get_docstring(node) is not None,
                )
        elif isinstance(node, ast.ClassDef) and _is_public(node.name):
            yield (
                f"{module}:{node.name}",
                ast.get_docstring(node) is not None,
            )
            for item in node.body:
                if not isinstance(
                    item, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                # Public methods; dunders other than __init__ are
                # conventional enough to document themselves.
                if not _is_public(item.name):
                    continue
                yield (
                    f"{module}:{node.name}.{item.name}",
                    ast.get_docstring(item) is not None,
                )


def _coverage() -> Tuple[float, List[str]]:
    total = 0
    missing: List[str] = []
    for path in _gated_files():
        with open(path, "r", encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), filename=path)
        for name, documented in _public_symbols(tree, path):
            total += 1
            if not documented:
                missing.append(name)
    assert total > 0
    return 1.0 - len(missing) / total, missing


def test_public_api_docstring_coverage():
    coverage, missing = _coverage()
    assert coverage >= REQUIRED_COVERAGE, (
        f"public-API docstring coverage {coverage:.1%} is below the "
        f"pinned {REQUIRED_COVERAGE:.0%}; undocumented symbols:\n  "
        + "\n  ".join(missing)
    )


def test_gate_actually_sees_the_api():
    """Guard against the gate silently going blind after a refactor."""
    _, missing = _coverage()
    files = _gated_files()
    assert any(f.endswith("executor.py") for f in files)
    assert any(os.sep + "scenarios" + os.sep in f for f in files)


if __name__ == "__main__":  # pragma: no cover - manual inspection aid
    coverage, missing = _coverage()
    print(f"coverage: {coverage:.1%}")
    for name in missing:
        print(f"  missing: {name}")
