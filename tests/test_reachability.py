"""Every public top-level function and class in ``src/`` is reached.

A name is reached when something other than its own definition names
it: another function or module in ``src/`` (the CLI included), a file
under ``perfbench/``, or a CI step.  Re-exports (imports and
``__all__`` lists), docstrings and tests do not count, so a name that
only a test or a package ``__init__`` mentions fails here.  What stays
public without a caller is listed in :data:`ALLOWED`, one reason each.
"""

from __future__ import annotations

import ast
import functools
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Public names kept without a caller, and why.
ALLOWED = {
    "simulate": "test oracle: the dense statevector reference",
    "estimate_psd_exponent": "test oracle: the 1/f spectrum fit",
    "payloads_equivalent": "test oracle: same-seed rerun comparison",
    "predicted_adaptations": "ROADMAP item 4 compares it with counted rounds",
    "predicted_circuit_runs": "ROADMAP item 4 compares it with counted runs",
    "sec9_headline": "ROADMAP item 8 grades it as a check",
    "ServiceClient": "the in-process client the service tests drive",
}

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DOTTED = re.compile(r"[A-Za-z_][\w.:]*")


def _docstrings(tree: ast.AST) -> set[int]:
    """ids of the docstring constants in ``tree``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                found.add(id(body[0].value))
    return found


def _names(node: ast.AST, skip: set[int]) -> set[str]:
    """Names ``node`` uses, outside the subtrees whose ids are in ``skip``."""
    found: set[str] = set()
    stack = [node]
    while stack:
        current = stack.pop()
        if id(current) in skip:
            continue
        if isinstance(current, ast.Name):
            found.add(current.id)
        elif isinstance(current, ast.Attribute):
            found.add(current.attr)
        elif isinstance(current, ast.Constant) and isinstance(current.value, str):
            # Dotted paths and attribute names in strings (perfbench
            # wraps entry points by name), not free text.
            if _DOTTED.fullmatch(current.value):
                found.update(_IDENTIFIER.findall(current.value))
        stack.extend(ast.iter_child_nodes(current))
    return found


def _is_reexport(node: ast.stmt) -> bool:
    """Imports and ``__all__`` assignments, which only pass names on."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return True
    targets = []
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _public_definitions(tree: ast.Module) -> list[ast.stmt]:
    return [
        node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]


def unreached_names(
    sources: dict[str, str], ci_text: str
) -> dict[str, list[str]]:
    """Public top-level names in ``src/*`` keys that nothing else names.

    ``sources`` maps a path (``src/...`` or ``perfbench/...``) to its
    text; returns ``{name: [defining paths]}``.
    """
    trees = {path: ast.parse(text) for path, text in sources.items()}
    definitions: dict[str, list[tuple[str, ast.stmt]]] = {}
    for path, tree in trees.items():
        if path.startswith("src/"):
            for node in _public_definitions(tree):
                definitions.setdefault(node.name, []).append((path, node))
    # Which top-level statements use each name, so that a definition's
    # own body is left out of its own count.
    users: dict[str, set[int]] = {}
    for tree in trees.values():
        skip = _docstrings(tree)
        for stmt in tree.body:
            if not _is_reexport(stmt):
                for used in _names(stmt, skip):
                    users.setdefault(used, set()).add(id(stmt))
    ci_words = set(_IDENTIFIER.findall(ci_text))
    unreached = {}
    for name, defined in definitions.items():
        own = {id(node) for _, node in defined}
        if name not in ci_words and not users.get(name, set()) - own:
            unreached[name] = sorted(path for path, _ in defined)
    return unreached


def _repo_sources() -> dict[str, str]:
    sources = {}
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            sources[path.relative_to(ROOT).as_posix()] = path.read_text()
    return sources


def _ci_text() -> str:
    return "\n".join(
        path.read_text()
        for path in sorted((ROOT / ".github" / "workflows").glob("*.yml"))
    )


@functools.lru_cache(maxsize=1)
def _repo_unreached() -> dict[str, list[str]]:
    return unreached_names(_repo_sources(), _ci_text())


def test_every_public_name_in_src_is_reached():
    unreached = _repo_unreached()
    stray = {name: paths for name, paths in unreached.items() if name not in ALLOWED}
    assert not stray, (
        "public names that no src module, perfbench file or CI step "
        f"names: {stray}; give them a caller, make them private or "
        "delete them"
    )


def test_allow_list_is_short_and_current():
    assert len(ALLOWED) <= 10
    unreached = _repo_unreached()
    # An entry that gained a caller is no longer an exception.
    assert set(ALLOWED) <= set(unreached), set(ALLOWED) - set(unreached)


def test_an_added_unreached_function_fails():
    sources = _repo_sources()
    module = "src/repro/sim/gates.py"
    sources[module] += (
        "\n\ndef orphan_helper(x):\n"
        '    """Says orphan_helper; docstrings do not count."""\n'
        "    return orphan_helper(x - 1) if x else 0\n"
    )
    sources["src/repro/sim/__init__.py"] += (
        "\nfrom .gates import orphan_helper\n__all__ += ['orphan_helper']\n"
    )
    unreached = unreached_names(sources, _ci_text())
    assert unreached.get("orphan_helper") == [module]
