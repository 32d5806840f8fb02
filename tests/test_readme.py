"""README contract: its library quick start runs, each Public API bullet is that
module's ``__all__``, which ``floorsum.__all__`` joins in the same order, and every
public name is used by the library or by the quick start."""

import ast
import importlib
import re
from itertools import chain
from pathlib import Path

import floorsum

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _section(title: str) -> str:
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:end if end != -1 else None]


def _quick_start() -> str:
    (code,) = re.findall(r"```python\n(.*?)```", _section("Library quick start"), re.S)
    return code


def _names_read(source: str) -> set[str]:
    """Every name ``source`` reads as a variable or an attribute, outside the body of
    the def or class that binds that name; docstrings and ``__all__`` strings do not count."""
    read = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            name = node.id if isinstance(node, ast.Name) else node.attr
            if name not in inside:
                read.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(source), frozenset())
    return read


def test_library_quick_start_runs():
    exec(compile(_quick_start(), "README.md", "exec"), {})


def test_every_public_name_is_used_by_the_library_or_the_quick_start():
    # a name only the tests call belongs in the tests, not in the public API
    library = Path(floorsum.__file__).parent.glob("*.py")
    read = set().union(*(_names_read(path.read_text(encoding="utf-8")) for path in library),
                       _names_read(_quick_start()))
    assert [name for name in floorsum.__all__ if name not in read] == []


def test_public_api_list_matches_all():
    bullets = {}
    for line in _section("Public API").splitlines():
        if line.startswith("- `"):
            module, names = line.split(": ", 1)
            bullets[module.strip("- `")] = re.findall(r"`([^`]+)`", names)
    assert bullets.pop("floorsum") == ["__version__"]
    for module, names in bullets.items():
        assert names == importlib.import_module(f"floorsum.{module}").__all__, module
    assert floorsum.__all__ == ["__version__", *chain.from_iterable(bullets.values())]
    # a name in two modules' lists would be bound twice by the star imports, last one wins
    assert len(floorsum.__all__) == len(set(floorsum.__all__))
