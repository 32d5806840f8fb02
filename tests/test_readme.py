"""README contract: its library quick start runs, and each Public API bullet is that
module's ``__all__``, which ``floorsum.__all__`` joins in the same order."""

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


def test_library_quick_start_runs():
    (code,) = re.findall(r"```python\n(.*?)```", _section("Library quick start"), re.S)
    exec(compile(code, "README.md", "exec"), {})


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
