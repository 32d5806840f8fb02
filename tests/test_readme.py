"""README contract: its library quick start runs, and its Public API list is ``__all__``."""

import re
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
    listed = []
    for line in _section("Public API").splitlines():
        if line.startswith("- `"):
            _, names = line.split(": ", 1)
            listed += re.findall(r"`([^`]+)`", names)
    assert len(listed) == len(set(listed))
    assert set(listed) == set(floorsum.__all__)
