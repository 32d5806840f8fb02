"""Golden-file tests: exact stdout bytes, stderr bytes and exit status of the CLI.

Each case runs one command line as an installed ``floorsum`` runs it, through
the entry point in a fresh process (``helpers.run_entry_point``), and compares
its stdout with ``tests/golden/<name>.out`` and its stderr with
``tests/golden/<name>.err``; a missing file stands for empty output.  The
files were captured from a trusted build; any change to them is a change to
the CLI's output.

To re-record after an intended output change:

    PYTHONPATH=src python tests/test_golden.py
"""

import tempfile
from pathlib import Path

import pytest

from floorsum import SearchSpace

from helpers import poisoned_cache, run_entry_point

GOLDEN = Path(__file__).parent / "golden"

FORMATS = ("human", "csv", "json")

# (name stem, argv) for every command at desk scale, and a few more queries, in every format.
_QUERIES = [
    ("eval", ["eval", "--m", "5", "--a", "2,3", "--k", "1"]),
    ("table", ["table", "--n", "4", "--m-max", "12"]),
    ("search", ["search", "--n", "4", "--m", "9"]),
    ("verify-bounds", ["verify-bounds", "--n", "4", "--m", "12"]),
    ("verify-conjecture", ["verify-conjecture", "--n", "5", "--m", "6"]),
    ("f-seq", ["f-seq", "--n-max", "12"]),
    ("delta-scan", ["delta-scan", "--m", "10"]),
    ("search-cap", ["search", "--n", "3", "--m", "7", "--cap", "2"]),
    ("verify-conjecture-part2", ["verify-conjecture", "--n", "6", "--m", "15"]),
]

# Doctored cache records that drive the failure paths (see helpers.poisoned_cache), the
# query each drives and its exit status.
POISON = {
    "bound-violation": (SearchSpace(2, 10), {"max_value": 99},
                        ["verify-bounds", "--n", "2", "--m", "10"], 3),
    "conjecture-failure": (SearchSpace(5, 6), {"max_value": 13, "max_count": 1},
                           ["verify-conjecture", "--n", "5", "--m", "6"], 0),
}

# name -> (argv, expected exit status, poisoned cache to pass via --cache or None)
CASES = {
    f"{stem}-{fmt}": (argv + ["--format", fmt], 0, None)
    for stem, argv in _QUERIES for fmt in FORMATS
}
CASES.update({
    f"{poison}-{fmt}": (argv + ["--format", fmt], code, poison)
    for poison, (_, _, argv, code) in POISON.items() for fmt in FORMATS
})
CASES.update({
    "search-k-range-human": (["search", "--n", "2", "--m", "8", "--k-min", "2",
                              "--k-max", "5"], 0, None),
    "table-n1-human": (["table", "--n", "1", "--m-max", "5"], 0, None),
    "delta-scan-m-max-human": (["delta-scan", "--m-max", "6"], 0, None),
    "verify-bounds-n2-csv": (["verify-bounds", "--n", "2", "--m", "10",
                              "--format", "csv"], 0, None),
    "help": (["--help"], 0, None),
    "version": (["--version"], 0, None),
    "usage-no-command": ([], 2, None),
    "usage-eval-k": (["eval", "--m", "5", "--a", "2,3", "--k", "7"], 2, None),
    "usage-eval-a": (["eval", "--m", "5", "--a", "2;3", "--k", "1"], 2, None),
    "usage-eval-a-empty": (["eval", "--m", "5", "--a", "", "--k", "1"], 2, None),
    "usage-eval-a-negative": (["eval", "--m", "5", "--a", "2,-1", "--k", "1"], 2, None),
    "usage-table-workers": (["table", "--n", "2", "--m-max", "3", "--workers", "0"], 2, None),
    "usage-search-k-range": (["search", "--n", "2", "--m", "8", "--k-min", "5",
                              "--k-max", "3"], 2, None),
    "usage-search-cap": (["search", "--n", "2", "--m", "8", "--cap", "0"], 2, None),
    "usage-verify-conjecture-n": (["verify-conjecture", "--n", "3", "--m", "6"], 2, None),
    "usage-verify-conjecture-divisibility": (["verify-conjecture", "--n", "5", "--m", "5"],
                                             2, None),
    "usage-f-seq": (["f-seq", "--n-max", "1"], 2, None),
    "usage-delta-scan-none": (["delta-scan"], 2, None),
    "usage-delta-scan-both": (["delta-scan", "--m", "5", "--m-max", "6"], 2, None),
    "usage-format": (["f-seq", "--n-max", "3", "--format", "xml"], 2, None),
    "usage-unknown-flag": (["search", "--nn", "3"], 2, None),
    "usage-unknown-flag-several": (["search", "--N", "3"], 2, None),
    "usage-flag-missing-value": (["search", "--n", "3", "--m"], 2, None),
    "usage-unknown-command": (["nope"], 2, None),
    "usage-unknown-command-suggestion": (["serch", "--n", "3"], 2, None),
    "usage-extra-argument": (["eval", "--m", "5", "--a", "2,3", "--k", "1", "extra"], 2, None),
    "usage-cache-directory": (["search", "--n", "3", "--m", "5", "--cache", "."], 2, None),
    "help-search-h": (["search", "-h"], 0, None),
})
CASES.update({
    f"help-{command}": ([command, "--help"], 0, None)
    for command in ("eval", "table", "search", "verify-bounds", "verify-conjecture",
                    "f-seq", "delta-scan")
})

# Oversize queries, each refused with exit 2 at once: past 64-bit range (a widest cell or
# a site cap), past Python's decimal digit limit (in an argument, or in f-seq's terms), or
# refused its memory by the allocator.
HUGE = str(10**4000)
CASES.update({
    "oversize-search": (["search", "--n", "70", "--m", "3"], 2, None),
    "oversize-search-n-digits": (["search", "--n", "20000", "--m", "3"], 2, None),
    "oversize-verify-conjecture-m-digits": (["verify-conjecture", "--n", "4",
                                             "--m", str(10**4000 + 1)], 2, None),
    "oversize-table-m-max-digits": (["table", "--n", "1", "--m-max", HUGE], 2, None),
    "oversize-delta-scan-m-max-digits": (["delta-scan", "--m-max", HUGE], 2, None),
    "oversize-delta-scan-memory": (["delta-scan", "--m", "100000000000"], 2, None),
    "oversize-search-memory": (["search", "--n", "1", "--m", "100000000000"], 2, None),
    "oversize-search-n2-memory": (["search", "--n", "2", "--m", "100000000000"], 2, None),
    "oversize-search-cap": (["search", "--n", "2", "--m", "4", "--cap", str(2**63)], 2, None),
    "oversize-f-seq-n-max-digits": (["f-seq", "--n-max", HUGE], 2, None),
    # refused by the digit rule before its list is allocated; test_cli turns the limit off
    # to drive f-seq's memory refusal
    "oversize-f-seq-memory": (["f-seq", "--n-max", "1000000000000"], 2, None),
    "oversize-f-seq-printed-digits": (["f-seq", "--n-max", "14300"], 2, None),
})


def _run(name: str, directory: Path):
    argv, _, poison = CASES[name]
    if poison is not None:
        space, overrides, _, _ = POISON[poison]
        argv = argv + ["--cache", poisoned_cache(directory / f"{poison}.jsonl", space, **overrides)]
    return run_entry_point(argv, directory)


def _golden(name: str, suffix: str) -> bytes:
    path = GOLDEN / f"{name}{suffix}"
    return path.read_bytes() if path.exists() else b""


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path):
    result = _run(name, tmp_path)
    assert result.exit_code == CASES[name][1]
    assert result.stdout_bytes == _golden(name, ".out")
    assert result.stderr_bytes == _golden(name, ".err")


def test_every_golden_file_belongs_to_a_case():
    # re-recording never deletes the files of a removed case, so this catches them
    orphans = [path.name for path in GOLDEN.iterdir()
               if path.stem not in CASES or path.suffix not in (".out", ".err")]
    assert orphans == []


def _record(directory: Path) -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name in sorted(CASES):
        result = _run(name, directory)
        if result.exit_code != CASES[name][1]:
            raise SystemExit(f"{name}: exit status {result.exit_code}, "
                             f"expected {CASES[name][1]}")
        for suffix, data in ((".out", result.stdout_bytes), (".err", result.stderr_bytes)):
            path = GOLDEN / f"{name}{suffix}"
            if data:
                path.write_bytes(data)
            elif path.exists():
                path.unlink()
    print(f"recorded {len(CASES)} golden cases in {GOLDEN}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        _record(Path(scratch))
