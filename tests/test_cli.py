"""CLI and cache tests, the CLI run in process through ``helpers.invoke`` unless a test
needs a fresh process."""

import functools
import io
import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from floorsum import (
    CacheWarning,
    DomainError,
    ExtremeRecord,
    FloorSumError,
    ResultCache,
    SearchSpace,
    cached_extremes,
    extremes,
    f_sequence,
    sequence_table,
)
import floorsum.cache
import floorsum.cli
import floorsum.symmetry
from floorsum.cli import RunConfig, run
from floorsum.core import eval_closed_all_k
from floorsum.symmetry import CASE_VALUES, delta

from helpers import STARTED_ENV, invoke, poisoned_cache, run_entry_point


# ------------------------------------------------------------------ eval


def test_every_floorsum_error_is_a_usage_error(monkeypatch):
    class NewError(FloorSumError):
        pass

    def refuse(instance):
        raise NewError("no such value")

    monkeypatch.setattr(floorsum.cli, "eval_closed", refuse)
    result = invoke(["eval", "--m", "5", "--a", "2,3", "--k", "1"])
    assert result.exit_code == 2 and result.stdout == ""
    assert result.stderr.endswith("Error: no such value\n")
    assert "Traceback" not in result.output


# ---------------------------------------------------------------- search


def test_search_refuses_an_oversize_space_once():
    # (1, ..., 1) at K = 1 is the widest cell of n = 57, m = 2; at --workers 2
    # the refusal comes before any pool starts
    message = ("Error: worst-case intermediate 16717361816799281152 exceeds 64-bit range "
               "(n=57, sum(A)=57, K=1)\n")
    for workers in ("1", "2"):
        result = invoke(["search", "--n", "57", "--m", "2", "--workers", workers])
        assert result.exit_code == 2
        assert result.stdout == "" and result.stderr.endswith(message)
    result = invoke(["search", "--n", "56", "--m", "2"])
    assert result.exit_code == 0 and result.stderr == ""


def test_oversize_space_exits_before_its_cache_file_is_created(tmp_path):
    message = ("Error: worst-case intermediate 334107428663027398868992 exceeds 64-bit range "
               "(n=70, sum(A)=140, K=2)\n")
    path = tmp_path / "new.jsonl"
    result = invoke(["search", "--n", "70", "--m", "3", "--cache", str(path)])
    assert result.exit_code == 2 and result.stderr.endswith(message)
    assert not path.exists()
    for argv in (["table", "--n", "70", "--m-max", "3"], ["table", "--n", "62", "--m-max", "2"],
                 ["verify-bounds", "--n", "70", "--m", "3"]):
        result = invoke([*argv, "--cache", str(path)])
        assert result.exit_code == 2 and "worst-case intermediate" in result.stderr, argv
        assert not path.exists(), argv


def test_a_table_or_scan_past_the_decimal_digit_limit_exits_2_at_once(tmp_path):
    # the widest modulus alone is checked, before any search or scan, and
    # before the cache file is created
    huge = str(10**4000)
    path = tmp_path / "t.jsonl"
    for argv in (["table", "--n", "1", "--m-max", huge, "--cache", str(path)],
                 ["delta-scan", "--m-max", huge]):
        result = invoke(argv)
        assert result.exit_code == 2 and result.stdout == "", argv[0]
        assert "worst-case intermediate (" in result.stderr, argv[0]
        assert len(result.stderr.encode()) < 300, argv[0]
    assert not path.exists()


def test_an_arity_past_the_decimal_digit_limit_exits_2(tmp_path):
    # the worst case of n = 20000 has about 20000 bits, over 6000 decimal digits,
    # more than Python converts to text, so the message gives its bit length
    message = ("Error: worst-case intermediate (20017 bits) exceeds 64-bit range "
               "(n=20000, sum(A)=40000, K=2)\n")
    path = tmp_path / "new.jsonl"
    for argv in (["search", "--n", "20000", "--m", "3"], ["table", "--n", "20000", "--m-max", "3"],
                 ["verify-bounds", "--n", "20000", "--m", "3"]):
        result = invoke([*argv, "--cache", str(path)])
        assert result.exit_code == 2 and result.stdout == "", argv
        assert "worst-case intermediate (" in result.stderr, argv
        assert not path.exists(), argv
    assert invoke(["search", "--n", "20000", "--m", "3"]).stderr.endswith(message)


def test_a_flag_value_past_the_decimal_digit_limit_is_echoed_cut_short():
    # int() refuses text past 4300 digits, and the message quotes only its start
    nines = "9" * 5000
    for argv, message in [
            (["eval", "--m", "5", "--a", f"2,{nines}", "--k", "1"],
             f"Error: --a expects comma-separated integers, got '2,{nines[:38]}'... "
             "(5002 characters)\n"),
            (["eval", "--m", nines, "--a", "2", "--k", "1"],
             f"Error: Invalid value for '--m': '{nines[:40]}'... (5000 characters) "
             "is not a valid integer.\n")]:
        result = invoke(argv)
        assert result.exit_code == 2 and result.stdout == "", argv
        assert result.stderr.endswith(message) and len(result.stderr) < 300, argv


def test_every_usage_error_stays_short_whatever_it_echoes():
    # text is cut to its first 40 characters and its length, and an int past
    # 256 bits is given by its bit length
    nines, long = "9" * 4000, "x" * 5000
    eval_args = ["eval", "--m", "5", "--a", "2", "--k", "1"]
    for argv, message in [
            ([*eval_args, "--format", long],
             f"Error: Invalid value for '--format': '{long[:40]}'... (5000 characters) "
             "is not one of 'human', 'csv', 'json'.\n"),
            ([*eval_args, long],
             f"Error: Got unexpected extra argument ({long[:40]}... (5000 characters))\n"),
            ([*eval_args, "a", long],
             f"Error: Got unexpected extra arguments (a {long[:38]}... (5002 characters))\n"),
            (["eval", "--m", "5", "--a", "2", "--k", nines],
             "Error: --k must be in [0, 4], got (13288 bits)\n"),
            (["eval", "--m", nines, "--a", "2", "--k", f"1{nines}"],
             "Error: --k must be in [0, (13288 bits)], got (13289 bits)\n"),
            (["search", "--n", f"-{nines}", "--m", "3"],
             "Error: --n must be >= 1, got -(13288 bits)\n"),
            (["search", "--n", "2", "--m", nines, "--k-max", "0", "--k-min", "1"],
             "Error: --k-min/--k-max must satisfy 0 <= k_min <= k_max <= (13288 bits)\n"),
            (["search", f"--{long}"],
             f"Error: No such option '--{long[:38]}'... (5002 characters).\n"),
            ([long], f"Error: No such command '{long[:40]}'... (5000 characters).\n")]:
        result = invoke(argv)
        assert result.exit_code == 2 and result.stdout == "", argv[:2]
        assert result.stderr.endswith(message) and len(result.stderr) < 300, argv[:2]


# ---------------------------------------------------------------- verify


def test_verify_conjecture_checks_divisibility_before_searching(tmp_path, monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("searched before checking divisibility")

    monkeypatch.setattr("floorsum.cache.extremes", no_search)
    monkeypatch.setattr("floorsum.conjecture.extremes", no_search)
    path = tmp_path / "cache.jsonl"
    result = invoke(["verify-conjecture", "--n", "6", "--m", "17", "--cache", str(path)])
    assert result.exit_code == 2 and "multiple of" in result.output
    assert not path.exists()


# ----------------------------------------------------------------- f-seq


def test_f_seq_refuses_an_n_max_whose_terms_may_not_print(monkeypatch):
    # The refusal rests on f(n)'s numerator having at most n - 1 bits: checked up to
    # the default limit's boundary, and attained (at n = 27, among others).
    values = f_sequence(14285)
    assert all(v.numerator.bit_length() <= n - 1 and v.denominator in (1, 3)
               for n, v in enumerate(values, start=2))
    assert values[27 - 2].numerator.bit_length() == 26
    message = ("Error: n_max={} exceeds {}: past it, f(n) may pass Python's limit of {} "
               "digits on printed integers\n")
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)  # the least Python allows; 10^640 has 2127 bits
        printed = invoke(["f-seq", "--n-max", "2127", "--format", "csv"])
        assert printed.exit_code == 0 and len(printed.stdout.splitlines()) == 1 + 2126
        refused = invoke(["f-seq", "--n-max", "2128"])
        assert refused.exit_code == 2 and refused.stdout == ""
        assert refused.stderr.endswith(message.format(2128, 2127, 640))
        sys.set_int_max_str_digits(0)  # no limit: a list past the memory is still refused
        unlimited = invoke(["f-seq", "--n-max", "1000000000000"])
        assert unlimited.exit_code == 2
        assert unlimited.stderr == "Error: not enough memory for this query\n"
    finally:
        sys.set_int_max_str_digits(limit)
    monkeypatch.setattr(floorsum.cli, "f_sequence", None)  # refused before any term
    for n_max in (14286, 100_000_000):  # at the default 4300 digits, 10^4300 has 14285 bits
        refused = invoke(["f-seq", "--n-max", str(n_max)])
        assert refused.exit_code == 2
        assert refused.stderr.endswith(message.format(n_max, 14285, 4300))


# ------------------------------------------------------------- delta-scan


def test_delta_scan_matches_delta_cell_by_cell():
    code, text = run(RunConfig("delta-scan", m_max=16, fmt="json"))
    expected = []
    for m in range(1, 17):
        scan = dict.fromkeys(["cells", "case1", "case2", "case3", "case4", "sorted_case2"], 0)
        scan["m"] = m
        for a1 in range(m):
            for a2 in range(m):
                for k in range(1, m // 2):
                    case_id = delta(m, a1, a2, k).case_id
                    scan["cells"] += 1
                    scan[f"case{case_id}"] += 1
                    scan["sorted_case2"] += a1 >= a2 and case_id == 2
        expected.append(scan)
    assert code == 0 and json.loads(text)["result"]["scans"] == expected


def test_delta_scan_reports_delta_own_violation(monkeypatch):
    monkeypatch.setitem(CASE_VALUES, 3, 0)
    result = invoke(["delta-scan", "--m", "6"])
    assert result.exit_code == 3 and result.stdout == ""
    assert result.stderr == ("TABLE VIOLATION (implementation bug): "
                             "delta(6, 2, 4, 1) = 1 but case 3 requires 0\n")


def test_delta_scan_reports_a_sweep_that_disagrees_with_delta(monkeypatch):
    def off_by_one(m, a):  # wrong at every K of the pair {2, 1}
        values = eval_closed_all_k(m, a)
        return [v + 1 for v in values] if sorted(a) == [1, 2] else values

    monkeypatch.setattr(floorsum.symmetry, "eval_closed_all_k", off_by_one)
    result = invoke(["delta-scan", "--m", "6"])
    # The first cell to read the pair is (0, 2, 1), as {a1 + 1, a2} = {1, 2} at K - 1.
    true_value = delta(6, 0, 2, 1).value
    assert result.exit_code == 3
    assert result.stderr == ("TABLE VIOLATION (implementation bug): delta(6, 0, 2, 1): "
                             f"all-K sweeps give {true_value - 1}, delta gives {true_value}\n")


def test_delta_scan_holds_rows_of_sweeps_not_all_of_them():
    # Holding all m^2 sweeps of m ints each peaked at 5.13 MB.
    tracemalloc.start()
    try:
        floorsum.symmetry._case_counts(range(80, 81))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6


# ------------------------------------------------------- several bad flags

# The first error of an invocation with several bad flags: click's missing
# and type errors, then delta-scan's one-of check, then the floors in the
# order n, m, n_max, m_max, cap, workers whatever the argv order; eval
# checks --m, --a, then --k, and search its K range after the floors.
FIRST_ERRORS = [
    ("search --workers 0 --cap 0 --n 2 --m 3", "--cap must be >= 1, got 0"),
    ("search --n 0 --m 0 --cap 0 --workers 0", "--n must be >= 1, got 0"),
    ("search --cap 0 --workers 0 --m 0 --n 2", "--m must be >= 1, got 0"),
    ("search --workers 0 --n 2 --m 8 --k-min 5 --k-max 3", "--workers must be >= 1, got 0"),
    ("search --k-max 9 --workers 0 --n x --cap 0",
     "Invalid value for '--n': 'x' is not a valid integer."),
    ("table --m-max 0", "Missing option '--n'."),
    ("table --workers 0 --m-max 0 --n 1", "--m-max must be >= 1, got 0"),
    ("verify-bounds --workers 0 --m 0 --n 0", "--n must be >= 1, got 0"),
    ("verify-conjecture --workers 0 --m 0 --n 3", "--n must be >= 4, got 3"),
    ("verify-conjecture --workers 0 --m 5 --n 5", "--workers must be >= 1, got 0"),
    ("f-seq --format xml --n-max 1",
     "Invalid value for '--format': 'xml' is not one of 'human', 'csv', 'json'."),
    ("delta-scan --m-max 0 --m 0", "exactly one of --m / --m-max is required"),
    ("delta-scan --m-max 0 --format json", "--m-max must be >= 1, got 0"),
    ("eval --k 9 --a x --m 0", "--m must be >= 1, got 0"),
    ("eval --k 9 --a x --m 5", "--a expects comma-separated integers, got 'x'"),
    ("eval --k 9 --a 1,-2 --m 5", "--a elements must be >= 0"),
    ("eval --k x --a x --m 0", "Invalid value for '--k': 'x' is not a valid integer."),
    ("eval --m 0 --k 9", "Missing option '--a'."),
]


@pytest.mark.parametrize("argv, error", FIRST_ERRORS)
def test_several_bad_flags_report_one_fixed_first_error(argv, error):
    result = invoke(argv.split())
    assert result.exit_code == 2
    assert result.stderr.splitlines()[-1] == f"Error: {error}"


def test_attached_and_repeated_flags_read_as_the_plain_form():
    plain = invoke(["search", "--n", "3", "--m", "7", "--format", "csv"])
    assert plain.exit_code == 0
    for argv in (["search", "--n=3", "--m=7", "--format=csv"],
                 ["search", "--n", "9", "--m", "7", "--n", "3", "--format", "json",
                  "--format", "csv"],
                 ["search", "--n", "x", "--m", "7", "--format", "csv", "--n=3"]):
        result = invoke(argv)
        assert (result.exit_code, result.stdout, result.stderr) == (0, plain.stdout, ""), argv


# Command lines at the edges of the parser: (argv, exit status, stdout, last stderr line).
PARSER_EDGES = [
    (["--"], 2, "", "Error: Missing command."),
    (["--", "--version"], 0, f"floorsum, version {floorsum.__version__}\n", None),
    (["--version", "eval", "--bogus"], 0, f"floorsum, version {floorsum.__version__}\n", None),
    (["--version=1"], 2, "", "Error: Option '--version' does not take a value."),
    (["eval", "-hx"], 2, "", "Error: No such option '-x'."),
    (["eval", "--m", "5", "--a", "2", "--k", "1", "--", "--m"], 2, "",
     "Error: Got unexpected extra argument (--m)"),
]


@pytest.mark.parametrize("argv, code, stdout, error", PARSER_EDGES)
def test_parser_edges(argv, code, stdout, error):
    result = invoke(argv)
    assert (result.exit_code, result.stdout) == (code, stdout)
    assert result.stderr.splitlines()[-1:] == ([error] if error else [])


def _started(argv, stdout=subprocess.PIPE):
    return subprocess.run(argv, env=STARTED_ENV, stdout=stdout, stderr=subprocess.PIPE)


def test_program_name_follows_how_the_cli_was_started(tmp_path):
    as_module = _started([sys.executable, "-m", "floorsum.cli", "eval"])
    assert as_module.returncode == 2
    assert as_module.stderr.startswith(b"Usage: python -m floorsum.cli eval [OPTIONS]\n")
    as_script = run_entry_point(["eval"], tmp_path)
    assert as_script.exit_code == 2
    assert as_script.stderr.startswith("Usage: floorsum eval [OPTIONS]\n")


def test_a_closed_stdout_exits_1_quietly():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = _started([sys.executable, "-m", "floorsum.cli", "table", "--n", "3",
                           "--m-max", "8"], stdout=write_end)
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (1, b"")


# ------------------------------------------------------------------ run()

# One query per command: its argv and the RunConfig fields the CLI resolves.
RUN_QUERIES = [
    ("eval --m 5 --a 2,3 --k 1 --format json", dict(command="eval", m=5, a=(3, 2), k=1,
                                                    fmt="json")),
    ("table --n 3 --m-max 6 --format csv", dict(command="table", n=3, m_max=6, fmt="csv")),
    ("search --n 3 --m 7 --k-min 1 --cap 2 --format json",
     dict(command="search", n=3, m=7, k_lo=1, k_hi=6, cap=2, fmt="json")),
    ("verify-bounds --n 4 --m 12", dict(command="verify-bounds", n=4, m=12)),
    ("verify-conjecture --n 5 --m 6 --format json",
     dict(command="verify-conjecture", n=5, m=6, fmt="json")),
    ("f-seq --n-max 12 --format csv", dict(command="f-seq", n_max=12, fmt="csv")),
    ("delta-scan --m-max 6", dict(command="delta-scan", m_max=6)),
]


@pytest.mark.parametrize("argv, fields", RUN_QUERIES)
def test_run_returns_the_cli_exit_code_and_stdout(argv, fields):
    result = invoke(argv.split())
    assert run(RunConfig(**fields)) == (result.exit_code, result.stdout)


def test_run_refuses_an_unknown_command():
    with pytest.raises(DomainError, match="unknown command 'nope'"):
        run(RunConfig("nope"))


def test_run_returns_the_exit_code_of_a_proven_bound_violation(tmp_path):
    path = poisoned_cache(tmp_path / "poisoned.jsonl", SearchSpace(2, 10), max_value=99)
    result = invoke(["verify-bounds", "--n", "2", "--m", "10", "--cache", path])
    config = RunConfig("verify-bounds", n=2, m=10, cache_path=path)
    assert run(config) == (result.exit_code, result.stdout) and result.exit_code == 3


# ------------------------------------------------------------------ cache


# The cache file format: one JSON object per line, keys sorted, tuples as lists.
CACHE_LINE = (
    b'{"key": {"cap": 2, "k_hi": 4, "k_lo": 1, "m": 6, "n": 3}, "record": {"cap": 2, '
    b'"k_range": [1, 4], "m": 6, "max_count": 2, "max_sites": [[[4, 4, 4], 3], '
    b'[[2, 2, 2], 1]], "max_value": 2, "min_count": 1, "min_sites": [[[3, 3, 3], 2]], '
    b'"min_value": -6, "n": 3, "truncated": false}}\n')


def test_cache_line_bytes_are_pinned(tmp_path):
    space = SearchSpace(3, 6, (1, 4), cap=2)
    written = tmp_path / "written.jsonl"
    ResultCache(written).put(space, extremes(space))
    assert written.read_bytes() == CACHE_LINE
    # put's lines take the load's pattern path, not the full parse
    assert re.fullmatch(floorsum.cache._CANONICAL, CACHE_LINE)
    stored = tmp_path / "stored.jsonl"
    stored.write_bytes(CACHE_LINE)
    assert ResultCache(stored).get(space) == extremes(space)


def test_cache_miss_on_key_mismatch(tmp_path):
    cache = ResultCache(tmp_path / "cache.jsonl")
    space = SearchSpace(3, 7)
    cache.put(space, extremes(space))
    assert cache.get(SearchSpace(3, 7, cap=5)) is None
    assert cache.get(SearchSpace(3, 7, (0, 5))) is None
    assert cache.get(SearchSpace(3, 8)) is None


def test_cache_put_refuses_a_record_a_load_would_discard(tmp_path):
    space = SearchSpace(3, 6)
    record = extremes(space)
    other = extremes(SearchSpace(3, 5))
    fresh = tmp_path / "fresh.jsonl"
    with pytest.raises(DomainError, match="stored under"):
        ResultCache(fresh).put(space, other)
    assert not fresh.exists()
    path = tmp_path / "cache.jsonl"
    cache = ResultCache(path)
    cache.put(space, record)
    stored = path.read_bytes()
    assert cache.get(space) == record
    with pytest.raises(DomainError, match="stored under"):
        cache.put(space, other)
    # a record with a field that is not a plain int cannot even be built
    with pytest.raises(DomainError, match="not an int"):
        record.replace(max_value=float(record.max_value))
    assert path.read_bytes() == stored
    assert cache.get(space) == record
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ResultCache(path).get(space) == record


def test_cache_discards_corrupt_lines_with_warning(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = ResultCache(path)
    space = SearchSpace(2, 6)
    record = extremes(space)
    cache.put(space, record)
    with path.open("a") as handle:
        handle.write("{ not json at all\n")
        handle.write('{"key": {"n": 2}, "record": {"broken": true}}\n')
        # a well-formed (2, 5) record stored under the (2, 6) key
        key = {"n": 2, "m": 6, "k_lo": 0, "k_hi": 5, "cap": space.cap}
        other = extremes(SearchSpace(2, 5)).to_dict()
        handle.write(json.dumps({"key": key, "record": other}) + "\n")
        # a k_range with a third entry, and a float cap in key and record
        mine = record.to_dict()
        handle.write(json.dumps({"key": key, "record": {**mine, "k_range": [0, 5, 9]}}) + "\n")
        handle.write(json.dumps({"key": {**key, "cap": 1000.0},
                                 "record": {**mine, "cap": 1000.0}}) + "\n")
        # a later, doctored record whose line holds a byte that is not UTF-8
        doctored = {"key": key, "record": {**mine, "max_value": 999}, "note": "@"}
    with path.open("ab") as handle:
        handle.write(json.dumps(doctored).encode().replace(b"@", b"\xff") + b"\n")
    # the first get warns once per discarded line, in line order; later ones are silent
    with pytest.warns(CacheWarning) as caught:
        assert cache.get(space) == record
    starts = [f"discarding corrupt cache entry at {path}:{line}: " for line in range(2, 8)]
    assert [str(w.message)[:len(start)] for w, start in zip(caught, starts)] == starts
    assert len(caught) == 6
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cache.get(space) == record


def test_cache_discards_a_stored_space_that_search_space_refuses(tmp_path):
    # each line's key agrees with its record, but no fresh run builds the record:
    # SearchSpace refuses the space (no site may be recorded, an inverted K range, a
    # widest cell past 64 bits), or a site holds JSON true, which loads as a bool
    space = SearchSpace(3, 5)
    fresh = extremes(space).to_dict()
    for i, fields in enumerate([{"cap": 0}, {"k_range": [4, 1]},
                               {"n": 70, "m": 3, "k_range": [0, 2]},
                               {"max_sites": [*fresh["max_sites"][:-1], [[1, 1, True], 2]]}]):
        record = {**fresh, **fields}
        key = {"n": record["n"], "m": record["m"], "k_lo": record["k_range"][0],
               "k_hi": record["k_range"][1], "cap": record["cap"]}
        path = tmp_path / f"cache{i}.jsonl"
        path.write_text(json.dumps({"key": key, "record": record}) + "\n")
        with pytest.warns(CacheWarning) as caught:
            assert cached_extremes(space, cache=ResultCache(path)) == extremes(space)
        assert len(caught) == 1, fields
        assert str(caught[0].message).startswith(f"discarding corrupt cache entry at {path}:1: ")
        assert len(path.read_text().splitlines()) == 2  # recomputed and appended


def test_cli_prints_a_discarded_cache_line_as_one_plain_warning(tmp_path):
    path = tmp_path / "F"
    path.write_text('{"key": {"n": 3}, "record": {}}\n')
    result = invoke(["search", "--n", "3", "--m", "5", "--cache", str(path)])
    assert result.exit_code == 0
    assert result.stderr == (f"warning: discarding corrupt cache entry at {path}:1: "
                             "not a line that put writes\n")
    assert "cache.py" not in result.stderr
    assert result.stdout == invoke(["search", "--n", "3", "--m", "5"]).stdout


def test_cli_discards_a_deeply_nested_cache_line(tmp_path):
    # json.loads raises RecursionError on it, not ValueError
    path = tmp_path / "F"
    path.write_text("[" * 200_000 + "\n")
    result = invoke(["search", "--n", "3", "--m", "5", "--cache", str(path)])
    assert result.exit_code == 0
    assert result.stderr.count("\n") == 1
    assert result.stderr.startswith(f"warning: discarding corrupt cache entry at {path}:1: ")
    assert result.stdout == invoke(["search", "--n", "3", "--m", "5"]).stdout
    assert len(path.read_text().splitlines()) == 2  # recomputed and appended
    with pytest.warns(CacheWarning) as caught:
        assert ResultCache(path).get(SearchSpace(3, 5)) == extremes(SearchSpace(3, 5))
    assert len(caught) == 1


def test_cli_discards_a_cache_line_that_is_not_utf8(tmp_path):
    path = tmp_path / "F"
    path.write_bytes(b"\xff\xfe garbage\n")
    result = invoke(["search", "--n", "3", "--m", "5", "--cache", str(path)])
    assert result.exit_code == 0
    assert result.stdout == invoke(["search", "--n", "3", "--m", "5"]).stdout
    [line] = result.stderr.splitlines()
    assert line.startswith(f"warning: discarding corrupt cache entry at {path}:1: ")


def test_cache_file_is_parsed_once_per_instance(monkeypatch, tmp_path):
    path = tmp_path / "cache.jsonl"
    expected = sequence_table(3, 8, cache=ResultCache(path))
    assert len(path.read_text().splitlines()) == 8

    def no_search(*args, **kwargs):
        raise AssertionError("every m must be served from the file")

    path_open, loads = Path.open, json.loads
    opened, parsed = [], []
    monkeypatch.setattr("floorsum.cache.extremes", no_search)
    monkeypatch.setattr(Path, "open", lambda self, *args, **kwargs:
                        opened.append(self) or path_open(self, *args, **kwargs))
    monkeypatch.setattr(json, "loads", lambda text: parsed.append(text) or loads(text))
    cache = ResultCache(path)
    assert sequence_table(3, 8, cache=cache) == expected
    assert opened == [path]  # one read for the table, not one per m
    assert len(parsed) == 8  # each line served once
    # served again from memory: no read, and no line parsed a second time
    assert sequence_table(3, 8, cache=cache) == expected
    assert opened == [path] and len(parsed) == 8


def test_cache_warning_raised_as_an_error_loads_nothing(tmp_path):
    # a record, a bad line, then a later record for the same key: a load the
    # warning interrupts must not serve the earlier, superseded record
    path = tmp_path / "cache.jsonl"
    space = SearchSpace(2, 6)
    record = extremes(space)
    ResultCache(path).put(space, record)
    with path.open("a") as handle:
        handle.write("{ not json at all\n")
    ResultCache(path).put(space, ExtremeRecord.from_dict({**record.to_dict(), "max_value": 999}))
    cache = ResultCache(path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(2):
            with pytest.raises(CacheWarning):
                cache.get(space)
    with pytest.warns(CacheWarning):
        assert cache.get(space).max_value == 999


def test_cache_truncated_file_recomputes(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = ResultCache(path)
    space = SearchSpace(2, 6)
    cache.put(space, extremes(space))
    content = path.read_text()
    path.write_text(content[: len(content) // 2])  # chop mid-record
    with pytest.warns(CacheWarning) as caught:
        assert cache.get(space) is None
    assert len(caught) == 1
    assert str(caught[0].message).startswith(f"discarding corrupt cache entry at {path}:1: ")
    with warnings.catch_warnings():  # the discarded line is warned once, on the first get
        warnings.simplefilter("error")
        assert cached_extremes(space, cache=cache) == extremes(space)


def test_cache_skips_blank_lines_without_a_warning(tmp_path):
    path = tmp_path / "cache.jsonl"
    space = SearchSpace(2, 6)
    ResultCache(path).put(space, extremes(space))
    # "\r" before each "\n" is JSON whitespace, so a CRLF file reads the same
    path.write_bytes(b"\r\n  \r\n" + path.read_bytes().replace(b"\n", b"\r\n") + b"\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ResultCache(path).get(space) == extremes(space)


# Spaces whose lines hold zeros, negatives, several sites and a truncated list.
FUZZ_SPACES = (SearchSpace(1, 1), SearchSpace(2, 5), SearchSpace(3, 6, (1, 4), cap=2),
               SearchSpace(3, 7, cap=1))


@functools.cache
def put_lines() -> tuple[bytes, ...]:
    """The line ``put`` writes for each of FUZZ_SPACES' records."""
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch, "cache.jsonl")
        for space in FUZZ_SPACES:
            ResultCache(path).put(space, extremes(space))
        return tuple(path.read_bytes().splitlines(keepends=True))


def _int_at(draw, line):
    """The (start, end) of an int in ``line``, or (0, 0) if it holds none."""
    return draw(st.sampled_from([m.span() for m in re.finditer(rb"-?[0-9]+", line)] or [(0, 0)]))


def _digit_deleted(draw, line):
    lo, hi = _int_at(draw, line)
    i = draw(st.integers(lo, max(lo, hi - 1)))
    return line[:i] + line[i + 1:]


def _digit_inserted(draw, line):
    lo, hi = _int_at(draw, line)
    i = draw(st.integers(lo, hi))
    return line[:i] + b"%d" % draw(st.integers(0, 9)) + line[i:]


def _leading_zero(draw, line):
    lo, _ = _int_at(draw, line)
    lo += line[lo:lo + 1] == b"-"
    return line[:lo] + b"0" + line[lo:]


def _int_replaced(draw, line):
    lo, hi = _int_at(draw, line)
    text = draw(st.sampled_from([b"-0", b"true", b"%d" % draw(st.integers(10**18, 10**19 - 1))]))
    return line[:lo] + text + line[hi:]


def _key_field_moved(draw, line):
    # a key field alone: the record's space disagrees with its key
    spans = [m.span() for m in re.finditer(rb"[0-9]+", line[:line.find(b'"record"')])]
    lo, hi = draw(st.sampled_from(spans or [(0, 0)]))
    return line[:lo] + b"%d" % (int(line[lo:hi] or 0) + 1) + line[hi:]


def _space_moved(draw, line):
    # a field in key and record alike, to values SearchSpace accepts or refuses
    try:
        entry = json.loads(line)
        field = draw(st.sampled_from(["n", "m", "cap", "k_range"]))
        value = draw(st.sampled_from([0, 1, 3, 70]))
        entry["record"][field] = [value, 0] if field == "k_range" else value
        entry["key"].update({"k_lo": value, "k_hi": 0} if field == "k_range" else {field: value})
    except (ValueError, LookupError, TypeError, AttributeError):
        return line
    return json.dumps(entry, sort_keys=True).encode() + b"\n"


def _crlf(draw, line):
    return line.rstrip(b"\n") + b"\r\n"


def _not_utf8(draw, line):
    i = draw(st.integers(0, len(line)))
    return line[:i] + b"\xff" + line[i:]


def _truncated(draw, line):
    return line[:draw(st.integers(0, max(0, len(line) - 2)))] + b"\n"


LINE_EDITS = [_digit_deleted, _digit_inserted, _leading_zero, _int_replaced, _key_field_moved,
              _space_moved, _crlf, _not_utf8, _truncated]


@st.composite
def edited_cache_files(draw):
    """Lines ``put`` wrote for FUZZ_SPACES, in any order and number, each edited 0-2 times."""
    lines = []
    for line in draw(st.lists(st.sampled_from(put_lines()), min_size=1, max_size=4)):
        for edit in draw(st.lists(st.sampled_from(LINE_EDITS), max_size=2)):
            line = edit(draw, line)
        lines.append(line)
    return b"".join(lines)


def as_put_writes(line):
    """``line`` with a CRLF end read as LF and the derived truncated flag as false:
    ``from_dict`` ignores the flag, and the pattern cannot tie it to the counts."""
    if line.endswith(b"\r\n"):
        line = line[:-2] + b"\n"
    return line.replace(b'"truncated": true}}\n', b'"truncated": false}}\n')


def record_put_writes_as(line):
    """The record ``line`` holds if ``json.loads`` and ``from_dict`` accept it and ``put``
    of that record writes ``line`` again, up to ``as_put_writes``; else None."""
    try:
        record = ExtremeRecord.from_dict(json.loads(line)["record"])
    except (ValueError, LookupError, TypeError, OverflowError, RecursionError):
        return None
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch, "cache.jsonl")
        try:
            ResultCache(path).put(record.space, record)
        except DomainError:
            return None
        written = path.read_bytes()
    return record if as_put_writes(written) == as_put_writes(line) else None


def assert_served_exactly_when_put_writes_them(data):
    """The oracle is put itself: a line of the file ``data`` is served exactly when
    ``record_put_writes_as`` gives its record; every other line that is not blank warns
    once, at its number, in line order."""
    served, discarded, spaces = {}, [], set(FUZZ_SPACES)
    for lineno, line in enumerate(io.BytesIO(data).readlines(), 1):  # split as the load splits
        if line.isspace():
            continue
        record = record_put_writes_as(line)
        if record is None:
            discarded.append(lineno)
        else:
            served[record.space] = record
        try:  # and any space an edit moved a discarded line to
            key = json.loads(line)["key"]
            spaces.add(SearchSpace(key["n"], key["m"], (key["k_lo"], key["k_hi"]), key["cap"]))
        except (ValueError, LookupError, TypeError, OverflowError, RecursionError):
            pass
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch, "cache.jsonl")
        path.write_bytes(data)
        cache = ResultCache(path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            loaded = {space: cache.get(space) for space in spaces | set(served)}
    assert {space: record for space, record in loaded.items() if record} == served
    starts = [f"discarding corrupt cache entry at {path}:{lineno}: " for lineno in discarded]
    assert [str(w.message)[:len(start)] for w, start in zip(caught, starts)] == starts
    assert len(caught) == len(discarded)


@given(edited_cache_files())
@settings(max_examples=300, deadline=None)
def test_a_line_is_served_exactly_when_put_writes_it(data):
    assert_served_exactly_when_put_writes_them(data)


def test_every_int_and_end_of_a_put_line_edited_is_served_exactly_when_put_writes_it():
    # each int of each line, moved by one, signed, led by a zero or widened past 19 digits;
    # and each line's end changed
    for line in put_lines():
        for end in (b"\r\n", b"\r\r\n", b" \n", b""):
            assert_served_exactly_when_put_writes_them(line[:-1] + end)
        for found in re.finditer(rb"-?[0-9]+", line):
            lo, hi = found.span()
            for text in (b"%d" % (int(found[0]) + 1), b"-" + found[0], b"0" + found[0],
                         b"-0", b"1" + b"0" * 19):
                assert_served_exactly_when_put_writes_them(line[:lo] + text + line[hi:])


def test_put_writes_only_lines_the_load_keeps(tmp_path):
    # a 19-digit cap, negative values, cap-truncated site lists and empty ones
    records = [extremes(space) for space in (SearchSpace(3, 7, cap=2**63 - 1),
                                             SearchSpace(3, 7, cap=1), SearchSpace(4, 6))]
    records.append(records[-1].replace(max_sites=(), min_sites=()))
    for i, record in enumerate(records):
        path = tmp_path / f"cache{i}.jsonl"
        ResultCache(path).put(record.space, record)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ResultCache(path).get(record.space) == record
    # a number past 19 digits, a negative site entry or count, an empty multiset: refused,
    # and nothing written
    stored = path.read_bytes()
    for fields in ({"max_value": 10**19}, {"min_value": -10**19}, {"max_count": -1},
                   {"min_sites": (((3, 3, 3, -1), 2),)}, {"max_sites": (((), 0),)}):
        with pytest.raises(DomainError, match="does not fit a cache line"):
            ResultCache(path).put(record.space, record.replace(**fields))
        assert path.read_bytes() == stored


def test_cached_extremes_serves_stored_records(tmp_path):
    cache = ResultCache(tmp_path / "cache.jsonl")
    space = SearchSpace(2, 6)
    real = cached_extremes(space, cache=cache)
    # doctor the cache: a later entry under the same key must win,
    # proving that a repeated search is served from the file
    doctored = ExtremeRecord.from_dict({**real.to_dict(), "max_value": 999})
    cache.put(space, doctored)
    assert cached_extremes(space, cache=cache).max_value == 999


def test_cli_cache_flag_and_env(tmp_path):
    flag_path = tmp_path / "flag.jsonl"
    env_path = tmp_path / "env.jsonl"
    args = ("search", "--n", "3", "--m", "6", "--format", "json")
    fresh = invoke(args, env={"FLOORSUM_CACHE": None})
    first = invoke([*args, "--cache", str(flag_path)])
    assert flag_path.read_text().count("\n") == 1  # a miss appends one line
    second = invoke([*args, "--cache", str(flag_path)])
    assert flag_path.read_text().count("\n") == 1  # and a hit none
    assert fresh.output == first.output == second.output  # cache transparency
    third = invoke(args, env={"FLOORSUM_CACHE": str(env_path)})
    assert env_path.exists()
    assert third.output == first.output
    # worker count is an execution detail, not part of the result
    parallel = invoke([*args, "--workers", "2"])
    assert parallel.output == first.output


def test_empty_floorsum_cache_means_no_cache(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    args = ("search", "--n", "3", "--m", "6")
    result = invoke(args, env={"FLOORSUM_CACHE": ""})
    assert result.exit_code == 0 and result.stderr == ""
    assert result.stdout == invoke(args, env={"FLOORSUM_CACHE": None}).stdout
    assert list(tmp_path.iterdir()) == []


def test_a_cache_path_naming_a_directory_is_a_usage_error(tmp_path):
    message = f"Error: Invalid value for '--cache': File {str(tmp_path)!r} is a directory.\n"
    args = ("search", "--n", "3", "--m", "6")
    for result in (invoke([*args, "--cache", str(tmp_path)]),
                   invoke(args, env={"FLOORSUM_CACHE": str(tmp_path)})):
        assert result.exit_code == 2 and result.stdout == ""
        assert result.stderr.endswith(message)


def test_cli_refuses_an_unusable_cache_path(tmp_path, monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("searched before trying the cache path")

    monkeypatch.setattr("floorsum.cache.extremes", no_search)
    blocker = tmp_path / "F"
    blocker.write_text("")
    for path in (blocker / "x", blocker / "x" / "y"):  # a regular file stands in a directory's place
        result = invoke(["search", "--n", "12", "--m", "14", "--cache", str(path)])
        assert result.exit_code == 2 and result.stdout == ""
        [line] = result.stderr.splitlines()
        assert line.startswith(f"Error: cannot use cache file {path}: ")
    assert blocker.read_text() == ""


def test_a_table_of_quick_searches_starts_no_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("started a pool for a search that ends before the limit")

    serial = invoke(["table", "--n", "4", "--m-max", "10", "--workers", "1"])
    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    parallel = invoke(["table", "--n", "4", "--m-max", "10", "--workers", "2"])
    assert (parallel.exit_code, parallel.output) == (0, serial.output)


# Modules a query's start-up must not load: the pool's, a parser library's, those
# of the help and error paths, the dataclass machinery (and the inspect it
# imports), and those that only f(n), JSON, CSV or annotations use.
UNLOADED_AT_IMPORT = ["multiprocessing", "click", "textwrap", "difflib", "dataclasses", "inspect",
                      "fractions", "decimal", "json", "csv", "typing", "re", "pathlib"]


def test_importing_the_cli_does_not_import_multiprocessing():
    # -S skips the site module, whose .pth files may import any of these first
    code = ("import floorsum.cli, sys\n"
            f"print([m for m in {UNLOADED_AT_IMPORT!r} if m in sys.modules])")
    out = subprocess.run([sys.executable, "-S", "-c", code], env=STARTED_ENV,
                         capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


# Only the process entry point freezes the GC; a library caller's heap is its own.
FREEZE_PROBES = [
    ("import gc, floorsum, floorsum.cli\n"
     "floorsum.cli.run(floorsum.cli.RunConfig('eval', m=5, a=(3, 2), k=1))\n"
     "print(gc.get_freeze_count() == 0)", "True\n"),
    ("import atexit, gc, sys\n"
     "from floorsum import cli\n"
     "atexit.register(lambda: print(gc.get_freeze_count() > 0))\n"
     "sys.argv = ['floorsum', '--version']\n"
     "cli.main()", f"floorsum, version {floorsum.__version__}\nTrue\n"),
]


@pytest.mark.parametrize("code, stdout", FREEZE_PROBES, ids=["library", "entry-point"])
def test_only_main_freezes_the_gc(code, stdout):
    out = subprocess.run([sys.executable, "-c", code], env=STARTED_ENV,
                         capture_output=True, text=True, check=True)
    assert out.stdout == stdout


# n = 14, m = 40 searches for about 15 s at --workers 1 and 8.5 s at 2 on a
# 2-core host, so a signal 2 s after the start reaches it mid-search; at
# --workers 2 the pool has started by then (after about 0.3 s, when a task
# first ends past the in-process limit).
@pytest.mark.parametrize("workers", ["1", "2"])
def test_ctrl_c_prints_only_aborted(workers):
    proc = subprocess.Popen(
        [sys.executable, "-m", "floorsum.cli", "search", "--n", "14", "--m", "40",
         "--workers", workers],
        env=STARTED_ENV,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True,  # its own process group, as a terminal's foreground job
        # a runner started in the background may ignore SIGINT; the CLI must not inherit that
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
    try:
        time.sleep(2)
        assert proc.poll() is None, "the search ended before the signal; pick a larger shape"
        os.killpg(proc.pid, signal.SIGINT)  # what Ctrl-C sends: the whole group
        out, err = proc.communicate(timeout=60)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
    assert (proc.returncode, out, err) == (1, b"", b"\nAborted!\n")


def test_violation_witnesses_come_from_the_proven_side(tmp_path):
    cases = (
        # (4, 12): only the upper side is proven, so breaking both lists the
        # max sites, not the conjectured side's min sites
        (4, 12, {"max_value": 100, "min_value": -100}, "max", "  A=6,6,6,6 K=5"),
        # (5, 6): the proven side is the lower one
        (5, 6, {"min_value": -100}, "min", "  A=3,3,3,3,3 K=2"),
        # (3, 7): both sides are proven; the lower one is listed first
        (3, 7, {"max_value": 100, "min_value": -100}, "min", "  A=4,4,3 K=2"),
    )
    for n, m, overrides, side, first in cases:
        space = SearchSpace(n, m)
        path = poisoned_cache(tmp_path / f"{n}-{m}.jsonl", space, **overrides)
        result = invoke(["verify-bounds", "--n", str(n), "--m", str(m), "--cache", path])
        assert result.exit_code == 3, (n, m)
        sites = getattr(extremes(space), f"{side}_sites")
        witnesses = result.stdout.split("witnesses:\n")[1].splitlines()
        assert witnesses == [f"  A={','.join(map(str, a))} K={k}" for a, k in sites[:10]]
        assert witnesses[0] == first, (n, m)
