"""CLI and cache tests, driven through click's CliRunner."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

from floorsum import (
    CacheWarning,
    ExtremeRecord,
    ResultCache,
    SearchSpace,
    cached_extremes,
    extremes,
    sequence_table,
)
from floorsum.cli import cli


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args, env=None):
    return runner.invoke(cli, list(args), env=env, catch_exceptions=False)


# ------------------------------------------------------------------ eval


def test_eval_human(runner):
    result = invoke(runner, "eval", "--m", "5", "--a", "2,3", "--k", "1")
    assert result.exit_code == 0
    assert result.output == "2\n"


def test_eval_json(runner):
    result = invoke(runner, "eval", "--m", "5", "--a", "2,3", "--k", "1",
                    "--format", "json")
    payload = json.loads(result.output)
    assert set(payload) == {"config", "result"}
    assert payload["config"]["command"] == "eval"
    assert payload["config"]["a"] == [3, 2]  # canonical descending order
    assert payload["result"]["value"] == 2


def test_eval_csv(runner):
    result = invoke(runner, "eval", "--m", "5", "--a", "2,3", "--k", "1",
                    "--format", "csv")
    assert result.output.splitlines() == ["m,a,k,value", '5,"3,2",1,2']


def test_eval_usage_errors_name_the_flag(runner):
    result = invoke(runner, "eval", "--m", "5", "--a", "2,3", "--k", "7")
    assert result.exit_code == 2 and "--k" in result.output
    result = invoke(runner, "eval", "--m", "0", "--a", "2", "--k", "0")
    assert result.exit_code == 2 and "--m" in result.output
    result = invoke(runner, "eval", "--m", "5", "--a", "2;3", "--k", "1")
    assert result.exit_code == 2 and "--a" in result.output
    result = invoke(runner, "eval", "--m", "5", "--a", "", "--k", "1")
    assert result.exit_code == 2 and "--a" in result.output


# ----------------------------------------------------------------- table


def test_table_csv_matches_published_sequences(runner):
    result = invoke(runner, "table", "--n", "4", "--m-max", "12", "--format", "csv")
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0] == "sequence," + ",".join(str(m) for m in range(1, 13))
    assert lines[1] == "max,0,4,3,8,7,12,11,16,15,20,19,24"
    assert lines[2] == "min,0,0,-3,-2,-3,-6,-5,-6,-9,-8,-9,-12"


def test_table_json(runner):
    result = invoke(runner, "table", "--n", "1", "--m-max", "5", "--format", "json")
    payload = json.loads(result.output)
    assert payload["result"]["max"] == [0, 1, 2, 3, 4]
    assert payload["result"]["min"] == [0, 0, 0, 0, 0]


# ---------------------------------------------------------------- search


def test_search_json_round_trips_the_record(runner):
    result = invoke(runner, "search", "--n", "4", "--m", "9", "--format", "json")
    payload = json.loads(result.output)
    record = ExtremeRecord.from_dict(payload["result"])
    assert record == extremes(SearchSpace(4, 9))
    assert payload["result"]["min_sites"] == [[[6, 6, 6, 6], 5], [[3, 3, 3, 3], 2]]


def test_search_human_mentions_extremes_and_sites(runner):
    result = invoke(runner, "search", "--n", "4", "--m", "9")
    assert "max 15" in result.output and "min -9" in result.output
    assert "A=3,3,3,3 K=2" in result.output


def test_search_k_range_flags(runner):
    result = invoke(runner, "search", "--n", "2", "--m", "8",
                    "--k-min", "7", "--k-max", "7", "--format", "json")
    payload = json.loads(result.output)
    assert payload["result"]["max_value"] == payload["result"]["min_value"] == 0
    result = invoke(runner, "search", "--n", "2", "--m", "8", "--k-min", "5",
                    "--k-max", "3")
    assert result.exit_code == 2


def test_search_refuses_an_oversize_space_once(runner):
    # (1, ..., 1) at K = 1 is the widest cell of n = 57, m = 2; at --workers 2
    # the refusal comes before any pool starts
    message = ("Error: worst-case intermediate 16717361816799281152 exceeds 64-bit range "
               "(n=57, sum(A)=57, K=1)\n")
    for workers in ("1", "2"):
        result = invoke(runner, "search", "--n", "57", "--m", "2", "--workers", workers)
        assert result.exit_code == 2
        assert result.stdout == "" and result.stderr.endswith(message)
    result = invoke(runner, "search", "--n", "56", "--m", "2")
    assert result.exit_code == 0 and result.stderr == ""


def test_format_stability(runner):
    for fmt in ("csv", "json"):
        first = invoke(runner, "search", "--n", "3", "--m", "7", "--format", fmt)
        second = invoke(runner, "search", "--n", "3", "--m", "7", "--format", fmt)
        assert first.output == second.output
    first = invoke(runner, "table", "--n", "2", "--m-max", "9", "--format", "csv")
    second = invoke(runner, "table", "--n", "2", "--m-max", "9", "--format", "csv")
    assert first.output == second.output


# ---------------------------------------------------------------- verify


def test_verify_bounds_cli(runner):
    result = invoke(runner, "verify-bounds", "--n", "4", "--m", "12")
    assert result.exit_code == 0
    assert "holds-with-equality" in result.output
    result = invoke(runner, "verify-bounds", "--n", "2", "--m", "10",
                    "--format", "csv")
    lines = result.output.splitlines()
    assert lines[0] == "side,formula,status,bound,extreme,verdict"
    assert len(lines) == 3


def test_verify_conjecture_cli_pass_and_divisibility(runner):
    result = invoke(runner, "verify-conjecture", "--n", "5", "--m", "6")
    assert result.exit_code == 0 and "PASS" in result.output
    result = invoke(runner, "verify-conjecture", "--n", "5", "--m", "5")
    assert result.exit_code == 2 and "multiple of 3" in result.output


def test_verify_conjecture_checks_divisibility_before_searching(runner, tmp_path,
                                                               monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("searched before checking divisibility")

    monkeypatch.setattr("floorsum.cache.extremes", no_search)
    monkeypatch.setattr("floorsum.conjecture.extremes", no_search)
    path = tmp_path / "cache.jsonl"
    result = invoke(runner, "verify-conjecture", "--n", "6", "--m", "17", "--cache", str(path))
    assert result.exit_code == 2 and "multiple of" in result.output
    assert not path.exists()


def test_verify_conjecture_json(runner):
    result = invoke(runner, "verify-conjecture", "--n", "6", "--m", "15",
                    "--format", "json")
    payload = json.loads(result.output)
    assert payload["result"]["passed"] is True
    assert payload["result"]["search_value"] == -45
    assert payload["result"]["sites_exact"] is None
    assert len(payload["result"]["sites"]) == 4


# ----------------------------------------------------------------- f-seq


def test_f_seq_json(runner):
    result = invoke(runner, "f-seq", "--n-max", "12", "--format", "json")
    payload = json.loads(result.output)
    assert payload["result"]["start"] == 2
    assert payload["result"]["f"][:9] == [
        "0", "1/3", "-1", "2", "-3", "8", "-18", "36", "-65",
    ]
    assert payload["result"]["f"][9] == "148"


def test_f_seq_csv_two_integer_columns(runner):
    result = invoke(runner, "f-seq", "--n-max", "4", "--format", "csv")
    assert result.output.splitlines() == [
        "n,numerator,denominator", "2,0,1", "3,1,3", "4,-1,1",
    ]


# ------------------------------------------------------------- delta-scan


def test_delta_scan_single_m(runner):
    result = invoke(runner, "delta-scan", "--m", "10", "--format", "csv")
    lines = result.output.splitlines()
    assert lines[0] == "m,cells,case1,case2,case3,case4,sorted_case2"
    fields = lines[1].split(",")
    assert fields[0] == "10" and fields[1] == "400"  # 10*10*4 legal cells
    assert fields[6] == "0"  # sorted instances never hit case 2


def test_delta_scan_flag_validation(runner):
    assert invoke(runner, "delta-scan").exit_code == 2
    assert invoke(runner, "delta-scan", "--m", "5", "--m-max", "6").exit_code == 2


# ------------------------------------------------------------------ cache


def test_cache_roundtrip(tmp_path):
    cache = ResultCache(tmp_path / "cache.jsonl")
    space = SearchSpace(4, 9)
    record = extremes(space)
    cache.put(space, record)
    reloaded = cache.get(space)
    assert reloaded == record
    assert reloaded.to_dict() == record.to_dict()
    assert (record.max_value, record.min_value) == (15, -9)


def test_cache_miss_on_key_mismatch(tmp_path):
    cache = ResultCache(tmp_path / "cache.jsonl")
    space = SearchSpace(3, 7)
    cache.put(space, extremes(space))
    assert cache.get(SearchSpace(3, 7, cap=5)) is None
    assert cache.get(SearchSpace(3, 7, (0, 5))) is None
    assert cache.get(SearchSpace(3, 8)) is None


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
    for _ in range(2):  # every get repeats the warnings, in line order
        with pytest.warns(CacheWarning) as caught:
            assert cache.get(space) == record
        starts = [f"discarding corrupt cache entry at {path}:{line}: " for line in range(2, 8)]
        assert [str(w.message)[:len(start)] for w, start in zip(caught, starts)] == starts
        assert len(caught) == 6


def test_cli_prints_a_discarded_cache_line_as_one_plain_warning(runner, tmp_path):
    path = tmp_path / "F"
    path.write_text('{"key": {"n": 3}, "record": {}}\n')
    result = invoke(runner, "search", "--n", "3", "--m", "5", "--cache", str(path))
    assert result.exit_code == 0
    assert result.stderr == f"warning: discarding corrupt cache entry at {path}:1: 'n'\n"
    assert "cache.py" not in result.stderr
    assert result.stdout == invoke(runner, "search", "--n", "3", "--m", "5").stdout


def test_cli_discards_a_cache_line_that_is_not_utf8(runner, tmp_path):
    path = tmp_path / "F"
    path.write_bytes(b"\xff\xfe garbage\n")
    result = invoke(runner, "search", "--n", "3", "--m", "5", "--cache", str(path))
    assert result.exit_code == 0
    assert result.stdout == invoke(runner, "search", "--n", "3", "--m", "5").stdout
    [line] = result.stderr.splitlines()
    assert line.startswith(f"warning: discarding corrupt cache entry at {path}:1: ")


def test_cache_file_is_parsed_once_per_instance(monkeypatch, tmp_path):
    path = tmp_path / "cache.jsonl"
    expected = sequence_table(3, 8, cache=ResultCache(path))
    assert len(path.read_text().splitlines()) == 8

    def no_search(*args, **kwargs):
        raise AssertionError("every m must be served from the file")

    loads = json.loads
    parsed = []
    monkeypatch.setattr("floorsum.cache.extremes", no_search)
    monkeypatch.setattr(json, "loads", lambda text: parsed.append(text) or loads(text))
    assert sequence_table(3, 8, cache=ResultCache(path)) == expected
    assert len(parsed) == 8  # the file's lines, not m_max times them


def test_cache_truncated_file_recomputes(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = ResultCache(path)
    space = SearchSpace(2, 6)
    cache.put(space, extremes(space))
    content = path.read_text()
    path.write_text(content[: len(content) // 2])  # chop mid-record
    with pytest.warns(CacheWarning):
        assert cache.get(space) is None
    with pytest.warns(CacheWarning):  # every get repeats the discarded line's warning
        assert cached_extremes(space, cache=cache) == extremes(space)


def test_cached_extremes_serves_stored_records(tmp_path):
    cache = ResultCache(tmp_path / "cache.jsonl")
    space = SearchSpace(2, 6)
    real = cached_extremes(space, cache=cache)
    # doctor the cache: a later entry under the same key must win,
    # proving that a repeated search is served from the file
    doctored = ExtremeRecord.from_dict({**real.to_dict(), "max_value": 999})
    cache.put(space, doctored)
    assert cached_extremes(space, cache=cache).max_value == 999


def test_cli_cache_flag_and_env(runner, tmp_path):
    flag_path = tmp_path / "flag.jsonl"
    env_path = tmp_path / "env.jsonl"
    args = ("search", "--n", "3", "--m", "6", "--format", "json")
    first = invoke(runner, *args, "--cache", str(flag_path))
    assert flag_path.exists()
    second = invoke(runner, *args, "--cache", str(flag_path))
    assert first.output == second.output  # cache transparency
    third = invoke(runner, *args, env={"FLOORSUM_CACHE": str(env_path)})
    assert env_path.exists()
    assert third.output == first.output
    # worker count is an execution detail, not part of the result
    parallel = invoke(runner, *args, "--workers", "2")
    assert parallel.output == first.output


def test_cli_cache_hit_is_actually_used(runner, tmp_path):
    path = tmp_path / "c.jsonl"
    space = SearchSpace(2, 6)
    real = extremes(space)
    cache = ResultCache(path)
    cache.put(space, ExtremeRecord.from_dict({**real.to_dict(), "max_value": 777}))
    result = invoke(runner, "search", "--n", "2", "--m", "6", "--format", "json",
                    "--cache", str(path))
    assert json.loads(result.output)["result"]["max_value"] == 777


def test_cli_refuses_an_unusable_cache_path(runner, tmp_path):
    blocker = tmp_path / "F"
    blocker.write_text("")
    for path in (blocker / "x", blocker / "x" / "y"):  # a regular file stands in a directory's place
        result = invoke(runner, "search", "--n", "2", "--m", "3", "--cache", str(path))
        assert result.exit_code == 2 and result.stdout == ""
        [line] = result.stderr.splitlines()
        assert line.startswith(f"Error: cannot use cache file {path}: ")
    assert blocker.read_text() == ""


# n = 12, m = 20 searches for 7-8 s at --workers 1 or 2 on a 2-core host, so a
# signal 2 s after the start reaches it mid-search, after the pool has started.
@pytest.mark.parametrize("workers", ["1", "2"])
def test_ctrl_c_prints_only_aborted(workers):
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "floorsum.cli", "search", "--n", "12", "--m", "20",
         "--workers", workers],
        env={**os.environ, "PYTHONPATH": str(src)},
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


def _poison(tmp_path, space, **overrides):
    # plant a doctored record so failure paths can be exercised honestly
    path = tmp_path / "poisoned.jsonl"
    record = extremes(space)
    ResultCache(path).put(space, ExtremeRecord.from_dict({**record.to_dict(), **overrides}))
    return str(path)


def test_proven_bound_violation_is_fatal(runner, tmp_path):
    path = _poison(tmp_path, SearchSpace(2, 10), max_value=99)
    result = invoke(runner, "verify-bounds", "--n", "2", "--m", "10",
                    "--cache", str(path))
    assert result.exit_code == 3
    assert "VIOLATED" in result.output and "witnesses" in result.output
    assert "A=" in result.output  # the witnessing (A, K) is printed


def test_conjecture_failure_is_reported_not_fatal(runner, tmp_path):
    path = _poison(tmp_path, SearchSpace(5, 6), max_value=13, max_count=1)
    result = invoke(runner, "verify-conjecture", "--n", "5", "--m", "6",
                    "--cache", str(path))
    assert result.exit_code == 0
    assert "FAILED" in result.output and "MISMATCH" in result.output
