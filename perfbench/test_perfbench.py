"""Tests of the benchmark itself: output checks, seeding, tracing, metric names.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys

import pytest

import run
from queries import WORKLOADS, Checker, Query, Stream, all_canonical_texts
from tracing import Tracer


@pytest.fixture(scope="module", autouse=True)
def work_dir():
    run.WORK.mkdir(exist_ok=True)


@pytest.fixture(scope="module")
def floorsum():
    return run.import_tree_under_test()


@pytest.fixture(scope="module")
def checker(floorsum):
    return Checker(run.load_digests(), floorsum)


def _in_process(floorsum, query: Query) -> tuple[int, bytes]:
    config = floorsum.cli.RunConfig(**query.config_fields(None, workers=1))
    code, text = floorsum.cli.run(config)
    return code, text.encode("utf-8")


@pytest.mark.parametrize("text", ["search --n 3 --m 12", "search --n 4 --m 10 --format json",
                                  "search --n 5 --m 8 --format csv",
                                  "table --n 3 --m-max 16 --format csv",
                                  "verify-conjecture --n 4 --m 9", "delta-scan --m 20"])
def test_correct_output_passes(floorsum, checker, text):
    code, out = _in_process(floorsum, Query(text))
    assert checker.problems(Query(text), code, out) == []


# One changed digit each: the max value, and the K of the first max site.
TAMPERS = [("max 4 attained", "max 5 attained"), ("A=8,8,8 K=7", "A=8,8,8 K=6")]


@pytest.mark.parametrize("old,new", TAMPERS)
def test_tampered_search_output_fails(floorsum, checker, old, new):
    query = Query("search --n 3 --m 12")
    code, out = _in_process(floorsum, query)
    assert old.encode() in out
    tampered = out.replace(old.encode(), new.encode(), 1)
    problems = checker.problems(query, code, tampered)
    assert "stdout differs from the recorded digest" in problems
    assert any(p.startswith("max site") for p in problems), problems


@pytest.mark.parametrize("old,new", TAMPERS)
def test_oracle_alone_catches_a_wrong_site(floorsum, old, new):
    query = Query("search --n 3 --m 12")
    code, out = _in_process(floorsum, query)
    blind = Checker({}, floorsum)  # no digest to compare against
    assert blind.problems(query, code, out) == ["no recorded digest for this query"]
    tampered = out.replace(old.encode(), new.encode(), 1)
    assert any(p.startswith("max site") for p in blind.problems(query, code, tampered))


def test_nonzero_exit_fails(floorsum, checker):
    query = Query("verify-bounds --n 4 --m 12")
    code, out = _in_process(floorsum, query)
    assert code == 0 and checker.problems(query, 0, out) == []
    assert "exit status 3" in checker.problems(query, 3, out)


def test_run_process_kills_on_timeout():
    sample = run.run_process([sys.executable, "-c", "import time; time.sleep(30)"], timeout=0.5)
    assert sample.timed_out and sample.seconds < 10 and sample.returncode != 0


def test_peak_rss_is_per_process():
    touch_200_mib = "x = bytearray(200 << 20); x[::4096] = b'1' * len(x[::4096])"
    big = run.run_process([sys.executable, "-c", touch_200_mib])
    small = run.run_process([sys.executable, "-c", "pass"])
    assert big.returncode == small.returncode == 0
    assert big.maxrss_kb > 200 * 1024 > small.maxrss_kb


def test_every_query_has_a_digest():
    digests = run.load_digests()
    assert sorted(digests) == all_canonical_texts()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_queries(workload):
    def rounds(seed):
        stream = Stream(workload, seed)
        return [stream.next_round() for _ in range(3)]

    assert rounds(7) == rounds(7)
    assert rounds(7) != rounds(8)
    first = rounds(7)
    assert all(sorted(map(repr, r)) == sorted(map(repr, first[0])) for r in first)


def test_tracer_restores_every_attribute(floorsum):
    modules = [floorsum.cli, floorsum.cache, floorsum.search, floorsum.conjecture,
               floorsum.symmetry, floorsum.cache.ResultCache]
    before = [dict(vars(m)) for m in modules]
    tracer = Tracer()
    tracer.install(floorsum)
    try:
        changed = [name for m, snap in zip(modules, before)
                   for name, value in vars(m).items() if snap.get(name) is not value]
        assert len(changed) == len(tracer._patches) > 10
        _in_process(floorsum, Query("verify-conjecture --n 4 --m 9"))
    finally:
        tracer.restore()
    for m, snap in zip(modules, before):
        assert all(vars(m)[name] is value for name, value in snap.items())
    spans = tracer.summary()
    assert spans["cli.run"]["calls"] == 1
    extremes = spans["search.extremes"]
    parts = sum(spans[name]["self_s"] for name in (
        "search.extremes", "core.eval_closed_all_k", "search.enumerate_multisets"))
    assert parts == pytest.approx(extremes["busy_s"])
    assert tracer.counters["search.cells"] == 495 * 9  # C(12, 4) multisets x 9 K


def test_benchmark_json_matches_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
