"""Search engine tests: enumeration, extremes, determinism, pruning."""

import functools
import json
import math
import multiprocessing
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floorsum import (
    DomainError,
    FloorSumError,
    ExtremeRecord,
    Instance,
    InstanceTooLargeError,
    SearchSpace,
    eval_direct,
    extremes,
    search,
    sequence_table,
)
from floorsum.search import DEFAULT_CAP, enumerate_multisets
from helpers import inner_term, invoke, reference_extremes

def test_enumeration_order_and_counts():
    assert list(enumerate_multisets(2, 2)) == [(1, 1), (1, 0), (0, 0)]
    assert list(enumerate_multisets(1, 5)) == [(4,), (3,), (2,), (1,), (0,)]
    assert sum(1 for _ in enumerate_multisets(6, 15)) == math.comb(20, 6) == 38760


def test_enumeration_is_sorted_and_strictly_decreasing():
    seen = list(enumerate_multisets(3, 5))
    assert len(seen) == len(set(seen)) == math.comb(7, 3)
    for a in seen:
        assert tuple(sorted(a, reverse=True)) == a
    assert seen == sorted(seen, reverse=True)


def test_enumeration_rejects_bad_arguments():
    with pytest.raises(DomainError):
        enumerate_multisets(0, 5)
    with pytest.raises(DomainError):
        enumerate_multisets(2, 0)


def test_search_space_validation():
    space = SearchSpace(3, 7)
    assert space.k_range == (0, 6)
    assert space.multiset_count == math.comb(9, 3)
    with pytest.raises(DomainError):
        SearchSpace(3, 7, (2, 1))
    with pytest.raises(DomainError):
        SearchSpace(3, 7, (0, 7))
    with pytest.raises(DomainError):
        SearchSpace(3, 7, cap=0)


def test_search_space_refuses_a_space_whose_widest_cell_overflows():
    # the widest cell is (m-1, ..., m-1) at K = m-1, checked as Instance checks it
    with pytest.raises(InstanceTooLargeError, match=r"\(n=70, sum\(A\)=140, K=2\)$"):
        SearchSpace(70, 3)
    with pytest.raises(InstanceTooLargeError):
        SearchSpace(57, 2)
    assert SearchSpace(56, 2).k_range == (0, 1)


def test_search_space_refuses_a_cap_past_64_bits():
    # the fold's islice takes a stop of at most sys.maxsize
    with pytest.raises(InstanceTooLargeError, match=r"^cap=9223372036854775808 exceeds 64-bit"):
        SearchSpace(2, 4, cap=2**63)
    space = SearchSpace(2, 4, cap=2**63 - 1)
    assert extremes(space) == extremes(SearchSpace(2, 4)).replace(space=space)


def test_search_space_checks_its_widest_cell_without_building_it():
    # by arithmetic on (n, m): no n-element tuple, however large n is; the worst
    # case, 2^n * 40000003, has n + 26 bits
    tracemalloc.start()
    try:
        with pytest.raises(InstanceTooLargeError, match=r"^worst-case intermediate \(10000026 bits\)"):
            SearchSpace(10**7, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_search_space_refuses_a_field_that_is_not_a_plain_int():
    for args in [(3.0, 5), (3, True), (3, 5, (0, 4.0)), (3, 5, None, 10.0)]:
        with pytest.raises(DomainError, match="must be ints"):
            SearchSpace(*args)


def test_search_space_messages_stay_short_past_the_decimal_digit_limit():
    huge = 10**5000  # str() refuses it with a plain ValueError
    for args, shown in [((3, huge, (0, huge)), "hi <= (16610 bits), got (0, (16610 bits))"),
                        ((-huge, 5), "arity must be >= 1, got -(16610 bits)"),
                        ((3, -huge), "modulus must be >= 1, got -(16610 bits)"),
                        ((3, 5, None, -huge), "site cap must be >= 1, got -(16610 bits)"),
                        ((3, 5, (-huge, 2)), "got (-(16610 bits), 2)")]:
        with pytest.raises(FloorSumError) as raised:
            SearchSpace(*args)
        assert shown in str(raised.value)
    with pytest.raises(FloorSumError, match=r"K=\(16610 bits\)\)$"):
        SearchSpace(3, huge)


def test_extremes_known_values():
    # the (4, m) values themselves are acceptance criterion 2's
    record = extremes(SearchSpace(4, 9))
    assert record.min_sites == (((6, 6, 6, 6), 5), ((3, 3, 3, 3), 2))
    record = extremes(SearchSpace(2, 5))
    assert (record.max_value, record.min_value) == (2, 0)


def test_terminal_k_contributes_only_zero():
    for n in (2, 3, 4):
        for m in (2, 5, 8):
            record = extremes(SearchSpace(n, m, (m - 1, m - 1)))
            assert record.max_value == record.min_value == 0


def test_determinism_across_worker_counts(monkeypatch):
    # n = 1 has an empty rest per task, m = 1 a single task; caps 1 and 2
    # truncate site lists that span several tasks; these small spaces send
    # their tasks after the first to the pool only with the time limit at 0
    monkeypatch.setattr(search, "_POOL_AFTER_S", 0)
    spaces = [SearchSpace(3, 7), SearchSpace(2, 9), SearchSpace(1, 6), SearchSpace(4, 1),
              SearchSpace(3, 7, cap=1), SearchSpace(2, 9, cap=2), SearchSpace(1, 6, cap=2),
              SearchSpace(3, 8, (2, 5), cap=2), SearchSpace(5, 6, cap=2),
              SearchSpace(6, 5, (1, 3)), SearchSpace(8, 4, cap=1)]
    for space in spaces:
        expected = reference_extremes(space)
        for w in (1, 2, 3):
            assert extremes(space, workers=w) == expected, (space, w)


def test_pruned_walk_matches_the_oracle_on_a_wide_envelope():
    # every (n, m) with n <= 8 and at most 5000 cells (136 shapes), the full
    # K range, one subrange and the terminal K alone; capped records are the
    # reference's site lists cut to the cap, as both keep the first sites in
    # enumeration order, and truncated exactly when the cap cut a list
    shapes = [(n, m) for n in range(1, 9) for m in range(1, 71)
              if math.comb(m + n - 1, n) * m <= 5000]
    assert len(shapes) == 136
    for n, m in shapes:
        for k_range in {(0, m - 1), (m - 1, m - 1)} | ({(1, m - 2)} if m >= 3 else set()):
            full = reference_extremes(SearchSpace(n, m, k_range))
            for cap in (1, 2, DEFAULT_CAP):
                space = SearchSpace(n, m, k_range, cap)
                expected = full.replace(space=space, max_sites=full.max_sites[:cap],
                                        min_sites=full.min_sites[:cap])
                record = extremes(space)
                assert record == expected, (n, m, k_range, cap)
                assert record.truncated == (max(full.max_count, full.min_count) > cap), space


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_the_walk_is_exact_from_any_seeds_inside_the_value_range(data):
    # Any seeds between the true min and max are sound starting extremes: the
    # walk still visits every cell that ties or beats one, so pruning at every
    # strength gives the oracle's record, through the task contract the pool uses.
    n = data.draw(st.integers(1, 7), label="n")
    m_top = max(m for m in range(1, 142) if math.comb(m + n - 1, n) * m <= 20_000)
    m = data.draw(st.integers(1, m_top), label="m")
    k_lo = data.draw(st.integers(0, m - 1), label="k_lo")
    k_hi = data.draw(st.integers(k_lo, m - 1), label="k_hi")
    cap = data.draw(st.sampled_from([1, 2, 3, DEFAULT_CAP]), label="cap")
    space = SearchSpace(n, m, (k_lo, k_hi), cap)
    expected = reference_extremes(space)
    seeds = st.integers(expected.min_value, expected.max_value)
    seed_max, seed_min = data.draw(seeds, label="seed_max"), data.draw(seeds, label="seed_min")
    top, bottom = search._Side(max, cap, seed_max), search._Side(min, cap, seed_min)
    for first in range(m - 1, -1, -1):
        result = search._task((n, m, first, k_lo, k_hi, cap, seed_max, seed_min))
        for side, (value, count, sites) in zip((top, bottom), result):
            side.fold(value, count, sites)
    folded = ExtremeRecord(space, top.value, bottom.value, tuple(top.sites),
                           tuple(bottom.sites), top.count, bottom.count)
    assert folded == expected
    assert extremes(space) == expected


def test_constant_seeds_sweep_once_per_space(monkeypatch):
    # n = 1: the constants are the whole space, which the walk visits anyway,
    # so only the first, (m-1,), is swept; n >= 2 sweeps each near-constant
    # multiset c^j (c-1)^(n-j) once: n(m-1)+1 of them, the m constants included
    calls = []
    sweep = search.eval_closed_all_k
    monkeypatch.setattr(search, "eval_closed_all_k", lambda m, a: calls.append(a) or sweep(m, a))
    for n, m in [(1, 1), (1, 2), (1, 5), (1, 30), (2, 1), (2, 5), (3, 7), (4, 1), (4, 6)]:
        calls.clear()
        assert extremes(SearchSpace(n, m)) == reference_extremes(SearchSpace(n, m)), (n, m)
        if n == 1:
            assert calls == [(m - 1,)], m
            continue
        family = {a for a in enumerate_multisets(n, m) if a[0] - a[-1] <= 1}
        assert len(calls) == len(set(calls)) == n * (m - 1) + 1, (n, m)
        assert set(calls) == family, (n, m)


def test_child_bound_holds_for_every_completion():
    # for a prefix P with |P| >= 2, S_P over one period spanning [lo, hi] and
    # f_P spanning [f_lo, f_hi], a next element b gives S_{P+b} inside
    # [dl, dh] = [max(lo - hi, b f_lo), min(hi - lo, b f_hi)] - S_P(b-1), and
    # a completion by r more elements lies inside B_r of the search module
    # docstring, of [lo, hi] from P and of [dl, dh] from P+b; B_r lies inside
    # [-2^r w, 2^r w] for w the interval's width
    @functools.cache
    def values(m, a):
        return [eval_direct(Instance(m, a, k)) for k in range(m)]

    @functools.cache
    def inner_range(m, a):
        f = [inner_term(m, a, k) for k in range(m)]
        return min(f), max(f)

    def bound(lo, hi, r):
        spread = ((1 << r) - 1) * (hi - lo)
        return (lo - spread, hi + spread) if r % 2 == 0 else (-hi - spread, -lo + spread)

    pairs = 0
    for m in range(1, 11):
        for n in range(3, 7 if m <= 8 else 6):
            for a in enumerate_multisets(n, m):
                full = min(values(m, a)), max(values(m, a))
                for size in range(2, n):
                    prefix, b = values(m, a[:size]), a[size]
                    f_lo, f_hi = inner_range(m, a[:size])
                    lo, hi = min(prefix), max(prefix)
                    offset = prefix[b - 1]  # S_P(-1) = S_P(m-1) = 0
                    dl = max(lo - hi, b * f_lo) - offset
                    dh = min(hi - lo, b * f_hi) - offset
                    child = values(m, a[:size + 1])
                    assert dl <= min(child) and max(child) <= dh, (m, a, size)
                    for l, h, r in [(lo, hi, n - size), (dl, dh, n - size - 1)]:
                        low, high = bound(l, h, r)
                        assert low <= full[0] and full[1] <= high, (m, a, size, r)
                        assert -((h - l) << r) <= low and high <= (h - l) << r, (m, a, size, r)
                    pairs += 1
    assert pairs == 33_462


def fake_pool(monkeypatch, received=None) -> list[int]:
    """Patch ``multiprocessing.Pool`` with a fake that runs the tasks in
    process; return the list it appends each requested pool size to, and
    append the largest element of each task it is given to ``received``."""
    requested = []

    class FakePool:
        def __init__(self, processes, initializer=None, initargs=()):
            requested.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, func, iterable, chunksize=1):
            tasks = list(iterable)
            if received is not None:
                received.extend(task[2] for task in tasks)
            return map(func, tasks)

    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    return requested


def test_pool_is_capped_at_the_available_cpus(monkeypatch):
    requested = fake_pool(monkeypatch)
    monkeypatch.setattr(search, "_POOL_AFTER_S", 0)  # the spaces below are small
    space = SearchSpace(3, 9, cap=2)
    expected = extremes(space, workers=1)
    assert extremes(space, workers=10_000) == expected
    assert all(size <= search._available_cpus() for size in requested)
    monkeypatch.setattr(search, "_available_cpus", lambda: 3)
    assert extremes(space, workers=10_000) == expected
    assert requested[-1] == 3
    assert extremes(SearchSpace(3, 3), workers=10_000) == extremes(SearchSpace(3, 3))
    assert requested[-1] == 2  # two tasks left after the first
    count = len(requested)
    assert extremes(SearchSpace(3, 2), workers=10_000) == extremes(SearchSpace(3, 2))
    assert len(requested) == count  # one task left after the first: no pool of one


def test_at_a_zero_limit_the_pool_takes_every_task_after_the_first(monkeypatch):
    received = []
    requested = fake_pool(monkeypatch, received)
    monkeypatch.setattr(search, "_available_cpus", lambda: 2)
    monkeypatch.setattr(search, "_POOL_AFTER_S", 0)
    space = SearchSpace(4, 9, cap=2)
    assert extremes(space, workers=2) == reference_extremes(space)
    assert requested == [2]
    assert received == list(range(7, -1, -1))  # tasks run from m-1 down to 0


def test_the_pool_starts_once_a_task_ends_at_the_limit(monkeypatch):
    # a fake clock: the search starts at 0, and each reading after a task is the next tick
    def clock(ticks):
        readings = iter([0.0, *ticks])
        monkeypatch.setattr(search, "time", SimpleNamespace(perf_counter=lambda: next(readings)))

    received = []
    requested = fake_pool(monkeypatch, received)
    monkeypatch.setattr(search, "_available_cpus", lambda: 2)
    space = SearchSpace(3, 6)
    expected = reference_extremes(space)
    limit = search._POOL_AFTER_S
    clock([limit / 2, limit * 0.99, limit])
    assert extremes(space, workers=2) == expected
    assert (requested, received) == ([2], [2, 1, 0])  # after the third of six tasks
    clock([limit * 0.99] * 5)  # a search that ends before the limit starts no pool
    assert extremes(space, workers=2) == expected
    assert requested == [2]


def test_a_quick_search_runs_in_process_at_two_workers(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("started a pool for a search that ends before the limit")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    space = SearchSpace(4, 14)  # a few ms, far below the 0.2 s limit
    assert extremes(space, workers=2) == extremes(space, workers=1)


# Records of shapes beyond the oracle's reach: (n, m): (max, min, max count,
# min count, first max site, first min site).  The first three are as the walk
# without the 2^r bound and near-constant seeds found them, the last two as
# the walk that built every child before bounding it found them.
FRONTIER_RECORDS = {
    (9, 20): (720, -1280, 2, 1, ((12,) * 9, 11), ((10,) * 9, 9)),
    (10, 18): (2304, -1164, 1, 8, ((9,) * 10, 8), ((11,) * 6 + (10,) * 4, 9)),
    (12, 14): (7168, -4396, 1, 2, ((7,) * 12, 6), ((8,) * 12, 7)),
    (13, 21): (13188, -18732, 2, 2, ((12,) * 13, 11), ((11,) * 7 + (10,) * 6, 9)),
    (12, 25): (11414, -7310, 4, 8, ((13,) * 7 + (12,) * 5, 11), ((15,) * 4 + (14,) * 8, 13)),
}


@pytest.mark.parametrize("shape", sorted(FRONTIER_RECORDS))
def test_frontier_records_are_pinned(shape):
    record = extremes(SearchSpace(*shape))
    assert (record.max_value, record.min_value, record.max_count, record.min_count,
            record.max_sites[0], record.min_sites[0]) == FRONTIER_RECORDS[shape]
    (a, k), (b, j) = record.max_sites[0], record.min_sites[0]
    assert eval_direct(Instance(shape[1], a, k)) == record.max_value
    assert eval_direct(Instance(shape[1], b, j)) == record.min_value


def test_site_cap_truncates_but_keeps_counts():
    space = SearchSpace(2, 6, cap=1)
    record = extremes(space)
    full = extremes(SearchSpace(2, 6))
    assert (record.max_value, record.min_value) == (full.max_value, full.min_value)
    assert record.max_count == full.max_count and record.min_count == full.min_count
    assert len(record.min_sites) == 1 < record.min_count
    assert record.truncated and not full.truncated
    assert record.max_sites == full.max_sites[:1]
    assert record.min_sites == full.min_sites[:1]


def test_record_dict_roundtrip():
    record = extremes(SearchSpace(3, 6, (1, 4), cap=7))
    assert ExtremeRecord.from_dict(record.to_dict()) == record
    # search's JSON result, which adds truncated, reads back as the fresh record
    text = invoke(["search", "--n", "3", "--m", "7", "--cap", "2", "--format", "json"]).stdout
    assert ExtremeRecord.from_dict(json.loads(text)["result"]) == extremes(SearchSpace(3, 7, cap=2))


@pytest.mark.parametrize("fields, error", [
    ({"cap": 0}, DomainError),
    ({"k_range": [4, 1]}, DomainError),
    ({"k_range": [0, 2, 5]}, DomainError),
    ({"n": 70, "m": 3, "k_range": [0, 2]}, InstanceTooLargeError),
    ({"cap": 1000.0}, DomainError),
    ({"max_value": 2.0}, DomainError),
    ({"n": True}, DomainError),
    ({"min_count": True}, DomainError),
    # within a site list: a bool element, a float K, a third entry, an int for A
    ({"max_sites": [[[True, 4, 4], 3], [[2, 2, 2], 1]]}, DomainError),
    ({"min_sites": [[[3, 3, 3], 2.0]]}, DomainError),
    ({"max_sites": [[[4, 4, 4], 3, 0], [[2, 2, 2], 1]]}, ValueError),
    ({"min_sites": [[3, 2]]}, TypeError),
])
def test_record_from_dict_refuses_what_a_fresh_run_never_builds(fields, error):
    data = extremes(SearchSpace(3, 6)).to_dict()
    with pytest.raises(error):
        ExtremeRecord.from_dict({**data, **fields})


def test_record_from_dict_names_the_first_missing_field():
    data = extremes(SearchSpace(3, 6)).to_dict()
    del data["min_count"], data["cap"]
    with pytest.raises(KeyError, match="'cap'"):
        ExtremeRecord.from_dict(data)


def test_sequence_table_one_element():
    maxima, minima = sequence_table(1, 8)
    assert maxima == [m - 1 for m in range(1, 9)]
    assert minima == [0] * 8

