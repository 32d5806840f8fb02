"""Search engine tests: enumeration, extremes, determinism, pruning."""

import math
import multiprocessing
from dataclasses import replace

import pytest

from floorsum import (
    DomainError,
    ExtremeRecord,
    Instance,
    SearchSpace,
    eval_closed,
    eval_direct,
    extremes,
    search,
    sequence_table,
)
from floorsum.search import DEFAULT_CAP, enumerate_multisets
from helpers import extreme_values_mirror_pruned, reference_extremes

# First twelve entries of the published n=4 extreme sequences.
N4_MAX_PREFIX = [0, 4, 3, 8, 7, 12, 11, 16, 15, 20, 19, 24]
N4_MIN_PREFIX = [0, 0, -3, -2, -3, -6, -5, -6, -9, -8, -9, -12]


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


def test_extremes_known_values():
    record = extremes(SearchSpace(4, 2))
    assert (record.max_value, record.min_value) == (4, 0)
    record = extremes(SearchSpace(4, 9))
    assert (record.max_value, record.min_value) == (15, -9)
    assert record.min_sites == (((6, 6, 6, 6), 5), ((3, 3, 3, 3), 2))
    record = extremes(SearchSpace(2, 5))
    assert (record.max_value, record.min_value) == (2, 0)


def test_recorded_sites_reproduce_the_extremes():
    record = extremes(SearchSpace(3, 9))
    for a, k in record.max_sites:
        assert eval_closed(Instance(9, a, k)) == record.max_value
    for a, k in record.min_sites:
        assert eval_closed(Instance(9, a, k)) == record.min_value
    # spot audits against the definitional oracle
    a, k = record.max_sites[0]
    assert eval_direct(Instance(9, a, k)) == record.max_value
    a, k = record.min_sites[-1]
    assert eval_direct(Instance(9, a, k)) == record.min_value


def test_terminal_k_contributes_only_zero():
    for n in (2, 3, 4):
        for m in (2, 5, 8):
            record = extremes(SearchSpace(n, m, (m - 1, m - 1)))
            assert record.max_value == record.min_value == 0


def test_determinism_across_worker_counts(monkeypatch):
    # n = 1 has an empty rest per task, m = 1 a single task; caps 1 and 2
    # truncate site lists that span several tasks; these small spaces go
    # through the pool only with the cell threshold at 0
    monkeypatch.setattr(search, "_POOL_MIN_CELLS", 0)
    spaces = [SearchSpace(3, 7), SearchSpace(2, 9), SearchSpace(1, 6), SearchSpace(4, 1),
              SearchSpace(3, 7, cap=1), SearchSpace(2, 9, cap=2), SearchSpace(1, 6, cap=2),
              SearchSpace(3, 8, (2, 5), cap=2)]
    for space in spaces:
        expected = reference_extremes(space)
        for w in (1, 2, 3):
            assert extremes(space, workers=w) == expected, (space, w)


def test_pruned_walk_matches_the_oracle_on_a_wide_envelope(monkeypatch):
    # every (n, m) with n <= 8 and at most 5000 cells (136 shapes), the full
    # K range and one subrange; capped records are the reference's site
    # lists cut to the cap, as both keep the first sites in enumeration order
    shapes = [(n, m) for n in range(1, 9) for m in range(1, 71)
              if math.comb(m + n - 1, n) * m <= 5000]
    assert len(shapes) == 136
    for n, m in shapes:
        for k_range in [(0, m - 1)] + ([(1, m - 2)] if m >= 3 else []):
            full = reference_extremes(SearchSpace(n, m, k_range))
            for cap in (1, 2, DEFAULT_CAP):
                expected = replace(full, cap=cap, max_sites=full.max_sites[:cap],
                                   min_sites=full.min_sites[:cap])
                assert extremes(SearchSpace(n, m, k_range, cap)) == expected, (n, m, k_range, cap)
    monkeypatch.setattr(search, "_POOL_MIN_CELLS", 0)  # so workers 2 and 3 start a pool
    for space in (SearchSpace(5, 6, cap=2), SearchSpace(6, 5, (1, 3)), SearchSpace(8, 4, cap=1)):
        expected = reference_extremes(space)
        for w in (2, 3):
            assert extremes(space, workers=w) == expected, (space, w)


def test_constant_seeds_sweep_once_per_space(monkeypatch):
    # n = 1: the constants are the whole space, which the walk visits anyway,
    # so only the first, (m-1,), is swept; n >= 2 sweeps all m constants
    calls = []
    sweep = search.eval_closed_all_k
    monkeypatch.setattr(search, "eval_closed_all_k", lambda m, a: calls.append(a) or sweep(m, a))
    for n, m in [(1, 1), (1, 2), (1, 5), (1, 30), (2, 5), (3, 7), (4, 1)]:
        calls.clear()
        assert extremes(SearchSpace(n, m)) == reference_extremes(SearchSpace(n, m)), (n, m)
        constants = [(c,) * n for c in range(m - 1, -1, -1)]
        assert calls == (constants if n > 1 else constants[:1]), (n, m)


def test_prune_bound_holds_for_every_completion():
    # S_P over one period spans [lo, hi]; after r more elements every S value
    # lies in [lo, hi] mapped r times by [lo, hi] -> [lo - 2*hi, hi - 2*lo]
    for m in range(1, 10):
        for n in range(3, 6):
            for a in enumerate_multisets(n, m):
                values = [eval_direct(Instance(m, a, k)) for k in range(m)]
                for size in range(2, n):
                    prefix = [eval_direct(Instance(m, a[:size], k)) for k in range(m)]
                    lo, hi = min(prefix), max(prefix)
                    for _ in range(n - size):
                        lo, hi = lo - 2 * hi, hi - 2 * lo
                    assert lo <= min(values) and max(values) <= hi, (m, a, size)


def fake_pool(monkeypatch) -> list[int]:
    """Patch ``multiprocessing.Pool`` with a fake that runs the tasks in
    process; return the list it appends each requested pool size to."""
    requested = []

    class FakePool:
        def __init__(self, processes, initializer=None, initargs=()):
            requested.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, func, iterable, chunksize=1):
            return map(func, iterable)

    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    return requested


def test_pool_is_capped_at_the_available_cpus(monkeypatch):
    requested = fake_pool(monkeypatch)
    monkeypatch.setattr(search, "_POOL_MIN_CELLS", 0)  # the spaces below are small
    space = SearchSpace(3, 9, cap=2)
    expected = extremes(space, workers=1)
    assert extremes(space, workers=10_000) == expected
    assert all(size <= search._available_cpus() for size in requested)
    monkeypatch.setattr(search, "_available_cpus", lambda: 3)
    assert extremes(space, workers=10_000) == expected
    assert requested[-1] == 3
    assert extremes(SearchSpace(3, 2), workers=10_000) == extremes(SearchSpace(3, 2))
    assert requested[-1] == 2  # two tasks


def test_spaces_below_the_cell_threshold_run_in_process(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("started a pool below the cell threshold")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    space = SearchSpace(4, 14)  # 2380 multisets x 14 = 33,320 cells
    assert extremes(space, workers=2) == extremes(space, workers=1)


def test_a_space_at_the_cell_threshold_starts_one_pool(monkeypatch):
    # n = 1 has m multisets, so m * m cells: 999^2 < 10^6 <= 1000^2
    requested = fake_pool(monkeypatch)
    monkeypatch.setattr(search, "_available_cpus", lambda: 2)
    assert search._POOL_MIN_CELLS == 1000 * 1000
    below, at = SearchSpace(1, 999), SearchSpace(1, 1000)
    assert extremes(below, workers=2) == extremes(below, workers=1)
    assert requested == []
    assert extremes(at, workers=2) == extremes(at, workers=1)
    assert requested == [2]


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


def test_sequence_table_known_prefix():
    maxima, minima = sequence_table(4, 12)
    assert maxima == N4_MAX_PREFIX
    assert minima == N4_MIN_PREFIX


def test_sequence_table_one_element():
    maxima, minima = sequence_table(1, 8)
    assert maxima == [m - 1 for m in range(1, 9)]
    assert minima == [0] * 8


def test_mirror_pruned_sweep_matches_full_sweep():
    # half the K range plus K = m-1, completed by the mirror identity;
    # sound exactly where the identity is proven (n >= 2)
    for n in range(2, 6):
        for m in range(1, 16 if n <= 3 else 10):
            full = extremes(SearchSpace(n, m))
            assert extreme_values_mirror_pruned(n, m) == (full.max_value, full.min_value)
    with pytest.raises(DomainError):
        extreme_values_mirror_pruned(1, 6)


def test_extremes_k_subrange_respected():
    record = extremes(SearchSpace(2, 10, (0, 3)))
    assert all(0 <= k <= 3 for _, k in record.max_sites + record.min_sites)
    full = extremes(SearchSpace(2, 10))
    assert record.max_value <= full.max_value
    assert record.min_value >= full.min_value
