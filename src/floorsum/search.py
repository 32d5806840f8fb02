"""Exhaustive extremal search over bounded instances.

For fixed (n, m) the search space is every multiset A over {0..m-1}
(the sum is symmetric in the elements, so tuples would only repeat
work) crossed with every K in a subrange of [0, m-1].  The work splits
into one task per largest element; a task walks its nonincreasing
prefixes depth first, in enumeration order.  One fold keeps the running
extremes inside a task and across task results, which are folded in
enumeration order whatever the worker count.

Pruning.  For |P| >= 2, S_P(m-1) = 0 makes S_P m-periodic, with S_P(-1) = 0;
let [L, U] be its range over one period.  Two bounds hold for every completion
P+B by r more elements.  First, S_{P+b}(K) = S_P(K+b) - S_P(K) - S_P(b-1) maps
[L, U] into [L-2U, U-2L], and r such maps bound S_{P+B}.  Second, with s_T
the sum of a subset T of B,

    S_{P+B}(K) = sum_{T subseteq B} (-1)^(r-|T|) [S_P(K+s_T) - S_P(s_T-1)],

since f_{P+B}(k) = sum_T (-1)^(r-|T|) f_P(k+s_T) and S_P(K+s) - S_P(s-1) sums
f_P(k+s) over k = 0..K.  Each bracket lies in [L-U, U-L], so
|S_{P+B}(K)| <= 2^r (U-L).  As L <= 0 <= U, r maps give the interval
[-(3^r (U-L) - (-1)^r (U+L))/2, (3^r (U-L) + (-1)^r (U+L))/2], whose ends
have size at least (3^r - 1)(U-L)/2 >= 2^r (U-L) once r >= 2; so the map
is the tighter bound only at r = 1, and the 2^r bound beyond.  A subtree is
skipped when its bound puts it strictly inside the running extremes (a tie
adds a count and a site).  These start at seeds, the best cells of the near-constant
multisets c^j (c-1)^(n-j): real cells, so every cell that ties or beats an
extreme is still visited.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, fields
from itertools import accumulate, combinations_with_replacement, islice
from typing import Iterable, Iterator

from .core import _check_width, eval_closed_all_k
from .exceptions import DomainError

Site = tuple[tuple[int, ...], int]

DEFAULT_CAP = 1000

# Seconds a search runs in process before its remaining tasks go to a pool:
# a pool costs about 50 ms to start (README, measured on 2 cores), so only a
# search that has already run several times that long is worth one.
_POOL_AFTER_S = 0.2


@dataclass(frozen=True)
class SearchSpace:
    """Search parameters, plain ints: arity, modulus, K subrange and site cap.  A space
    whose widest cell overflows 64 bits raises ``InstanceTooLargeError`` on construction."""

    n: int
    m: int
    k_range: tuple[int, int] | None = None
    cap: int = DEFAULT_CAP

    def __post_init__(self) -> None:
        k_range = self.k_range if self.k_range is not None else (0, self.m - 1)
        if len(k_range) != 2 or any(type(v) is not int
                                    for v in (self.n, self.m, self.cap, *k_range)):
            raise DomainError("n, m, cap and both ends of k_range must be ints")
        if self.n < 1:
            raise DomainError(f"arity must be >= 1, got {self.n}")
        if self.m < 1:
            raise DomainError(f"modulus must be >= 1, got {self.m}")
        if self.cap < 1:
            raise DomainError(f"site cap must be >= 1, got {self.cap}")
        lo, hi = k_range
        if not 0 <= lo <= hi <= self.m - 1:
            raise DomainError(f"k_range must satisfy 0 <= lo <= hi <= {self.m - 1}, got {k_range}")
        object.__setattr__(self, "k_range", (lo, hi))
        # the widest cell: (m-1, ..., m-1) at K = m-1
        _check_width(self.m, self.n, self.n * (self.m - 1), self.m - 1)

    @property
    def multiset_count(self) -> int:
        return math.comb(self.m + self.n - 1, self.n)


@dataclass(frozen=True)
class ExtremeRecord:
    """Exact max/min over ``space`` plus the attaining sites.

    Site lists are in enumeration order and hold at most ``space.cap`` entries;
    ``max_count``/``min_count`` are the true numbers of attaining sites.  Every
    number is a plain int.
    """

    space: SearchSpace
    max_value: int
    min_value: int
    max_sites: tuple[Site, ...]
    min_sites: tuple[Site, ...]
    max_count: int
    min_count: int

    def __post_init__(self) -> None:
        sites = self.max_sites + self.min_sites
        numbers = (self.max_value, self.min_value, self.max_count, self.min_count,
                   *(k for _, k in sites), *(v for a, _ in sites for v in a))
        if any(type(v) is not int for v in numbers):
            raise DomainError("a value, count or site of the record is not an int")

    @property
    def truncated(self) -> bool:
        return len(self.max_sites) < self.max_count or len(self.min_sites) < self.min_count

    def to_dict(self) -> dict:
        """The space's fields, the record's own and ``truncated``, in one flat dict."""
        space = self.space
        return {"n": space.n, "m": space.m, "k_range": space.k_range, "cap": space.cap,
                **{f.name: getattr(self, f.name) for f in fields(self)[1:]},
                "truncated": self.truncated}

    @classmethod
    def from_dict(cls, data: dict) -> "ExtremeRecord":
        """Inverse of ``to_dict``; a missing field raises ``KeyError`` naming it,
        and a space that ``SearchSpace`` refuses raises as it does."""
        space = SearchSpace(data["n"], data["m"], tuple(data["k_range"]), data["cap"])
        values = {f.name: data[f.name] for f in fields(cls)[1:]}
        for side in ("max_sites", "min_sites"):
            values[side] = tuple((tuple(a), k) for a, k in values[side])
        return cls(space, **values)


def enumerate_multisets(n: int, m: int) -> Iterator[tuple[int, ...]]:
    """Yield every nonincreasing n-tuple over {0..m-1} exactly once.

    Order is deterministic: (m-1, ..., m-1) first, (0, ..., 0) last.
    The number of tuples is C(m+n-1, n).
    """
    if n < 1:
        raise DomainError(f"arity must be >= 1, got {n}")
    if m < 1:
        raise DomainError(f"modulus must be >= 1, got {m}")
    return combinations_with_replacement(range(m - 1, -1, -1), n)


class _Side:
    """One running extreme (``pick`` is ``max`` or ``min``): its value, the
    first ``cap`` attaining sites in enumeration order and their true count."""

    __slots__ = ("pick", "cap", "value", "sites", "count")

    def __init__(self, pick, cap: int, value: int):
        self.pick, self.cap = pick, cap
        self.value, self.sites, self.count = value, [], 0

    def admits(self, value: int) -> bool:
        """Whether ``value`` ties or beats the running extreme."""
        return self.pick(value, self.value) == value

    def fold(self, value: int, count: int, sites: Iterable[Site]) -> None:
        """Account ``count`` sites of ``value``; ``sites`` yields them in
        enumeration order and is read only as far as the cap needs."""
        if not self.admits(value):
            return
        if value != self.value:
            self.value, self.sites, self.count = value, [], 0
        self.count += count
        self.sites.extend(islice(sites, self.cap - len(self.sites)))


def _task(args: tuple[int, ...]) -> list[tuple]:
    """Extremes over the multisets whose largest element is ``first``.  A
    node carries its prefix's inner term f over one period; a child b is
    f_{P+b}(k) = f_P(k+b) - f_P(k), and a leaf's values are f's prefix sums."""
    n, m, first, k_lo, k_hi, cap, seed_max, seed_min = args
    sides = high, low = _Side(max, cap, seed_max), _Side(min, cap, seed_min)

    def walk(a: tuple[int, ...], f: list[int]) -> None:
        left = n - len(a)
        if not left:
            values = list(accumulate(f))[k_lo: k_hi + 1]
            for side in sides:
                best = side.pick(values)
                # Build the site list only for a multiset that can enter it.
                if side.admits(best):
                    side.fold(best, values.count(best),
                              ((a, k) for k, v in enumerate(values, k_lo) if v == best))
            return
        if len(a) >= 2:  # the bounds of the module docstring
            s = list(accumulate(f))
            lo, hi = min(s), max(s)
            if left == 1:
                lo, hi = lo - 2 * hi, hi - 2 * lo
            else:
                hi = (hi - lo) << left
                lo = -hi
            if hi < high.value and lo > low.value:
                return
        for b in range(a[-1], -1, -1):
            walk(a + (b,), [x - y for x, y in zip(f[b:] + f[:b], f)])

    walk((first,), [0] * (m - first) + [1] * first)
    return [(side.value, side.count, side.sites) for side in sides]


def _available_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def extremes(space: SearchSpace, workers: int = 1) -> ExtremeRecord:
    """Exact max/min of S_m over the space, with attaining sites.

    There is one task per largest element, m-1 down to 0, which is
    enumeration order; every task starts from the same seeds, and task
    results are folded in that order, so the record is identical for any
    worker count.  Tasks run in process, in order.  With ``workers > 1``,
    once a task ends ``_POOL_AFTER_S`` (0.2 s) or more after the search
    began, the tasks left go to a pool capped at their number and at the
    usable CPUs, if that leaves it two workers or more.
    """
    if workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers}")
    start = time.perf_counter()
    n, m = space.n, space.m
    k_lo, k_hi = space.k_range
    # For n = 1 every multiset is a constant, and the walk visits them all
    # anyway (it prunes only at |P| >= 2), so the first alone seeds it.
    near_constant = ([(c,) * j + (c - 1,) * (n - j) for c in range(m - 1, 0, -1)
                      for j in range(n, 0, -1)] + [(0,) * n]) if n > 1 else [(m - 1,)]
    seeds = [eval_closed_all_k(m, a)[k_lo: k_hi + 1] for a in near_constant]
    seed_max, seed_min = max(map(max, seeds)), min(map(min, seeds))
    tasks = [(n, m, first, k_lo, k_hi, space.cap, seed_max, seed_min)
             for first in range(m - 1, -1, -1)]
    workers = min(workers, _available_cpus())
    sides = (_Side(max, space.cap, seed_max), _Side(min, space.cap, seed_min))

    def fold(results: Iterable[list[tuple]]) -> None:
        for result in results:
            for side, (value, count, sites) in zip(sides, result):
                side.fold(value, count, sites)

    for done, task in enumerate(tasks):
        pool_size = min(workers, len(tasks) - done)
        if done and pool_size > 1 and time.perf_counter() - start >= _POOL_AFTER_S:
            import multiprocessing  # here, so a process that never needs a pool never pays its import
            import signal
            # Workers ignore SIGINT: on Ctrl-C the parent alone raises, and leaving
            # the ``with`` terminates them without a traceback from each.
            with multiprocessing.Pool(pool_size, initializer=signal.signal,
                                      initargs=(signal.SIGINT, signal.SIG_IGN)) as pool:
                fold(pool.imap(_task, tasks[done:], chunksize=1))
            break
        fold([_task(task)])
    top, bottom = sides
    return ExtremeRecord(
        space, max_value=top.value, min_value=bottom.value,
        max_sites=tuple(top.sites), min_sites=tuple(bottom.sites),
        max_count=top.count, min_count=bottom.count)
