"""Exhaustive extremal search over bounded instances.

For fixed (n, m) the search space is every multiset A over {0..m-1}
(the sum is symmetric in the elements, so tuples would only repeat
work) crossed with every K in a subrange of [0, m-1].  The work splits
into one task per largest element; a task walks its nonincreasing
prefixes depth first, in enumeration order.  Every prefix P, the root (first,)
included, carries its inner term f_P over one period, and S_P is its prefix
sums.  One fold keeps the running extremes inside a task and across task
results, which are folded in enumeration order whatever the worker count.

Pruning.  For |P| >= 2, S_P(m-1) = 0 makes S_P m-periodic, with S_P(-1) = 0.
A child P+b then has

    S_{P+b}(K) = D_b(K) - S_P(b-1),   D_b(K) = S_P(K+b) - S_P(K) = sum_{j=1..b} f_P(K+j),

since f_{P+b}(k) = f_P(k+b) - f_P(k).  With [L, U] the range of S_P over one
period and [fmin, fmax] that of f_P, D_b lies in [max(L-U, b fmin),
min(U-L, b fmax)], so S_{P+b} lies in that interval shifted by -S_P(b-1).

Let [l, h] contain the range of S_Q for some Q with |Q| >= 2, w = h - l and
p = 2^r - 1.  Every completion of Q by r more elements lies in

    B_r(l, h) = [l - p w, h + p w]    for even r,
                [-h - p w, -l + p w]  for odd r.

By induction on r: B_0 is [l, h].  For r >= 1, a child Q+b has D_b in [-w, w]
and s = S_Q(b-1) in [l, h], so its S lies in [-w - s, w - s], of width 2w.
As (2^(r-1) - 1) 2w + w = p w, B_{r-1} of that interval is [-p w + s, p w + s]
for odd r-1 and [-p w - s, p w - s] for even r-1 (B widens with its interval,
so one that contains the range suffices), and s over [l, h] gives B_r.  B_1
is the map [l, h] -> [l-2h, h-2l], and as l <= 0 <= h, B_r lies inside
[-2^r w, 2^r w], the bound of expanding S over the 2^r subsets of the added
elements.

A node P with |P| >= 2 and r elements still to add is skipped when B_r(L, U)
lies strictly inside the running extremes, and a child P+b is built only when
B_{r-1} of its interval above does not (a tie adds a count and a site).  The
root, whose S is not periodic, is never skipped and builds every child.
Extremes start at seeds, the best cells of the near-constant multisets c^j (c-1)^(n-j):
real cells, so every cell that ties or beats an extreme is still visited.
"""

from __future__ import annotations

__all__ = ["SearchSpace", "ExtremeRecord", "extremes"]

import math
import os
import time
from collections.abc import Iterable, Iterator
from itertools import accumulate, chain, combinations_with_replacement, islice
from operator import sub

from .core import _check_width, _plain_ints, _Record, eval_closed_all_k
from .exceptions import DomainError, _at_least, _shown

Site = tuple[tuple[int, ...], int]

DEFAULT_CAP = 1000

# Seconds a search runs in process before its remaining tasks go to a pool:
# a pool costs about 50 ms to start (README, measured on 2 cores), so only a
# search that has already run several times that long is worth one.
_POOL_AFTER_S = 0.2


class SearchSpace(_Record):
    """Search parameters, plain ints: arity, modulus, K subrange and site cap.  A space
    whose widest cell overflows 64 bits raises ``InstanceTooLargeError`` on construction."""

    __slots__ = ("n", "m", "k_range", "cap")

    def __init__(self, n: int, m: int, k_range: tuple[int, int] | None = None,
                 cap: int = DEFAULT_CAP):
        k_range = k_range if k_range is not None else (0, m - 1)
        if len(k_range) != 2 or not _plain_ints((n, m, cap, *k_range)):
            raise DomainError("n, m, cap and both ends of k_range must be ints")
        _at_least("arity", n, 1)
        _at_least("modulus", m, 1)
        _at_least("site cap", cap, 1)
        lo, hi = k_range
        if not 0 <= lo <= hi <= m - 1:
            raise DomainError(f"k_range must satisfy 0 <= lo <= hi <= {_shown(m - 1)}, "
                              f"got ({_shown(lo)}, {_shown(hi)})")
        # the widest cell: (m-1, ..., m-1) at K = m-1
        _check_width(m, n, n * (m - 1), m - 1)
        super().__init__(n, m, (lo, hi), cap)

    @property
    def multiset_count(self) -> int:
        return math.comb(self.m + self.n - 1, self.n)


class ExtremeRecord(_Record):
    """Exact max/min over ``space`` plus the attaining sites.

    Site lists are in enumeration order and hold at most ``space.cap`` entries;
    ``max_count``/``min_count`` are the true numbers of attaining sites.  Every
    number is a plain int.
    """

    __slots__ = ("space", "max_value", "min_value", "max_sites", "min_sites",
                 "max_count", "min_count")

    def __init__(self, space: SearchSpace, max_value: int, min_value: int,
                 max_sites: tuple[Site, ...], min_sites: tuple[Site, ...],
                 max_count: int, min_count: int):
        sites = max_sites + min_sites
        numbers = (max_value, min_value, max_count, min_count,
                   *(k for _, k in sites), *(v for a, _ in sites for v in a))
        if not _plain_ints(numbers):
            raise DomainError("a value, count or site of the record is not an int")
        super().__init__(space, max_value, min_value, max_sites, min_sites, max_count, min_count)

    @property
    def truncated(self) -> bool:
        return len(self.max_sites) < self.max_count or len(self.min_sites) < self.min_count

    def to_dict(self) -> dict:
        """The space's fields, the record's own and ``truncated``, in one flat dict."""
        space = self.space
        return {"n": space.n, "m": space.m, "k_range": space.k_range, "cap": space.cap,
                **{name: getattr(self, name) for name in self.__slots__[1:]},
                "truncated": self.truncated}

    @classmethod
    def from_dict(cls, data: dict) -> "ExtremeRecord":
        """Inverse of ``to_dict``; a missing field raises ``KeyError`` naming it,
        and a space that ``SearchSpace`` refuses raises as it does."""
        space = SearchSpace(data["n"], data["m"], tuple(data["k_range"]), data["cap"])
        values = {name: data[name] for name in cls.__slots__[1:]}
        for side in ("max_sites", "min_sites"):
            values[side] = tuple((tuple(a), k) for a, k in values[side])
        return cls(space, **values)


def enumerate_multisets(n: int, m: int) -> Iterator[tuple[int, ...]]:
    """Yield every nonincreasing n-tuple over {0..m-1} exactly once.

    Order is deterministic: (m-1, ..., m-1) first, (0, ..., 0) last.
    The number of tuples is C(m+n-1, n).
    """
    _at_least("arity", n, 1)
    _at_least("modulus", m, 1)
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
    """Extremes over the multisets whose largest element is ``first``, by one
    recursion: every prefix P carries f_P, a child b is f_P(k+b) - f_P(k), the
    root is never skipped, and from |P| >= 2 on the module docstring's bounds prune."""
    n, m, first, k_lo, k_hi, cap, seed_max, seed_min = args
    sides = high, low = _Side(max, cap, seed_max), _Side(min, cap, seed_min)

    def reaches(lo: int, hi: int, r: int) -> bool:
        # whether B_r of the module docstring, on [lo, hi], ties or passes an extreme
        spread = ((1 << r) - 1) * (hi - lo)
        if r & 1:
            lo, hi = -hi, -lo
        return hi + spread >= high.value or lo - spread <= low.value

    def walk(a: tuple[int, ...], f: Iterable[int]) -> None:
        left = n - len(a)
        if not left:
            # A child's f is an iterator, read once by a leaf into S over the K range.
            window = list(islice(accumulate(f), k_lo, k_hi + 1))
            for side in sides:
                top = side.pick(window)
                # Build the site list only for a multiset that can enter it.
                if side.admits(top):
                    side.fold(top, window.count(top),
                              ((a, k) for k, v in enumerate(window, k_lo) if v == top))
            return
        f = list(f)
        s = list(accumulate(f))
        root = len(a) == 1
        if not root:
            lo, hi = min(s), max(s)
            if not reaches(lo, hi, left):
                return
            f_lo, f_hi, width = min(f), max(f), hi - lo
        for b in range(a[-1], -1, -1):
            offset = s[b - 1]  # S_P(b-1); S_P(-1) = S_P(m-1) = 0 once |P| >= 2
            if root or reaches(max(-width, b * f_lo) - offset, min(width, b * f_hi) - offset,
                               left - 1):
                walk(a + (b,), map(sub, f[b:] + f[:b], f))

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
    _at_least("workers", workers, 1)
    start = time.perf_counter()
    n, m = space.n, space.m
    k_lo, k_hi = space.k_range
    # For n = 1 every multiset is a constant, and the walk visits them all
    # anyway (it prunes only at |P| >= 2), so the first alone seeds it.  The
    # seeds are built lazily and only each sweep's extremes are kept, so a
    # modulus past the memory fails at its first sweep.
    near_constant = chain(((c,) * j + (c - 1,) * (n - j) for c in range(m - 1, 0, -1)
                           for j in range(n, 0, -1)), [(0,) * n]) if n > 1 else [(m - 1,)]
    windows = (eval_closed_all_k(m, a)[k_lo: k_hi + 1] for a in near_constant)
    window = next(windows)
    seed_max, seed_min = max(window), min(window)
    for window in windows:
        seed_max, seed_min = max(seed_max, max(window)), min(seed_min, min(window))
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
