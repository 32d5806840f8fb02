"""Exhaustive extremal search over bounded instances.

For fixed (n, m) the search space is every multiset A over {0..m-1}
(the sum is symmetric in the elements, so tuples would only repeat
work) crossed with every K in a subrange of [0, m-1].  The work splits
into one task per largest element; a task walks its nonincreasing
prefixes depth first, in enumeration order.  One fold keeps the running
extremes inside a task and across task results, which are folded in
enumeration order whatever the worker count.

Pruning.  For |P| >= 2, S_P(m-1) = 0 makes S_P m-periodic, so with S_P(-1) = 0,
S_{P+b}(K) = S_P(K+b) - S_P(K) - S_P(b-1) maps a period range [L, U] into
[L-2U, U-2L].  A subtree is skipped when that map, iterated once per element
still to add, puts it strictly inside the running extremes (a tie adds a count
and a site).  These start at seeds, the best cells of the constant multisets:
real cells, so every cell that ties or beats an extreme is still visited.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import signal
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import accumulate, combinations_with_replacement, islice
from typing import Iterable, Iterator

from .core import eval_closed_all_k
from .exceptions import DomainError

Site = tuple[tuple[int, ...], int]

DEFAULT_CAP = 1000


@dataclass(frozen=True)
class SearchSpace:
    """Search parameters: arity, modulus, K subrange and site cap."""

    n: int
    m: int
    k_range: tuple[int, int] | None = None
    cap: int = DEFAULT_CAP

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DomainError(f"arity must be >= 1, got {self.n}")
        if self.m < 1:
            raise DomainError(f"modulus must be >= 1, got {self.m}")
        if self.cap < 1:
            raise DomainError(f"site cap must be >= 1, got {self.cap}")
        k_range = self.k_range if self.k_range is not None else (0, self.m - 1)
        lo, hi = k_range
        if not 0 <= lo <= hi <= self.m - 1:
            raise DomainError(f"k_range must satisfy 0 <= lo <= hi <= {self.m - 1}, got {k_range}")
        object.__setattr__(self, "k_range", (lo, hi))

    @property
    def multiset_count(self) -> int:
        return math.comb(self.m + self.n - 1, self.n)


@dataclass(frozen=True)
class ExtremeRecord:
    """Exact max/min over a search space plus the attaining sites.

    Site lists are in enumeration order and hold at most ``cap`` entries;
    ``max_count``/``min_count`` are the true numbers of attaining sites.
    """

    n: int
    m: int
    k_range: tuple[int, int]
    cap: int
    max_value: int
    min_value: int
    max_sites: tuple[Site, ...]
    min_sites: tuple[Site, ...]
    max_count: int
    min_count: int

    @property
    def truncated(self) -> bool:
        return len(self.max_sites) < self.max_count or len(self.min_sites) < self.min_count

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "k_range": list(self.k_range),
            "cap": self.cap,
            "max_value": self.max_value,
            "min_value": self.min_value,
            "max_sites": [[list(a), k] for a, k in self.max_sites],
            "min_sites": [[list(a), k] for a, k in self.min_sites],
            "max_count": self.max_count,
            "min_count": self.min_count,
            "truncated": self.truncated,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExtremeRecord":
        return cls(
            n=data["n"],
            m=data["m"],
            k_range=tuple(data["k_range"]),
            cap=data["cap"],
            max_value=data["max_value"],
            min_value=data["min_value"],
            max_sites=tuple((tuple(a), k) for a, k in data["max_sites"]),
            min_sites=tuple((tuple(a), k) for a, k in data["min_sites"]),
            max_count=data["max_count"],
            min_count=data["min_count"],
        )


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

    def __init__(self, pick, cap: int, value: int | None = None):
        self.pick, self.cap = pick, cap
        self.value, self.sites, self.count = value, [], 0

    def admits(self, value: int) -> bool:
        """Whether ``value`` ties or beats the running extreme."""
        return self.value is None or self.pick(value, self.value) == value

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
        if len(a) >= 2:  # the bound of the module docstring
            s = list(accumulate(f))
            lo, hi = min(s), max(s)
            for _ in range(left):
                lo, hi = lo - 2 * hi, hi - 2 * lo
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
    worker count.  The pool is capped at the tasks and the usable CPUs.
    """
    if workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers}")
    n, m = space.n, space.m
    k_lo, k_hi = space.k_range
    # The first seed, (m-1, ..., m-1), is the widest multiset of the space:
    # its width check refuses an oversize space once, as it did per multiset.
    # For n = 1 the constants are the whole space, which the walk visits
    # anyway (it prunes only at |P| >= 2), so the first alone seeds it.
    constants = range(m - 1, -1, -1) if n > 1 else (m - 1,)
    seeds = [eval_closed_all_k(m, (c,) * n)[k_lo: k_hi + 1] for c in constants]
    seed_max, seed_min = max(map(max, seeds)), min(map(min, seeds))
    tasks = [(n, m, first, k_lo, k_hi, space.cap, seed_max, seed_min)
             for first in range(m - 1, -1, -1)]
    workers = min(workers, len(tasks), _available_cpus())
    sides = (_Side(max, space.cap), _Side(min, space.cap))
    # Workers ignore SIGINT: on Ctrl-C the parent alone raises, and leaving
    # the ``with`` terminates them without a traceback from each.
    pool = (multiprocessing.Pool(workers, initializer=signal.signal,
                                 initargs=(signal.SIGINT, signal.SIG_IGN))
            if workers > 1 else None)
    with pool or nullcontext():
        for result in pool.imap(_task, tasks, chunksize=1) if pool else map(_task, tasks):
            for side, (value, count, sites) in zip(sides, result):
                side.fold(value, count, sites)
    top, bottom = sides
    return ExtremeRecord(
        n=space.n, m=space.m, k_range=space.k_range, cap=space.cap,
        max_value=top.value, min_value=bottom.value,
        max_sites=tuple(top.sites), min_sites=tuple(bottom.sites),
        max_count=top.count, min_count=bottom.count)
