"""Exhaustive extremal search over bounded instances.

For fixed (n, m) the search space is every multiset A over {0..m-1}
(the sum is symmetric in the elements, so tuples would only repeat
work) crossed with every K in a subrange of [0, m-1].  Enumeration is
deterministic, the per-multiset evaluation sweeps all K at once, and
parallel runs merge partial results by a reduction that is independent
of the worker count.
"""

from __future__ import annotations

import math
import multiprocessing
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Iterator, Sequence

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


class _Partial:
    """Running extremes over one contiguous slice of the enumeration."""

    __slots__ = ("cap", "max_value", "max_sites", "max_count",
                 "min_value", "min_sites", "min_count")

    def __init__(self, cap: int):
        self.cap = cap
        self.max_value = None
        self.max_sites: list[Site] = []
        self.max_count = 0
        self.min_value = None
        self.min_sites: list[Site] = []
        self.min_count = 0

    def account(self, a: tuple[int, ...], k: int, value: int) -> None:
        if self.max_value is None or value > self.max_value:
            self.max_value = value
            self.max_sites = [(a, k)]
            self.max_count = 1
        elif value == self.max_value:
            self.max_count += 1
            if len(self.max_sites) < self.cap:
                self.max_sites.append((a, k))
        if self.min_value is None or value < self.min_value:
            self.min_value = value
            self.min_sites = [(a, k)]
            self.min_count = 1
        elif value == self.min_value:
            self.min_count += 1
            if len(self.min_sites) < self.cap:
                self.min_sites.append((a, k))


def _scan_chunk(args: tuple) -> tuple:
    m, multisets, k_lo, k_hi, cap = args
    part = _Partial(cap)
    for a in multisets:
        values = eval_closed_all_k(m, a)
        for k in range(k_lo, k_hi + 1):
            part.account(a, k, values[k])
    return (part.max_value, part.max_sites, part.max_count,
            part.min_value, part.min_sites, part.min_count)


def _merge(partials: Sequence[tuple], cap: int) -> tuple:
    """Fold partial results in enumeration order; associative and
    commutative in the values, order-sensitive only in site ordering."""
    max_value = max(p[0] for p in partials)
    min_value = min(p[3] for p in partials)
    max_sites: list[Site] = []
    max_count = 0
    min_sites: list[Site] = []
    min_count = 0
    for p in partials:
        if p[0] == max_value:
            max_count += p[2]
            max_sites.extend(p[1][: cap - len(max_sites)])
        if p[3] == min_value:
            min_count += p[5]
            min_sites.extend(p[4][: cap - len(min_sites)])
    return max_value, tuple(max_sites), max_count, min_value, tuple(min_sites), min_count


def extremes(space: SearchSpace, workers: int = 1) -> ExtremeRecord:
    """Exact max/min of S_m over the space, with attaining sites.

    The result is identical for any worker count: the enumeration is
    split into contiguous chunks and partial records are merged in
    enumeration order.
    """
    if workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers}")
    k_lo, k_hi = space.k_range
    multisets = list(enumerate_multisets(space.n, space.m))
    workers = min(workers, len(multisets))
    if workers == 1:
        partials = [_scan_chunk((space.m, multisets, k_lo, k_hi, space.cap))]
    else:
        step = -(-len(multisets) // workers)
        chunks = [
            (space.m, multisets[i: i + step], k_lo, k_hi, space.cap)
            for i in range(0, len(multisets), step)
        ]
        with multiprocessing.Pool(workers) as pool:
            partials = pool.map(_scan_chunk, chunks)
    max_value, max_sites, max_count, min_value, min_sites, min_count = _merge(partials, space.cap)
    return ExtremeRecord(
        n=space.n,
        m=space.m,
        k_range=space.k_range,
        cap=space.cap,
        max_value=max_value,
        min_value=min_value,
        max_sites=max_sites,
        min_sites=min_sites,
        max_count=max_count,
        min_count=min_count,
    )
