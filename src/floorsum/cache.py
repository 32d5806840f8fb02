"""Append-only result cache for long searches, and the tables built on it.

One JSON record per line, keyed by (n, m, k_range, cap).  Lines that do
not parse, do not round-trip into an ExtremeRecord of plain ints, or
hold a record for another space than their key, are discarded with a
warning and the search reruns; a cached hit is indistinguishable in
content from a fresh computation.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

from .exceptions import DomainError
from .search import ExtremeRecord, SearchSpace, extremes


class CacheWarning(UserWarning):
    """A cache entry was unreadable or held a record for another key, and has been ignored."""


def _key(space: SearchSpace | ExtremeRecord) -> dict:
    return {
        "n": space.n,
        "m": space.m,
        "k_lo": space.k_range[0],
        "k_hi": space.k_range[1],
        "cap": space.cap,
    }


def _plain_ints(record: ExtremeRecord) -> bool:
    """Whether k_range is a pair and every number a plain int, as a fresh run stores."""
    sites = record.max_sites + record.min_sites
    numbers = (record.n, record.m, record.cap, record.max_value, record.min_value,
               record.max_count, record.min_count, *record.k_range,
               *(k for _, k in sites), *(v for a, _ in sites for v in a))
    return len(record.k_range) == 2 and all(type(v) is int for v in numbers)


class ResultCache:
    """Single-writer JSON-lines store of search results."""

    def __init__(self, path: str | Path):
        self.path = Path(path)

    def get(self, space: SearchSpace) -> ExtremeRecord | None:
        """Latest stored record for this space, or None on a miss."""
        if not self.path.exists():
            return None
        wanted = _key(space)
        found = None
        with self.path.open("r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, 1):
                if not line.strip():
                    continue
                try:
                    entry = json.loads(line)
                    key = entry["key"]
                    record = ExtremeRecord.from_dict(entry["record"])
                    if not _plain_ints(record):
                        raise ValueError("k_range is not a pair or a field is not an int")
                    if _key(record) != key:
                        raise ValueError(f"record for {_key(record)} stored under {key}")
                except (ValueError, LookupError, TypeError) as exc:
                    warnings.warn(
                        f"discarding corrupt cache entry at {self.path}:{lineno}: {exc}",
                        CacheWarning,
                        stacklevel=2,
                    )
                    continue
                if key == wanted:
                    found = record
        return found

    def put(self, space: SearchSpace, record: ExtremeRecord) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        entry = {"key": _key(space), "record": record.to_dict()}
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")


def cached_extremes(space: SearchSpace, workers: int = 1,
                    cache: ResultCache | None = None) -> ExtremeRecord:
    """Serve the search from the cache when possible, else compute and store."""
    if cache is not None:
        hit = cache.get(space)
        if hit is not None:
            return hit
    record = extremes(space, workers=workers)
    if cache is not None:
        cache.put(space, record)
    return record


def sequence_table(n: int, m_max: int, workers: int = 1,
                   cache: ResultCache | None = None) -> tuple[list[int], list[int]]:
    """(max S_m)_{m=1..m_max} and (min S_m)_{m=1..m_max}, each m via ``cached_extremes``."""
    if m_max < 1:
        raise DomainError(f"m_max must be >= 1, got {m_max}")
    maxima, minima = [], []
    for m in range(1, m_max + 1):
        record = cached_extremes(SearchSpace(n, m), workers=workers, cache=cache)
        maxima.append(record.max_value)
        minima.append(record.min_value)
    return maxima, minima
