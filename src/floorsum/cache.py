"""Append-only result cache for long searches, and the tables built on it.

One JSON record per line, keyed by (n, m, k_range, cap).  A line that does
not decode or parse, that ``ExtremeRecord.from_dict`` refuses (a field that
is not a plain int, or a space that ``SearchSpace`` refuses), or whose
record's space is not its key, is discarded with one warning when the file
is read, and the search reruns; a cached hit is indistinguishable in content
from a fresh computation.  ``put`` refuses a record for another space before
writing it.  The file is read once per ``ResultCache`` and lookups are
answered from memory, indexed by each record's space.
"""

from __future__ import annotations

__all__ = ["ResultCache", "CacheWarning", "cached_extremes", "sequence_table"]

import warnings

from .exceptions import DomainError, _at_least
from .search import ExtremeRecord, SearchSpace, extremes


class CacheWarning(UserWarning):
    """A cache entry was unreadable, invalid or stored under another key; it has been ignored."""


def _key(space: SearchSpace) -> dict:
    return {
        "n": space.n,
        "m": space.m,
        "k_lo": space.k_range[0],
        "k_hi": space.k_range[1],
        "cap": space.cap,
    }


def _check(record: ExtremeRecord, key: dict) -> None:
    """Raise DomainError unless ``record``'s space has the key ``key``."""
    if _key(record.space) != key:
        raise DomainError(f"record for {_key(record.space)} stored under {key}")


class ResultCache:
    """Single-writer JSON-lines store of search results.

    The first ``get`` opens the file for append, creating it and its
    parents as ``put`` does, so an unusable path raises ``OSError`` before
    any search; it reads and checks the file then, once, warning once for
    each discarded line.  Every lookup is answered from an in-memory index.
    Lines another process appends after that first ``get`` are not seen by
    this instance: those spaces are recomputed, never served wrong.
    """

    def __init__(self, path: str | Path):
        from pathlib import Path  # here, so a query without --cache never loads it
        self.path = Path(path)
        self._index: dict[SearchSpace, ExtremeRecord] | None = None  # loaded by the first get

    def get(self, space: SearchSpace) -> ExtremeRecord | None:
        """Latest stored record for this space, or None on a miss."""
        if self._index is None:
            self._load()
        return self._index.get(space)

    def _load(self) -> None:
        import json
        index = {}  # kept once the whole file is read: a warning raised as an error reloads
        # Append mode, as put uses, so an unusable path fails before a search.
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a+b") as handle:  # lines end at b"\n"; a "\r" is JSON whitespace
            handle.seek(0)
            for lineno, line in enumerate(handle, 1):
                try:  # json.loads raises RecursionError on deeply nested brackets
                    text = line.decode("utf-8")  # a byte that is not UTF-8 faults its own line
                    if not text.strip():
                        continue
                    entry = json.loads(text)
                    record = ExtremeRecord.from_dict(entry["record"])
                    _check(record, entry["key"])
                except (ValueError, LookupError, TypeError, OverflowError, RecursionError) as exc:
                    warnings.warn(f"discarding corrupt cache entry at {self.path}:{lineno}: {exc}",
                                  CacheWarning, stacklevel=3)  # get's caller
                    continue
                index[record.space] = record
        self._index = index

    def put(self, space: SearchSpace, record: ExtremeRecord) -> None:
        """Append ``record`` under ``space``'s key.  A record for another space
        raises DomainError, and nothing is written."""
        import json
        key = _key(space)
        _check(record, key)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        entry = {"key": key, "record": record.to_dict()}
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
        if self._index is not None:
            self._index[space] = record


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
    _at_least("m_max", m_max, 1)
    # Refuse an oversize table before any search writes the cache.  The widest cell's
    # term (floor(n(m-1)/m)+1)*m + (m-1) + n(m-1) is nondecreasing in m, so m_max decides.
    SearchSpace(n, m_max)
    maxima, minima = [], []
    for m in range(1, m_max + 1):
        record = cached_extremes(SearchSpace(n, m), workers=workers, cache=cache)
        maxima.append(record.max_value)
        minima.append(record.min_value)
    return maxima, minima
