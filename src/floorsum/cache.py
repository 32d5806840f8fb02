"""Append-only result cache for long searches, and the tables built on it.

One JSON record per line, keyed by (n, m, k_range, cap).  A line is kept only
if it is exactly a line that ``put`` writes and ``SearchSpace`` accepts its
key; every other line that is not blank is discarded with one warning when
the file is read, and the search reruns.  So a cached hit is
indistinguishable in content from a fresh computation.  The file is read
once per ``ResultCache`` and lookups are answered from memory, indexed by
each record's space.

``_CANONICAL`` describes the exact line ``put`` writes: ``json.dumps`` of the
key and the record with sorted keys, every int of 1 to 19 digits with no
leading zero, site entries and counts without a sign, and backreferences
tying the record's cap, k_range, m and n to the key's; its end may be CRLF,
as a "\\r" is JSON whitespace.  A full match is valid JSON (an ASCII object of
sorted string keys, ints, lists and ``true`` or ``false``), and its ints read
back as the digits the pattern captured.  So ``from_dict`` gets every field
it reads, each a plain int or a list of the shapes it unpacks, and builds
the record unless ``SearchSpace`` refuses the space, whose fields are the
captured key's.  A line that matches is therefore indexed as raw bytes once
``SearchSpace`` accepts its captured key, and parsed only when ``get`` first
serves it.  ``put`` refuses a record for another space, and one whose line
the pattern would not keep, before writing anything, so every line it
writes is kept.
"""

from __future__ import annotations

__all__ = ["ResultCache", "CacheWarning", "cached_extremes", "sequence_table"]

import warnings

from .exceptions import DomainError, _at_least
from .search import ExtremeRecord, SearchSpace, extremes


# put's line, as a bytes pattern; compiled by the first get or put, so a query without
# --cache never pays for it.  _NAT is how json.dumps writes an int >= 0 of at most 19
# digits, which covers every int below 2**63; _INT may be negative.
_NAT = rb"(?:0|[1-9][0-9]{0,18})"
_INT = rb"(?:0|-?[1-9][0-9]{0,18})"
_SITE = rb"\[\[%s(?:, %s)*\], %s\]" % (_NAT, _NAT, _NAT)
_SITES = rb"\[(?:%s(?:, %s)*)?\]" % (_SITE, _SITE)
_CANONICAL = (
    rb'\{"key": \{"cap": (?P<cap>%(nat)s), "k_hi": (?P<k_hi>%(nat)s), '
    rb'"k_lo": (?P<k_lo>%(nat)s), "m": (?P<m>%(nat)s), "n": (?P<n>%(nat)s)\}, '
    rb'"record": \{"cap": (?P=cap), "k_range": \[(?P=k_lo), (?P=k_hi)\], "m": (?P=m), '
    rb'"max_count": %(nat)s, "max_sites": %(sites)s, "max_value": %(int)s, '
    rb'"min_count": %(nat)s, "min_sites": %(sites)s, "min_value": %(int)s, '
    rb'"n": (?P=n), "truncated": (?:true|false)\}\}\r?\n'
    % {b"nat": _NAT, b"int": _INT, b"sites": _SITES})


class CacheWarning(UserWarning):
    """A cache line was not one that ``put`` writes, or its key was refused; it has been ignored."""


def _key(space: SearchSpace) -> dict:
    k_lo, k_hi = space.k_range
    return {"n": space.n, "m": space.m, "k_lo": k_lo, "k_hi": k_hi, "cap": space.cap}


class ResultCache:
    """Single-writer JSON-lines store of search results.

    The first ``get`` opens the file for append, creating it and its
    parents as ``put`` does, so an unusable path raises ``OSError`` before
    any search; it reads the file then, once, keeping each line in ``put``'s
    exact form as raw bytes and warning once for each other line that is
    not blank.  A kept line is parsed the first time ``get`` serves it, so a
    hit costs the lines served, not the file.  Every lookup is answered from
    an in-memory index.  Lines another process appends after that first
    ``get`` are not seen by this instance: those spaces are recomputed,
    never served wrong.
    """

    def __init__(self, path: str | Path):
        from pathlib import Path  # here, so a query without --cache never loads it
        self.path = Path(path)
        self._index: dict[SearchSpace, ExtremeRecord | bytes] | None = None  # by the first get

    def get(self, space: SearchSpace) -> ExtremeRecord | None:
        """Latest stored record for this space, or None on a miss."""
        if self._index is None:
            self._load()
        record = self._index.get(space)
        if type(record) is bytes:  # a line in put's exact form, parsed when first served
            import json
            record = self._index[space] = ExtremeRecord.from_dict(json.loads(record)["record"])
        return record

    def _load(self) -> None:
        import re
        canonical = re.compile(_CANONICAL)
        index = {}  # kept once the whole file is read: a warning raised as an error reloads
        # Append mode, as put uses, so an unusable path fails before a search.
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a+b") as handle:
            handle.seek(0)
            for lineno, line in enumerate(handle, 1):  # lines end at b"\n"
                if line.isspace():
                    continue
                match = canonical.fullmatch(line)
                try:
                    if match is None:
                        raise ValueError("not a line that put writes")
                    n, m, k_lo, k_hi, cap = map(int, match.group("n", "m", "k_lo", "k_hi", "cap"))
                    index[SearchSpace(n, m, (k_lo, k_hi), cap)] = line
                except (ValueError, OverflowError) as exc:
                    warnings.warn(f"discarding corrupt cache entry at {self.path}:{lineno}: {exc}",
                                  CacheWarning, stacklevel=3)  # get's caller
        self._index = index

    def put(self, space: SearchSpace, record: ExtremeRecord) -> None:
        """Append ``record`` under ``space``'s key.  A record for another space,
        or one whose line the load would not keep (such as a number past 19 digits,
        or a negative site entry or count), raises DomainError, and nothing is written."""
        import json
        import re
        key = _key(space)
        if _key(record.space) != key:
            raise DomainError(f"record for {_key(record.space)} stored under {key}")
        line = json.dumps({"key": key, "record": record.to_dict()}, sort_keys=True) + "\n"
        if not re.fullmatch(_CANONICAL, line.encode()):
            raise DomainError(f"record for {key} does not fit a cache line")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(line)
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
