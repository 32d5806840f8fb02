"""Query pools, seeded query streams and output checks for the floorsum benchmark.

A query is one floorsum CLI invocation, written as its canonical command
line (no ``--workers``, no ``--cache``) plus the worker count and whether it
runs against the workload's cache file.  Output is identical for any worker
count and with or without a cache, so one digest per canonical line covers
every variant the benchmark runs.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
from dataclasses import dataclass
from math import comb

DEFAULT_CAP = 1000  # the CLI's --cap default; part of the cache key

SEARCH_BACKED = ("search", "table", "verify-bounds", "verify-conjecture")

_FIELDS = {"--n": "n", "--m": "m", "--n-max": "n_max", "--m-max": "m_max", "--k": "k",
           "--k-min": "k_lo", "--k-max": "k_hi", "--cap": "cap", "--a": "a",
           "--format": "fmt"}


@dataclass(frozen=True)
class Query:
    """One CLI invocation: canonical text, worker count, cache use."""

    text: str
    workers: int = 1
    cached: bool = False

    @property
    def command(self) -> str:
        return self.text.split()[0]

    @property
    def options(self) -> dict:
        tokens = self.text.split()[1:]
        out = {}
        for flag, value in zip(tokens[::2], tokens[1::2]):
            name = _FIELDS[flag]
            if name == "a":
                out[name] = tuple(sorted((int(v) for v in value.split(",")), reverse=True))
            elif name == "fmt":
                out[name] = value
            else:
                out[name] = int(value)
        return out

    @property
    def fmt(self) -> str:
        return self.options.get("fmt", "human")

    def argv(self, python: str, cache_path: str | None) -> list[str]:
        argv = [python, "-m", "floorsum.cli", *self.text.split()]
        if self.command in SEARCH_BACKED:
            argv += ["--workers", str(self.workers)]
        if self.cached:
            argv += ["--cache", cache_path]
        return argv

    def config_fields(self, cache_path: str | None, workers: int) -> dict:
        """Keyword arguments for ``floorsum.cli.RunConfig``, resolved as the CLI does."""
        fields = dict(self.options, command=self.command)
        if self.command == "search":
            fields.setdefault("k_lo", 0)
            fields.setdefault("k_hi", fields["m"] - 1)
            fields.setdefault("cap", DEFAULT_CAP)
        if self.command in SEARCH_BACKED:
            fields["workers"] = workers
            fields["cache_path"] = cache_path if self.cached else None
        return fields

    def cells(self) -> int:
        """(A, K) cells the query's searches cover; 0 for non-search commands."""
        opts = self.options
        if self.command == "search":
            n, m = opts["n"], opts["m"]
            width = opts.get("k_hi", m - 1) - opts.get("k_lo", 0) + 1
            return comb(m + n - 1, n) * width
        if self.command == "table":
            n = opts["n"]
            return sum(comb(m + n - 1, n) * m for m in range(1, opts["m_max"] + 1))
        if self.command in ("verify-bounds", "verify-conjecture"):
            n, m = opts["n"], opts["m"]
            return comb(m + n - 1, n) * m
        return 0


# ------------------------------------------------------------------- workloads

# search-deep: large searches over arities 4-8, about 1 M cells each, every
# one run at --workers 1 (the plain single-process baseline) and --workers 2.
DEEP_POOL = ("search --n 4 --m 28", "search --n 5 --m 21",
             "search --n 6 --m 17", "search --n 8 --m 12")

# query-mix: every command at desk scale; a fixed share at --workers 2.
MIX_POOL = (
    ("eval --m 5 --a 2,3 --k 1", 1),
    ("eval --m 97 --a 90,45,33,12,7 --k 60 --format json", 1),
    ("eval --m 30 --a 29,28,27,26,25,24,23,22 --k 20 --format csv", 1),
    ("f-seq --n-max 20", 1),
    ("f-seq --n-max 60 --format json", 1),
    ("f-seq --n-max 40 --format csv", 1),
    ("search --n 3 --m 12", 1),
    ("search --n 4 --m 10 --format json", 1),
    ("search --n 5 --m 8 --format csv", 1),
    ("search --n 4 --m 16 --k-min 2 --k-max 9 --cap 5", 1),
    ("search --n 5 --m 10", 2),
    ("search --n 4 --m 14 --format json", 2),
    ("table --n 4 --m-max 12", 1),
    ("table --n 3 --m-max 16 --format csv", 1),
    ("table --n 4 --m-max 10 --format json", 2),
    ("verify-bounds --n 4 --m 12", 1),
    ("verify-bounds --n 3 --m 20 --format csv", 1),
    ("verify-bounds --n 5 --m 10 --format json", 2),
    ("verify-conjecture --n 4 --m 9", 1),
    ("verify-conjecture --n 5 --m 6 --format csv", 1),
    ("verify-conjecture --n 7 --m 10 --format json", 2),
    ("verify-conjecture --n 8 --m 5", 1),
    ("delta-scan --m 20", 1),
    ("delta-scan --m-max 12 --format csv", 1),
    ("delta-scan --m 30 --format json", 1),
)

# cache-replay: set-up fills the cache with `table` runs (86 records: n=2..6
# over a range of m); the replayed queries below are all served from it.
CACHE_BUILD = ("table --n 2 --m-max 24", "table --n 3 --m-max 24",
               "table --n 4 --m-max 16", "table --n 5 --m-max 12",
               "table --n 6 --m-max 10")
CACHE_HITS = (
    "search --n 3 --m 24", "search --n 4 --m 16 --format json",
    "search --n 5 --m 12 --format csv", "search --n 6 --m 10",
    "table --n 3 --m-max 24", "table --n 4 --m-max 16 --format csv",
    "table --n 5 --m-max 12 --format json", "table --n 2 --m-max 24",
    "verify-bounds --n 4 --m 16", "verify-bounds --n 5 --m 12 --format json",
    "verify-bounds --n 3 --m 22 --format csv", "verify-bounds --n 6 --m 10",
    "verify-conjecture --n 4 --m 15", "verify-conjecture --n 5 --m 12 --format json",
    "verify-conjecture --n 4 --m 12 --format csv", "verify-conjecture --n 5 --m 9",
)
# Misses: a site cap that no cached record has, so each computes a small
# full-range search and appends it.  Same (n, m) and K range throughout, so
# every miss costs the same cells whichever ones the seed picks.
CACHE_MISS_POOL = tuple(f"search --n 5 --m 16 --cap {cap}"
                        for cap in (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233))
MISSES_PER_ROUND = 4

WORKLOADS = ("search-deep", "query-mix", "cache-replay")


def _round_pool(workload: str, rng: random.Random) -> list[Query]:
    """The queries of one round, before shuffling; every round of a run
    holds the same ones.  ``rng`` picks cache-replay's misses."""
    if workload == "search-deep":
        return [Query(text, w) for text in DEEP_POOL for w in (1, 2)]
    if workload == "query-mix":
        return [Query(text, w) for text, w in MIX_POOL]
    if workload == "cache-replay":
        misses = rng.sample(CACHE_MISS_POOL, MISSES_PER_ROUND)
        # Half the misses compute at --workers 2.
        return ([Query(text, 1, cached=True) for text in CACHE_HITS]
                + [Query(text, 1 + i % 2, cached=True) for i, text in enumerate(misses)])
    raise ValueError(f"unknown workload {workload!r}")


class Stream:
    """Seeded rounds of queries: each round is the pool in a fresh order."""

    def __init__(self, workload: str, seed: int):
        self._rng = random.Random(f"floorsum-bench:{workload}:{seed}")
        self.pool = _round_pool(workload, self._rng)

    def next_round(self) -> list[Query]:
        order = list(self.pool)
        self._rng.shuffle(order)
        return order


def all_canonical_texts() -> list[str]:
    """Every canonical query any workload can run; each needs a digest."""
    texts = list(DEEP_POOL) + [t for t, _ in MIX_POOL] + list(CACHE_BUILD)
    texts += list(CACHE_HITS) + list(CACHE_MISS_POOL)
    return sorted(set(texts))


# ---------------------------------------------------------------------- checks


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _search_extreme_sites(fmt: str, text: str) -> list[tuple[int, tuple[int, ...], int]]:
    """(value, A, K) of the first reported max site and the first min site."""
    if fmt == "json":
        result = json.loads(text)["result"]
        return [(result[f"{side}_value"], tuple(result[f"{side}_sites"][0][0]),
                 result[f"{side}_sites"][0][1]) for side in ("max", "min")]
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))[1:]
        firsts = {}
        for kind, value, _count, a, k in rows:
            firsts.setdefault(kind, (int(value), tuple(int(v) for v in a.split(",")), int(k)))
        return [firsts["max"], firsts["min"]]
    lines = text.splitlines()
    sites = []
    for i, line in enumerate(lines):
        if line.startswith(("max ", "min ")):
            value = int(line.split()[1])
            a_text, k_text = lines[i + 1].split()
            sites.append((value, tuple(int(v) for v in a_text[2:].split(",")), int(k_text[2:])))
    return sites


def _table_columns(fmt: str, text: str) -> list[tuple[int, int, int]]:
    """(m, max, min) for every tabulated modulus."""
    if fmt == "json":
        result = json.loads(text)["result"]
        return [(m, hi, lo) for m, (hi, lo) in enumerate(zip(result["max"], result["min"]), 1)]
    if fmt == "csv":
        header, maxima, minima = list(csv.reader(io.StringIO(text)))
        return [(int(m), int(hi), int(lo)) for m, hi, lo in zip(header[1:], maxima[1:], minima[1:])]
    return [tuple(int(v) for v in line.split()) for line in text.splitlines()[2:]]


def oracle_problems(query: Query, stdout: bytes, floorsum) -> list[str]:
    """Re-check a search or table result with the definitional oracle.

    ``search``: the first reported max site and min site must evaluate, by
    ``eval_direct``, to the reported max and min.  ``table`` prints no
    sites, so each column must contain the oracle's value at two bounded
    sites: A = (m-1)^n with K = m-1, and the half-modulus site for even m.
    """
    Instance, eval_direct = floorsum.Instance, floorsum.eval_direct
    text = stdout.decode("utf-8", "replace")
    opts = query.options
    problems = []
    try:
        if query.command == "search":
            sites = _search_extreme_sites(query.fmt, text)
            if len(sites) != 2:
                return [f"expected a max and a min site, parsed {len(sites)}"]
            for side, (value, a, k) in zip(("max", "min"), sites):
                direct = eval_direct(Instance(opts["m"], a, k))
                if direct != value:
                    problems.append(f"{side} site A={a} K={k}: oracle {direct}, reported {value}")
        elif query.command == "table":
            n = opts["n"]
            columns = _table_columns(query.fmt, text)
            if [c[0] for c in columns] != list(range(1, opts["m_max"] + 1)):
                return ["table columns do not cover m = 1..m_max"]
            for m, hi, lo in columns:
                probes = [((m - 1,) * n, m - 1)]
                if m % 2 == 0:
                    probes.append(((m // 2,) * n, m // 2 - 1))
                for a, k in probes:
                    direct = eval_direct(Instance(m, a, k))
                    if not lo <= direct <= hi:
                        problems.append(f"m={m}: oracle {direct} at A={a} K={k} "
                                        f"outside [{lo}, {hi}]")
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        problems.append(f"unparseable {query.command} output: {exc!r}")
    return problems


class Checker:
    """Checks query outputs against recorded digests and the oracle.

    Oracle checks are memoised per (query text, output digest): the same
    bytes need checking once.
    """

    def __init__(self, digests: dict[str, str], floorsum):
        self.digests = digests
        self.floorsum = floorsum
        self._oracle_seen: dict[tuple[str, str], list[str]] = {}

    def problems(self, query: Query, returncode: int, stdout: bytes) -> list[str]:
        """Every reason the output is wrong; empty when it is correct."""
        problems = []
        if returncode != 0:
            problems.append(f"exit status {returncode}")
        got = digest(stdout)
        expected = self.digests.get(query.text)
        if expected is None:
            problems.append("no recorded digest for this query")
        elif got != expected:
            problems.append("stdout differs from the recorded digest")
        if query.command in ("search", "table"):
            key = (query.text, got)
            if key not in self._oracle_seen:
                self._oracle_seen[key] = oracle_problems(query, stdout, self.floorsum)
            problems += self._oracle_seen[key]
        return problems
