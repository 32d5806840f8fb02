"""In-memory span tracing of floorsum's public callables, from outside the library.

``Tracer.install`` replaces each traced callable at the module (or class)
attribute through which its callers reach it, so no library code changes;
``Tracer.restore`` puts every original back.  A span is a name, start and
end (ns) and the index of its parent span; spans stay in memory, in flat
arrays since a traced search makes hundreds of thousands, and are written
out when the run ends.  A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import os
import time
import warnings
from array import array
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("H")
        self._start = array("q")
        self._end = array("q")
        self._parent = array("q")
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._line_counts: dict[str, int] = {}

    # ----------------------------------------------------------------- patching

    def _patch(self, owner, attr: str, name: str, impl=None, after=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``impl`` (default: the original) is what the wrapper times;
        ``after(args, result)`` updates counters once the span has closed.
        """
        original = vars(owner)[attr]
        impl = impl or original
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        name_id = self._name_ids[name]
        names, starts, ends, parents = self._name, self._start, self._end, self._parent
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = impl(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def install(self, floorsum) -> None:
        """Wrap the public callables of core, search, cache, conjecture,
        symmetry and cli at the attributes their callers use."""
        cli, cache, search = floorsum.cli, floorsum.cache, floorsum.search
        conjecture, symmetry = floorsum.conjecture, floorsum.symmetry
        counters = self.counters

        original_enumerate = vars(search)["enumerate_multisets"]

        def drain_multisets(n, m):
            # The original returns a lazy iterator that `extremes` drains;
            # draining it here puts the enumeration cost inside this span.
            return list(original_enumerate(n, m))

        def after_extremes(args, record):
            space = args[0]
            lo, hi = space.k_range
            counters["search.multisets"] += space.multiset_count
            # The all-K sweep evaluates every K of each multiset.
            counters["core.cells"] += space.multiset_count * space.m
            counters["search.cells"] += space.multiset_count * (hi - lo + 1)
            counters["search.sites_recorded"] += len(record.max_sites) + len(record.min_sites)
            counters["search.sites_attaining"] += record.max_count + record.min_count

        original_get = vars(cache.ResultCache)["get"]
        original_put = vars(cache.ResultCache)["put"]

        def counting_get(store, space):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                record = original_get(store, space)
            counters["cache.discarded"] += sum(
                issubclass(w.category, cache.CacheWarning) for w in caught)
            return record

        def after_get(args, record):
            counters["cache.lines_parsed"] += self._lines(args[0].path)
            counters["cache.hits" if record is not None else "cache.misses"] += 1

        def counting_put(store, space, record):
            lines = self._lines(store.path)
            before = os.path.getsize(store.path) if store.path.exists() else 0
            original_put(store, space, record)
            counters["cache.put.bytes"] += os.path.getsize(store.path) - before
            self._line_counts[str(store.path)] = lines + 1

        def after_run(args, result):
            counters["cli.output_bytes"] += len(result[1].encode("utf-8"))

        self._patch(search, "eval_closed_all_k", "core.eval_closed_all_k")
        self._patch(search, "enumerate_multisets", "search.enumerate_multisets",
                    impl=drain_multisets)
        for module in (cache, conjecture):
            self._patch(module, "extremes", "search.extremes", after=after_extremes)
        self._patch(cli, "cached_extremes", "cache.cached_extremes")
        self._patch(cache.ResultCache, "get", "cache.get", impl=counting_get, after=after_get)
        self._patch(cache.ResultCache, "put", "cache.put", impl=counting_put)
        for fn in ("verify_bounds", "verify_conjecture"):
            self._patch(cli, fn, f"conjecture.{fn}")
        for module in (cli, conjecture):
            self._patch(module, "f_sequence", "conjecture.f_sequence")
        self._patch(cli, "delta", "symmetry.delta")
        for module in (cli, conjecture, symmetry):
            self._patch(module, "eval_closed", "core.eval_closed")
        self._patch(cli, "run", "cli.run", after=after_run)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _lines(self, path) -> int:
        """Line count of a cache file, read once and then tracked across puts."""
        key = str(path)
        if key not in self._line_counts:
            try:
                with open(path, "rb") as handle:
                    self._line_counts[key] = sum(1 for _ in handle)
            except FileNotFoundError:
                self._line_counts[key] = 0
        return self._line_counts[key]

    def forget_files(self) -> None:
        """Call after replacing a cache file behind the tracer's back."""
        self._line_counts.clear()

    # ---------------------------------------------------------------- reporting

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy_s (sum of durations), self_s."""
        durations = [end - start for start, end in zip(self._start, self._end)]
        child_ns = [0] * len(durations)
        for duration, parent in zip(durations, self._parent):
            if parent >= 0:
                child_ns[parent] += duration
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for name_id, duration, children in zip(self._name, durations, child_ns):
            entry = out[self._names[name_id]]
            entry["calls"] += 1
            entry["busy_s"] += duration / 1e9
            entry["self_s"] += (duration - children) / 1e9
        return out

    def write(self, path) -> None:
        """One tab-separated line per span: index, name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(zip(self._name, self._start, self._end, self._parent)):
                name_id, start, end, parent = span
                handle.write(f"{index}\t{self._names[name_id]}\t{start}\t{end}\t{parent}\n")
