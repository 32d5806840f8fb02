"""floorsum benchmark: seeded CLI workloads, end-to-end and traced per-layer metrics.

    python3 perfbench/run.py --workload search-deep --seed 1 --seconds 20 --trace 0

Run from anywhere; it measures the checkout that contains this file.
``--trace 0`` times fresh ``python -m floorsum.cli`` processes, one client
in a closed loop, and reports the end-to-end metrics.  ``--trace 1`` runs
the same seeded queries in-process through ``floorsum.cli.run`` with the
library's public callables wrapped (see tracing.py) and reports the
per-layer metrics.  Every output is checked; the last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md beside this file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from queries import CACHE_BUILD, CACHE_HITS, WORKLOADS, Checker, Query, Stream
from tracing import Tracer

START = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

QUERY_TIMEOUT_S = 60.0
SETUP_REPEATS = 5
PROBE_REPEATS = 5

# Wall time of one round of each workload at the parent commit on 2 shared
# cores.  A run measures round(seconds / ROUND_S) whole rounds: a fixed
# amount of work, so a faster commit is compared on the same queries and
# the same tail percentile rather than on more samples.
ROUND_S = {"search-deep": 11.5, "query-mix": 5.1, "cache-replay": 6.0}

E2E_UNITS = {
    "cells_per_s": "1/s", "cells_per_s_par": "1/s", "query_p50_ms": "ms",
    "query_tail_ms": "ms", "queries_per_s": "1/s", "peak_rss_mb": "MiB", "setup_s": "s",
}
LAYER_UNITS = {
    "core.eval_closed_all_k.calls": "count", "core.eval_closed_all_k.busy_s": "s",
    "core.cells_per_s": "1/s",
    "core.eval_closed.calls": "count", "core.eval_closed.busy_s": "s",
    "search.extremes.calls": "count", "search.extremes.busy_s": "s",
    "search.extremes.self_s": "s", "search.enumerate_multisets.busy_s": "s",
    "search.cells": "count", "search.multisets": "count",
    "search.sites_recorded": "count", "search.sites_attaining": "count",
    "search.pool_startup_s": "s", "search.parallel_efficiency": "ratio",
    "cache.get.calls": "count", "cache.get.busy_s": "s", "cache.lines_parsed": "count",
    "cache.hits": "count", "cache.misses": "count", "cache.hit_frac": "fraction",
    "cache.discarded": "count",
    "cache.put.calls": "count", "cache.put.busy_s": "s", "cache.put.bytes": "bytes",
    "conjecture.verify_conjecture.self_s": "s", "conjecture.verify_bounds.self_s": "s",
    "conjecture.f_sequence.busy_s": "s",
    "symmetry.delta.calls": "count", "symmetry.delta.busy_s": "s",
    "cli.interpreter_s": "s", "cli.startup_s": "s", "cli.run.self_s": "s",
    "cli.output_bytes": "bytes", "trace.overhead_frac": "fraction",
}

# In-process probes, as (n, m): parallel efficiency on 0.24 M cells, and
# pool start-up on a 10-multiset space where the search itself is free.
EFFICIENCY_PROBE = (6, 13)
POOL_PROBE = (2, 4)


class BenchError(Exception):
    """The benchmark cannot run here (no floorsum tree, broken set-up)."""


# ------------------------------------------------------------- tree under test


def child_env() -> dict[str, str]:
    """Environment for CLI processes: this checkout's src first on PYTHONPATH,
    and no user-level cache."""
    env = dict(os.environ)
    env.pop("FLOORSUM_CACHE", None)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def _inside(path: str | Path) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


def import_tree_under_test():
    """Import floorsum from this checkout's src, in this process and in a
    fresh child; refuse to measure any other copy."""
    if not (SRC / "floorsum" / "__init__.py").is_file():
        raise BenchError(f"no floorsum package under {SRC}")
    sys.path.insert(0, str(SRC))
    import floorsum
    import floorsum.cli  # noqa: F401  (the traced run and checks use the package)

    if not _inside(floorsum.__file__):
        raise BenchError(f"imported floorsum from {floorsum.__file__}, outside {SRC}")
    return floorsum


def check_child_import() -> None:
    """Refuse to time CLI processes that import floorsum from anywhere else."""
    probe = subprocess.run(
        [sys.executable, "-c", "import floorsum.cli, floorsum; print(floorsum.__file__)"],
        env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=QUERY_TIMEOUT_S)
    where = probe.stdout.strip()
    if probe.returncode != 0 or not where or not _inside(where):
        raise BenchError(f"CLI processes import floorsum from {where or probe.stderr!r}, "
                         f"not from {SRC}")


def load_digests() -> dict[str, str]:
    with open(HERE / "digests.json", encoding="utf-8") as handle:
        return json.load(handle)["digests"]


# ----------------------------------------------------------------- CLI queries


@dataclass
class Sample:
    query: Query | None
    seconds: float
    returncode: int
    stdout: bytes
    stderr: bytes
    maxrss_kb: int
    timed_out: bool


def run_process(argv: list[str], timeout: float = QUERY_TIMEOUT_S) -> Sample:
    """Run one process to completion; time it and reap it with wait4, so
    ru_maxrss is this process tree's own peak (the CLI reaps its pool
    workers, whose peaks are folded into its children's maximum)."""
    with open(WORK / "stderr.txt", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                env=child_env(), cwd=ROOT, start_new_session=True)
        deadline = start + timeout
        chunks, timed_out = [], False
        fd = proc.stdout.fileno()
        try:
            while True:
                left = deadline - time.perf_counter()
                if left <= 0:
                    timed_out = True
                    break
                ready, _, _ = select.select([fd], [], [], left)
                if ready:
                    chunk = os.read(fd, 1 << 16)
                    if not chunk:
                        break
                    chunks.append(chunk)
        except BaseException:
            timed_out = True  # interrupted: stop the child before re-raising
            raise
        finally:
            if timed_out:
                os.killpg(proc.pid, signal.SIGKILL)  # the CLI and its pool workers
            _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - start
        err.seek(0)
        stderr = err.read()
    proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(None, elapsed, proc.returncode, b"".join(chunks), stderr,
                  usage.ru_maxrss, timed_out)


def run_query(query: Query, cache_path: str | None) -> Sample:
    sample = run_process(query.argv(sys.executable, cache_path))
    sample.query = query
    return sample


# ---------------------------------------------------------------------- set-up


@dataclass
class Prepared:
    cache_path: str | None
    pristine_path: str | None

    def reset_cache(self) -> None:
        if self.pristine_path:
            shutil.copyfile(self.pristine_path, self.cache_path)


def set_up(workload: str) -> Prepared:
    """Check the tree, warm up, and build the cache file for cache-replay."""
    check_child_import()
    run_query(Query("search --n 4 --m 10 --format json", 2), None)
    if workload != "cache-replay":
        return Prepared(None, None)
    cache_path, pristine = WORK / "cache.jsonl", WORK / "cache.pristine.jsonl"
    cache_path.unlink(missing_ok=True)
    for text in CACHE_BUILD:
        sample = run_query(Query(text, 1, cached=True), str(cache_path))
        if sample.returncode != 0:
            raise BenchError(f"cache build step {text!r} exited {sample.returncode}")
    shutil.copyfile(cache_path, pristine)
    return Prepared(str(cache_path), str(pristine))


def timed_set_up(workload: str) -> tuple[Prepared, float]:
    """Set up SETUP_REPEATS times; the first time counts from process start.
    Returns the last preparation and the median set-up time."""
    times = []
    for i in range(SETUP_REPEATS):
        begin = START if i == 0 else time.perf_counter()
        prepared = set_up(workload)
        times.append(time.perf_counter() - begin)
    return prepared, statistics.median(times)


# ------------------------------------------------------------------ statistics


def rounds(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_S[workload]))


def quantile(sorted_values: list[float], p: float) -> float:
    """Linear-interpolated p-th percentile of already sorted values."""
    pos = (len(sorted_values) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_percentile(count: int) -> int:
    """Highest whole percentile with at least ten samples beyond it."""
    return max(0, (100 * (count - 10)) // count)


def rate(samples: list[Sample], workers: int) -> float:
    """Cells per wall second over the queries that computed at this worker count."""
    chosen = [s for s in samples if s.query.workers == workers and computed_cells(s.query)]
    seconds = sum(s.seconds for s in chosen)
    return sum(computed_cells(s.query) for s in chosen) / seconds if seconds else 0.0


def computed_cells(query: Query) -> int:
    """Cells the query searches itself; cache hits search none."""
    return 0 if query.text in CACHE_HITS else query.cells()


# ---------------------------------------------------------------- end to end


def end_to_end(workload: str, seed: int, seconds: float, checker: Checker) -> dict:
    prepared, setup_s = timed_set_up(workload)
    stream = Stream(workload, seed)
    samples: list[Sample] = []
    busy = 0.0
    for _ in range(rounds(workload, seconds)):
        prepared.reset_cache()
        begin = time.perf_counter()
        for query in stream.next_round():
            samples.append(run_query(query, prepared.cache_path))
        busy += time.perf_counter() - begin

    failures = []
    for s in samples:
        problems = checker.problems(s.query, s.returncode, s.stdout)
        if s.timed_out:
            problems.insert(0, f"timed out after {QUERY_TIMEOUT_S:.0f} s")
        if problems and s.stderr.strip():
            problems.append("stderr: " + s.stderr.decode("utf-8", "replace").strip()
                            .splitlines()[-1])
        if problems:
            failures.append((s.query, problems))
    latencies = sorted(s.seconds * 1000 for s in samples)
    tail_p = tail_percentile(len(latencies))
    metrics = {
        "cells_per_s": rate(samples, 1),
        "cells_per_s_par": rate(samples, 2),
        "query_p50_ms": statistics.median(latencies),
        "query_tail_ms": quantile(latencies, tail_p),
        "queries_per_s": len(samples) / busy,
        "peak_rss_mb": max(s.maxrss_kb for s in samples) / 1024,
        "setup_s": setup_s,
    }
    with open(WORK / f"samples-{workload}.json", "w", encoding="utf-8") as handle:
        json.dump([{"query": s.query.text, "workers": s.query.workers, "seconds": s.seconds,
                    "maxrss_kb": s.maxrss_kb} for s in samples], handle, indent=0)
    notes = {"query_tail_ms": f"p{tail_p} of {len(samples)} queries",
             "query_p50_ms": f"{len(samples)} queries",
             "queries_per_s": f"{busy:.2f} s measured"}
    return report(metrics, E2E_UNITS, len(samples), failures, notes)


# -------------------------------------------------------------------- traced


def in_process_pass(floorsum, queries: list[Query], prepared: Prepared,
                    checker: Checker, failures: list) -> float:
    """Run each query once through floorsum.cli.run at workers=1; return wall time."""
    prepared.reset_cache()
    begin = time.perf_counter()
    outputs = []
    for query in queries:
        config = floorsum.cli.RunConfig(**query.config_fields(prepared.cache_path, workers=1))
        try:
            outputs.append(floorsum.cli.run(config))
        except Exception as exc:  # a library error fails the query, not the benchmark
            outputs.append(exc)
    wall = time.perf_counter() - begin
    for query, output in zip(queries, outputs):
        if isinstance(output, Exception):
            problems = [f"raised {output!r}"]
        else:
            problems = checker.problems(query, output[0], output[1].encode("utf-8"))
        if problems:
            failures.append((query, problems))
    return wall


def _timed(fn) -> float:
    begin = time.perf_counter()
    fn()
    return time.perf_counter() - begin


def _median_time(fn, repeats: int = PROBE_REPEATS) -> float:
    return statistics.median(_timed(fn) for _ in range(repeats))


def probes(floorsum) -> dict[str, float]:
    """Layer figures no workload query isolates: interpreter and import
    start-up, pool start-up, and parallel efficiency of the search."""
    def fresh(code):
        sample = run_process([sys.executable, "-c", code])
        if sample.returncode != 0:
            raise BenchError(f"probe {code!r} exited {sample.returncode}")

    interpreter = _median_time(lambda: fresh("pass"))
    startup = _median_time(lambda: fresh("import floorsum.cli")) - interpreter
    SearchSpace, extremes = floorsum.SearchSpace, floorsum.search.extremes
    tiny = SearchSpace(*POOL_PROBE)
    pool = statistics.median(
        _timed(lambda: extremes(tiny, workers=2)) - _timed(lambda: extremes(tiny, workers=1))
        for _ in range(PROBE_REPEATS))
    probe = SearchSpace(*EFFICIENCY_PROBE)
    one = _median_time(lambda: extremes(probe, workers=1), 3)
    two = _median_time(lambda: extremes(probe, workers=2), 3)
    return {"cli.interpreter_s": interpreter, "cli.startup_s": startup,
            "search.pool_startup_s": pool, "search.parallel_efficiency": one / (2 * two)}


def traced(workload: str, seed: int, seconds: float, checker: Checker, floorsum) -> dict:
    prepared = set_up(workload)
    # One seeded round, each canonical query once (all run at workers=1 here).
    distinct: dict[str, Query] = {}
    for query in Stream(workload, seed).next_round():
        distinct.setdefault(query.text, query)
    queries = list(distinct.values())

    tracer = Tracer()
    failures: list = []
    plain = with_trace = 0.0
    passes = rounds(workload, seconds)
    for _ in range(passes):
        plain += in_process_pass(floorsum, queries, prepared, checker, failures)
        tracer.install(floorsum)
        try:
            tracer.forget_files()
            with_trace += in_process_pass(floorsum, queries, prepared, checker, failures)
        finally:
            tracer.restore()
    tracer.write(WORK / f"spans-{workload}.tsv")

    spans = tracer.summary()
    counters = tracer.counters

    # Every pass runs the same queries on the same cache state, so counts
    # per pass are exact; times are per-pass means.
    def per_pass(total):
        return total // passes if total % passes == 0 else total / passes

    def busy(name):
        return spans[name]["busy_s"] / passes if name in spans else 0.0

    def self_s(name):
        return spans[name]["self_s"] / passes if name in spans else 0.0

    def calls(name):
        return per_pass(spans[name]["calls"] if name in spans else 0)

    def count(name):
        return per_pass(counters[name])

    gets = count("cache.hits") + count("cache.misses")
    all_k_busy = busy("core.eval_closed_all_k")
    metrics = {
        "core.eval_closed_all_k.calls": calls("core.eval_closed_all_k"),
        "core.eval_closed_all_k.busy_s": all_k_busy,
        "core.cells_per_s": count("core.cells") / all_k_busy if all_k_busy else 0.0,
        "core.eval_closed.calls": calls("core.eval_closed"),
        "core.eval_closed.busy_s": busy("core.eval_closed"),
        "search.extremes.calls": calls("search.extremes"),
        "search.extremes.busy_s": busy("search.extremes"),
        "search.extremes.self_s": self_s("search.extremes"),
        "search.enumerate_multisets.busy_s": busy("search.enumerate_multisets"),
        "search.cells": count("search.cells"),
        "search.multisets": count("search.multisets"),
        "search.sites_recorded": count("search.sites_recorded"),
        "search.sites_attaining": count("search.sites_attaining"),
        "cache.get.calls": calls("cache.get"),
        "cache.get.busy_s": busy("cache.get"),
        "cache.lines_parsed": count("cache.lines_parsed"),
        "cache.hits": count("cache.hits"),
        "cache.misses": count("cache.misses"),
        "cache.hit_frac": count("cache.hits") / gets if gets else 0.0,
        "cache.discarded": count("cache.discarded"),
        "cache.put.calls": calls("cache.put"),
        "cache.put.busy_s": busy("cache.put"),
        "cache.put.bytes": count("cache.put.bytes"),
        "conjecture.verify_conjecture.self_s": self_s("conjecture.verify_conjecture"),
        "conjecture.verify_bounds.self_s": self_s("conjecture.verify_bounds"),
        "conjecture.f_sequence.busy_s": busy("conjecture.f_sequence"),
        "symmetry.delta.calls": calls("symmetry.delta"),
        "symmetry.delta.busy_s": busy("symmetry.delta"),
        "cli.run.self_s": self_s("cli.run"),
        "cli.output_bytes": count("cli.output_bytes"),
        "trace.overhead_frac": with_trace / plain - 1,
    }
    metrics.update(probes(floorsum))
    parts = sum(self_s(name) for name in ("core.eval_closed_all_k",
                                          "search.enumerate_multisets", "search.extremes"))
    notes = {"trace.overhead_frac": f"{passes} pass(es): {plain:.2f} s plain, "
                                    f"{with_trace:.2f} s traced",
             "search.extremes.busy_s": f"self times of all-K sweep + enumeration + "
                                       f"extremes sum to {parts:.4f} s"}
    return report(metrics, LAYER_UNITS, 2 * passes * len(queries), failures, notes)


# --------------------------------------------------------------------- output


def report(metrics: dict, units: dict, attempted: int, failures: list, notes: dict) -> dict:
    if set(metrics) != set(units):
        raise BenchError(f"metric set mismatch: {sorted(set(metrics) ^ set(units))}")
    for name in units:
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:40s} {metrics[name]:>16.6g} {units[name]}{note}")
    print(f"{'failed_frac':40s} {len(failures) / attempted:>16.6g} fraction"
          f"  ({len(failures)} of {attempted} queries)")
    for query, problems in failures[:10]:
        print(f"FAILED {query.text} (workers={query.workers}): {'; '.join(problems)}",
              file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        floorsum = import_tree_under_test()
        WORK.mkdir(exist_ok=True)
        checker = Checker(load_digests(), floorsum)
        if args.trace:
            result = traced(args.workload, args.seed, args.seconds, checker, floorsum)
        else:
            result = end_to_end(args.workload, args.seed, args.seconds, checker)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
