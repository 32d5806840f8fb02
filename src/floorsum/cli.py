"""Command-line workbench: evaluate, search, verify, export.

Every command supports three output formats (human, csv, json).  Each
``_run_*`` handler passes its result in all three shapes to ``_output``,
the single renderer, which writes the chosen one.  JSON output is a
single object with "config" and "result" keys; CSV output is a header
row followed by data rows.  Both are deterministic for a given
configuration: keys are sorted and column order is fixed.

Click's parameter names are ``RunConfig``'s fields: a command passes them
straight on once ``_checked`` has applied the flag floors and parsed --a.

Exit status: 0 on success and on "conjectured value not attained"
(reported, not fatal); 1 on interrupt (Ctrl-C); 2 on invalid input, an
unusable cache path or instances too large for checked 64-bit
arithmetic; 3 on a proven-bound violation or case-table mismatch
(either one signals an implementation bug).
"""

from __future__ import annotations

import csv
import gc
import io
import json
import sys
import warnings
from dataclasses import dataclass, fields, replace
from fractions import Fraction

import click

from . import __version__
from .cache import ResultCache, cached_extremes, sequence_table
from .conjecture import f_sequence, verify_bounds, verify_conjecture
from .core import Instance, eval_closed, eval_closed_all_k
from .exceptions import DomainError, FloorSumError, TableViolationError
from .search import DEFAULT_CAP, SearchSpace
from .symmetry import CASE_VALUES, delta

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUG = 3


@dataclass(frozen=True)
class RunConfig:
    """A fully resolved command invocation."""

    command: str
    fmt: str = "human"
    workers: int = 1
    cache_path: str | None = None
    n: int | None = None
    m: int | None = None
    n_max: int | None = None
    m_max: int | None = None
    k: int | None = None
    k_lo: int | None = None
    k_hi: int | None = None
    a: tuple[int, ...] | None = None
    cap: int | None = None

    def to_dict(self) -> dict:
        """Serializable form: the mathematical query only, unset fields left
        out and ``fmt`` named ``format``.

        Worker count and cache location never change a result (the
        reduction is deterministic and cached records are transparent),
        so they are left out to keep output byte-identical across them.
        """
        return {("format" if f.name == "fmt" else f.name): getattr(self, f.name)
                for f in fields(self) if f.name not in ("workers", "cache_path")
                and getattr(self, f.name) is not None}

    @property
    def cache(self) -> ResultCache | None:
        return ResultCache(self.cache_path) if self.cache_path else None


def _output(config: RunConfig, result: dict, header: list[str], rows: list[list],
            lines: list[str], code: int = EXIT_OK) -> tuple[int, str]:
    """(exit status, output text): the single place text is produced for ``config.fmt``,
    from a command's JSON payload, CSV table and human lines."""
    if config.fmt == "json":
        return code, json.dumps({"config": config.to_dict(), "result": result},
                                sort_keys=True, indent=2) + "\n"
    if config.fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return code, buffer.getvalue()
    return code, "\n".join(lines) + "\n"


def _multiset_text(a: tuple[int, ...]) -> str:
    return ",".join(str(v) for v in a)


def _site_lines(sites) -> list[str]:
    return [f"  A={_multiset_text(a)} K={k}" for a, k in sites]


def run(config: RunConfig) -> tuple[int, str]:
    """Execute a resolved configuration; return (exit status, output text)."""
    handler = {
        "eval": _run_eval,
        "table": _run_table,
        "search": _run_search,
        "verify-bounds": _run_verify_bounds,
        "verify-conjecture": _run_verify_conjecture,
        "f-seq": _run_f_seq,
        "delta-scan": _run_delta_scan,
    }.get(config.command)
    if handler is None:
        raise DomainError(f"unknown command {config.command!r}")
    return handler(config)


def _run_eval(config: RunConfig) -> tuple[int, str]:
    value = eval_closed(Instance(config.m, config.a, config.k))
    return _output(config, {"value": value}, ["m", "a", "k", "value"],
                   [[config.m, _multiset_text(config.a), config.k, value]], [str(value)])


def _run_table(config: RunConfig) -> tuple[int, str]:
    maxima, minima = sequence_table(config.n, config.m_max, config.workers, config.cache)
    ms = range(1, config.m_max + 1)
    lines = [f"extremes of S_m over bounded instances, n={config.n}", "m max min"]
    lines += [f"{m} {hi} {lo}" for m, hi, lo in zip(ms, maxima, minima)]
    return _output(config, {"max": maxima, "min": minima}, ["sequence"] + [str(m) for m in ms],
                   [["max"] + maxima, ["min"] + minima], lines)


def _run_search(config: RunConfig) -> tuple[int, str]:
    space = SearchSpace(config.n, config.m, (config.k_lo, config.k_hi), config.cap)
    record = cached_extremes(space, workers=config.workers, cache=config.cache)
    k_lo, k_hi = record.k_range
    rows = []
    lines = [f"search n={record.n} m={record.m} K in [{k_lo},{k_hi}] cap={record.cap}"]
    for kind, value, sites, count in (
            ("max", record.max_value, record.max_sites, record.max_count),
            ("min", record.min_value, record.min_sites, record.min_count)):
        rows += [[kind, value, count, _multiset_text(a), k] for a, k in sites]
        lines.append(f"{kind} {value} attained at {count} site(s):")
        lines += _site_lines(sites)
        if len(sites) < count:
            lines.append(f"  ... {count - len(sites)} site(s) total, list capped at {record.cap}")
    return _output(config, record.to_dict(), ["kind", "value", "count", "a", "k"], rows, lines)


def _run_verify_bounds(config: RunConfig) -> tuple[int, str]:
    report = verify_bounds(config.n, config.m, config.workers, config.cache)
    record = report.record
    result = {"max_value": record.max_value, "min_value": record.min_value,
              "proven_violation": report.proven_violation}
    rows = []
    lines = [f"bounds for n={config.n}, m={config.m}",
             f"search: max {record.max_value}, min {record.min_value}"]
    for side, bound, verdict, extreme in (
            ("lower", report.lower, report.lower_verdict, record.min_value),
            ("upper", report.upper, report.upper_verdict, record.max_value)):
        value = str(bound.value) if isinstance(bound.value, Fraction) else bound.value
        result[side] = {"value": value, "status": bound.status, "formula": bound.formula,
                        "note": bound.note, "verdict": verdict}
        rows.append([side, bound.formula, bound.status, value, extreme, verdict])
        text = "n/a" if bound.value is None else str(bound.value)
        note = f" [{bound.note}]" if bound.note else ""
        lines.append(f"{side} {text} ({bound.status}, {bound.formula}){note}: {verdict}")
    if report.proven_violation:
        lines.append("PROVEN BOUND VIOLATED -- implementation bug; witnesses:")
        lines += _site_lines(report.witnesses[:10])
    return _output(config, result, ["side", "formula", "status", "bound", "extreme", "verdict"],
                   rows, lines, EXIT_BUG if report.proven_violation else EXIT_OK)


def _run_verify_conjecture(config: RunConfig) -> tuple[int, str]:
    report = verify_conjecture(config.n, config.m, config.workers, config.cache)
    checks = report.site_checks
    result = {
        "part": report.part,
        "block_index": report.block_index,
        "predicted_value": str(report.predicted_value),
        "search_value": report.search_value,
        "value_matches": report.value_matches,
        "sites": [{"a": list(c.site.a), "k": c.site.k, "divisor": c.site.divisor,
                   "value": c.value, "attains": c.attains} for c in checks],
        "attaining_count": report.attaining_count,
        "sites_exact": report.sites_exact,
        "passed": report.passed,
    }
    rows = [["value", "", "", report.predicted_value, report.search_value, report.value_matches]]
    rows += [["site", _multiset_text(c.site.a), c.site.k, report.search_value, c.value, c.attains]
             for c in checks]
    lines = [
        f"conjecture check at n={config.n}, m={config.m} "
        f"(part {report.part}, block index {report.block_index})",
        f"predicted {report.side} = m*f(n) = {report.predicted_value}; "
        f"search {report.side} = {report.search_value}: "
        f"{'MATCH' if report.value_matches else 'MISMATCH'}",
    ]
    lines += [f"site A={_multiset_text(c.site.a)} K={c.site.k}: value {c.value}, "
              f"{'attains' if c.attains else 'DOES NOT ATTAIN'}" for c in checks]
    if report.sites_exact is None:
        lines.append(f"attaining sites: {report.attaining_count} "
                     "(containment required, not equality)")
    else:
        rows.append(["sites-exact", "", "", len(checks),
                     report.attaining_count, report.sites_exact])
        lines.append(f"attaining sites: {report.attaining_count}; "
                     f"predicted-set equality: {'yes' if report.sites_exact else 'NO'}")
    lines.append("PASS" if report.passed else "CONJECTURE CHECK FAILED (reported, not fatal)")
    return _output(config, result, ["check", "a", "k", "expected", "actual", "ok"], rows, lines)


def _run_f_seq(config: RunConfig) -> tuple[int, str]:
    values = list(enumerate(f_sequence(config.n_max), start=2))
    return _output(config, {"start": 2, "f": [str(v) for _, v in values]},
                   ["n", "numerator", "denominator"],
                   [[n, v.numerator, v.denominator] for n, v in values],
                   [f"f({n}) = {v}" for n, v in values])


_SCAN_HEADER = ["m", "cells", "case1", "case2", "case3", "case4", "sorted_case2"]


def _scan_one_m(m: int) -> dict:
    """Case counts of every ``delta(m, a1, a2, k)`` cell, from all-K sweeps.

    One ``eval_closed_all_k`` sweep per pair gives S({a1, a2}, K) at every
    K, and S({a1+1, a2}, K-1) is read from the sweep of ((a1+1) mod m, a2):
    for n >= 2 only residues matter (see ``symmetry``), so a1 = m-1 reads
    the all-zero sweep of a1 = 0.  Each cell is classified as ``delta``
    classifies it and checked against ``CASE_VALUES``.  On a mismatch the
    cell is recomputed by ``delta``, which raises its own
    ``TableViolationError``; if it does not, the two routes disagree, and
    that is raised naming both values.
    """
    sweeps = [[eval_closed_all_k(m, (a1, a2)) for a2 in range(m)] for a1 in range(m)]
    counts = [0] * 5  # by case id; index 0 unused
    sorted_case2 = 0
    for a1 in range(m):
        for a2 in range(m):
            here, shifted = sweeps[a1][a2], sweeps[(a1 + 1) % m][a2]
            cond_sum = a1 + a2 >= m
            for k in range(1, m // 2):
                case_id = 1 + (a2 + k - m + 1 > 0) + 2 * cond_sum
                value = here[k] - shifted[k - 1]
                if value != CASE_VALUES[case_id]:
                    record = delta(m, a1, a2, k)
                    raise TableViolationError(
                        f"delta({m}, {a1}, {a2}, {k}): all-K sweeps give {value}, "
                        f"delta gives {record.value}")
                counts[case_id] += 1
                sorted_case2 += a1 >= a2 and case_id == 2
    return dict(zip(_SCAN_HEADER, [m, sum(counts), *counts[1:], sorted_case2]))


def _run_delta_scan(config: RunConfig) -> tuple[int, str]:
    ms = [config.m] if config.m is not None else list(range(1, config.m_max + 1))
    scans = [_scan_one_m(m) for m in ms]
    rows = [[s[c] for c in _SCAN_HEADER] for s in scans]
    lines = ["difference-table scan (every value matched its case)", " ".join(_SCAN_HEADER)]
    lines += [" ".join(str(v) for v in row) for row in rows]
    return _output(config, {"scans": scans}, _SCAN_HEADER, rows, lines)


# ----------------------------------------------------------------- click layer


def _parse_multiset(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise click.UsageError(f"--a expects comma-separated integers, got {text!r}")
    if min(values) < 0:
        raise click.UsageError("--a elements must be >= 0")
    return tuple(sorted(values, reverse=True))  # canonical descending order


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise click.UsageError(message)


# Each flag's least value, in the order checked; verify-conjecture raises --n's.
_FLOORS = {"n": 1, "m": 1, "n_max": 2, "m_max": 1, "cap": 1, "workers": 1}


def _checked(params: dict, **floors: int) -> dict:
    """Click's params once every flag is at its floor and ``--a`` parses.  Both
    run after click has read every flag, so several bad flags report the same
    first error in any order on the command line."""
    for name, low in {**_FLOORS, **floors}.items():
        value = params.get(name)
        _require(value is None or value >= low,
                 f"--{name.replace('_', '-')} must be >= {low}, got {value}")
    if "a" in params:
        params["a"] = _parse_multiset(params["a"])
    return params


def _finish(config: RunConfig) -> None:
    try:
        with warnings.catch_warnings():  # e.g. a discarded cache line, as one plain line
            warnings.showwarning = lambda message, *_: click.echo(f"warning: {message}", err=True)
            code, text = run(config)
    except TableViolationError as exc:
        click.echo(f"TABLE VIOLATION (implementation bug): {exc}", err=True)
        sys.exit(EXIT_BUG)
    except FloorSumError as exc:  # invalid input, divisibility or an oversize instance
        raise click.UsageError(str(exc))
    except OSError as exc:
        if exc.filename is None:  # the cache is the only file a command touches
            raise
        click.echo(f"Error: cannot use cache file {config.cache_path}: {exc}", err=True)
        sys.exit(EXIT_USAGE)
    click.echo(text, nl=False)
    sys.exit(code)


format_option = click.option("--format", "fmt", type=click.Choice(["human", "csv", "json"]),
                             default="human", show_default=True, help="Output format.")


def search_options(command):
    """--format, --workers and --cache, shared by every search-backed command."""
    command = click.option("--cache", "cache_path", type=click.Path(dir_okay=False),
                           default=None, envvar="FLOORSUM_CACHE",
                           help="Search-result cache file (FLOORSUM_CACHE also works).")(command)
    command = click.option("--workers", type=int, default=1, show_default=True,
                           help="Parallel worker processes for the search engine.")(command)
    return format_option(command)


@click.group(context_settings={"help_option_names": ["-h", "--help"]})
@click.version_option(__version__, prog_name="floorsum")
def cli() -> None:
    """Exact workbench for alternating floor-function sums S_m(A, K)."""


@cli.command("eval")
@click.option("--m", type=int, required=True, help="Modulus (>= 1).")
@click.option("--a", required=True, help="Multiset, comma-separated (e.g. 2,3).")
@click.option("--k", type=int, required=True, help="Prefix bound K, in [0, m-1].")
@format_option
def eval_cmd(**params) -> None:
    """Evaluate S_m(A, K) by the closed form."""
    config = RunConfig("eval", **_checked(params))
    _require(0 <= config.k <= config.m - 1, f"--k must be in [0, {config.m - 1}], got {config.k}")
    _finish(config)


@cli.command("table")
@click.option("--n", type=int, required=True, help="Arity (number of multiset elements).")
@click.option("--m-max", type=int, required=True, help="Tabulate m = 1..m_max.")
@search_options
def table_cmd(**params) -> None:
    """Max/min sequences of S_m over bounded instances, m = 1..m_max."""
    _finish(RunConfig("table", **_checked(params)))


@cli.command("search")
@click.option("--n", type=int, required=True, help="Arity.")
@click.option("--m", type=int, required=True, help="Modulus.")
@click.option("--k-min", "k_lo", type=int, default=0, help="Low end of the K range.")
@click.option("--k-max", "k_hi", type=int, default=None, help="High end of the K range.")
@click.option("--cap", type=int, default=DEFAULT_CAP, show_default=True,
              help="Maximum number of attaining sites to record per side.")
@search_options
def search_cmd(**params) -> None:
    """Exhaustive extremal search over every bounded (A, K)."""
    config = RunConfig("search", **_checked(params))
    k_hi = config.m - 1 if config.k_hi is None else config.k_hi
    _require(0 <= config.k_lo <= k_hi <= config.m - 1,
             f"--k-min/--k-max must satisfy 0 <= k_min <= k_max <= {config.m - 1}")
    _finish(replace(config, k_hi=k_hi))


@cli.command("verify-bounds")
@click.option("--n", type=int, required=True, help="Arity.")
@click.option("--m", type=int, required=True, help="Modulus.")
@search_options
def verify_bounds_cmd(**params) -> None:
    """Search (n, m) exhaustively and compare against the known bounds.

    Exits nonzero only if a proven bound is violated (an implementation
    bug); a conjectured bound that is not attained is reported, not fatal.
    """
    _finish(RunConfig("verify-bounds", **_checked(params)))


@cli.command("verify-conjecture")
@click.option("--n", type=int, required=True, help="Arity (>= 4).")
@click.option("--m", type=int, required=True, help="Modulus (must admit the predicted sites).")
@search_options
def verify_conjecture_cmd(**params) -> None:
    """Check M(n) = m*f(n) and the predicted sites against full search."""
    _finish(RunConfig("verify-conjecture", **_checked(params, n=4)))


@cli.command("f-seq")
@click.option("--n-max", type=int, required=True, help="Last index to produce (>= 2).")
@format_option
def f_seq_cmd(**params) -> None:
    """Exact rational sequence f(2..n_max) from the ninth-order recurrence."""
    _finish(RunConfig("f-seq", **_checked(params)))


@cli.command("delta-scan")
@click.option("--m", type=int, default=None, help="Scan a single modulus.")
@click.option("--m-max", type=int, default=None, help="Scan every modulus 1..m_max.")
@format_option
def delta_scan_cmd(**params) -> None:
    """Audit the two-variable difference against its case table.

    Scans every legal (a1, a2, K) cell; any value/case mismatch aborts
    with exit status 3.
    """
    _require((params["m"] is None) != (params["m_max"] is None),
             "exactly one of --m / --m-max is required")
    _finish(RunConfig("delta-scan", **_checked(params)))


def main() -> None:
    # Everything imported so far lives until exit: later collections and the
    # interpreter's teardown then skip it.
    gc.freeze()
    cli()


if __name__ == "__main__":
    main()
