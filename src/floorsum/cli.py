"""Command-line workbench: evaluate, search, verify, export.

Every command supports three output formats (human, csv, json).  Each
``_run_*`` handler passes its result in all three shapes to ``_output``,
the single renderer, which writes the chosen one.  JSON output is a
single object with "config" and "result" keys; CSV output is a header
row followed by data rows.  Both are deterministic for a given
configuration: keys are sorted and column order is fixed.

One table, ``_COMMANDS``, gives every command's flags and handler; it
drives parsing, dispatch (``run``), the --help pages and the usage
errors, whose layout and wording are click's (the golden files pin
them).  Each flag names the ``RunConfig`` field it sets, and a command
passes them straight on once ``_checked`` has applied the flag floors
and parsed --a.  The standard library alone reads the command line, so a
query does not pay for a parser library.

Exit status: 0 on success and on "conjectured value not attained"
(reported, not fatal); 1 on interrupt (Ctrl-C); 2 on invalid input, an
unusable cache path, instances too large for checked 64-bit arithmetic,
a query too large for memory or an f-seq whose terms may pass Python's
limit on printed digits; 3 on a proven-bound violation or
case-table mismatch (either one signals an implementation bug).
"""

from __future__ import annotations

import gc
import os
import sys
import warnings

from . import __version__
from .cache import ResultCache, cached_extremes, sequence_table
from .conjecture import f_sequence, verify_bounds, verify_conjecture
from .core import Instance, _Record, eval_closed
from .exceptions import DomainError, FloorSumError, TableViolationError, _at_least, _shown
from .search import DEFAULT_CAP, SearchSpace
# ``delta`` is unused here, but perfbench/tracing.py wraps ``cli.delta``, so it stays bound.
from .symmetry import _case_counts, delta

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUG = 3


class RunConfig(_Record):
    """A fully resolved command invocation."""

    __slots__ = ("command", "fmt", "workers", "cache_path", "n", "m", "n_max", "m_max",
                 "k", "k_lo", "k_hi", "a", "cap")

    def __init__(self, command: str, fmt: str = "human", workers: int = 1,
                 cache_path: str | None = None, n: int | None = None, m: int | None = None,
                 n_max: int | None = None, m_max: int | None = None, k: int | None = None,
                 k_lo: int | None = None, k_hi: int | None = None,
                 a: tuple[int, ...] | None = None, cap: int | None = None):
        super().__init__(command, fmt, workers, cache_path, n, m, n_max, m_max, k, k_lo, k_hi,
                         a, cap)

    def to_dict(self) -> dict:
        """Serializable form: the mathematical query only, unset fields left
        out and ``fmt`` named ``format``.

        Worker count and cache location never change a result (the
        reduction is deterministic and cached records are transparent),
        so they are left out to keep output byte-identical across them.
        """
        return {("format" if name == "fmt" else name): getattr(self, name)
                for name in self.__slots__ if name not in ("workers", "cache_path")
                and getattr(self, name) is not None}

    @property
    def cache(self) -> ResultCache | None:
        return ResultCache(self.cache_path) if self.cache_path else None


def _output(config: RunConfig, result: dict, header: list[str], rows: list[list],
            lines: list[str], code: int = EXIT_OK) -> tuple[int, str]:
    """(exit status, output text): the single place text is produced for ``config.fmt``,
    from a command's JSON payload, CSV table and human lines."""
    if config.fmt == "json":
        import json
        return code, json.dumps({"config": config.to_dict(), "result": result},
                                sort_keys=True, indent=2) + "\n"
    if config.fmt == "csv":
        import csv
        import io
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
    if config.command not in _COMMANDS:
        raise DomainError(f"unknown command {config.command!r}")
    return _COMMANDS[config.command][2](config)


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
    k_lo, k_hi = space.k_range
    rows = []
    lines = [f"search n={space.n} m={space.m} K in [{k_lo},{k_hi}] cap={space.cap}"]
    for kind, value, sites, count in (
            ("max", record.max_value, record.max_sites, record.max_count),
            ("min", record.min_value, record.min_sites, record.min_count)):
        rows += [[kind, value, count, _multiset_text(a), k] for a, k in sites]
        lines.append(f"{kind} {value} attained at {count} site(s):")
        lines += _site_lines(sites)
        if len(sites) < count:
            lines.append(f"  ... {count - len(sites)} site(s) total, list capped at {space.cap}")
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
        # a Fraction, only on a conjectured side, is written as text such as "7/3"
        value = bound.value if bound.value is None or type(bound.value) is int else str(bound.value)
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
    # Refuse, before any term is computed, an n_max whose terms may pass Python's limit
    # on the digits of a printed int (0 when off, and absent, as is the limit, before
    # 3.10.7).  f(n)'s numerator has at most n - 1 bits (checked up to 14285, the
    # default limit's boundary), so every term prints while 2^(n_max - 1) <= 10^limit.
    limit = getattr(sys, "get_int_max_str_digits", int)()
    largest = (10**limit).bit_length()
    if limit and config.n_max > largest:
        raise DomainError(f"n_max={_shown(config.n_max)} exceeds {largest}: past it, f(n) may "
                          f"pass Python's limit of {limit} digits on printed integers")
    # each term is converted to decimal once, as that costs more than computing it
    texts = [str(v) for v in f_sequence(config.n_max)]
    halves = [text.partition("/") for text in texts]
    return _output(config, {"start": 2, "f": texts}, ["n", "numerator", "denominator"],
                   [[n, p, q or "1"] for n, (p, _, q) in enumerate(halves, start=2)],
                   [f"f({n}) = {text}" for n, text in enumerate(texts, start=2)])


_SCAN_HEADER = ["m", "cells", "case1", "case2", "case3", "case4", "sorted_case2"]


def _run_delta_scan(config: RunConfig) -> tuple[int, str]:
    lo, hi = (config.m, config.m) if config.m_max is None else (1, config.m_max)
    rows = _case_counts(range(lo, hi + 1))
    scans = [dict(zip(_SCAN_HEADER, row)) for row in rows]
    lines = ["difference-table scan (every value matched its case)", " ".join(_SCAN_HEADER)]
    lines += [" ".join(str(v) for v in row) for row in rows]
    return _output(config, {"scans": scans}, _SCAN_HEADER, rows, lines)


# ------------------------------------------------------------ command line

_REQUIRED = ...  # the default of a flag that must be given
_FORMATS = ("human", "csv", "json")
_METAVARS = {"int": "INTEGER", "text": "TEXT", "format": f"[{'|'.join(_FORMATS)}]",
             "cache": "FILE"}

# Every command's help text, its flags in --help order, each as (flag,
# RunConfig field, kind, default or _REQUIRED, help), and its handler.
# --help shows every default but None; --cache falls back to FLOORSUM_CACHE
# when that is not empty.
_FORMAT_FLAG = ("--format", "fmt", "format", "human", "Output format.")
_SEARCH_FLAGS = (
    _FORMAT_FLAG,
    ("--workers", "workers", "int", 1, "Parallel worker processes for the search engine."),
    ("--cache", "cache_path", "cache", None,
     "Search-result cache file (FLOORSUM_CACHE also works)."),
)
_COMMANDS = {
    "eval": ("Evaluate S_m(A, K) by the closed form.", (
        ("--m", "m", "int", _REQUIRED, "Modulus (>= 1)."),
        ("--a", "a", "text", _REQUIRED, "Multiset, comma-separated (e.g. 2,3)."),
        ("--k", "k", "int", _REQUIRED, "Prefix bound K, in [0, m-1]."),
        _FORMAT_FLAG), _run_eval),
    "table": ("Max/min sequences of S_m over bounded instances, m = 1..m_max.", (
        ("--n", "n", "int", _REQUIRED, "Arity (number of multiset elements)."),
        ("--m-max", "m_max", "int", _REQUIRED, "Tabulate m = 1..m_max."),
        *_SEARCH_FLAGS), _run_table),
    "search": ("Exhaustive extremal search over every bounded (A, K).", (
        ("--n", "n", "int", _REQUIRED, "Arity."),
        ("--m", "m", "int", _REQUIRED, "Modulus."),
        ("--k-min", "k_lo", "int", None, "Low end of the K range."),
        ("--k-max", "k_hi", "int", None, "High end of the K range."),
        ("--cap", "cap", "int", DEFAULT_CAP,
         "Maximum number of attaining sites to record per side."),
        *_SEARCH_FLAGS), _run_search),
    "verify-bounds": (
        "Search (n, m) exhaustively and compare against the known bounds.\n\n"
        "Exits nonzero only if a proven bound is violated (an implementation bug); a "
        "conjectured bound that is not attained is reported, not fatal.", (
            ("--n", "n", "int", _REQUIRED, "Arity."),
            ("--m", "m", "int", _REQUIRED, "Modulus."),
            *_SEARCH_FLAGS), _run_verify_bounds),
    "verify-conjecture": ("Check M(n) = m*f(n) and the predicted sites against full search.", (
        ("--n", "n", "int", _REQUIRED, "Arity (>= 4)."),
        ("--m", "m", "int", _REQUIRED, "Modulus (must admit the predicted sites)."),
        *_SEARCH_FLAGS), _run_verify_conjecture),
    "f-seq": ("Exact rational sequence f(2..n_max) from the ninth-order recurrence.", (
        ("--n-max", "n_max", "int", _REQUIRED, "Last index to produce (>= 2)."),
        _FORMAT_FLAG), _run_f_seq),
    "delta-scan": (
        "Audit the two-variable difference against its case table.\n\n"
        "Scans every legal (a1, a2, K) cell; any value/case mismatch aborts with exit "
        "status 3.", (
            ("--m", "m", "int", None, "Scan a single modulus."),
            ("--m-max", "m_max", "int", None, "Scan every modulus 1..m_max."),
            _FORMAT_FLAG), _run_delta_scan),
}
_GROUP_DOC = "Exact workbench for alternating floor-function sums S_m(A, K)."
_HELP_ROW = ("-h, --help", "Show this message and exit.")


class _UsageError(Exception):
    """A bad command line: exit 2 with "Error: <message>", after the usage
    line and a pointer to --help unless ``bare``."""

    def __init__(self, message: str, bare: bool = False):
        super().__init__(message)
        self.bare = bare


def _suggest(message: str, name: str, candidates) -> str:
    from difflib import get_close_matches
    close = sorted(get_close_matches(name, candidates))
    shown = ", ".join(map(repr, close))
    if len(close) > 1:
        return f"{message} (Did you mean one of: {shown}?)"
    return f"{message} Did you mean {shown}?" if close else message


def _scan(args: list[str], valued, switches: tuple[str, ...],
          interspersed: bool = True) -> tuple[dict, list[str], list[str]]:
    """(each valued flag's last text, keyed in the order first given; the
    switches given, in order; the other arguments).  "--" ends the flags, and
    so does the first other argument unless ``interspersed``.  -h is --help."""
    given, switched, rest = {}, [], []
    args = list(args)
    while args:
        arg = args.pop(0)
        if arg == "--":
            return given, switched, rest + args
        if arg[:1] != "-" or arg == "-":
            if not interspersed:
                return given, switched, [arg] + args
            rest.append(arg)
        elif arg[:2] != "--":  # a run of one-letter switches
            for letter in arg[1:]:
                if letter != "h":
                    raise _UsageError(f"No such option '-{letter}'.")
                switched.append("--help")
        else:
            name, attached, value = arg.partition("=")
            if name in switches:
                if attached:
                    raise _UsageError(f"Option {name!r} does not take a value.", bare=True)
                switched.append(name)
            elif name in valued:
                if not attached:
                    if not args:
                        raise _UsageError(f"Option {name!r} requires an argument.", bare=True)
                    value = args.pop(0)
                given[name] = value
            else:
                raise _UsageError(_suggest(f"No such option {_quoted(name)}.", name,
                                           [*valued, *switches]))
    return given, switched, rest


def _quoted(text: str, show=repr) -> str:
    """``show(text)``, or of its first 40 characters and its length past that,
    so an error message stays short whatever it echoes."""
    if len(text) <= 40:
        return show(text)
    return f"{show(text[:40])}... ({len(text)} characters)"


def _convert(flag: str, kind: str, text: str):
    """A flag's value from its text, as its kind reads it."""
    if kind == "int":
        try:
            return int(text)
        except ValueError:  # also past Python's 4300-digit limit
            problem = f"{_quoted(text)} is not a valid integer."
    elif kind == "format" and text not in _FORMATS:
        problem = f"{_quoted(text)} is not one of {', '.join(map(repr, _FORMATS))}."
    elif kind == "cache" and os.path.isdir(text):
        problem = f"File {text!r} is a directory."
    elif kind == "cache" and os.path.exists(text) and not os.access(text, os.R_OK):
        problem = f"File {text!r} is not readable."
    else:
        return text
    raise _UsageError(f"Invalid value for {flag!r}: {problem}")


def _parse_multiset(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise _UsageError(f"--a expects comma-separated integers, got {_quoted(text)}")
    if min(values) < 0:
        raise _UsageError("--a elements must be >= 0")
    return tuple(sorted(values, reverse=True))  # canonical descending order


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise _UsageError(message)


# Each flag's least value, in the order checked; verify-conjecture raises --n's.
_FLOORS = {"n": 1, "m": 1, "n_max": 2, "m_max": 1, "cap": 1, "workers": 1}


def _checked(command: str, params: dict) -> dict:
    """The flags once every one is at its floor and ``--a`` parses.  Both run
    after every flag has been read, so several bad flags report the same first
    error in any order on the command line."""
    floors = {**_FLOORS, "n": 4} if command == "verify-conjecture" else _FLOORS
    for name, low in floors.items():
        if params.get(name) is not None:
            _at_least(f"--{name.replace('_', '-')}", params[name], low)
    if "a" in params:
        params["a"] = _parse_multiset(params["a"])
    return params


def _parse(command: str, args: list[str]) -> RunConfig | None:
    """``command``'s RunConfig from its arguments, or None if they ask for help.

    The first error wins, in this order: an unknown flag or one missing its
    value; the flags given, converted in the order first given (a repeated
    flag's last value stands); the required flags left out, in table order;
    extra arguments; then each command's rules across its flags and the
    floors.
    """
    table = {row[0]: row for row in _COMMANDS[command][1]}
    given, switched, extra = _scan(args, table, ("--help",))
    if switched:
        return None
    params = {table[flag][1]: _convert(flag, table[flag][2], text)
              for flag, text in given.items()}
    for flag, field, kind, default, _ in table.values():
        if field in params:
            continue
        env = os.environ.get("FLOORSUM_CACHE") if kind == "cache" else None
        if env:
            params[field] = _convert(flag, kind, env)
        elif default is _REQUIRED:
            raise _UsageError(f"Missing option {flag!r}.")
        else:
            params[field] = default
    if extra:
        plural = "s" if len(extra) > 1 else ""
        shown = _quoted(" ".join(extra), str)
        raise _UsageError(f"Got unexpected extra argument{plural} ({shown})")
    if command == "delta-scan":
        _require((params["m"] is None) != (params["m_max"] is None),
                 "exactly one of --m / --m-max is required")
    config = RunConfig(command, **_checked(command, params))
    if command == "eval":
        _require(0 <= config.k <= config.m - 1,
                 f"--k must be in [0, {_shown(config.m - 1)}], got {_shown(config.k)}")
    if command == "search":
        k_lo = 0 if config.k_lo is None else config.k_lo
        k_hi = config.m - 1 if config.k_hi is None else config.k_hi
        _require(0 <= k_lo <= k_hi <= config.m - 1,
                 f"--k-min/--k-max must satisfy 0 <= k_min <= k_max <= {_shown(config.m - 1)}")
        config = config.replace(k_lo=k_lo, k_hi=k_hi)
    return config


def _usage(prog: str, command: str | None) -> str:
    if command is None:
        return f"{prog} [OPTIONS] COMMAND [ARGS]..."
    return f"{prog} {command} [OPTIONS]"


def _help(prog: str, command: str | None = None) -> str:
    """A --help page, laid out 80 columns wide."""
    import textwrap

    def section(title: str, rows: list[tuple[str, str]]) -> list[str]:
        indent = max(len(first) for first, _ in rows) + 4
        lines = ["", f"{title}:"]
        for first, text in rows:
            wrapped = textwrap.wrap(text, 80 - indent) or [""]
            lines.append(f"  {first:<{indent - 4}}  {wrapped[0]}")
            lines += [" " * indent + line for line in wrapped[1:]]
        return lines

    if command is None:
        doc, options = _GROUP_DOC, [("--version", "Show the version and exit."), _HELP_ROW]
    else:
        doc, flags, _ = _COMMANDS[command]
        options = []
        for flag, _, kind, default, text in flags:
            extra = "" if default is None else (
                "  [required]" if default is _REQUIRED else f"  [default: {default}]")
            options.append((f"{flag} {_METAVARS[kind]}", text + extra))
        options.append(_HELP_ROW)
    lines = [f"Usage: {_usage(prog, command)}"]
    for paragraph in doc.split("\n\n"):
        lines += [""] + textwrap.wrap(paragraph, 80, initial_indent="  ", subsequent_indent="  ")
    lines += section("Options", options)
    if command is None:
        limit = 80 - 6 - max(map(len, _COMMANDS))
        lines += section("Commands", [
            (name, textwrap.shorten(_COMMANDS[name][0].split("\n\n")[0], limit,
                                    placeholder="...", break_on_hyphens=False))
            for name in sorted(_COMMANDS)])
    return "\n".join(lines) + "\n"


def _finish(config: RunConfig) -> int:
    """Run ``config``, write its output and return the exit status."""
    try:
        with warnings.catch_warnings():  # e.g. a discarded cache line, as one plain line
            warnings.showwarning = lambda message, *_: sys.stderr.write(f"warning: {message}\n")
            code, text = run(config)
    except TableViolationError as exc:
        sys.stderr.write(f"TABLE VIOLATION (implementation bug): {exc}\n")
        return EXIT_BUG
    except OSError as exc:
        if exc.filename is None:  # the cache is the only file a command touches
            raise
        sys.stderr.write(f"Error: cannot use cache file {config.cache_path}: {exc}\n")
        return EXIT_USAGE
    except MemoryError:  # e.g. one all-K sweep of a modulus past the memory
        sys.stderr.write("Error: not enough memory for this query\n")
        return EXIT_USAGE
    sys.stdout.write(text)
    return code


def cli(args: list[str], prog: str = "floorsum") -> int:
    """Run the command line ``args`` (without the program name) and return its
    exit status; output goes to ``sys.stdout`` and ``sys.stderr``, and ``prog``
    names the program in help and usage text."""
    if not args:
        sys.stderr.write(_help(prog))
        return EXIT_USAGE
    command = None
    try:
        group_switches = ("--version", "--help")
        _, switched, rest = _scan(args, {}, group_switches, interspersed=False)
        if not switched and rest and rest[0] not in _COMMANDS:
            # a name after "--" that reads as a flag is read as one
            _, switched, _ = _scan(rest, {}, group_switches, interspersed=False)
        if switched:
            version = switched[0] == "--version"
            sys.stdout.write(f"floorsum, version {__version__}\n" if version else _help(prog))
            return EXIT_OK
        if not rest:
            raise _UsageError("Missing command.")
        if rest[0] not in _COMMANDS:
            raise _UsageError(_suggest(f"No such command {_quoted(rest[0])}.", rest[0], _COMMANDS))
        command = rest[0]
        config = _parse(command, rest[1:])
        if config is None:
            sys.stdout.write(_help(prog, command))
            return EXIT_OK
        return _finish(config)
    except (_UsageError, FloorSumError) as exc:  # invalid input, divisibility, oversize
        if not getattr(exc, "bare", False):
            path = prog if command is None else f"{prog} {command}"
            sys.stderr.write(f"Usage: {_usage(prog, command)}\nTry '{path} --help' for help.\n\n")
        sys.stderr.write(f"Error: {exc}\n")
        return EXIT_USAGE


def _program_name() -> str:
    """``python -m floorsum.cli`` when run with -m, else the script's file name."""
    package = getattr(sys.modules["__main__"], "__package__", None)
    script = os.path.basename(sys.argv[0])
    if not package:
        return script
    name = os.path.splitext(script)[0]
    return f"python -m {package}" + ("" if name == "__main__" else f".{name}")


def main() -> None:
    # Everything imported so far lives until exit: later collections and the
    # interpreter's teardown then skip it.
    gc.freeze()
    try:
        code = cli(sys.argv[1:], _program_name())
        sys.stdout.flush()
    except KeyboardInterrupt:
        sys.stderr.write("\nAborted!\n")
        code = 1
    except BrokenPipeError:  # the reader has gone, as under `| head`: exit quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
