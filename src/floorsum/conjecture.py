"""Conjectured extremal values, known bounds, and their verification.

For n >= 4 the extremal value M(n) (max of S_m for odd n, min for even
n, over all bounded instances) is conjectured to equal m*f(n), where
f(n) is an exact rational sequence: nine fixed initial values

    f(2)=0, f(3)=1/3, f(4)=-1, f(5)=2, f(6)=-3,
    f(7)=8, f(8)=-18, f(9)=36, f(10)=-65

followed by a ninth-order linear recurrence with quadratic polynomial
coefficients.  The attaining sites are constant multisets c*m/d with
K = c*m/d - 1, available only when d divides m.

Refined conjecture (this repository's empirical claim, not the paper's;
unproven, and checked exhaustively for n = 4..10, m = 2..16 by the
acceptance suite): with k = floor((n+1)/4), the conjectured-side extreme
never passes m*f(n) at any m.  It equals m*f(n) exactly when (2k+1) | m
for n = 4k-1, 4k, 4k+1, and exactly when m lies in the numerical
semigroup <2k+1, 2k+3> for n = 4k+2.

Everything here is exact: f(n) is kept as a Fraction end to end, and
verification compares search results with predictions by integer or
rational equality, never by tolerance.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from .cache import ResultCache, cached_extremes
from .core import Instance, _Record, _set, eval_closed
from .exceptions import DivisibilityError, DomainError
# Unused here, but perfbench/tracing.py wraps ``conjecture.extremes``, so it stays bound.
from .search import ExtremeRecord, SearchSpace, Site, extremes

# f(2), ..., f(10) as (numerator, denominator).  ``Fraction`` is imported in
# ``f_sequence``, where f(n) is computed, so a process that never asks for
# f(n) does not load ``fractions`` (or ``decimal``, which it imports).
_INITIAL = ((0, 1), (1, 3), (-1, 1), (2, 1), (-3, 1), (8, 1), (-18, 1), (36, 1), (-65, 1))

VERDICT_HOLDS = "holds"
VERDICT_EQUALITY = "holds-with-equality"
VERDICT_VIOLATED = "VIOLATED"
VERDICT_UNAVAILABLE = "unavailable"


def _recurrence_rhs(n: int, f: Callable[[int], Fraction]) -> Fraction:
    return (
        10 * (n * n + n - 8) * f(n - 1)
        - 4 * (2 * n * n - 10 * n + 3) * f(n - 2)
        - 24 * (2 * n - 11) * f(n - 3)
        - 32 * (2 * n * n - 10 * n - 1) * f(n - 4)
        - 192 * (n - 1) * (n - 5) * f(n - 5)
        + 64 * (2 * n * n - 22 * n + 51) * f(n - 6)
        + 384 * (2 * n - 13) * f(n - 7)
        - 256 * (n - 3) * (n - 8) * f(n - 8)
        + 512 * (n - 9) * (n - 8) * f(n - 9)
    )


def f_sequence(n_max: int) -> list[Fraction]:
    """Exact values [f(2), ..., f(n_max)].

    Indices 2..10 are the fixed initial values; each later term is the
    recurrence right-hand side divided by -5(n+3)(n-2), which never
    vanishes for n >= 11.
    """
    if n_max < 2:
        raise DomainError(f"n_max must be >= 2, got {n_max}")
    from fractions import Fraction
    values: dict[int, Fraction] = {}
    for n in range(2, n_max + 1):
        if n <= 10:
            values[n] = Fraction(*_INITIAL[n - 2])
        else:
            values[n] = _recurrence_rhs(n, values.__getitem__) / (-5 * (n + 3) * (n - 2))
    return [values[n] for n in range(2, n_max + 1)]


def f_value(n: int) -> Fraction:
    """f(n) for a single n >= 2."""
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    return f_sequence(n)[n - 2]


def recurrence_residual(values: Sequence[Fraction], n: int) -> Fraction:
    """LHS minus RHS of the recurrence at n; zero iff it is satisfied.

    ``values[i]`` must hold f(i+2).  Only meaningful for n >= 11.
    """
    if n < 11:
        raise DomainError(f"the recurrence applies for n >= 11, got {n}")

    def f(i: int) -> Fraction:
        return values[i - 2]

    return -5 * (n + 3) * (n - 2) * f(n) - _recurrence_rhs(n, f)


def _conjecture_block(n: int) -> tuple[int, int]:
    """Return (part, block index k): n = 4k-1, 4k, 4k+1 -> part 1,
    n = 4k+2 -> part 2."""
    if n < 4:
        raise DomainError(f"the conjecture covers n >= 4, got {n}")
    return (2 if n % 4 == 2 else 1, (n + 1) // 4)


class PredictedSite(_Record):
    """A constant multiset site (c*m/d, ..., c*m/d) with K = c*m/d - 1."""

    __slots__ = ("a", "k", "divisor")

    def __init__(self, a: tuple[int, ...], k: int, divisor: int):
        _set(self, "a", a)
        _set(self, "k", k)
        _set(self, "divisor", divisor)


def predicted_extremes(n: int, m: int) -> list[PredictedSite]:
    """The conjectured extremal sites for (n, m).

    For n = 4k-1, 4k, 4k+1: two sites with divisor d = 2k+1 and
    numerators k, k+1.  For n = 4k+2: four sites, two for d = 2k+1 and
    two for d = 2k+3.  Raises DivisibilityError naming every missing
    divisor when m is not a multiple of what the sites require.
    """
    if m < 1:
        raise DomainError(f"modulus must be >= 1, got {m}")
    part, k = _conjecture_block(n)
    d1 = 2 * k + 1
    if part == 1:
        required = (d1,)
        numerators = ((k, d1), (k + 1, d1))
    else:
        d2 = 2 * k + 3
        required = (d1, d2)
        numerators = ((k, d1), (k + 1, d1), (k + 1, d2), (k + 2, d2))
    missing = tuple(d for d in required if m % d)
    if missing:
        raise DivisibilityError(m, missing)
    sites = []
    for c, d in numerators:
        v = c * m // d
        sites.append(PredictedSite(a=(v,) * n, k=v - 1, divisor=d))
    return sites


class Bound(_Record):
    """One side of a bound: its value at m, proof status and formula.

    ``value`` is None when the conjectured side is unavailable (the
    divisor the prediction needs does not divide m).
    """

    __slots__ = ("value", "status", "formula", "note")

    def __init__(self, value: int | Fraction | None,
                 status: str,  # "proven" | "conjectured"
                 formula: str, note: str | None = None):
        _set(self, "value", value)
        _set(self, "status", status)
        _set(self, "formula", formula)
        _set(self, "note", note)


_EVEN_M_NOTE = "proof stated under the hypothesis that m is even"


def _conjectured_bound(n: int, m: int) -> Bound:
    try:
        predicted_extremes(n, m)
    except DivisibilityError as exc:
        return Bound(None, "conjectured", "m*f(n)", note=f"not sharp / unavailable: {exc}")
    value = m * f_value(n)
    if value.denominator == 1:
        value = int(value)
    return Bound(value, "conjectured", "m*f(n)")


def known_bounds(n: int, m: int) -> tuple[Bound, Bound]:
    """Numeric (lower, upper) bounds with per-side proven/conjectured status.

    n = 1..4 use their dedicated closed forms; for n >= 5 the proven
    side is +/- 2^(n-2)*floor(m/2) and the other side is the conjectured
    m*f(n), available only when the required divisor divides m.
    """
    if n < 1:
        raise DomainError(f"arity must be >= 1, got {n}")
    if m < 1:
        raise DomainError(f"modulus must be >= 1, got {m}")
    if n == 1:
        return Bound(0, "proven", "0"), Bound(m - 1, "proven", "m-1")
    if n == 2:
        return Bound(0, "proven", "0"), Bound(m // 2, "proven", "floor(m/2)")
    if n == 3:
        return (Bound(-2 * (m // 2), "proven", "-2*floor(m/2)"),
                Bound(m // 3, "proven", "floor(m/3)"))
    if n == 4:
        return (Bound(-3 * (m // 3), "conjectured", "-3*floor(m/3)"),
                Bound(4 * (m // 2), "proven", "4*floor(m/2)"))
    note = _EVEN_M_NOTE if m % 2 else None
    proven_magnitude = (1 << (n - 2)) * (m // 2)
    if n % 2:  # odd: proven lower, conjectured upper
        return (Bound(-proven_magnitude, "proven", "-2^(n-2)*floor(m/2)", note=note),
                _conjectured_bound(n, m))
    return (_conjectured_bound(n, m),
            Bound(proven_magnitude, "proven", "2^(n-2)*floor(m/2)", note=note))


class BoundsReport(_Record):
    """Search extremes compared against the known bounds.

    Every verdict, and the witnesses, is derived from ``record``: the
    lower side against its min, the upper side against its max.
    """

    __slots__ = ("record", "lower", "upper")

    def __init__(self, record: ExtremeRecord, lower: Bound, upper: Bound):
        _set(self, "record", record)
        _set(self, "lower", lower)
        _set(self, "upper", upper)

    @property
    def lower_verdict(self) -> str:
        return _side_verdict(self.lower, self.record.min_value, "lower")

    @property
    def upper_verdict(self) -> str:
        return _side_verdict(self.upper, self.record.max_value, "upper")

    def _broken_proven_sides(self) -> list[tuple[Site, ...]]:
        """The site lists of the proven sides the record violates, lower side first."""
        sides = ((self.lower, self.lower_verdict, self.record.min_sites),
                 (self.upper, self.upper_verdict, self.record.max_sites))
        return [sites for bound, verdict, sites in sides
                if bound.status == "proven" and verdict == VERDICT_VIOLATED]

    @property
    def proven_violation(self) -> bool:
        """Decided by the verdicts, so a record with empty site lists still counts."""
        return bool(self._broken_proven_sides())

    @property
    def witnesses(self) -> tuple[Site, ...]:
        """Sites of the first proven side violated, lower side first; () if none is."""
        broken = self._broken_proven_sides()
        return broken[0] if broken else ()


def _side_verdict(bound: Bound, extreme: int, side: str) -> str:
    if bound.value is None:
        return VERDICT_UNAVAILABLE
    if extreme == bound.value:
        return VERDICT_EQUALITY
    inside = extreme > bound.value if side == "lower" else extreme < bound.value
    return VERDICT_HOLDS if inside else VERDICT_VIOLATED


def verify_bounds(n: int, m: int, workers: int = 1,
                  cache: ResultCache | None = None) -> BoundsReport:
    """Exhaustively search (n, m) and compare it against ``known_bounds``.

    The search goes through ``cached_extremes``, so ``workers`` and
    ``cache`` mean what they mean there; the record is ``report.record``.
    A VIOLATED verdict on a proven side signals an implementation bug;
    callers are expected to fail the run on ``proven_violation``.
    """
    return BoundsReport(cached_extremes(SearchSpace(n, m), workers, cache), *known_bounds(n, m))


class SiteCheck(_Record):
    """Evaluation of one predicted site against the searched extreme."""

    __slots__ = ("site", "value", "attains")

    def __init__(self, site: PredictedSite, value: int, attains: bool):
        _set(self, "site", site)
        _set(self, "value", value)
        _set(self, "attains", attains)


class ConjectureReport(_Record):
    """Outcome of checking the conjecture at one (n, m).

    ``side`` is the conjectured extreme: "max" for odd n, "min" for even
    n; the searched value and attaining count on that side are derived from
    ``record``.  ``sites_exact`` is a set-equality verdict for part-1 arities
    (the prediction says the extremes occur exactly at the listed sites) and
    None for part-2 arities (only containment is claimed there).
    """

    __slots__ = ("record", "part", "block_index", "side", "predicted_value", "site_checks",
                 "sites_exact")

    def __init__(self, record: ExtremeRecord, part: int, block_index: int, side: str,
                 predicted_value: Fraction, site_checks: tuple[SiteCheck, ...],
                 sites_exact: bool | None):
        _set(self, "record", record)
        _set(self, "part", part)
        _set(self, "block_index", block_index)
        _set(self, "side", side)
        _set(self, "predicted_value", predicted_value)
        _set(self, "site_checks", site_checks)
        _set(self, "sites_exact", sites_exact)

    @property
    def search_value(self) -> int:
        return self.record.max_value if self.side == "max" else self.record.min_value

    @property
    def attaining_count(self) -> int:
        return self.record.max_count if self.side == "max" else self.record.min_count

    @property
    def value_matches(self) -> bool:
        return self.predicted_value == self.search_value

    @property
    def passed(self) -> bool:
        return (
            self.value_matches
            and all(check.attains for check in self.site_checks)
            and self.sites_exact is not False
        )


def verify_conjecture(n: int, m: int, workers: int = 1,
                      cache: ResultCache | None = None) -> ConjectureReport:
    """Check M(n) = m*f(n) and the predicted sites against full search.

    Raises DivisibilityError, before any search or cache access, when m
    does not admit the predicted sites; the search is as in ``verify_bounds``.
    Site membership is decided by evaluating each predicted site
    directly, so it is immune to site-list truncation; the part-1
    set-equality check additionally compares the attaining count.
    """
    sites = predicted_extremes(n, m)
    part, block = _conjecture_block(n)
    record = cached_extremes(SearchSpace(n, m), workers, cache)
    if n % 2:
        side, search_value, count = "max", record.max_value, record.max_count
    else:
        side, search_value, count = "min", record.min_value, record.min_count
    checks = []
    for site in sites:
        value = eval_closed(Instance(m, site.a, site.k))
        checks.append(SiteCheck(site, value, value == search_value))
    sites_exact = None
    if part == 1:
        sites_exact = count == len(sites) and all(c.attains for c in checks)
    return ConjectureReport(record, part, block, side, m * f_value(n), tuple(checks), sites_exact)
