"""Conjectured extremal values, known bounds, and their verification.

For n >= 4 the extremal value M(n) (max of S_m for odd n, min for even
n, over all bounded instances) is conjectured to equal m*f(n), where
f(n) is an exact rational sequence: nine fixed initial values

    f(2)=0, f(3)=1/3, f(4)=-1, f(5)=2, f(6)=-3,
    f(7)=8, f(8)=-18, f(9)=36, f(10)=-65

followed by a ninth-order linear recurrence with quadratic polynomial
coefficients.  The attaining sites are constant multisets c*m/d with
K = c*m/d - 1, available only when d divides m.

Everything here is exact: f(n) is kept as a Fraction end to end, and
verification compares search results with predictions by integer or
rational equality, never by tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .cache import ResultCache, cached_extremes
from .core import Instance, eval_closed
from .exceptions import DivisibilityError, DomainError
# Unused here, but perfbench/tracing.py wraps ``conjecture.extremes``, so it stays bound.
from .search import ExtremeRecord, SearchSpace, extremes

_INITIAL = {
    2: Fraction(0),
    3: Fraction(1, 3),
    4: Fraction(-1),
    5: Fraction(2),
    6: Fraction(-3),
    7: Fraction(8),
    8: Fraction(-18),
    9: Fraction(36),
    10: Fraction(-65),
}

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
    values: dict[int, Fraction] = {}
    for n in range(2, n_max + 1):
        if n <= 10:
            values[n] = _INITIAL[n]
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


@dataclass(frozen=True)
class PredictedSite:
    """A constant multiset site (c*m/d, ..., c*m/d) with K = c*m/d - 1."""

    a: tuple[int, ...]
    k: int
    divisor: int


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


@dataclass(frozen=True)
class Bound:
    """One side of a bound: its value at m, proof status and formula.

    ``value`` is None when the conjectured side is unavailable (the
    divisor the prediction needs does not divide m).
    """

    value: int | Fraction | None
    status: str  # "proven" | "conjectured"
    formula: str
    note: str | None = None


@dataclass(frozen=True)
class BoundSpec:
    """Known lower/upper bounds for S_m at a given arity."""

    n: int
    m: int
    lower: Bound
    upper: Bound


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


def known_bounds(n: int, m: int) -> BoundSpec:
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
        return BoundSpec(n, m, Bound(0, "proven", "0"), Bound(m - 1, "proven", "m-1"))
    if n == 2:
        return BoundSpec(n, m, Bound(0, "proven", "0"), Bound(m // 2, "proven", "floor(m/2)"))
    if n == 3:
        return BoundSpec(
            n, m,
            Bound(-2 * (m // 2), "proven", "-2*floor(m/2)"),
            Bound(m // 3, "proven", "floor(m/3)"),
        )
    if n == 4:
        return BoundSpec(
            n, m,
            Bound(-3 * (m // 3), "conjectured", "-3*floor(m/3)"),
            Bound(4 * (m // 2), "proven", "4*floor(m/2)"),
        )
    note = _EVEN_M_NOTE if m % 2 else None
    proven_magnitude = (1 << (n - 2)) * (m // 2)
    if n % 2:  # odd: proven lower, conjectured upper
        return BoundSpec(
            n, m,
            Bound(-proven_magnitude, "proven", "-2^(n-2)*floor(m/2)", note=note),
            _conjectured_bound(n, m),
        )
    return BoundSpec(
        n, m,
        _conjectured_bound(n, m),
        Bound(proven_magnitude, "proven", "2^(n-2)*floor(m/2)", note=note),
    )


@dataclass(frozen=True)
class BoundsReport:
    """Search extremes compared against the known bounds."""

    n: int
    m: int
    record: ExtremeRecord
    lower: Bound
    upper: Bound
    lower_verdict: str
    upper_verdict: str

    @property
    def proven_violation(self) -> bool:
        return (self.lower.status == "proven" and self.lower_verdict == VERDICT_VIOLATED) or (
            self.upper.status == "proven" and self.upper_verdict == VERDICT_VIOLATED
        )


def _side_verdict(bound: Bound, extreme: int, side: str) -> str:
    if bound.value is None:
        return VERDICT_UNAVAILABLE
    if extreme == bound.value:
        return VERDICT_EQUALITY
    inside = extreme > bound.value if side == "lower" else extreme < bound.value
    return VERDICT_HOLDS if inside else VERDICT_VIOLATED


def verify_bounds(n: int, m: int, workers: int = 1,
                  cache: ResultCache | None = None) -> BoundsReport:
    """Exhaustively search (n, m) and give a per-side verdict.

    The search goes through ``cached_extremes``, so ``workers`` and
    ``cache`` mean what they mean there; the record is ``report.record``.
    A VIOLATED verdict on a proven side signals an implementation bug;
    callers are expected to fail the run on ``proven_violation``.
    """
    record = cached_extremes(SearchSpace(n, m), workers, cache)
    spec = known_bounds(n, m)
    return BoundsReport(
        n=n,
        m=m,
        record=record,
        lower=spec.lower,
        upper=spec.upper,
        lower_verdict=_side_verdict(spec.lower, record.min_value, "lower"),
        upper_verdict=_side_verdict(spec.upper, record.max_value, "upper"),
    )


@dataclass(frozen=True)
class SiteCheck:
    """Evaluation of one predicted site against the searched extreme."""

    site: PredictedSite
    value: int
    attains: bool


@dataclass(frozen=True)
class ConjectureReport:
    """Outcome of checking the conjecture at one (n, m).

    ``sites_exact`` is a set-equality verdict for part-1 arities (the
    prediction says the extremes occur exactly at the listed sites) and
    None for part-2 arities (only containment is claimed there).
    """

    n: int
    m: int
    part: int
    block_index: int
    predicted_value: Fraction
    search_value: int
    value_matches: bool
    site_checks: tuple[SiteCheck, ...]
    attaining_count: int
    sites_exact: bool | None

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
        search_value, count = record.max_value, record.max_count
    else:
        search_value, count = record.min_value, record.min_count
    predicted_value = m * f_value(n)
    checks = []
    for site in sites:
        value = eval_closed(Instance(m, site.a, site.k))
        checks.append(SiteCheck(site, value, value == search_value))
    sites_exact = None
    if part == 1:
        sites_exact = count == len(sites) and all(c.attains for c in checks)
    return ConjectureReport(
        n=n,
        m=m,
        part=part,
        block_index=block,
        predicted_value=predicted_value,
        search_value=search_value,
        value_matches=predicted_value == search_value,
        site_checks=tuple(checks),
        attaining_count=count,
        sites_exact=sites_exact,
    )
