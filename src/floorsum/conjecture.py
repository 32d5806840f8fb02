"""Conjectured extremal values, known bounds, and their verification.

For n >= 4 the extremal value M(n) (max of S_m for odd n, min for even
n, over all bounded instances) is conjectured to equal m*f(n), where
f(n) is an exact rational sequence: nine fixed initial values

    f(2)=0, f(3)=1/3, f(4)=-1, f(5)=2, f(6)=-3,
    f(7)=8, f(8)=-18, f(9)=36, f(10)=-65

followed by a ninth-order linear recurrence with quadratic polynomial
coefficients.  The attaining sites are constant multisets v^n at K = v - 1
with v = (m -/+ m/d)/2 for each divisor d the arity requires, available
only when d divides m; as d is odd, v = c*m/d with c = (d -/+ 1)/2.

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

__all__ = [
    "f_sequence", "f_value", "recurrence_residual", "known_bounds", "Bound", "predicted_extremes",
    "PredictedSite", "verify_bounds", "BoundsReport", "verify_conjecture", "ConjectureReport",
    "SiteCheck",
]

from collections.abc import Callable, Sequence

from .cache import ResultCache, cached_extremes
from .core import _I64_MAX, Instance, _Record, eval_closed
from .exceptions import DivisibilityError, InstanceTooLargeError, _at_least, _shown
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
    vanishes for n >= 11.  An n_max past 2**63 - 1 raises
    ``InstanceTooLargeError``: no list of n_max - 1 values fits in memory.
    """
    _at_least("n_max", n_max, 2)
    if n_max > _I64_MAX:
        raise InstanceTooLargeError(f"n_max={_shown(n_max)} exceeds 64-bit range")
    from fractions import Fraction
    values: dict[int, Fraction] = {}
    for n in range(2, n_max + 1):
        if n <= 10:
            values[n] = Fraction(*_INITIAL[n - 2])
        else:
            values[n] = _recurrence_rhs(n, values.__getitem__) / (-5 * (n + 3) * (n - 2))
    return [values[n] for n in range(2, n_max + 1)]


def f_value(n: int) -> Fraction:
    """f(n) for a single n >= 2; an n past 2**63 - 1 raises ``InstanceTooLargeError``."""
    _at_least("n", n, 2)
    if n > _I64_MAX:
        raise InstanceTooLargeError(f"n={_shown(n)} exceeds 64-bit range")
    return f_sequence(n)[n - 2]


def recurrence_residual(values: Sequence[Fraction], n: int) -> Fraction:
    """LHS minus RHS of the recurrence at n; zero iff it is satisfied.

    ``values[i]`` must hold f(i+2).  Only meaningful for n >= 11.
    """
    _at_least("n", n, 11)

    def f(i: int) -> Fraction:
        return values[i - 2]

    return -5 * (n + 3) * (n - 2) * f(n) - _recurrence_rhs(n, f)


def _conjecture_block(n: int) -> tuple[int, int]:
    """Return (part, block index k): n = 4k-1, 4k, 4k+1 -> part 1,
    n = 4k+2 -> part 2."""
    _at_least("n", n, 4)
    return (2 if n % 4 == 2 else 1, (n + 1) // 4)


class PredictedSite(_Record):
    """A constant multiset site (c*m/d, ..., c*m/d) with K = c*m/d - 1."""

    __slots__ = ("a", "k", "divisor")

    def __init__(self, a: tuple[int, ...], k: int, divisor: int):
        super().__init__(a, k, divisor)


def predicted_extremes(n: int, m: int) -> list[PredictedSite]:
    """The conjectured extremal sites for (n, m).

    For each required divisor d, 2k+1 for n = 4k-1, 4k, 4k+1 and also
    2k+3 for n = 4k+2, the sites v^n at K = v - 1 with v = (m - m/d)/2
    and v = (m + m/d)/2.  As d is odd, these are c*m/d with c = (d-1)/2
    and (d+1)/2.  Raises DivisibilityError naming every missing divisor
    when m is not a multiple of what the sites require.
    """
    _at_least("modulus", m, 1)
    part, k = _conjecture_block(n)
    required = (2 * k + 1, 2 * k + 3)[:part]
    missing = tuple(d for d in required if m % d)
    if missing:
        raise DivisibilityError(m, missing)
    return [PredictedSite((v,) * n, v - 1, d)
            for d in required for v in ((m - m // d) // 2, (m + m // d) // 2)]


class Bound(_Record):
    """One side of a bound: its value at m, proof status and formula.

    ``value`` is None when the conjectured side is unavailable (the
    divisor the prediction needs does not divide m).
    """

    __slots__ = ("value", "status", "formula", "note")

    def __init__(self, value: int | Fraction | None,
                 status: str,  # "proven" | "conjectured"
                 formula: str, note: str | None = None):
        super().__init__(value, status, formula, note)


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
    _at_least("arity", n, 1)
    _at_least("modulus", m, 1)
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
        super().__init__(record, lower, upper)

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
        super().__init__(site, value, attains)


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
        super().__init__(record, part, block_index, side, predicted_value, site_checks, sites_exact)

    @property
    def search_value(self) -> int:
        return getattr(self.record, f"{self.side}_value")

    @property
    def attaining_count(self) -> int:
        return getattr(self.record, f"{self.side}_count")

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
    side = "max" if n % 2 else "min"
    search_value, count = getattr(record, f"{side}_value"), getattr(record, f"{side}_count")
    checks = []
    for site in sites:
        value = eval_closed(Instance(m, site.a, site.k))
        checks.append(SiteCheck(site, value, value == search_value))
    sites_exact = (count == len(sites) and all(c.attains for c in checks)) if part == 1 else None
    return ConjectureReport(record, part, block, side, m * f_value(n), tuple(checks), sites_exact)
