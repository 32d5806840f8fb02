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

Refined conjecture (this repository's claim, not the paper's; checked
exhaustively for n = 4..10, m = 2..16 by the acceptance suite, and at every
m for n = 4..7 by the finite certificate below): with k = floor((n+1)/4),
the conjectured-side extreme never passes m*f(n) at any m.  It equals m*f(n)
exactly when (2k+1) | m for n = 4k-1, 4k, 4k+1, and exactly when m lies in
the numerical semigroup <2k+1, 2k+3> for n = 4k+2.  Checked for n = 4..120
by the test suite, not proven: d*f(n) is S_d at the predicted site c^n,
K = c - 1, for d = 2k+1, c in {k, k+1} and, when n = 4k+2, d = 2k+3,
c in {k+1, k+2}:

    d*f(n) = sum_{t=0}^{c-1} sum_{j=0}^{n} (-1)^(n-j) C(n,j) floor((t + j*c)/d)

As S_{i*d}((i*c)^n, i*c - 1) = i*S_d(c^n, c - 1) (split t = i*t' + r, 0 <= r < i),
each predicted site then attains m*f(n) at every multiple m of its d.

Finite certificate (computer-assisted: it rests on the search engine's
records, whose pruning bound is proven in ``search.py`` and which the tests
check against ``eval_direct`` on small envelopes).  By the continuum form in
``core.py``, S_m(A, K) = m*Phi_n(A/m, (K+1)/m), with Phi_n continuous on the
box [0,1]^n x [0,1] and linear on each cell of the arrangement of the
hyperplanes sigma_T + c*kappa = q (c in {0, 1}, q an integer; the box facets
are among them).  So Phi_n takes its max and min over the box at vertices of
the arrangement.  A vertex solves B*(x, kappa) = q for an integer vector q and
a nonsingular 0/1 matrix B of order n+1, so by Cramer's rule its coordinates
lie in (1/D)*Z with D = |det B|, and by Hadamard's inequality (a 0/1 matrix of
order N bordered into a +-1 matrix of order N+1),

    D <= H(n+1) = floor((n+2)^((n+2)/2) / 2^(n+1)),  which is 6, 14, 32, 76 for n = 4..7.

A vertex is then a cell of the search at m = D: A = D*x, an entry D read as 0
by periodicity, and K = D*kappa - 1 (a vertex with kappa = 0 has Phi_n = 0).
Hence, with E(n, m) the conjectured-side extreme, E(n, m)/m <= max over
D <= H(n+1) of E(n, D)/D at every m (for the max; the min is mirrored), and
"never passes m*f(n)" holds at every m once it holds at every m <= H(n+1).
The searches find that it does for n = 4, 5, 6 (acceptance criterion 10) and
n = 7 (the acceptance module run as a script, in CI).

Equality then holds at every m exactly as the refined conjecture says, for
n = 4..7.  For n = 4, 5 and 7, with d = 2k+1, the searches at m <= H(n+1)
reach m*f(n) exactly at the multiples of d, each at the two constant sites
alone.  The set where Phi_n = f(n) is a union of faces of the arrangement, and
each vertex of such a face is a cell at its m = D <= H(n+1); so those vertices
are the sites' two points, c/d*(1, ..., 1; 1) for c = k, k+1, and the segment
between them is no such face, as its midpoint (1/2, ..., 1/2; 1/2) does not
reach f(n) (Phi_n is 2, -4 and -16 there for n = 4, 5, 7).  So E(n, m) = m*f(n)
exactly when d | m, at those two sites alone.

For n = 6 the searches reach m*f(6) = -3m at every m <= 32 except 1, 2, 4
and 7.  Every other m lies in <3, 5>, where a constant site reaches -3m by
the "if" half of the constant-site rule below.  So E(6, m) = -3m exactly
when m is not 1, 2, 4 or 7.

The same argument bounds the proven side E_p (the max for even n, the min
for odd n), as the vertices bound both the max and the min of Phi_n.  For
n = 4..7 the largest |E_p(n, D)|/D over D <= H(n+1) is 2^(n-3), reached at
exactly the even D (the same searches).  So |E_p(n, m)| <= 2^(n-3)*m at
every m, odd m included; at even m that is the paper's bound
2^(n-2)*floor(m/2), reached there (computer-assisted, as above).

Constant sites.  On the diagonal, S_m(v^n, v - 1) = m*phi_n(v/m), with
phi_n(x) = Phi_n(x, ..., x; x) = sum_j (-1)^(n-j) C(n,j) g(j*x, x) and g as
in ``core.py``.  phi_n is continuous and piecewise linear; its breakpoints
are the fractions q/j and q/(j+1), j <= n, so their denominators are at most
n+1 (proven).  With d = 2k+1 and e = 2k+3, the rule is: S_m(v^n, v - 1) =
m*f(n) exactly when v = (m -/+ (i+j))/2 for some m = i*d + j*e, i, j >= 0,
with j = 0 unless n = 4k+2.

  "If" (proven, given the finite sums above, checked for n <= 120).  For
  n = 4k+2, k/d and (k+1)/e are Farey neighbours ((k+1)*d - k*e = 1), as are
  (k+2)/e and (k+1)/d.  A fraction strictly between Farey neighbours has a
  denominator of at least the sum of theirs, 4k+4 = n+2, so no breakpoint
  lies between them: phi_n is linear on both intervals, and it is f(n) at
  every end, so f(n) on both.  Between Farey neighbours a/b and c/b', the
  fractions v/m are exactly v = i*a + j*c, m = i*b + j*b' with i, j >= 0; so
  v/m lies in [k/d, (k+1)/e] exactly when m = i*d + j*e and v = i*k +
  j*(k+1) = (m - (i+j))/2, and in the other interval when v = (m + (i+j))/2.
  For the other n, j = 0 and v/m is one of the predicted points k/d, (k+1)/d.

  "Only if" (checked).  It rests on f(n) being the extremum of phi_n, which
  the tests check over phi_n's breakpoints for n = 4..64.  Then phi_n - f(n)
  has one sign, so on each linear piece it is either zero throughout or zero
  at most at an end.  The set where phi_n = f(n) is thus fixed by phi_n at
  the breakpoints and at one point inside each piece, such as the mediant of
  its ends, whose denominator is at most 2n+2.  The tests evaluate every v/m
  with m <= 60 for n = 4..23, which holds all of these, and find f(n) only
  at the rule's v.  So for n = 4..23 the rule holds at every m, given those
  two finite checks; for n >= 24 its "only if" half is unchecked.

Proven side at odd m (checked, not proven).  For n >= 5 the proven side,
the min for odd n and the max for even n, is bounded by +-2^(n-2)*floor(m/2),
which (m/2)^n at K = m/2 - 1 reaches at even m.  At odd
m >= 2*floor(n/4) + 1 the searches find it to be +-(2^(n-2)*(m-1)/2 - c_n),
so the bound is not reached, with

    c_{2j} = ((2j-1)*C(2j-2, j-1) - 4^(j-1))/2,  c_{2j+1} = 2*c_{2j}

(c_n = 2, 7, 14, 38, 76, 187, 374 for n = 5..11).  It is attained exactly at
((m+1)/2)^i ((m-1)/2)^(n-i) with K = (m-3)/2 + t, for t in {0, 1} and
i + t in {ceil(n/2), floor(n/2) + 1}: two sites for odd n, four for even n.
Acceptance criterion 11 checks this for n = 5..11 at every odd m from that
onset to 25; below the onset (m = 3 for n = 8..11) the value differs.  The
tests also evaluate those sites for n = 5..12 at every odd m from the onset
to 151 and find the value at each: attainment, checked far past the
searches, not proven.
``known_bounds`` still reports the bound +-2^(n-2)*floor(m/2).

Periodic offsets (checked, not proven).  For n = 4, 5, 7, 8, 9, with
d = 2k+1, the conjectured-side extreme is E(n, m) = m*f(n) + delta_n(m),
where delta_n depends on m mod d alone from some m0(n) on:

    n = 4, m0 = 2:   delta = 0, 2, 2                  (m mod d = 0, 1, ...)
    n = 5, m0 = 3:   delta = 0, -4, -3
    n = 7, m0 = 5:   delta = 0, -12, -10, -6, -12
    n = 8, m0 = 5:   delta = 0, 36, 28, 28, 36
    n = 9, m0 = 10:  delta = 0, -62, -35, -56, -56

From m = max(m0, 3) on, the attaining sites lift: for each site (a, K) at m,
(a + c, K + c), with c = k or k+1 added to every element, attains at m + d;
and the attaining count depends on m mod d alone.  n = 4 at m = 2 is the
exception: its offset is already periodic there, but it has 9 sites against
8 at every later m = 2 (mod 3), and 6 of them do not lift.  Acceptance
criterion 12 checks all of this at every m <= 16.

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

from collections.abc import Sequence

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


def _recurrence_rhs(n: int, values: Sequence[Fraction]) -> Fraction:
    # values[i - 2] holds f(i), so f(n - j) is values[n - j - 2]
    return (
        10 * (n * n + n - 8) * values[n - 3]
        - 4 * (2 * n * n - 10 * n + 3) * values[n - 4]
        - 24 * (2 * n - 11) * values[n - 5]
        - 32 * (2 * n * n - 10 * n - 1) * values[n - 6]
        - 192 * (n - 1) * (n - 5) * values[n - 7]
        + 64 * (2 * n * n - 22 * n + 51) * values[n - 8]
        + 384 * (2 * n - 13) * values[n - 9]
        - 256 * (n - 3) * (n - 8) * values[n - 10]
        + 512 * (n - 9) * (n - 8) * values[n - 11]
    )


def f_sequence(n_max: int) -> list[Fraction]:
    """Exact values [f(2), ..., f(n_max)].

    Indices 2..10 are the fixed initial values; each later term is the
    recurrence right-hand side divided by -5(n+3)(n-2), which never
    vanishes for n >= 11.  An n_max past 2**63 - 1 raises
    ``InstanceTooLargeError``: no list of n_max - 1 values fits in memory.
    A smaller n_max whose list cannot be allocated raises ``MemoryError``
    before any term is computed.
    """
    _at_least("n_max", n_max, 2)
    if n_max > _I64_MAX:
        raise InstanceTooLargeError(f"n_max={_shown(n_max)} exceeds 64-bit range")
    from fractions import Fraction
    values = [None] * (n_max - 1)
    for i, pair in enumerate(_INITIAL[:n_max - 1]):
        values[i] = Fraction(*pair)
    for n in range(11, n_max + 1):
        values[n - 2] = _recurrence_rhs(n, values) / (-5 * (n + 3) * (n - 2))
    return values


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
    return -5 * (n + 3) * (n - 2) * values[n - 2] - _recurrence_rhs(n, values)


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
    m*f(n), available only when the required divisor divides m.  An n
    past 64, whose 2^(n-2) alone passes 2**63 - 1, raises
    ``InstanceTooLargeError`` before that power is built.
    """
    _at_least("arity", n, 1)
    _at_least("modulus", m, 1)
    if n > 64:
        raise InstanceTooLargeError(f"n={_shown(n)}: 2^(n-2) exceeds 64-bit range")
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
