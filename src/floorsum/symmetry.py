"""Mirror transform and the shift-difference operators with their case tables.

The mirror identity S_m(A, K) = S_m(-A, m - 2 - K) on 0 <= K <= m-2, where
-A is the multiset of (m - a) mod m, is proven here for every bounded A
with n >= 2 elements.  Write s_T for the sum of T and f_A for the inner
term, f_A(k) = sum over T within A of (-1)^(n-|T|) floor((k + s_T)/m), so
S_m(A, K) = f_A(0) + ... + f_A(K).  Two facts hold for every n >= 1:
f_A is m-periodic, since k -> k + m adds sum_T (-1)^(n-|T|) = 0; and
adding an element b rotates and subtracts, f_{A+b}(k) = f_A(k+b) - f_A(k),
so only b mod m matters.

Lemma A.  S_m(A, m-1) = 0 for n >= 2.  By Hermite's identity,
sum_{k<m} floor((k + s)/m) = s, so S_m(A, m-1) = sum_T (-1)^(n-|T|) s_T.
An element a_i lies in T = U + a_i for each subset U of the other n-1
elements, with total sign sum_U (-1)^(n-1-|U|) = (1 - 1)^(n-1), which is
0 once n >= 2.  So f_A sums to 0 over each period: S_m(A, K) is
m-periodic in K, and S_m(A, -1) = S_m(A, m-1) = 0.

Lemma B.  f_{-A}(k) = -f_A(-1-k) for n >= 2.  If A holds a 0, adding it
is a rotation by 0, so f_A = 0, and -A holds a 0 too, so f_{-A} = 0.
Otherwise induct on n.  For one element 1 <= a <= m-1, f_a(k) = [k + a >= m]
over a period, so f_{m-a}(k) = [k >= a] = 1 - f_a(-1-k).  If
f_{-A}(k) = c - f_A(-1-k) for a constant c, then adding b to A adds m - b
to -A, a rotation by -b, and
f_{-(A+b)}(k) = f_{-A}(k-b) - f_{-A}(k) = f_A(-1-k) - f_A(-1-k+b)
= -f_{A+b}(-1-k): the constant cancels from n = 2 on.

The identity.  For 0 <= K <= m-1, Lemma B, periodicity and Lemma A give
S_m(-A, K) = -(f_A(-1) + ... + f_A(-1-K)) = -(f_A(m-1-K) + ... + f_A(m-1))
= S_m(A, m-2-K) - S_m(A, m-1) = S_m(A, m-2-K).  It fails for n = 1,
where S_m({a}, K) = max(0, K + a - m + 1): S_5({2}, 1) = 0, S_5({3}, 2) = 1.

The two-variable difference

    delta = S_m({a1, a2}, K) - S_m({a1+1, a2}, K-1)

always lies in {-1, 0, +1} on 1 <= K <= floor(m/2)-1 and is classified
into four cases by whether a1+a2 wraps past m and whether the a2 tail
term max(0, a2+K-m+1) is active.  The three-variable difference
decomposes into three such deltas.
"""

from __future__ import annotations

from .core import Instance, _Record, eval_closed
from .exceptions import DomainError, TableViolationError, _at_least, _shown

#: Proven difference value for each case id (wrap, tail) ->
#: (F,F)->1: 0, (F,T)->2: -1, (T,F)->3: +1, (T,T)->4: 0.
CASE_VALUES = {1: 0, 2: -1, 3: 1, 4: 0}


class DeltaRecord(_Record):
    """Value and case classification of one two-variable difference."""

    __slots__ = ("value", "case_id", "cond_sum", "cond_tail")

    def __init__(self, value: int, case_id: int,
                 cond_sum: bool,    # a1 + a2 >= m
                 cond_tail: bool):  # a2 + K - m + 1 > 0
        super().__init__(value, case_id, cond_sum, cond_tail)


class BoxRecord(_Record):
    """Three-variable difference and the three deltas it decomposes into.

    value = components[0].value - components[1].value - components[2].value
    """

    __slots__ = ("value", "components")

    def __init__(self, value: int, components: tuple[DeltaRecord, DeltaRecord, DeltaRecord]):
        super().__init__(value, components)


class CaseBConditions(_Record):
    """Truth values of the six predicates governing the +1 configuration.

    The three-variable difference can only equal +1 when the pair
    (a1, (a2+a3) mod m) gives +1 (c1a AND c1b) while both (a1, a2) and
    (a1, a3) give 0 (c2a XOR c2b, c3a XOR c3b).
    """

    __slots__ = ("c1a", "c1b", "c2a", "c2b", "c3a", "c3b")

    def __init__(self,
                 c1a: bool,   # a1 + ((a2+a3) mod m) >= m
                 c1b: bool,   # ((a2+a3) mod m) + K - m + 1 <= 0
                 c2a: bool,   # a1 + a2 >= m
                 c2b: bool,   # a2 + K - m + 1 <= 0
                 c3a: bool,   # a1 + a3 >= m
                 c3b: bool):  # a3 + K - m + 1 <= 0
        super().__init__(c1a, c1b, c2a, c2b, c3a, c3b)

    @property
    def plus_one_config(self) -> bool:
        return (self.c1a and self.c1b) and (self.c2a != self.c2b) and (self.c3a != self.c3b)


def mirror(inst: Instance) -> Instance:
    """Map (A, K) to (m - A mod m, m - 2 - K).

    Requires a bounded instance with 0 <= K <= m-2 (K = m-1 lies outside
    the identity's range).  Elements equal to 0 map to 0, keeping the
    image bounded.  The S value is equal for every n >= 2 (proven in
    the module docstring) and may differ for n = 1.
    """
    m = inst.m
    if not inst.is_bounded:
        raise DomainError("mirror requires a bounded instance (a_i, K <= m-1)")
    if not 0 <= inst.k <= m - 2:
        raise DomainError(f"mirror requires k in [0, {m - 2}], got {inst.k}")
    return Instance(m, tuple((m - v) % m for v in inst.a), m - 2 - inst.k)


def _check_delta_domain(m: int, pair: tuple[int, ...], k: int) -> None:
    _at_least("modulus", m, 1)
    if any(not 0 <= v <= m - 1 for v in pair):
        raise DomainError(f"elements must be in [0, {_shown(m - 1)}], "
                          f"got ({', '.join(map(_shown, pair))})")
    if not 1 <= k <= m // 2 - 1:
        raise DomainError(f"k must be in [1, {_shown(m // 2 - 1)}], got {_shown(k)}")


def delta(m: int, a1: int, a2: int, k: int) -> DeltaRecord:
    """Two-variable difference S({a1,a2},K) - S({a1+1,a2},K-1), classified.

    Defined only on the proven domain 1 <= K <= floor(m/2)-1 with
    0 <= a1, a2 <= m-1; out-of-range calls are errors, not
    extrapolations.
    """
    _check_delta_domain(m, (a1, a2), k)
    value = eval_closed(Instance(m, (a1, a2), k)) - eval_closed(Instance(m, (a1 + 1, a2), k - 1))
    cond_sum = a1 + a2 >= m
    cond_tail = a2 + k - m + 1 > 0
    case_id = 1 + cond_tail + 2 * cond_sum
    if value != CASE_VALUES[case_id]:
        raise TableViolationError(
            f"delta({m}, {a1}, {a2}, {k}) = {value} but case {case_id} "
            f"requires {CASE_VALUES[case_id]}"
        )
    return DeltaRecord(value, case_id, cond_sum, cond_tail)


def box(m: int, a1: int, a2: int, a3: int, k: int) -> BoxRecord:
    """Three-variable difference S({a1,a2,a3},K) - S({a1+1,a2,a3},K-1).

    Also computed as delta(a1, (a2+a3) mod m) - delta(a1, a2) -
    delta(a1, a3); the two routes must agree.
    """
    _check_delta_domain(m, (a1, a2, a3), k)
    direct = eval_closed(Instance(m, (a1, a2, a3), k)) - eval_closed(
        Instance(m, (a1 + 1, a2, a3), k - 1)
    )
    components = (
        delta(m, a1, (a2 + a3) % m, k),
        delta(m, a1, a2, k),
        delta(m, a1, a3, k),
    )
    decomposed = components[0].value - components[1].value - components[2].value
    if direct != decomposed:
        raise TableViolationError(
            f"box({m}, {a1}, {a2}, {a3}, {k}): direct {direct} != decomposition {decomposed}"
        )
    return BoxRecord(direct, components)


def case_b_conditions(m: int, a1: int, a2: int, a3: int, k: int) -> CaseBConditions:
    """Pure predicate report for the +1 configuration of the box operator.

    Intended for sorted a1 >= a2 >= a3 on floor(m/3) <= K <= floor(m/2)-1,
    but evaluates the predicates verbatim for any inputs.
    """
    _at_least("modulus", m, 1)
    s23 = (a2 + a3) % m
    return CaseBConditions(
        c1a=a1 + s23 >= m,
        c1b=s23 + k - m + 1 <= 0,
        c2a=a1 + a2 >= m,
        c2b=a2 + k - m + 1 <= 0,
        c3a=a1 + a3 >= m,
        c3b=a3 + k - m + 1 <= 0,
    )
