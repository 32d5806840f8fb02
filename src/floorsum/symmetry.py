"""The mirror identity, and the shift-difference operator with its case table.

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
term max(0, a2+K-m+1) is active.  ``_case`` is that rule, the one place
it is written: ``delta`` and the table scan ``_case_counts`` (behind the
``delta-scan`` command) both classify through it.  The three-variable
difference S({a1,a2,a3},K) - S({a1+1,a2,a3},K-1) decomposes into three
such deltas, of the pairs (a1, (a2+a3) mod m), (a1, a2) and (a1, a3): the
first minus the other two (the tests check it on every cell with m <= 15).
"""

from __future__ import annotations

__all__ = ["delta", "DeltaRecord", "CASE_VALUES"]

from itertools import pairwise

from .core import Instance, _Record, eval_closed, eval_closed_all_k
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


def _case(m: int, a: int, b: int, k: int) -> tuple[bool, bool, int]:
    """(wraps, tail, case id) of the pair (a, b) at K: the one case rule."""
    wraps, tail = a + b >= m, b + k - m + 1 > 0
    return wraps, tail, 1 + tail + 2 * wraps


def delta(m: int, a1: int, a2: int, k: int) -> DeltaRecord:
    """Two-variable difference S({a1,a2},K) - S({a1+1,a2},K-1), classified.

    Defined only on the proven domain 1 <= K <= floor(m/2)-1 with
    0 <= a1, a2 <= m-1; out-of-range calls are errors, not
    extrapolations.
    """
    _at_least("modulus", m, 1)
    if not (0 <= a1 <= m - 1 and 0 <= a2 <= m - 1):
        raise DomainError(f"elements must be in [0, {_shown(m - 1)}], "
                          f"got ({_shown(a1)}, {_shown(a2)})")
    if not 1 <= k <= m // 2 - 1:
        raise DomainError(f"k must be in [1, {_shown(m // 2 - 1)}], got {_shown(k)}")
    value = eval_closed(Instance(m, (a1, a2), k)) - eval_closed(Instance(m, (a1 + 1, a2), k - 1))
    cond_sum, cond_tail, case_id = _case(m, a1, a2, k)
    if value != CASE_VALUES[case_id]:
        raise TableViolationError(
            f"delta({m}, {a1}, {a2}, {k}) = {value} but case {case_id} "
            f"requires {CASE_VALUES[case_id]}"
        )
    return DeltaRecord(value, case_id, cond_sum, cond_tail)


def _case_counts(ms: range) -> list[list[int]]:
    """[m, cells, case 1..4 counts, sorted case 2] for each m in ``ms``, over every
    ``delta(m, a1, a2, k)`` cell, once the widest pair of the last m is refused.

    One ``eval_closed_all_k`` sweep per pair gives S({a1, a2}, K) at every K, and
    S({a1+1, a2}, K-1) is read from the sweep of ((a1+1) mod m, a2), as only
    residues matter for n >= 2: only rows a1 and a1+1 are held.  A cell off its
    ``CASE_VALUES`` entry is recomputed by ``delta``, which raises its own error;
    if it does not, the two routes disagree, and that is raised naming both values.
    """
    top = ms[-1]
    Instance(top, (top - 1, top - 1), top - 1)
    table = []
    for m in ms:
        counts = [m] + [0] * 6  # m, cells, cases 1..4, sorted case 2
        rows = ([eval_closed_all_k(m, (a1 % m, a2)) for a2 in range(m)] for a1 in range(m + 1))
        for a1, (this_row, next_row) in enumerate(pairwise(rows)):
            for a2, here, shifted in zip(range(m), this_row, next_row):
                for k in range(1, m // 2):
                    case_id = _case(m, a1, a2, k)[2]
                    value = here[k] - shifted[k - 1]
                    if value != CASE_VALUES[case_id]:
                        raise TableViolationError(
                            f"delta({m}, {a1}, {a2}, {k}): all-K sweeps give {value}, "
                            f"delta gives {delta(m, a1, a2, k).value}")
                    counts[1 + case_id] += 1
                    counts[6] += a1 >= a2 and case_id == 2
        counts[1] = sum(counts[2:6])
        table.append(counts)
    return table
