"""Shared enumeration, hypothesis strategies and cross-check helpers for the test suite."""

from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Sequence

from hypothesis import strategies as st

from floorsum import DomainError, ExtremeRecord, Instance, eval_closed
from floorsum.core import _signed_subset_sums
from floorsum.search import enumerate_multisets


def iter_bounded(n_max, m_max, n_min=1):
    """Every bounded (m, A, K) cell with n_min <= n <= n_max, m <= m_max.

    A runs over multisets (nonincreasing tuples); K over [0, m-1].
    """
    for m in range(1, m_max + 1):
        for n in range(n_min, n_max + 1):
            for a in combinations_with_replacement(range(m - 1, -1, -1), n):
                for k in range(m):
                    yield m, a, k


@st.composite
def bounded_instances(draw, n_min=1, n_max=5, m_max=12):
    """A random bounded Instance (all elements and K in [0, m-1])."""
    m = draw(st.integers(1, m_max))
    n = draw(st.integers(n_min, n_max))
    a = tuple(draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n)))
    k = draw(st.integers(0, m - 1))
    return Instance(m, a, k)


@dataclass(frozen=True)
class SubsetTerm:
    """One signed term of the inclusion-exclusion expansion."""

    mask: int
    subset_sum: int
    sign: int


def subset_terms(a: Sequence[int]) -> list[SubsetTerm]:
    """The 2^n signed subset terms of a multiset, in mask order.

    ``sign`` is +1 exactly when the subset size has the parity of n.
    The evaluators work from the same expansion internally; this view
    exposes it for inspection.
    """
    values = tuple(a)
    if not values or min(values) < 0:
        raise DomainError("the multiset must be nonempty with elements >= 0")
    return [SubsetTerm(mask, s, sg)
            for mask, (sg, s) in enumerate(_signed_subset_sums(values))]


def n4_five_sum(m: int, a: Sequence[int], k: int) -> tuple[int, int, tuple[int, ...]]:
    """(lhs, rhs, terms) of the four-element five-sum regrouping

    S({a1,a2,a3,a4}, K) = S({a1+a2+a3, a4}, K) - S({a1+a2, a4}, K)
                        - S({a1+a3, a4}, K) - S({a2, a3, a4}, K) + S({a1, a4}, K)

    with every sum by ``eval_closed``; terms are the five right-hand sums in order.
    """
    a1, a2, a3, a4 = a
    groups = ((a1 + a2 + a3, a4), (a1 + a2, a4), (a1 + a3, a4), (a2, a3, a4), (a1, a4))
    terms = tuple(eval_closed(Instance(m, g, k)) for g in groups)
    rhs = terms[0] - terms[1] - terms[2] - terms[3] + terms[4]
    return eval_closed(Instance(m, tuple(a), k)), rhs, terms


def extreme_values_mirror_pruned(n: int, m: int) -> tuple[int, int]:
    """Max/min from the half-K sweep, completed by the mirror identity.

    Sweeps K in [0, ceil((m-1)/2) - 1] plus K = m-1.  Every skipped cell
    is the mirror image of a swept one with the same value, so for
    n >= 2 (where the identity is proven) the sweep already sees the
    full value set.  Uses the plain per-cell evaluator; this is a
    cross-check of the pruning argument, not a fast path.
    """
    if n < 2:
        raise DomainError("mirror pruning is only sound where the identity is proven (n >= 2)")
    ks = list(range(-(-(m - 1) // 2))) + [m - 1]
    max_value = None
    min_value = None
    for a in enumerate_multisets(n, m):
        for k in ks:
            v = eval_closed(Instance(m, a, k))
            if max_value is None or v > max_value:
                max_value = v
            if min_value is None or v < min_value:
                min_value = v
    return max_value, min_value


def reference_extremes(space) -> ExtremeRecord:
    """The record ``extremes`` must return, by walking every cell in
    enumeration order with ``eval_closed``: first ``cap`` sites, exact counts."""
    lo, hi = space.k_range
    cells = [((a, k), eval_closed(Instance(space.m, a, k)))
             for a in combinations_with_replacement(range(space.m - 1, -1, -1), space.n)
             for k in range(lo, hi + 1)]
    max_value = max(v for _, v in cells)
    min_value = min(v for _, v in cells)
    max_sites = [site for site, v in cells if v == max_value]
    min_sites = [site for site, v in cells if v == min_value]
    return ExtremeRecord(
        n=space.n, m=space.m, k_range=space.k_range, cap=space.cap,
        max_value=max_value, min_value=min_value,
        max_sites=tuple(max_sites[:space.cap]), min_sites=tuple(min_sites[:space.cap]),
        max_count=len(max_sites), min_count=len(min_sites))
