"""Exact evaluation of alternating floor-function sums.

The central object is the Jacobsthal--Tverberg sum

    S_m(A, K) = sum_{k=0}^{K} sum_{T subseteq A} (-1)^(n-|T|) * floor((k + sum(T)) / m)

for a modulus m >= 1, a multiset A of n >= 1 nonnegative integers and a
prefix bound K >= 0.  Three evaluation routes are provided:

* ``eval_direct`` -- the definitional double sum.  Slow (O(K * 2^n)) but
  free of any algebraic shortcut; it is the oracle every other evaluator
  is audited against.
* ``eval_closed`` -- a closed form over subset sums, valid for
  0 <= K <= m-1, with cost O(2^n) independent of K.
* ``eval_closed_all_k`` -- every K in [0, m-1] by inner-term rotation, O(n*m).

All arithmetic is exact.  Instances whose worst-case intermediates would
not fit in a signed 64-bit word are rejected up front instead of being
allowed to grow silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

from .exceptions import DomainError, InstanceTooLargeError

_I64_MAX = 2**63 - 1


def _check_width(m: int, a: Sequence[int], k: int) -> None:
    # Worst case: 2^n terms, each at most (floor(total/m)+1)*(K+1) + K + total.
    total = sum(a)
    worst = (1 << len(a)) * ((total // m + 1) * (k + 1) + k + total)
    if worst > _I64_MAX:
        raise InstanceTooLargeError(
            f"worst-case intermediate {worst} exceeds 64-bit range "
            f"(n={len(a)}, sum(A)={total}, K={k})"
        )


@dataclass(frozen=True)
class Instance:
    """A problem triple: modulus ``m``, multiset ``a``, prefix bound ``k``.

    The multiset is canonicalised to descending order on construction;
    the sum is symmetric in its elements.  A *bounded* instance (the
    range on which every bound theorem is stated) additionally has all
    elements and ``k`` in ``[0, m-1]``.
    """

    m: int
    a: tuple[int, ...]
    k: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise DomainError(f"modulus must be >= 1, got {self.m}")
        values = tuple(sorted(self.a, reverse=True))
        if not values:
            raise DomainError("the multiset must contain at least one element")
        if values[-1] < 0:
            raise DomainError(f"multiset elements must be >= 0, got {values[-1]}")
        if self.k < 0:
            raise DomainError(f"prefix bound must be >= 0, got {self.k}")
        _check_width(self.m, values, self.k)
        object.__setattr__(self, "a", values)

    @property
    def n(self) -> int:
        return len(self.a)

    @property
    def is_bounded(self) -> bool:
        return self.a[0] <= self.m - 1 and self.k <= self.m - 1


def _signed_subset_sums(a: Sequence[int]) -> list[tuple[int, int]]:
    """All 2^n pairs (sign, subset sum), sign = (-1)^(n - |T|).

    Entry j covers the subset whose mask is j: bit i set iff a[i] taken.
    """
    pairs = [(1, 0)]
    for v in a:
        # Leaving v out flips the sign (n grows, |T| does not); taking it
        # keeps the sign and shifts the sum.
        pairs = [(-sg, s) for sg, s in pairs] + [(sg, s + v) for sg, s in pairs]
    return pairs


def inner_term(m: int, a: Sequence[int], k: int) -> int:
    """The alternating subset-floor sum at a single k.

    For n=2 this is Jacobsthal's f_m({a1,a2}, k).  Summing it over
    k = 0..K gives S_m(A, K).
    """
    if m < 1:
        raise DomainError(f"modulus must be >= 1, got {m}")
    if k < 0:
        raise DomainError(f"k must be >= 0, got {k}")
    values = tuple(a)
    if not values or min(values) < 0:
        raise DomainError("the multiset must be nonempty with elements >= 0")
    _check_width(m, values, k)
    return sum(sg * ((k + s) // m) for sg, s in _signed_subset_sums(values))


def eval_direct(inst: Instance) -> int:
    """Definitional double sum; the oracle for every other evaluator.

    Equals ``sum(inner_term(inst.m, inst.a, k) for k in range(inst.k + 1))``;
    the subset sums are hoisted out of the k loop since they do not
    depend on k.
    """
    m = inst.m
    pairs = _signed_subset_sums(inst.a)
    return sum(sg * ((k + s) // m) for k in range(inst.k + 1) for sg, s in pairs)


def eval_closed(inst: Instance) -> int:
    """Closed form: inclusion-exclusion of one-element closed forms.

    S_m(A, K) = sum over subsets T of (-1)^(n-|T|) *
                [ floor(s_T/m)*(K+1) + max(0, (s_T mod m) + K - m + 1) ]

    where the bracket is the one-element sum S_m({s_T}, K), for any
    s_T >= 0.  Valid for 0 <= K <= m-1 (the range the one-element form
    is proven on); the empty subset contributes max(0, K-m+1) = 0 there,
    so it needs no special case.  Cost O(2^n), independent of K.
    """
    m, k = inst.m, inst.k
    if not 0 <= k <= m - 1:
        raise DomainError(f"closed form requires k in [0, {m - 1}], got {k}")
    acc = 0
    for sg, s in _signed_subset_sums(inst.a):
        acc += sg * ((s // m) * (k + 1) + max(0, s % m + k - m + 1))
    return acc


def eval_closed_all_k(m: int, a: Sequence[int]) -> list[int]:
    """Values [S_m(A, 0), ..., S_m(A, m-1)] in one pass over the inner term.

    Over one period k = 0..m-1 the inner term f_A(k) (``inner_term``) of
    one element a is [k + a >= m], and f_A is m-periodic, so adding an
    element b is one rotate-and-subtract: f_{A+b}(k) = f_A(k+b) - f_A(k).
    S_m(A, K) = f_A(0) + ... + f_A(K) are then the prefix sums.  Each
    step sums to 0 over a period, hence S_m(A, m-1) = 0 for n >= 2.

    Requires 0 <= a_i <= m-1; O(n*m) for all K.
    """
    if m < 1:
        raise DomainError(f"modulus must be >= 1, got {m}")
    values = tuple(a)
    if not values:
        raise DomainError("the multiset must contain at least one element")
    if min(values) < 0 or max(values) > m - 1:
        raise DomainError("eval_closed_all_k requires 0 <= a_i <= m-1")
    _check_width(m, values, m - 1)
    first, *rest = values
    f = [0] * (m - first) + [1] * first
    for b in rest:
        f = [x - y for x, y in zip(f[b:] + f[:b], f)]
    return list(accumulate(f))
