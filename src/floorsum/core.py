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

All arithmetic is exact.  ``Instance`` is the one check of a triple, which
every evaluator takes or builds; it also rejects, up front, a triple whose
worst-case intermediates would not fit in a signed 64-bit word.

``_Record`` is the base of every record type in the package: an immutable
value whose fields are its ``__slots__``, set once by its own ``__init__``.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import accumulate

from .exceptions import DomainError, InstanceTooLargeError

_I64_MAX = 2**63 - 1


def _shown(value: int) -> str:
    # Past 256 bits, the bit length: decimal text of a huge int is slow, and
    # refused past 4300 digits.
    if -(1 << 256) < value < 1 << 256:
        return str(value)
    return f"{'-' if value < 0 else ''}({value.bit_length()} bits)"


def _check_width(m: int, n: int, total: int, k: int) -> None:
    """Refuse n elements summing to ``total`` at prefix bound ``k`` if the worst-case
    intermediate overflows 64 bits; no multiset is built, so any n is cheap."""
    # Worst case: 2^n terms, each at most (floor(total/m)+1)*(K+1) + K + total.
    # That bound is at least 1, so n >= 63 overflows whatever it is.
    term = (total // m + 1) * (k + 1) + k + total
    if n < 63 and (1 << n) * term <= _I64_MAX:
        return
    worst = _shown((1 << n) * term) if n <= 256 else f"({n + term.bit_length()} bits)"
    raise InstanceTooLargeError(
        f"worst-case intermediate {worst} exceeds 64-bit range "
        f"(n={_shown(n)}, sum(A)={_shown(total)}, K={_shown(k)})"
    )


# Sets a field from a record's ``__init__``; records refuse plain assignment.
_set = object.__setattr__


class _Record:
    """An immutable value record.  Its fields are its class's ``__slots__``, in
    order, and its class's ``__init__`` checks them and sets each once with
    ``_set``.  A record equals, and hashes as, a record of the same class with
    equal fields; ``replace`` and unpickling rebuild through ``__init__``, so
    its checks run again."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()

    def replace(self, **changes):
        """A copy with ``changes`` applied, built and checked by ``__init__``."""
        fields = {name: getattr(self, name) for name in self.__slots__}
        return self.__class__(**{**fields, **changes})


class Instance(_Record):
    """A problem triple: modulus ``m``, multiset ``a``, prefix bound ``k``, all
    plain ints.

    The multiset is canonicalised to descending order on construction;
    the sum is symmetric in its elements.  A *bounded* instance (the
    range on which every bound theorem is stated) additionally has all
    elements and ``k`` in ``[0, m-1]``.
    """

    __slots__ = ("m", "a", "k")

    def __init__(self, m: int, a: Sequence[int], k: int):
        values = sorted(a, reverse=True)
        if type(m) is not int or type(k) is not int:
            raise DomainError("m, k and every element of the multiset must be ints")
        for v in values:
            if type(v) is not int:
                raise DomainError("m, k and every element of the multiset must be ints")
        if m < 1:
            raise DomainError(f"modulus must be >= 1, got {_shown(m)}")
        if not values:
            raise DomainError("the multiset must contain at least one element")
        if values[-1] < 0:
            raise DomainError(f"multiset elements must be >= 0, got {_shown(values[-1])}")
        if k < 0:
            raise DomainError(f"prefix bound must be >= 0, got {_shown(k)}")
        _check_width(m, len(values), sum(values), k)
        _set(self, "m", m)
        _set(self, "a", tuple(values))
        _set(self, "k", k)

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
    k = 0..K gives S_m(A, K).  The arguments are checked as ``Instance`` checks them.
    """
    inst = Instance(m, a, k)
    return sum(sg * ((k + s) // m) for sg, s in _signed_subset_sums(inst.a))


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

    Checked as ``Instance(m, a, m - 1)``; requires 0 <= a_i <= m-1; O(n*m) for all K.
    """
    inst = Instance(m, a, m - 1)
    if not inst.is_bounded:
        raise DomainError("eval_closed_all_k requires 0 <= a_i <= m-1")
    first, *rest = inst.a
    f = [0] * (m - first) + [1] * first
    for b in rest:
        f = [x - y for x, y in zip(f[b:] + f[:b], f)]
    return list(accumulate(f))
