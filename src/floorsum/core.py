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

Continuum form.  Write x = A/m, kappa = (K+1)/m, sigma_T for the sum of the x_i
in T, and g(sigma, kappa) = floor(sigma)*kappa + max(0, {sigma} + kappa - 1).  Then
on every bounded cell

    S_m(A, K) = m * Phi_n(x, kappa),  Phi_n(x, kappa) = sum_{T subseteq A} (-1)^(n-|T|) * g(sigma_T, kappa),

as each bracket of ``eval_closed`` is m*g(sigma_T, kappa): with s = m*sigma,
floor(s/m)*(K+1) = m*floor(sigma)*kappa and max(0, s mod m + K - m + 1) =
m*max(0, {sigma} + kappa - 1).  g is continuous for 0 <= kappa <= 1: as sigma
rises to an integer q, (q-1)*kappa + max(0, {sigma} + kappa - 1) tends to
(q-1)*kappa + kappa = q*kappa, its value at q.  So Phi_n is continuous on
[0,1]^n x [0,1], 1-periodic in each x_i, and linear on each cell of the
arrangement of the hyperplanes sigma_T in Z and sigma_T + kappa in Z.  The
tests check the identity against ``eval_direct``.

All arithmetic is exact.  ``Instance`` is the one check of a triple, which
every evaluator takes or builds: it refuses a field that is not a plain int,
one below its floor (``exceptions._at_least``) and, up front, a triple whose
worst-case intermediates would not fit in a signed 64-bit word.

``_Record`` is the base of every record type in the package: an immutable
value whose fields are its ``__slots__``, bound once by the base's ``__init__``.
"""

from __future__ import annotations

__all__ = ["Instance", "eval_direct", "eval_closed", "eval_closed_all_k", "inner_term"]

from collections.abc import Sequence
from itertools import accumulate

from .exceptions import DomainError, InstanceTooLargeError, _at_least, _shown

_I64_MAX = 2**63 - 1


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


def _plain_ints(values) -> bool:
    """Whether every value is a plain int (a bool is not)."""
    return all(type(v) is int for v in values)


class _Record:
    """An immutable value record.  Its fields are its class's ``__slots__``, in
    the order of its constructor's parameters: the constructor checks and
    canonicalises its arguments and ends in one ``super().__init__(...)``,
    which binds the values to ``__slots__`` in order, so passing too many or
    too few raises ``TypeError``.  A record equals, and hashes as, a record of
    the same class with equal fields; ``replace`` and unpickling rebuild
    through ``__init__``, so its checks run again."""

    __slots__ = ()

    def __init__(self, *values):
        names = self.__slots__
        if len(values) != len(names):
            raise TypeError(f"{self.__class__.__qualname__} takes {len(names)} field "
                            f"values, got {len(values)}")
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)  # the class's own refuses

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        # an int field prints through _shown, as repr refuses one past 4300 digits
        fields = ", ".join(f"{name}={_shown(v) if type(v) is int else repr(v)}"
                           for name, v in zip(self.__slots__, self._values()))
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
        values = [*a]
        if not _plain_ints((m, k, *values)):
            raise DomainError("m, k and every element of the multiset must be ints")
        values.sort(reverse=True)
        _at_least("modulus", m, 1)
        if not values:
            raise DomainError("the multiset must contain at least one element")
        _at_least("multiset elements", values[-1], 0)
        _at_least("prefix bound", k, 0)
        _check_width(m, len(values), sum(values), k)
        super().__init__(m, tuple(values), k)

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
