"""Evaluator tests: frozen examples plus properties audited by the oracle.

Expected values below were either computed by the definitional double
sum by hand or are asserted directly against ``eval_direct`` at test
time; the closed form is never used to generate its own expectations.
"""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floorsum import (
    DomainError,
    Instance,
    InstanceTooLargeError,
    eval_closed,
    eval_closed_all_k,
    eval_direct,
    inner_term,
)
from floorsum.core import _signed_subset_sums
from helpers import bounded_instances, continuum_phi, iter_bounded


# ---------------------------------------------------------------- examples


def test_inner_term_known_values():
    assert inner_term(5, (3,), 2) == 1  # floor(5/5) - floor(2/5)
    for k in range(10):
        assert inner_term(7, (0, 0), k) == 0
    assert inner_term(2, (1, 1, 1, 1), 0) == 4


def test_eval_direct_known_values():
    assert eval_direct(Instance(5, (3,), 4)) == 3  # 0+0+1+1+1
    assert eval_direct(Instance(4, (2, 2, 2), 1)) == -4


def test_modulus_one_collapses_for_n_at_least_two():
    for n in (2, 3, 4):
        for k in (0, 3):
            assert eval_direct(Instance(1, (5,) * n, k)) == 0


def test_eval_onevar_closed_known_values():
    # the closed form on one element, which may exceed m-1 (no periodicity)
    assert eval_closed(Instance(5, (7,), 2)) == 3
    assert eval_closed(Instance(5, (4,), 4)) == 4  # the n=1 maximum m-1 at a1=K=m-1
    for m, k in ((3, 2), (9, 0), (12, 11)):
        assert eval_closed(Instance(m, (0,), k)) == 0
    for m in range(1, 13):
        for a1 in range(3 * m + 2):
            for k in range(m):
                inst = Instance(m, (a1,), k)
                assert eval_closed(inst) == eval_direct(inst), inst


def test_eval_closed_known_values():
    assert eval_closed(Instance(4, (2, 2), 1)) == 2  # attains floor(m/2)
    assert eval_closed(Instance(6, (5, 2, 2), 2)) == -2
    assert eval_closed(Instance(5, (0, 0, 0), 3)) == 0


def test_reduce_instance():
    # replacing every element by its residue mod m leaves S unchanged for n >= 2
    assert eval_direct(Instance(5, (7, 3), 2)) == eval_direct(Instance(5, (2, 3), 2))
    assert eval_direct(Instance(3, (6, 6, 6), 1)) == eval_direct(Instance(3, (0, 0, 0), 1)) == 0


# ------------------------------------------------------------- validation


def test_instance_canonical_order_and_properties():
    inst = Instance(7, (1, 5, 3), 2)
    assert inst.a == (5, 3, 1)
    assert inst.n == 3
    assert inst.is_bounded
    assert not Instance(7, (9, 1), 2).is_bounded
    assert not Instance(7, (5, 1), 8).is_bounded


@pytest.mark.parametrize(
    "m, a, k",
    [(0, (1,), 0), (5, (), 0), (5, (-1, 2), 0), (5, (2,), -1)],
)
def test_instance_rejects_bad_arguments(m, a, k):
    with pytest.raises(DomainError):
        Instance(m, a, k)


@pytest.mark.parametrize("m, a, k", [
    (5.0, (2,), 1), (5, (2.0,), 1), (5, (3, 2.5), 1), (5, (2,), 1.0),
    (True, (0,), 0), (5, (True,), 1), (5, (3, False), 1), (5, (2,), True),
    (5, (1, "x"), 1), (5, (1, None), 1),
])
def test_instance_refuses_a_field_that_is_not_a_plain_int(m, a, k):
    with pytest.raises(DomainError, match="must be ints"):
        Instance(m, a, k)
    with pytest.raises(DomainError, match="must be ints"):
        inner_term(m, a, k)


def test_instance_messages_stay_short_past_the_decimal_digit_limit():
    huge = 10**5000  # str() refuses it with a plain ValueError
    for m, a, k, shown in [(-huge, (1,), 0, "modulus must be >= 1, got -(16610 bits)"),
                           (5, (2, -huge), 1, "elements must be >= 0, got -(16610 bits)"),
                           (5, (2,), -huge, "prefix bound must be >= 0, got -(16610 bits)")]:
        with pytest.raises(DomainError, match=re.escape(shown)):
            Instance(m, a, k)


def test_closed_forms_reject_k_outside_proven_range():
    with pytest.raises(DomainError):
        eval_closed(Instance(5, (2, 3), 5))
    with pytest.raises(DomainError):
        eval_closed(Instance(5, (3,), 5))
    # the oracle itself has no such restriction; each full k-period sums
    # to zero for n >= 2, so S at K = 2m-1 vanishes like at K = m-1
    assert eval_direct(Instance(5, (2, 3), 9)) == 0
    assert eval_direct(Instance(5, (2, 3), 5)) == inner_term(5, (2, 3), 5)


def test_reduce_rejects_one_element_multisets():
    # the one-element sum is not m-periodic: S_5({7},2)=3 but S_5({2},2)=0
    assert eval_direct(Instance(5, (7,), 2)) == 3
    assert eval_direct(Instance(5, (2,), 2)) == 0


def test_oversized_instances_are_rejected():
    with pytest.raises(InstanceTooLargeError):
        Instance(1, (2**62, 2**62), 2**40)
    with pytest.raises(InstanceTooLargeError):
        inner_term(1, (2**61,) * 4, 2**61)


@pytest.mark.parametrize("m, a, k, error", [
    (0, (1,), -1, DomainError),  # modulus
    (5, (), 4, DomainError),  # empty multiset
    (5, (3, -1), 4, DomainError),  # negative element
    (5, (3,), -1, DomainError),  # negative prefix bound
    (2, (1,) * 70, 1, InstanceTooLargeError),  # worst case beyond 64 bits
])
def test_every_evaluator_rejects_a_bad_triple_as_instance_does(m, a, k, error):
    with pytest.raises(error) as expected:
        Instance(m, a, k)
    evaluators = [lambda: inner_term(m, a, k)]
    if k == m - 1:  # the sweep checks the triple at K = m-1
        evaluators.append(lambda: eval_closed_all_k(m, a))
    for evaluate in evaluators:
        with pytest.raises(error) as raised:
            evaluate()
        assert str(raised.value) == str(expected.value)


# ------------------------------------------------------------- properties


def test_oracle_equivalence_exhaustive_small():
    # invariant envelope: every bounded instance with n <= 4, m <= 12
    for m, a, k in iter_bounded(n_max=4, m_max=12):
        inst = Instance(m, a, k)
        assert eval_closed(inst) == eval_direct(inst), (m, a, k)


def _continuum_value(inst: Instance) -> Fraction:
    """m * Phi_n(A/m, (K+1)/m), the right-hand side of the continuum form."""
    x = tuple(Fraction(v, inst.m) for v in inst.a)
    return inst.m * continuum_phi(x, Fraction(inst.k + 1, inst.m))


def test_continuum_form_exhaustive_small():
    for m, a, k in iter_bounded(n_max=4, m_max=7):
        inst = Instance(m, a, k)
        assert _continuum_value(inst) == eval_direct(inst), inst


@given(bounded_instances(n_max=7, m_max=40))
@settings(max_examples=150, deadline=None)
def test_continuum_form_property(inst):
    assert _continuum_value(inst) == eval_direct(inst)


@given(bounded_instances(n_max=4, m_max=10))
@settings(max_examples=100, deadline=None)
def test_direct_sum_matches_inner_terms(inst):
    assert eval_direct(inst) == sum(
        inner_term(inst.m, inst.a, k) for k in range(inst.k + 1)
    )


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_periodicity_in_the_elements(data):
    # n >= 2 only; elements sampled beyond m to exercise the reduction
    m = data.draw(st.integers(1, 8), label="m")
    n = data.draw(st.integers(2, 4), label="n")
    a = tuple(data.draw(st.lists(st.integers(0, 3 * m), min_size=n, max_size=n), label="a"))
    k = data.draw(st.integers(0, 2 * m), label="k")
    inst = Instance(m, a, k)
    assert eval_direct(inst) == eval_direct(Instance(m, tuple(v % m for v in a), k))


@given(bounded_instances(n_min=2, n_max=5, m_max=12))
@settings(max_examples=100, deadline=None)
def test_terminal_zero(inst):
    assert eval_closed(Instance(inst.m, inst.a, inst.m - 1)) == 0


@given(bounded_instances(n_min=2, n_max=5, m_max=10), st.randoms())
@settings(max_examples=100, deadline=None)
def test_symmetry_under_permutation(inst, rng):
    shuffled = list(inst.a)
    rng.shuffle(shuffled)
    assert inner_term(inst.m, shuffled, inst.k) == inner_term(inst.m, inst.a, inst.k)


@given(bounded_instances(n_min=2, n_max=6, m_max=12))
@settings(max_examples=150, deadline=None)
def test_magnitude_bound_checked_not_assumed(inst):
    # |S| <= 2^(n-2) * m on bounded instances with n >= 2
    assert abs(eval_closed(inst)) <= (1 << (inst.n - 2)) * inst.m
    # |f_A(k)| <= 2^(n-1): each rotate-and-subtract step at most doubles it
    assert abs(inner_term(inst.m, inst.a, inst.k)) <= 1 << (inst.n - 1)


def test_one_element_bounds_exhaustive():
    for m in range(1, 13):
        for a1 in range(m):
            for k in range(m):
                value = eval_closed(Instance(m, (a1,), k))
                assert 0 <= value <= m - 1
                if value == m - 1 and m > 1:
                    assert a1 == k == m - 1


def test_all_k_sweep_matches_pointwise_closed_form():
    for m, a, k in iter_bounded(n_max=4, m_max=10):
        if k == 0:  # one sweep per multiset is enough
            oracle = [eval_direct(Instance(m, a, kk)) for kk in range(m)]
            # the sweep treats the first element apart; try both orders
            assert eval_closed_all_k(m, a) == oracle, (m, a)
            assert eval_closed_all_k(m, a[::-1]) == oracle, (m, a)


@given(bounded_instances(n_min=1, n_max=6, m_max=12))
@settings(max_examples=150, deadline=None)
def test_all_k_sweep_property(inst):
    assert eval_closed_all_k(inst.m, inst.a)[inst.k] == eval_closed(inst)


def test_all_k_sweep_requires_reduced_elements():
    with pytest.raises(DomainError):
        eval_closed_all_k(5, (7, 3))


def test_subset_terms_structure():
    # entry j of the expansion is the subset whose mask is j
    a = (5, 3, 2)
    terms = _signed_subset_sums(a)
    assert len(terms) == 8
    total = sum(a)
    for mask, (sign, subset_sum) in enumerate(terms):
        picked = [a[i] for i in range(3) if mask >> i & 1]
        assert subset_sum == sum(picked) <= total
        assert sign == (1 if (len(a) - len(picked)) % 2 == 0 else -1)
        assert (sign == 1) == (len(picked) % 2 == len(a) % 2)
    # the expansion these terms spell out is exactly the inner sum
    for k in (0, 2, 7):
        assert inner_term(9, a, k) == sum(sign * ((k + s) // 9) for sign, s in terms)
