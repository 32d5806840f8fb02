"""Mirror identity and difference-operator tests.

The mirror identity and its Lemma A, S_m(A, m-1) = 0, are proven for
n >= 2 (see the symmetry module docstring).  Both are asserted against
the definitional oracle exhaustively on a small envelope and by
hypothesis at larger n; a counterexample fails with the witnessing
instance in the message.  The mirror map and the three-element
difference are test-side (``helpers.mirror``, ``helpers.box_cells``);
the case-B predicates are written out below.
"""

from itertools import chain

import pytest
from hypothesis import given, settings

from floorsum import CASE_VALUES, DomainError, Instance, delta, eval_closed, eval_direct
from floorsum.symmetry import _case
from helpers import bounded_instances, box_cells, iter_bounded, mirror


# ------------------------------------------------------------------ mirror


def test_mirror_known_values():
    assert mirror(5, (2, 3), 1) == ((3, 2), 2)
    assert eval_closed(Instance(5, (2, 3), 1)) == eval_closed(Instance(5, (3, 2), 2)) == 2

    assert mirror(5, (0, 4), 1) == ((1, 0), 2)  # 0 maps to 0 under mod-m reduction
    assert eval_closed(Instance(5, (0, 4), 1)) == eval_closed(Instance(5, (1, 0), 2)) == 0

    assert mirror(4, (2, 2), 1) == ((2, 2), 1)  # self-mirror at a_i = m/2, K = m/2-1


def test_mirror_is_an_involution():
    for m in range(2, 9):
        for a1 in range(m):
            for a2 in range(m):
                for k in range(m - 1):
                    assert mirror(m, *mirror(m, (a1, a2), k)) == (
                        tuple(sorted((a1, a2), reverse=True)), k)


def test_mirror_equality_exhaustive_where_proven():
    cells = chain(iter_bounded(n_min=2, n_max=3, m_max=12), iter_bounded(n_min=4, n_max=5, m_max=9))
    for m, a, k in cells:
        inst = Instance(m, a, k)
        if k <= m - 2:
            assert eval_direct(inst) == eval_direct(Instance(m, *mirror(m, a, k))), inst
        else:
            assert eval_direct(inst) == 0, inst  # Lemma A


@given(bounded_instances(n_min=2, n_max=8, m_max=12))
@settings(max_examples=200, deadline=None)
def test_mirror_lemmas_hold_by_hypothesis(inst):
    assert eval_direct(Instance(inst.m, inst.a, inst.m - 1)) == 0  # Lemma A
    if inst.k <= inst.m - 2:
        image = Instance(inst.m, *mirror(inst.m, inst.a, inst.k))
        assert eval_direct(inst) == eval_direct(image), inst


# ------------------------------------------------------------------- delta


def test_delta_known_values():
    rec = delta(6, 5, 2, 2)
    assert rec.value == 1 and rec.case_id == 3
    assert rec.cond_sum and not rec.cond_tail
    rec = delta(6, 1, 4, 2)
    assert rec.value == -1 and rec.case_id == 2
    rec = delta(10, 5, 2, 2)
    assert rec.value == 0 and rec.case_id == 1


def test_delta_rejects_out_of_range_arguments():
    with pytest.raises(DomainError):
        delta(10, 5, 2, 0)  # K >= 1 required
    with pytest.raises(DomainError):
        delta(10, 5, 2, 5)  # K <= floor(m/2)-1
    with pytest.raises(DomainError):
        delta(10, 10, 2, 2)  # elements must stay below m


def test_delta_matches_the_oracle_difference():
    for m, a1, a2, k in ((6, 5, 2, 2), (6, 1, 4, 2), (10, 5, 2, 2), (9, 8, 8, 3)):
        direct = eval_direct(Instance(m, (a1, a2), k)) - eval_direct(
            Instance(m, (a1 + 1, a2), k - 1)
        )
        assert delta(m, a1, a2, k).value == direct


# --------------------------------------------------------------------- box


@pytest.fixture(scope="module")
def box_sweep():
    # every cell of the proven domain with m <= 15, walked once for the tests
    # below: {(m, a1, a2, a3, K): (direct, (d1, d2, d3))}, with the decomposition
    # direct = d1 - d2 - d3 asserted on each
    cells = {}
    for where, direct, (d1, d2, d3) in box_cells(15):
        assert direct == d1 - d2 - d3, where
        cells[where] = direct, (d1, d2, d3)
    return cells


def test_box_known_values(box_sweep):
    assert box_sweep[6, 5, 2, 2, 2] == (-2, (0, 1, 1))  # -2 = 0 - 1 - 1
    oracle = eval_direct(Instance(6, (5, 2, 2), 2)) - eval_direct(Instance(6, (6, 2, 2), 1))
    assert oracle == -2
    assert box_sweep[6, 5, 2, 2, 2][1] == tuple(delta(6, 5, b, 2).value for b in (4, 2, 2))

    assert box_sweep[8, 5, 0, 0, 2][0] == 0  # zero elements collapse every sum
    oracle = eval_direct(Instance(7, (3, 2, 1), 1)) - eval_direct(Instance(7, (4, 2, 1), 0))
    assert box_sweep[7, 3, 2, 1, 1][0] == oracle


def test_box_decomposition_exhaustive(box_sweep):
    # the fixture asserts direct = d1 - d2 - d3 on every cell
    assert len(box_sweep) == 70_693


def test_box_case_a_upper_bound():
    # sorted elements, 1 <= K <= floor(m/3)-1: the difference is at most 1
    for (m, a1, a2, a3, k), direct, _ in box_cells(18):
        if a1 >= a2 >= a3 and k < m // 3:
            assert direct <= 1, (m, a1, a2, a3, k)


# ------------------------------------------------------------------ case B


def case_b_conditions(m, a1, a2, a3, k):
    """(c1a, c1b, c2a, c2b, c3a, c3b), the six predicates of the +1 configuration."""
    s23 = (a2 + a3) % m
    return (a1 + s23 >= m, s23 + k - m + 1 <= 0,
            a1 + a2 >= m, a2 + k - m + 1 <= 0,
            a1 + a3 >= m, a3 + k - m + 1 <= 0)


def plus_one_config(c1a, c1b, c2a, c2b, c3a, c3b):
    """The pair (a1, s23) gives +1 (c1a AND c1b) while (a1, a2) and (a1, a3) give 0."""
    return c1a and c1b and c2a != c2b and c3a != c3b


def test_case_b_conditions_known_values(box_sweep):
    # direct predicate evaluation: s23 = 3, so 3+3 >= 6 and 3+2-6+1 <= 0,
    # while both pair rows hit their tail condition only
    conditions = case_b_conditions(6, 3, 2, 1, 2)
    assert conditions == (True, True, False, True, False, True)
    assert plus_one_config(*conditions)
    assert box_sweep[6, 3, 2, 1, 2][0] == 1

    zeros = case_b_conditions(9, 0, 0, 0, 3)
    assert not zeros[0] and not plus_one_config(*zeros)


def test_case_b_conditions_gate_the_plus_one_value(box_sweep):
    # on the case-B strip the AND/XOR/XOR configuration holds exactly at
    # the box = +1 cells, and such cells exist (the check is not vacuous)
    hits = 0
    for (m, a1, a2, a3, k), (direct, _) in box_sweep.items():
        if 4 <= m <= 12 and a1 >= a2 >= a3 and k >= m // 3:
            config = plus_one_config(*case_b_conditions(m, a1, a2, a3, k))
            assert config == (direct == 1), (m, a1, a2, a3, k)
            hits += direct == 1
    assert hits > 0


def test_case_b_conditions_are_the_cases_of_the_box_components(box_sweep):
    # the six predicates are (wraps, not tail) of the three pairs the difference
    # decomposes into, each pair's difference is its case's value, and the +1
    # configuration is their case ids (3, 1|4, 1|4)
    for (m, a1, a2, a3, k), (_, components) in box_sweep.items():
        cases = [_case(m, a1, b, k) for b in ((a2 + a3) % m, a2, a3)]
        conditions = case_b_conditions(m, a1, a2, a3, k)
        assert conditions == tuple(v for wraps, tail, _ in cases
                                   for v in (wraps, not tail)), (m, a1, a2, a3, k)
        first, second, third = (case_id for _, _, case_id in cases)
        assert components == (CASE_VALUES[first], CASE_VALUES[second], CASE_VALUES[third])
        assert plus_one_config(*conditions) == (
            first == 3 and second in (1, 4) and third in (1, 4)), (m, a1, a2, a3, k)
