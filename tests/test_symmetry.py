"""Mirror identity and difference-operator tests.

The mirror identity and its Lemma A, S_m(A, m-1) = 0, are proven for
n >= 2 (see the symmetry module docstring).  Both are asserted against
the definitional oracle exhaustively on a small envelope and by
hypothesis at larger n; a counterexample fails with the witnessing
instance in the message.
"""

from itertools import chain, product

import pytest
from hypothesis import given, settings

import floorsum.symmetry
from floorsum import (
    DomainError,
    Instance,
    TableViolationError,
    box,
    case_b_conditions,
    delta,
    eval_closed,
    eval_direct,
    mirror,
)
from helpers import bounded_instances, iter_bounded


def legal_delta_k(m):
    return range(1, m // 2)


# ------------------------------------------------------------------ mirror


def test_mirror_known_values():
    image = mirror(Instance(5, (2, 3), 1))
    assert image.a == (3, 2) and image.k == 2
    assert eval_closed(Instance(5, (2, 3), 1)) == eval_closed(image) == 2

    image = mirror(Instance(5, (0, 4), 1))
    assert image.a == (1, 0) and image.k == 2  # 0 maps to 0 under mod-m reduction
    assert eval_closed(Instance(5, (0, 4), 1)) == eval_closed(image) == 0

    fixed = mirror(Instance(4, (2, 2), 1))
    assert fixed == Instance(4, (2, 2), 1)  # self-mirror at a_i = m/2, K = m/2-1


def test_mirror_rejects_terminal_k_and_unbounded_instances():
    with pytest.raises(DomainError):
        mirror(Instance(5, (2, 3), 4))
    with pytest.raises(DomainError):
        mirror(Instance(5, (7, 3), 1))


def test_mirror_is_an_involution():
    for m in range(2, 9):
        for a1 in range(m):
            for a2 in range(m):
                for k in range(m - 1):
                    inst = Instance(m, (a1, a2), k)
                    assert mirror(mirror(inst)) == inst


def test_mirror_equality_exhaustive_where_proven():
    cells = chain(iter_bounded(n_min=2, n_max=3, m_max=12), iter_bounded(n_min=4, n_max=5, m_max=9))
    for m, a, k in cells:
        inst = Instance(m, a, k)
        if k <= m - 2:
            assert eval_direct(inst) == eval_direct(mirror(inst)), inst
        else:
            assert eval_direct(inst) == 0, inst  # Lemma A


@given(bounded_instances(n_min=2, n_max=8, m_max=12))
@settings(max_examples=200, deadline=None)
def test_mirror_lemmas_hold_by_hypothesis(inst):
    assert eval_direct(Instance(inst.m, inst.a, inst.m - 1)) == 0  # Lemma A
    if inst.k <= inst.m - 2:
        assert eval_direct(inst) == eval_direct(mirror(inst)), inst


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


def test_box_known_values():
    rec = box(6, 5, 2, 2, 2)
    assert rec.value == -2
    assert [c.value for c in rec.components] == [0, 1, 1]  # -2 = 0 - 1 - 1
    oracle = eval_direct(Instance(6, (5, 2, 2), 2)) - eval_direct(Instance(6, (6, 2, 2), 1))
    assert rec.value == oracle

    assert box(8, 5, 0, 0, 2).value == 0  # zero elements collapse every sum
    rec = box(7, 3, 2, 1, 1)  # direct/decomposition agreement is checked inside
    oracle = eval_direct(Instance(7, (3, 2, 1), 1)) - eval_direct(Instance(7, (4, 2, 1), 0))
    assert rec.value == oracle


def test_box_raises_when_its_deltas_disagree_with_the_direct_difference(monkeypatch):
    true_delta = floorsum.symmetry.delta

    def off_by_one(m, a1, a2, k):
        record = true_delta(m, a1, a2, k)
        return record.replace(value=record.value + 1)

    monkeypatch.setattr(floorsum.symmetry, "delta", off_by_one)
    # each of the three deltas gains 1, so the decomposition 0 - 1 - 1 loses 1
    with pytest.raises(TableViolationError) as caught:
        box(6, 5, 2, 2, 2)
    assert str(caught.value) == "box(6, 5, 2, 2, 2): direct -2 != decomposition -3"


@pytest.fixture(scope="module")
def box_sweep():
    # box() on every cell of the proven domain with m <= 15, walked once for the
    # two tests below: each cell with its components' (wraps, tail, case id)
    return [((m, a1, a2, a3, k), tuple((d.cond_sum, d.cond_tail, d.case_id)
                                       for d in box(m, a1, a2, a3, k).components))
            for m in range(1, 16) for a1, a2, a3 in product(range(m), repeat=3)
            for k in legal_delta_k(m)]


def test_box_decomposition_exhaustive(box_sweep):
    # box() itself raises if the two routes disagree
    assert len(box_sweep) == 70_693


def test_box_case_a_upper_bound():
    # sorted elements, 1 <= K <= floor(m/3)-1: the difference is at most 1
    for m in range(1, 19):
        for a1 in range(m):
            for a2 in range(a1 + 1):
                for a3 in range(a2 + 1):
                    for k in range(1, m // 3):
                        assert box(m, a1, a2, a3, k).value <= 1, (m, a1, a2, a3, k)


# ------------------------------------------------------------------ case B


def test_case_b_conditions_known_values():
    # direct predicate evaluation: s23 = 3, so 3+3 >= 6 and 3+2-6+1 <= 0,
    # while both pair rows hit their tail condition only
    report = case_b_conditions(6, 3, 2, 1, 2)
    assert report.c1a and report.c1b
    assert not report.c2a and report.c2b
    assert not report.c3a and report.c3b
    assert report.plus_one_config
    assert box(6, 3, 2, 1, 2).value == 1

    zeros = case_b_conditions(9, 0, 0, 0, 3)
    assert not zeros.c1a and not zeros.plus_one_config


def test_case_b_conditions_gate_the_plus_one_value():
    # on the case-B strip the AND/XOR/XOR configuration holds exactly at
    # the box = +1 cells, and such cells exist (the check is not vacuous)
    hits = 0
    for m in range(4, 13):
        for a1 in range(m):
            for a2 in range(a1 + 1):
                for a3 in range(a2 + 1):
                    for k in range(max(1, m // 3), m // 2):
                        value = box(m, a1, a2, a3, k).value
                        config = case_b_conditions(m, a1, a2, a3, k).plus_one_config
                        assert config == (value == 1), (m, a1, a2, a3, k)
                        hits += value == 1
    assert hits > 0


def test_case_b_conditions_are_the_cases_of_the_box_components(box_sweep):
    # the six predicates are (wraps, not tail) of the three deltas box
    # decomposes into, and the +1 configuration is their case ids (3, 1|4, 1|4)
    for where, components in box_sweep:
        report = case_b_conditions(*where)
        assert (report.c1a, report.c1b, report.c2a, report.c2b, report.c3a,
                report.c3b) == tuple(v for wraps, tail, _ in components
                                     for v in (wraps, not tail)), where
        first, second, third = (case_id for _, _, case_id in components)
        assert report.plus_one_config == (
            first == 3 and second in (1, 4) and third in (1, 4)), where
