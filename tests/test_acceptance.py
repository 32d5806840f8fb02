"""Acceptance suite: one test per criterion, at the stated envelope.

All checks are exact (integer or rational equality, zero tolerance).
Each test prints a single PASS/FAIL line; run with ``pytest -v -s`` to
see them.  This module is slower than the unit tests (roughly a minute
in total) because the envelopes are part of the contract.
"""

import random
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations_with_replacement

from floorsum import (
    Instance,
    SearchSpace,
    delta,
    eval_closed,
    eval_closed_all_k,
    eval_direct,
    extremes,
    f_sequence,
    mirror,
    recurrence_residual,
    sequence_table,
    verify_conjecture,
)
from helpers import n4_five_sum

# Published n=4 extreme sequences, m = 1..22.
N4_MAX = [0, 4, 3, 8, 7, 12, 11, 16, 15, 20, 19, 24,
          23, 28, 27, 32, 31, 36, 35, 40, 39, 44]
N4_MIN = [0, 0, -3, -2, -3, -6, -5, -6, -9, -8, -9, -12,
          -11, -12, -15, -14, -15, -18, -17, -18, -21, -20]


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {label}")
        raise
    print(f"[PASS] criterion {label}")


def multisets(n, m):
    return combinations_with_replacement(range(m - 1, -1, -1), n)


def test_criterion_1_oracle_equivalence():
    with criterion("1: closed form = definitional oracle "
                   "(exhaustive n<=3 m<=12; 10^5 random n in {4,5,6} m<=20)"):
        for m in range(1, 13):
            for n in (1, 2, 3):
                for a in multisets(n, m):
                    for k in range(m):
                        inst = Instance(m, a, k)
                        assert eval_closed(inst) == eval_direct(inst), inst
        rng = random.Random(20260810)
        for _ in range(100_000):
            n = rng.choice((4, 5, 6))
            m = rng.randint(1, 20)
            a = tuple(rng.randrange(m) for _ in range(n))
            inst = Instance(m, a, rng.randrange(m))
            assert eval_closed(inst) == eval_direct(inst), inst


def test_criterion_2_sequence_reproduction():
    with criterion("2: n=4 extreme sequences reproduced for m = 1..22"):
        maxima, minima = sequence_table(4, 22)
        assert maxima == N4_MAX
        assert minima == N4_MIN


def test_criterion_3_proven_bounds():
    with criterion("3: proven bounds (n=2 m<=25, n=3 m<=20, n=4 m<=14) "
                   "+ five-sum identity on every n=4 cell"):
        for m in range(1, 26):
            upper = m // 2
            for a in multisets(2, m):
                for v in eval_closed_all_k(m, a):
                    assert 0 <= v <= upper, (m, a)
        for m in range(1, 21):
            lower, upper = -2 * (m // 2), m // 3
            for a in multisets(3, m):
                for v in eval_closed_all_k(m, a):
                    assert lower <= v <= upper, (m, a)
        for m in range(1, 15):
            upper, lower = 4 * (m // 2), -2 * (m // 2) - m // 3
            for a in multisets(4, m):
                sweep = eval_closed_all_k(m, a)
                for k, v in enumerate(sweep):
                    assert lower <= v <= upper, (m, a, k)
                    lhs, rhs, _ = n4_five_sum(m, a, k)
                    assert lhs == rhs == v, (m, a, k)


def test_criterion_4_mirror_lemmas():
    with criterion("4: mirror identity exhaustive (n=2,3, m<=20, K<=m-2)"):
        for m in range(1, 21):
            for n in (2, 3):
                for a in multisets(n, m):
                    sweep = eval_closed_all_k(m, a)
                    mirrored = tuple(sorted(((m - v) % m for v in a), reverse=True))
                    mirrored_sweep = eval_closed_all_k(m, mirrored)
                    for k in range(m - 1):
                        image = mirror(Instance(m, a, k))
                        assert image.a == mirrored and image.k == m - 2 - k
                        assert sweep[k] == mirrored_sweep[m - 2 - k], (m, a, k)


def test_criterion_5_delta_table():
    with criterion("5: difference table exact for m<=25; "
                   "no case 2 under the sorted hypothesis"):
        for m in range(1, 26):
            for a1 in range(m):
                for a2 in range(m):
                    for k in range(1, m // 2):
                        record = delta(m, a1, a2, k)  # raises on any mismatch
                        assert record.value in (-1, 0, 1)
                        if a1 >= a2:
                            assert record.case.case_id != 2, (m, a1, a2, k)


def test_criterion_6_half_modulus_attainment():
    with criterion("6: +/-2^(n-2)*floor(m/2) attained at A={m/2}^n, K=m/2-1 "
                   "(even m<=12, n in {3..6})"):
        for m in range(2, 13, 2):
            for n in (3, 4, 5, 6):
                value = eval_closed(Instance(m, (m // 2,) * n, m // 2 - 1))
                expected = (1 << (n - 2)) * (m // 2)
                assert value == (expected if n % 2 == 0 else -expected), (n, m)


def test_criterion_7_conjecture_spot_checks():
    with criterion("7: conjectured extremes verified at the spot-check grid"):
        expected = [
            *(((4, m), -m) for m in (3, 6, 9, 12)),
            *(((5, m), 2 * m) for m in (3, 6)),
            ((6, 15), -45),
            ((7, 5), 40),
            ((8, 5), -90),
            ((9, 5), 180),
        ]
        for (n, m), value in expected:
            report = verify_conjecture(n, m)
            assert report.passed, (n, m, report)
            assert report.search_value == value, (n, m, report.search_value)
            if (n, m) == (6, 15):
                assert len(report.site_checks) == 4
                assert all(c.attains for c in report.site_checks)


def test_criterion_8_recurrence_and_cross_check():
    with criterion("8: f(2..10) verbatim, recurrence exact to n=20, "
                   "and search at (n=11, m=7) gives M = 7*f(11)"):
        seq = f_sequence(20)
        assert seq[:9] == [Fraction(0), Fraction(1, 3), Fraction(-1), Fraction(2),
                           Fraction(-3), Fraction(8), Fraction(-18), Fraction(36),
                           Fraction(-65)]
        for n in range(11, 21):
            assert recurrence_residual(seq, n) == 0
        record = extremes(SearchSpace(11, 7))
        assert record.max_value == 7 * seq[11 - 2] == 1036
