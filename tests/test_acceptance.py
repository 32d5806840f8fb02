"""Acceptance suite: one test per criterion, at the stated envelope.

All checks are exact (integer or rational equality, zero tolerance).
Each test prints a single PASS/FAIL line; run with ``pytest -v -s`` to
see them.  This module is slower than the unit tests (roughly a minute
in total) because the envelopes are part of the contract.

Run as a script, it runs criterion 10's finite certificate at n = 7, every
m <= H(8) = 76, for both sides (about a minute at two workers):

    PYTHONPATH=src python tests/test_acceptance.py
"""

import functools
import math
import random
from contextlib import contextmanager
from fractions import Fraction

from floorsum import (
    ExtremeRecord,
    Instance,
    SearchSpace,
    delta,
    eval_closed,
    eval_closed_all_k,
    eval_direct,
    extremes,
    f_sequence,
    f_value,
    mirror,
    predicted_extremes,
    recurrence_residual,
    sequence_table,
    verify_conjecture,
)
from floorsum.search import enumerate_multisets
from helpers import continuum_phi, iter_bounded, n4_five_sum

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


def test_criterion_1_oracle_equivalence():
    with criterion("1: closed form = definitional oracle "
                   "(exhaustive n<=4 m<=12; 10^5 random n in {4,5,6} m<=20)"):
        for m, a, k in iter_bounded(n_max=4, m_max=12):
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
            for a in enumerate_multisets(2, m):
                for v in eval_closed_all_k(m, a):
                    assert 0 <= v <= upper, (m, a)
        for m in range(1, 21):
            lower, upper = -2 * (m // 2), m // 3
            for a in enumerate_multisets(3, m):
                for v in eval_closed_all_k(m, a):
                    assert lower <= v <= upper, (m, a)
        for m in range(1, 15):
            upper, lower = 4 * (m // 2), -2 * (m // 2) - m // 3
            for a in enumerate_multisets(4, m):
                sweep = eval_closed_all_k(m, a)
                for k, v in enumerate(sweep):
                    assert lower <= v <= upper, (m, a, k)
                    lhs, rhs, _ = n4_five_sum(m, a, k)
                    assert lhs == rhs == v, (m, a, k)


def test_criterion_4_mirror_lemmas():
    with criterion("4: mirror identity exhaustive (n=2,3, m<=20, K<=m-2)"):
        for m in range(1, 21):
            for n in (2, 3):
                for a in enumerate_multisets(n, m):
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
                            assert record.case_id != 2, (m, a1, a2, k)


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


@functools.cache
def search_once(n: int, m: int) -> ExtremeRecord:
    """The record of every bounded cell of (n, m), searched once per process, at two workers."""
    return extremes(SearchSpace(n, m), workers=2)


def side(record: ExtremeRecord, top: bool) -> tuple:
    """(value, count, sites) of the record's max if ``top``, else of its min."""
    if top:
        return record.max_value, record.max_count, record.max_sites
    return record.min_value, record.min_count, record.min_sites


def equality_set(n: int, ms) -> dict:
    """Search the conjectured side (the max for odd n, the min for even n) at each m in
    ``ms``, assert that its extreme never passes m*f(n), and return {m: record} at each m
    where it equals m*f(n)."""
    f, sign = f_value(n), 1 if n % 2 else -1
    equal = {}
    for m in ms:
        record = search_once(n, m)
        extreme = side(record, n % 2)[0]
        # signed so that "never passes" reads extreme <= bound on both sides
        assert sign * extreme <= sign * m * f, (n, m, extreme)
        if extreme == m * f:
            equal[m] = record
    return equal


def test_criterion_9_refined_conjecture():
    with criterion("9: refined conjecture exhaustive for n=4..10, m=2..16: the "
                   "conjectured-side extreme never passes m*f(n), and equals it "
                   "exactly on (2k+1) | m, or on <2k+1, 2k+3> for n = 4k+2"):
        for n in range(4, 11):
            k = (n + 1) // 4
            if n % 4 == 2:
                tight = [m for m in range(2, 17) if any((m - i * (2 * k + 1)) % (2 * k + 3) == 0
                                                        for i in range(m // (2 * k + 1) + 1))]
            else:
                tight = [m for m in range(2, 17) if m % (2 * k + 1) == 0]
            assert sorted(equality_set(n, range(2, 17))) == tight, n


def hadamard_bound(order: int) -> int:
    """Hadamard's bound on |det B| for a 0/1 matrix B of that order:
    floor((order+1)^((order+1)/2) / 2^order)."""
    return math.isqrt((order + 1) ** (order + 1) // 4 ** order)


def assert_attained_at_two_constant_sites_alone(n: int, equal: dict) -> None:
    """For n = 4k-1, 4k, 4k+1 and d = 2k+1: ``equal``, the equality set of the searches at
    every m <= H(n+1), is the multiples of d, each attained by the two predicted constant
    sites alone, and the midpoint (1/2, ..., 1/2; 1/2) between their points does not
    attain f(n)."""
    d = 2 * ((n + 1) // 4) + 1
    assert sorted(equal) == list(range(d, hadamard_bound(n + 1) + 1, d)), (n, sorted(equal))
    for m, record in equal.items():
        _, count, sites = side(record, n % 2)
        assert count == 2, (n, m, count)
        assert set(sites) == {(site.a, site.k) for site in predicted_extremes(n, m)}, (n, m)
    half = Fraction(1, 2)
    assert continuum_phi((half,) * n, half) != f_value(n)


def assert_proven_side_bounded_at_every_m(n: int) -> None:
    """For the proven side E_p (the max for even n, the min for odd n): the largest
    |E_p(n, D)|/D over D <= H(n+1) is 2^(n-3), reached at exactly the even D.  By the
    certificate's argument, which holds for either side, |E_p(n, m)| <= 2^(n-3)*m at every m."""
    top, bound = hadamard_bound(n + 1), 1 << (n - 3)
    ratios = {m: Fraction(abs(side(search_once(n, m), n % 2 == 0)[0]), m)
              for m in range(1, top + 1)}
    assert max(ratios.values()) == bound, (n, max(ratios.values()))
    assert [m for m, ratio in ratios.items() if ratio == bound] == list(range(2, top + 1, 2))


def test_criterion_10_finite_certificate():
    with criterion("10: the conjectured side at every m from its searches at m <= H(n+1) "
                   "= 6, 14, 32 for n = 4, 5, 6: never passes m*f(n); equals it exactly on "
                   "3 | m, at the two constant sites alone, for n = 4, 5, and off "
                   "m = 1, 2, 4, 7 for n = 6; for n = 4, 5 each search's value and count "
                   "match an unpruned sweep of every multiset; and the proven side never "
                   "passes 2^(n-3)*m, reached at exactly the even m"):
        assert [hadamard_bound(n + 1) for n in range(4, 11)] == [6, 14, 32, 76, 195, 521, 1458]
        # why the searches at m <= H(n+1) bound every m: the ``conjecture`` module docstring
        for n in (4, 5, 6):
            equal = equality_set(n, range(1, hadamard_bound(n + 1) + 1))
            if n == 6:
                assert sorted(equal) == [m for m in range(1, 33) if m not in (1, 2, 4, 7)]
            else:
                assert_attained_at_two_constant_sites_alone(n, equal)
            assert_proven_side_bounded_at_every_m(n)
        for n in (4, 5):
            for m in range(1, hadamard_bound(n + 1) + 1):
                values = [v for a in enumerate_multisets(n, m) for v in eval_closed_all_k(m, a)]
                extreme = max(values) if n % 2 else min(values)
                searched = side(search_once(n, m), n % 2)[:2]
                assert (extreme, values.count(extreme)) == searched, (n, m)


def test_criterion_11_proven_side_at_odd_m():
    with criterion("11: the proven side at odd m >= 2*floor(n/4)+1 (n = 5..11, m <= 25) is "
                   "+-(2^(n-2)*(m-1)/2 - c_n), attained at near-constant sites alone"):
        for n in range(5, 12):
            j = n // 2
            c = ((2 * j - 1) * math.comb(2 * j - 2, j - 1) - 4 ** (j - 1)) // 2 * (1 + n % 2)
            for m in range(2 * (n // 4) + 1, 26, 2):
                value, count, sites = side(search_once(n, m), n % 2 == 0)
                sharp = (1 << (n - 2)) * (m - 1) // 2 - c
                assert value == (-sharp if n % 2 else sharp), (n, m, value)
                hi, lo = (m + 1) // 2, (m - 1) // 2
                witnesses = {((hi,) * i + (lo,) * (n - i), lo - 1 + t)
                             for t in (0, 1) for i in ((n + 1) // 2 - t, n // 2 + 1 - t)}
                assert count == len(sites) and set(sites) == witnesses, (n, m, sites)


# n: (m0, the offset E(n, m) - m*f(n) at each m >= m0, by m mod (2k+1) = 0, 1, ...)
PERIODIC_OFFSETS = {4: (2, (0, 2, 2)), 5: (3, (0, -4, -3)), 7: (5, (0, -12, -10, -6, -12)),
                    8: (5, (0, 36, 28, 28, 36)), 9: (10, (0, -62, -35, -56, -56))}


def test_criterion_12_periodic_offsets():
    with criterion("12: for n = 4, 5, 7, 8, 9 and m0 <= m <= 16 the conjectured side is m*f(n) "
                   "plus an offset periodic in m with period d = 2k+1; from m = max(m0, 3) each "
                   "attaining site, shifted by k or k+1, attains at m + d, and the attaining "
                   "count is constant on each residue class"):
        for n, (m0, offsets) in PERIODIC_OFFSETS.items():
            k = (n + 1) // 4
            d, f = 2 * k + 1, f_value(n)
            for m in range(m0, 17):
                value, count, sites = side(search_once(n, m), n % 2)
                assert value - m * f == offsets[m % d], (n, m, value)
                if m < 3 or m + d > 16:
                    continue
                _, lifted_count, lifted = side(search_once(n, m + d), n % 2)
                assert count == len(sites) == lifted_count, (n, m)
                for a, K in sites:
                    assert any((tuple(v + c for v in a), K + c) in lifted for c in (k, k + 1)), \
                        (n, m, a, K)
        # why the lift starts at m = 3 for n = 4: 9 sites at m = 2, 8 at every later m = 2 (mod 3)
        assert side(search_once(4, 2), False)[1] == 9


if __name__ == "__main__":
    found = equality_set(7, range(1, hadamard_bound(8) + 1))
    for m, record in found.items():
        print(f"m={m}: max {record.max_value} = m*f(7), attained at {record.max_count} site(s)")
    assert_attained_at_two_constant_sites_alone(7, found)
    print("n=7: the max never passes m*f(7) at any m <= 76, so at no m; it equals m*f(7) "
          "exactly at the multiples of 5 up to 76, each at the two constant sites alone, "
          "so at every m exactly when 5 | m")
    assert_proven_side_bounded_at_every_m(7)
    print("n=7: the min never passes -16m at any m <= 76, so at no m; it equals -16m "
          "exactly at the even m up to 76")
