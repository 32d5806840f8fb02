"""Recurrence, bounds and conjecture-verification tests.

The initial values f(2..10) and f(11) = 148, confirmed against exhaustive
search, are acceptance criterion 8's.
"""

import math
import subprocess
import sys
from math import comb

import pytest

from floorsum import (
    DivisibilityError,
    DomainError,
    FloorSumError,
    Instance,
    InstanceTooLargeError,
    ResultCache,
    SearchSpace,
    box,
    case_b_conditions,
    delta,
    eval_closed_all_k,
    eval_direct,
    extremes,
    f_sequence,
    f_value,
    known_bounds,
    predicted_extremes,
    recurrence_residual,
    sequence_table,
    verify_bounds,
    verify_conjecture,
)
from floorsum.search import enumerate_multisets
from helpers import STARTED_ENV, n4_five_sum

# -------------------------------------------------------------- recurrence


def test_recurrence_residual_is_identically_zero():
    seq = f_sequence(30)
    for n in range(11, 31):
        assert recurrence_residual(seq, n) == 0
    with pytest.raises(DomainError):
        recurrence_residual(seq, 10)


def test_sign_pattern_observed_through_30():
    seq = f_sequence(30)
    for n in range(4, 31):
        value = seq[n - 2]
        assert (value > 0) == (n % 2 == 1), (n, value)


def test_integrality_observed_with_exceptions():
    # f(n) is an integer for 4 <= n <= 30 except n = 15 and n = 27
    # (denominator 3 there; the divisor those arities require is a
    # multiple of 3, so m*f(n) stays integral wherever it is predicted)
    seq = f_sequence(30)
    for n in range(4, 31):
        expected = 3 if n in (15, 27) else 1
        assert seq[n - 2].denominator == expected, (n, seq[n - 2])


def test_consistency_with_divisor_style_coefficients():
    # m*f(n) reproduces the divisor-form coefficients exactly:
    #   n=4: -3*floor(m/3), n=5: 6*floor(m/3) for 3 | m
    #   n=6: -9*floor(m/3) and -15*floor(m/5) for 15 | m
    #   n=7: 40*floor(m/5), n=8: -90*floor(m/5), n=9: 180*floor(m/5) for 5 | m
    for m in range(3, 31, 3):
        assert m * f_value(4) == -3 * (m // 3)
        assert m * f_value(5) == 6 * (m // 3)
    for m in (15, 30, 45):
        assert m * f_value(6) == -9 * (m // 3) == -15 * (m // 5)
    for m in range(5, 31, 5):
        assert m * f_value(7) == 40 * (m // 5)
        assert m * f_value(8) == -90 * (m // 5)
        assert m * f_value(9) == 180 * (m // 5)


def test_f_is_a_finite_sum_at_each_predicted_site_through_120():
    # d*f(n) = S_d(c^n, c - 1) with the subsets grouped by size, for the divisors
    # d and sites c of the conjecture module docstring: checked, not proven
    def site_sum(n, d, c):
        return sum((-1) ** (n - j) * comb(n, j) * ((t + j * c) // d)
                   for t in range(c) for j in range(n + 1))

    seq = f_sequence(120)
    for n in range(4, 121):
        k = (n + 1) // 4
        sites = [(2 * k + 1, k), (2 * k + 1, k + 1)]
        if n % 4 == 2:
            sites += [(2 * k + 3, k + 1), (2 * k + 3, k + 2)]
        for d, c in sites:
            assert site_sum(n, d, c) == d * seq[n - 2], (n, d, c)
            if n <= 10:
                assert site_sum(n, d, c) == eval_direct(Instance(d, (c,) * n, c - 1))


def diagonal(signs: list[int], d: int, v: int) -> int:
    """d*phi_n(v/d) = S_d(v^n, v - 1), with phi_n(x) = Phi_n(x, ..., x; x) =
    sum_j (-1)^(n-j) C(n,j) g(j*x, x) and signs[j] = (-1)^(n-j) C(n,j): O(n) operations."""
    return sum(c * (j * v // d * v + max(0, j * v % d + v - d)) for j, c in enumerate(signs))


def test_f_is_the_extremum_of_the_diagonal_over_its_breakpoints_through_64():
    # phi_n is piecewise linear with breakpoints v/d, d <= n+1, and d*phi_n(v/d) is an
    # integer, so L*phi_n(v/d) with L = lcm(1..n+1) puts every breakpoint over one
    # denominator.  Its max (odd n) or min (even n) is f(n): checked, not proven.
    for n, f in enumerate(f_sequence(64)[2:], start=4):
        signs = [(-1) ** (n - j) * comb(n, j) for j in range(n + 1)]
        lcm = math.lcm(*range(1, n + 2))
        values = [lcm // d * diagonal(signs, d, v) for d in range(1, n + 2) for v in range(d + 1)]
        assert (max(values) if n % 2 else min(values)) == lcm * f, n
        if n <= 6:
            for d in range(2, n + 2):
                for v in range(1, d):
                    assert diagonal(signs, d, v) == eval_direct(Instance(d, (v,) * n, v - 1))


def test_a_constant_site_attains_m_f_exactly_at_the_representations_of_m():
    # S_m(v^n, v - 1) = m*f(n) exactly when v = (m -/+ (i+j))/2 for some
    # m = i(2k+1) + j(2k+3), with j = 0 unless n = 4k+2.  The grid m <= 60 holds every
    # breakpoint of phi_n (denominators <= n+1 <= 24) and a point inside each piece
    # between two (their mediant, denominator <= 2n+2), so with the extremum above it
    # settles the rule at every m for these n (the conjecture module docstring).
    seq = f_sequence(23)
    for n in range(4, 24):
        k = (n + 1) // 4
        d, e = 2 * k + 1, 2 * k + 3
        signs = [(-1) ** (n - j) * comb(n, j) for j in range(n + 1)]
        for m in range(2, 61):
            js = range(m // e + 1) if n % 4 == 2 else [0]
            sums = {(m - j * e) // d + j for j in js if (m - j * e) % d == 0}
            attaining = {v for v in range(1, m) if diagonal(signs, m, v) == m * seq[n - 2]}
            assert attaining == {(m + s * r) // 2 for r in sums for s in (-1, 1)}, (n, m)


def test_f_sequence_rejects_small_n():
    with pytest.raises(DomainError):
        f_sequence(1)


def test_f_sequence_refuses_an_n_max_past_64_bits_at_once():
    # no list of n_max - 1 values is that long, so the request fails before any term
    for n_max, shown in ((2**63, str(2**63)), (10**4000, "(13288 bits)")):
        with pytest.raises(InstanceTooLargeError) as caught:
            f_sequence(n_max)
        assert str(caught.value) == f"n_max={shown} exceeds 64-bit range"
        with pytest.raises(InstanceTooLargeError) as caught:
            f_value(n_max)
        assert str(caught.value) == f"n={shown} exceeds 64-bit range"  # in its own terms


def test_f_value_rejects_small_n_in_its_own_terms():
    for n in (1, 0, -3):
        with pytest.raises(DomainError, match=f"^n must be >= 2, got {n}$"):
            f_value(n)


# ------------------------------------------------------------- known bounds


def test_known_bounds_examples():
    lower, upper = known_bounds(2, 7)
    assert (lower.value, upper.value) == (0, 3)
    assert lower.status == upper.status == "proven"

    lower, upper = known_bounds(3, 7)
    assert (lower.value, upper.value) == (-6, 2)

    lower, upper = known_bounds(4, 9)
    assert (lower.value, upper.value) == (-9, 16)
    assert lower.status == "conjectured" and upper.status == "proven"

    lower, upper = known_bounds(1, 10)
    assert (lower.value, upper.value) == (0, 9)


def test_known_bounds_for_larger_arities():
    lower, upper = known_bounds(5, 6)
    assert lower.value == -8 * 3 and lower.status == "proven"
    assert upper.value == 12 and upper.status == "conjectured"
    assert lower.note is None  # m even: the proven side needs no caveat

    lower, upper = known_bounds(5, 7)  # 3 does not divide 7: conjectured side unavailable
    assert upper.value is None
    assert "unavailable" in upper.note
    assert lower.value == -8 * 3 and "m is even" in lower.note

    lower, upper = known_bounds(6, 15)
    assert lower.value == -45 and lower.status == "conjectured"
    assert upper.value == 16 * 7 and upper.status == "proven"


# --------------------------------------------------------- predicted sites


def test_predicted_sites_two_site_arities():
    sites = predicted_extremes(5, 6)
    assert [(s.a, s.k, s.divisor) for s in sites] == [
        ((2, 2, 2, 2, 2), 1, 3),
        ((4, 4, 4, 4, 4), 3, 3),
    ]
    sites = predicted_extremes(4, 6)
    assert [(s.a[0], s.k) for s in sites] == [(2, 1), (4, 3)]
    sites = predicted_extremes(7, 10)
    assert [(s.a[0], s.k, s.divisor) for s in sites] == [(4, 3, 5), (6, 5, 5)]


def test_predicted_sites_four_site_arities():
    sites = predicted_extremes(6, 15)
    assert [(s.a[0], s.k, s.divisor) for s in sites] == [
        (5, 4, 3), (10, 9, 3), (6, 5, 5), (9, 8, 5),
    ]


def test_predicted_sites_divisors_per_block():
    # n = 4k-1, 4k, 4k+1 need 2k+1; n = 4k+2 needs 2k+1 and 2k+3
    for n in range(4, 30):
        k = (n + 1) // 4
        m = (2 * k + 1) * (2 * k + 3)
        divisors = {site.divisor for site in predicted_extremes(n, m)}
        expected = {2 * k + 1, 2 * k + 3} if n == 4 * k + 2 else {2 * k + 1}
        assert divisors == expected, n


def test_predicted_sites_equal_the_explicit_table_of_numerators():
    # the sites (c*m/d)^n at K = c*m/d - 1: c = k, k+1 over d = 2k+1, and for
    # n = 4k+2 also c = k+1, k+2 over d = 2k+3
    for n in range(4, 81):
        k = (n + 1) // 4
        numerators = [(k, 2 * k + 1), (k + 1, 2 * k + 1)]
        if n == 4 * k + 2:
            numerators += [(k + 1, 2 * k + 3), (k + 2, 2 * k + 3)]
        base = (2 * k + 1) * (2 * k + 3 if n == 4 * k + 2 else 1)
        for m in (base, 2 * base, 7 * base):
            expected = [((c * m // d,) * n, c * m // d - 1, d) for c, d in numerators]
            assert [(s.a, s.k, s.divisor) for s in predicted_extremes(n, m)] == expected, (n, m)


def test_predicted_sites_divisibility_errors():
    with pytest.raises(DivisibilityError, match="multiple of 3"):
        predicted_extremes(5, 5)
    with pytest.raises(DivisibilityError, match="3"):
        predicted_extremes(6, 10)  # 5 | 10 but 3 does not divide 10
    with pytest.raises(DomainError):
        predicted_extremes(3, 6)


# ------------------------------------------------------------ verification


def test_verify_bounds_examples():
    report = verify_bounds(1, 10)
    assert report.lower_verdict == report.upper_verdict == "holds-with-equality"
    assert not report.proven_violation and report.witnesses == ()

    report = verify_bounds(4, 12)
    assert report.record.min_value == -12 and report.record.max_value == 24
    assert report.lower_verdict == "holds-with-equality"
    assert report.upper_verdict == "holds-with-equality"
    # every verdict follows the record: a min below the conjectured lower
    # side breaks no proven one, so there is nothing to witness
    doctored = report.replace(record=report.record.replace(min_value=-100))
    assert doctored.lower_verdict == "VIOLATED"
    assert doctored.upper_verdict == "holds-with-equality"
    assert not doctored.proven_violation and doctored.witnesses == ()
    # a broken proven side counts even when the record lists no sites for it
    doctored = report.replace(record=report.record.replace(max_value=100, max_sites=()))
    assert doctored.proven_violation and doctored.witnesses == ()

    report = verify_bounds(2, 7)
    assert report.upper_verdict == "holds-with-equality"
    assert report.lower_verdict == "holds-with-equality"  # min 0 is attained

    report = verify_bounds(5, 7)  # conjectured upper unavailable at 3-free m
    assert report.upper_verdict == "unavailable"
    assert not report.proven_violation


def test_no_proven_bound_is_ever_exceeded():
    # any excess over a proven side would be a build-failing bug signal
    for n in range(1, 7):
        for m in range(1, 11):
            report = verify_bounds(n, m)
            assert not report.proven_violation, (n, m, report)
    # the proven +/-2^(n-2)*floor(m/2) sides also hold at odd m, where
    # the attainment theorem's even-m hypothesis is flagged in the note
    for n in (5, 6):
        for m in (7, 9, 11):
            report = verify_bounds(n, m)
            assert not report.proven_violation, (n, m, report)


def test_verifiers_search_through_the_cache(monkeypatch, tmp_path):
    cases = ((verify_bounds, 4, 12), (verify_conjecture, 5, 6))
    fresh = {}
    for verify, n, m in cases:
        path = tmp_path / f"{verify.__name__}.jsonl"
        fresh[verify] = verify(n, m, cache=ResultCache(path))
        assert fresh[verify] == verify(n, m)
        assert len(path.read_text().splitlines()) == 1

    def no_search(*args, **kwargs):
        raise AssertionError("a cached verdict must be served from the file")

    monkeypatch.setattr("floorsum.cache.extremes", no_search)
    for verify, n, m in cases:
        path = tmp_path / f"{verify.__name__}.jsonl"
        assert verify(n, m, cache=ResultCache(path)) == fresh[verify]
        assert len(path.read_text().splitlines()) == 1


def test_verify_conjecture_checks_divisibility_before_the_cache(tmp_path):
    path = tmp_path / "cache.jsonl"
    with pytest.raises(DivisibilityError):
        verify_conjecture(6, 17, cache=ResultCache(path))
    assert not path.exists()


def test_verify_conjecture_part_one():
    report = verify_conjecture(5, 6)
    assert report.part == 1 and report.block_index == 1
    assert report.side == "max"
    assert report.search_value == extremes(SearchSpace(5, 6)).max_value
    assert report.search_value == 12 and report.predicted_value == 12
    assert report.sites_exact is True and report.passed

    report = verify_conjecture(4, 9)
    assert report.side == "min"
    assert report.search_value == extremes(SearchSpace(4, 9)).min_value == -9
    assert report.sites_exact is True and report.passed

    report = verify_conjecture(7, 5)
    assert report.search_value == 40 and report.passed


def test_verify_conjecture_part_two_requires_containment_only():
    report = verify_conjecture(6, 15)
    assert report.part == 2
    assert report.search_value == -45 and report.passed
    assert report.sites_exact is None
    assert all(check.attains for check in report.site_checks)
    # "among other places": more attaining sites than the predicted four
    assert report.attaining_count > len(report.site_checks) == 4


def test_verify_conjecture_divisibility_error_propagates():
    with pytest.raises(DivisibilityError):
        verify_conjecture(5, 5)


# --------------------------------------------------------- argument floors

H = 10**5000  # str() refuses it with a plain ValueError


# Each call is written once, as its test id.
@pytest.mark.parametrize("call, error", [
    *((call, FloorSumError) for call in [
        "known_bounds(5, -H)", "known_bounds(-H, 5)", "known_bounds(H, 5)",
        "known_bounds(2**63, 5)",
        "predicted_extremes(4, -H)", "predicted_extremes(4, H + 1)",
        "f_sequence(-H)", "f_value(-H)", "recurrence_residual([], -H)",
        "verify_conjecture(-H, 5)", "verify_conjecture(4, H + 1)",
        "sequence_table(3, -H)", "enumerate_multisets(-H, 3)",
        "extremes(SearchSpace(2, 3), workers=-H)",
        "delta(-H, 1, 1, 1)", "delta(9, H + 1, 1, 1)", "delta(9, 1, 1, -H)",
        "box(9, 1, H + 1, 1, 1)", "case_b_conditions(-H, 1, 1, 1, 1)",
    ]),
    *((call, DomainError) for call in [
        "known_bounds(True, 6)", "known_bounds(5.5, 6)", "extremes(SearchSpace(2, 3), workers=1.5)",
        "f_sequence(10.5)", "sequence_table(3, 2.0)", "predicted_extremes(4.0, 6)",
        "eval_closed_all_k(5, (1, 'x'))", "delta(9, 1, 1, 1e100)", "box(9, 1, 1e100, 1, 1)",
    ]),
])
def test_every_floor_refuses_a_huge_or_non_int_argument_cleanly(call, error):
    with pytest.raises(error) as caught:
        eval(call)
    assert len(str(caught.value)) < 100


def test_known_bounds_refuses_an_arity_past_64_before_building_its_power():
    # 2^(2^35 - 2) alone needs 4 GiB; under a 1 GiB address-space cap, building it
    # would raise a bare MemoryError
    child = ("import resource\n"
             "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
             "from floorsum import FloorSumError, known_bounds\n"
             "try:\n"
             "    known_bounds(2**35, 5)\n"
             "except FloorSumError as exc:\n"
             "    print(type(exc).__name__, exc)\n")
    done = subprocess.run([sys.executable, "-c", child], env=STARTED_ENV,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "InstanceTooLargeError n=34359738368: 2^(n-2) exceeds 64-bit range\n"
    assert known_bounds(64, 2)[1].value == 2**62
    with pytest.raises(InstanceTooLargeError):
        known_bounds(65, 2)


def test_known_bounds_past_the_decimal_digit_limit_leave_the_conjecture_unavailable():
    lower, upper = known_bounds(5, H + 1)
    assert lower.value == -8 * ((H + 1) // 2)
    assert upper.value is None
    assert upper.note == "not sharp / unavailable: m=(16610 bits) must be a multiple of 3"


# ----------------------------------------------------------- n=4 identity


def test_identity_known_values():
    lhs, rhs, t = n4_five_sum(6, (5, 4, 3, 2), 2)
    assert lhs == rhs >= -2 * 3 - 2
    # both sides independently against the oracle
    assert lhs == eval_direct(Instance(6, (5, 4, 3, 2), 2))
    assert t[0] == eval_direct(Instance(6, (12, 2), 2))
    assert t[4] == eval_direct(Instance(6, (5, 2), 2))

    lhs, rhs, t = n4_five_sum(6, (0, 0, 0, 0), 1)
    assert lhs == rhs == 0 and all(v == 0 for v in t)

    # the grouping distinguishes a4, but the identity holds in any order
    for order in ((2, 5, 1, 4), (4, 1, 5, 2), (1, 4, 2, 5)):
        lhs, rhs, _ = n4_five_sum(6, order, 3)
        assert lhs == rhs == eval_direct(Instance(6, order, 3))
