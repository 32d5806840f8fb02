"""The record contract shared by every record type: immutable values with
field equality within a type, hashing, a fixed repr, pickling and a
re-validating ``replace``."""

import copy
import inspect
import pickle
from fractions import Fraction

import pytest

from floorsum import (
    Bound,
    DomainError,
    Instance,
    SearchSpace,
    box,
    case_b_conditions,
    delta,
    extremes,
    known_bounds,
    predicted_extremes,
    verify_bounds,
    verify_conjecture,
)
from floorsum.cli import RunConfig
from floorsum.core import _Record

# One record of every type, built afresh by each call, and its repr as the
# dataclass-based records printed it.
RECORDS = {
    "Instance": (lambda: Instance(9, [6, 2, 6], 5), "Instance(m=9, a=(6, 6, 2), k=5)"),
    "SearchSpace": (lambda: SearchSpace(3, 5), "SearchSpace(n=3, m=5, k_range=(0, 4), cap=1000)"),
    "ExtremeRecord": (
        lambda: extremes(SearchSpace(2, 3, cap=1)),
        "ExtremeRecord(space=SearchSpace(n=2, m=3, k_range=(0, 2), cap=1), max_value=1, "
        "min_value=0, max_sites=(((2, 2), 0),), min_sites=(((2, 2), 1),), max_count=4, "
        "min_count=14)"),
    "PredictedSite": (lambda: predicted_extremes(4, 6)[0],
                      "PredictedSite(a=(2, 2, 2, 2), k=1, divisor=3)"),
    "Bound": (lambda: Bound(Fraction(7, 3), "conjectured", "m*f(n)"),
              "Bound(value=Fraction(7, 3), status='conjectured', formula='m*f(n)', note=None)"),
    "BoundsReport": (
        lambda: verify_bounds(1, 2),
        "BoundsReport(record=ExtremeRecord(space=SearchSpace(n=1, m=2, k_range=(0, 1), "
        "cap=1000), max_value=1, min_value=0, max_sites=(((1,), 1),), min_sites=(((1,), 0), "
        "((0,), 0), ((0,), 1)), max_count=1, min_count=3), lower=Bound(value=0, "
        "status='proven', formula='0', note=None), upper=Bound(value=1, status='proven', "
        "formula='m-1', note=None))"),
    "SiteCheck": (
        lambda: verify_conjecture(4, 3).site_checks[1],
        "SiteCheck(site=PredictedSite(a=(2, 2, 2, 2), k=1, divisor=3), value=-3, attains=True)"),
    "ConjectureReport": (
        lambda: verify_conjecture(4, 3),
        "ConjectureReport(record=ExtremeRecord(space=SearchSpace(n=4, m=3, k_range=(0, 2), "
        "cap=1000), max_value=3, min_value=-3, max_sites=(((2, 2, 2, 1), 0), ((2, 2, 1, 1), 0), "
        "((2, 2, 1, 1), 1), ((2, 1, 1, 1), 1)), min_sites=(((2, 2, 2, 2), 1), ((1, 1, 1, 1), 0)), "
        "max_count=4, min_count=2), part=1, block_index=1, side='min', "
        "predicted_value=Fraction(-3, 1), site_checks=(SiteCheck(site=PredictedSite("
        "a=(1, 1, 1, 1), k=0, divisor=3), value=-3, attains=True), SiteCheck(site="
        "PredictedSite(a=(2, 2, 2, 2), k=1, divisor=3), value=-3, attains=True)), "
        "sites_exact=True)"),
    "DeltaRecord": (lambda: delta(10, 3, 8, 2),
                    "DeltaRecord(value=0, case_id=4, cond_sum=True, cond_tail=True)"),
    "BoxRecord": (
        lambda: box(8, 3, 2, 1, 2),
        "BoxRecord(value=0, components=(DeltaRecord(value=0, case_id=1, cond_sum=False, "
        "cond_tail=False), DeltaRecord(value=0, case_id=1, cond_sum=False, cond_tail=False), "
        "DeltaRecord(value=0, case_id=1, cond_sum=False, cond_tail=False)))"),
    "CaseBConditions": (
        lambda: case_b_conditions(9, 6, 5, 4, 3),
        "CaseBConditions(c1a=False, c1b=True, c2a=True, c2b=True, c3a=True, c3b=True)"),
    "RunConfig": (
        lambda: RunConfig("search", n=3, m=5, k_lo=0, k_hi=4, cap=1000),
        "RunConfig(command='search', fmt='human', workers=1, cache_path=None, n=3, m=5, "
        "n_max=None, m_max=None, k=None, k_lo=0, k_hi=4, a=None, cap=1000)"),
}
NAMES = list(RECORDS)


def _fields(record) -> tuple:
    return tuple(getattr(record, name) for name in type(record).__slots__)


@pytest.mark.parametrize("name", NAMES)
def test_a_record_equals_and_hashes_as_an_equal_record_of_its_own_type_only(name):
    build, _ = RECORDS[name]
    record, again = build(), build()
    assert type(record).__name__ == name
    assert record is not again and record == again and hash(record) == hash(again)
    other = RECORDS[NAMES[(NAMES.index(name) + 1) % len(NAMES)]][0]()
    assert record != other and other != record
    assert record != _fields(record)
    assert record.__eq__(_fields(record)) is NotImplemented


@pytest.mark.parametrize("name", NAMES)
def test_a_record_prints_as_it_did_as_a_dataclass(name):
    build, text = RECORDS[name]
    assert repr(build()) == text


def test_an_int_field_past_the_decimal_digit_limit_prints_as_its_bit_length():
    # repr of such an int raises ValueError; the record prints it as _shown does
    assert repr(known_bounds(5, 10**5000 + 1)) == (
        "(Bound(value=-(16612 bits), status='proven', formula='-2^(n-2)*floor(m/2)', "
        "note='proof stated under the hypothesis that m is even'), Bound(value=None, "
        "status='conjectured', formula='m*f(n)', note='not sharp / unavailable: "
        "m=(16610 bits) must be a multiple of 3'))")


@pytest.mark.parametrize("name", NAMES)
def test_a_record_refuses_assignment_and_deletion(name):
    record = RECORDS[name][0]()
    for field in type(record).__slots__:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert repr(record) == RECORDS[name][1]


@pytest.mark.parametrize("name", NAMES)
def test_a_record_survives_pickle_and_copy(name):
    record = RECORDS[name][0]()
    for restored in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                     copy.deepcopy(record)):
        assert type(restored) is type(record) and restored == record
        assert repr(restored) == repr(record)


@pytest.mark.parametrize("name", NAMES)
def test_replace_with_no_changes_rebuilds_an_equal_record(name):
    record = RECORDS[name][0]()
    rebuilt = record.replace()
    assert rebuilt is not record and rebuilt == record


def test_replace_runs_the_checks_again():
    record = extremes(SearchSpace(3, 6))
    with pytest.raises(DomainError, match="not an int"):
        record.replace(max_value=float(record.max_value))
    with pytest.raises(DomainError, match="site cap must be >= 1, got 0"):
        SearchSpace(3, 6).replace(cap=0)
    with pytest.raises(DomainError, match="must be ints"):
        Instance(5, (2,), 1).replace(k=True)
    # it changes only the fields named, and canonicalises as construction does
    assert SearchSpace(3, 6).replace(cap=5) == SearchSpace(3, 6, cap=5)
    assert RunConfig("eval", m=5).replace(k=1) == RunConfig("eval", m=5, k=1)
    assert Instance(9, (1,), 0).replace(a=(2, 7, 5)).a == (7, 5, 2)
    assert SearchSpace(3, 6, (1, 2)).replace(k_range=None).k_range == (0, 5)


def test_replace_of_an_unknown_field_raises_type_error():
    with pytest.raises(TypeError):
        SearchSpace(3, 6).replace(size=4)


@pytest.mark.parametrize("name", NAMES)
def test_a_record_constructor_takes_its_fields_in_slot_order(name):
    record_type = type(RECORDS[name][0]())
    params = list(inspect.signature(record_type.__init__).parameters)
    assert params[0] == "self" and tuple(params[1:]) == record_type.__slots__


@pytest.mark.parametrize("name", NAMES)
def test_the_base_binds_exactly_one_value_per_field(name):
    record = RECORDS[name][0]()
    values = _fields(record)
    blank = object.__new__(type(record))
    with pytest.raises(TypeError):
        _Record.__init__(blank, *values, None)
    with pytest.raises(TypeError):
        _Record.__init__(blank, *values[:-1])
    _Record.__init__(blank, *values)
    assert blank == record and repr(blank) == repr(record)
