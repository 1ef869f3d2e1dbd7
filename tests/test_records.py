"""The package's seven value records behave as frozen values.

Each record is built from its fields, by position; two records of one
class with equal fields are equal and hash alike; a changed field, or a
record of another class, makes them unequal; the repr names every field in
order, at any length; and no field can be assigned or deleted.
"""
from __future__ import annotations

import copy
import pickle
import re
import sys
from fractions import Fraction

import pytest

from zetarat.numerics import Interval, Record
from zetarat.polynomials import PolySpec, explicit_poly
from zetarat.rows import RowMismatch, RowValidationReport
from zetarat.series import ZetaCombination
from zetarat.solver import ApproxResult, TriangularSystem

_MISMATCH = (3, "zeta", 3, Fraction(0), Fraction(3, 2))


def _core(z3):
    """A row core (series.IntCore) of orders 3 and 4, z3 the zeta(3) extra of order 3."""
    return (1, 1, [3, 0, 1], [0, 0, 0, z3, 0], [0, 0, 0, 1, 0], [0, 0, 0, 1, 2])


#: (class, field names in order, field values, the same with one field changed)
RECORDS = [
    (Interval, ("lo", "hi"), (Fraction(1, 3), Fraction(1, 2)), (Fraction(1, 3), Fraction(2, 3))),
    (
        PolySpec,
        ("coeffs",),
        ((Fraction(1), Fraction(-1, 2)),),
        ((Fraction(1), Fraction(1, 2)),),
    ),
    (
        ZetaCombination,
        ("constant", "terms"),
        (Fraction(1, 2), ((3, Fraction(2)),)),
        (Fraction(1, 2), ((4, Fraction(2)),)),
    ),
    (
        TriangularSystem,
        ("s", "n", "T", "core"),
        (4, 1, explicit_poly([1, 0]), _core(1)),
        (4, 1, explicit_poly([1, 0]), _core(2)),
    ),
    (
        ApproxResult,
        ("s", "n", "alpha", "beta", "weights", "theta_bound"),
        (3, 2, Fraction(5), Fraction(-7, 3), ((3, Fraction(1, 4)),), Fraction(1, 64)),
        (3, 2, Fraction(5), Fraction(-7, 3), ((3, Fraction(1, 4)),), Fraction(1, 32)),
    ),
    (
        RowMismatch,
        ("order", "component", "zeta_order", "row_value", "oracle_value"),
        _MISMATCH,
        (3, "zeta", 2, Fraction(0), Fraction(3, 2)),
    ),
    (
        RowValidationReport,
        ("mismatches",),
        ((RowMismatch(*_MISMATCH),),),
        ((),),
    ),
]

_IDS = [cls.__name__ for cls, *_ in RECORDS]


def _hashable(values) -> bool:
    try:
        hash(values)
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("cls, names, values, changed", RECORDS, ids=_IDS)
def test_equal_fields_give_equal_records_with_equal_hashes(cls, names, values, changed):
    a, b = cls(*values), cls(*values)
    assert a == b and not a != b
    if _hashable(values):
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    else:  # a field holds a dict or a list: unhashable, as the field values are
        with pytest.raises(TypeError):
            hash(a)


@pytest.mark.parametrize("cls, names, values, changed", RECORDS, ids=_IDS)
def test_a_changed_field_or_another_class_compares_unequal(cls, names, values, changed):
    a = cls(*values)
    assert a != cls(*changed) and not a == cls(*changed)
    assert a != values
    for other, _, other_values, _ in RECORDS:
        if other is not cls:
            assert a != other(*other_values)


@pytest.mark.parametrize("cls, names, values, changed", RECORDS, ids=_IDS)
def test_a_wrong_set_of_fields_is_refused(cls, names, values, changed):
    """One value too few or too many, an unknown keyword, or a field given
    both by position and by keyword: each is a TypeError.  A record that
    binds through Record.__init__ names its class and both counts."""
    if cls.__init__ is Record.__init__:
        for args in (values[:-1], (*values, values[-1])):
            message = f"{cls.__name__} takes {len(names)} fields, got {len(args)}"
            with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
                cls(*args)
    for args, kwargs in (
        (values[:-1], {}),
        ((*values, values[-1]), {}),
        (values, {"extra": 1}),
        (values, {names[0]: values[0]}),
    ):
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


@pytest.mark.parametrize("cls, names, values, changed", RECORDS, ids=_IDS)
def test_repr_names_every_field_in_order(cls, names, values, changed):
    record = cls(*values)
    fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in names)
    assert repr(record) == f"{cls.__name__}({fields})"


def test_repr_of_a_field_past_the_int_str_limit():
    """A Fraction field of more than CPython's default 4300 digits reprs in
    full, and the int-to-str limit is the same afterwards."""
    limit = sys.get_int_max_str_digits()
    x = Fraction(10**5000 + 1, 3)
    text = repr(Interval(x, x))
    assert sys.get_int_max_str_digits() == limit
    digits = "1" + "0" * 4999 + "1"
    assert text == f"Interval(lo=Fraction({digits}, 3), hi=Fraction({digits}, 3))"


@pytest.mark.parametrize("cls, names, values, changed", RECORDS, ids=_IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, names, values, changed):
    record = cls(*values)
    for name, value in zip(names, changed):
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == cls(*values)


@pytest.mark.parametrize("cls, names, values, changed", RECORDS, ids=_IDS)
def test_records_survive_copy_and_pickle(cls, names, values, changed):
    record = cls(*values)
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls and twin == record


def test_records_refuse_a_float_and_take_exact_values():
    """A float stands for its binary value (0.1 would become
    3602879701896397/36028797018963968), so the rational records refuse it
    and name it; ints, Fractions and strings such as "1/2" stay exact."""
    for make, value in (
        (lambda: explicit_poly([0.1]), "0.1"),
        (lambda: explicit_poly([1, 0.5]), "0.5"),
        (lambda: Interval(0.1, 1), "0.1"),
        (lambda: Interval(Fraction(0), 0.25), "0.25"),
        (lambda: Interval.point(0.5), "0.5"),
        (lambda: ZetaCombination.of(0.1, {3: Fraction(1, 2)}), "0.1"),
        (lambda: ZetaCombination.of(1, {3: 0.5}), "0.5"),
        (lambda: ZetaCombination.of(1, {3: 0.0}), "0.0"),
    ):
        with pytest.raises(TypeError, match=re.escape(f"{value} is a float")):
            make()
    assert explicit_poly([1, "1/2", Fraction(-3, 4)]).coeffs == (
        Fraction(1),
        Fraction(1, 2),
        Fraction(-3, 4),
    )
    assert Interval("1/3", 1) == Interval(Fraction(1, 3), Fraction(1))
    assert Interval.point("-2/7").scale(-7).shift("1/2") == Interval.point(Fraction(5, 2))
    assert ZetaCombination.of("1/2", {4: 2, 3: "-1/3", 2: 0}) == ZetaCombination(
        Fraction(1, 2), ((3, Fraction(-1, 3)), (4, Fraction(2)))
    )
