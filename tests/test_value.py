"""The immutable value types share one base: fields are their __slots__, and
equality, hash, repr and immutability behave as for frozen dataclasses."""

import pytest

from q8bv import hhring
from q8bv.algebra import AlgebraElement
from q8bv.compare import BarChain
from q8bv.minres import MinCochain
from q8bv.checks import Check

VALUES = [
    AlgebraElement(5),
    MinCochain(1, 3),
    hhring.catalog()["u1"],
    BarChain.of(1, [(0, (1,), 0)]),
    Check("name", True),
]


def name(value):
    return type(value).__name__


@pytest.mark.parametrize("value", VALUES, ids=name)
def test_assigning_or_deleting_a_field_raises(value):
    assert type(value)._fields
    for field in type(value)._fields:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
        with pytest.raises(AttributeError):
            delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = None


def test_equality_hash_and_repr_follow_the_fields_in_order():
    assert MinCochain(1, 3) == MinCochain(1, 3) != MinCochain(1, 2)
    assert hash(MinCochain(1, 3)) == hash(MinCochain(1, 3))
    assert MinCochain(1, 3) != BarChain(1, 3)  # same field values, another type
    assert repr(MinCochain(1, 3)) == "MinCochain(degree=1, bits=3)"
    assert repr(Check("c", True)) == "Check(name='c', passed=True, detail='')"
