"""The record contract: reprs, equality, hashing, ordering, immutability and
copies of the library's result records, and what importing the library loads."""

import copy
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import nilharmonic
from nilharmonic.groups import (
    CoordinateOrderReport,
    GroupElement,
    GroupSchema,
    ball,
    heisenberg,
    standard_generators,
    unitriangular,
)
from nilharmonic.laplacian import GrowthRow
from nilharmonic.linalg import Inconsistent
from nilharmonic.suite import SuiteRecord
from nilharmonic.verify import AgreementCheck, DerivativeCheck, GrowthProfileRow, HarmonicCheck

H3 = heisenberg(1)
G = GroupElement((1, 0, 0))
CHECK = HarmonicCheck(False, 3, G, Fraction(1, 2), Fraction(-1, 3))
DERIVATIVE = DerivativeCheck(True, 3, 10)

RECORDS = [
    G,
    CHECK,
    HarmonicCheck(True, 3),
    DERIVATIVE,
    AgreementCheck(True, DERIVATIVE, DERIVATIVE),
    GrowthProfileRow(1, Fraction(1), None),
    CoordinateOrderReport(2, (True,), True, True),
    GrowthRow(2, 6, Fraction(3, 2)),
    Inconsistent(row=3),
    SuiteRecord("group.associativity", True),
]


def test_reprs_are_pinned():
    # as the frozen dataclasses wrote them
    assert repr(H3) == (
        "GroupSchema(family='heisenberg', size=1, weights=(1, 1, 2), "
        "coord_names=('x', 'y', 'z'), law=((2, 0, 1),))"
    )
    assert repr(G) == "GroupElement(coords=(1, 0, 0))"
    assert str(G) == "(1, 0, 0)"
    assert repr(CHECK) == (
        "HarmonicCheck(passed=False, checked_points=3, witness=GroupElement(coords=(1, 0, 0)), "
        "lhs=Fraction(1, 2), rhs=Fraction(-1, 3))"
    )
    assert repr(HarmonicCheck(True, 3)) == (
        "HarmonicCheck(passed=True, checked_points=3, witness=None, lhs=None, rhs=None)"
    )
    assert repr(SuiteRecord("group.associativity", True)) == (
        "SuiteRecord(name='group.associativity', passed=True, detail='')"
    )
    assert repr(Inconsistent(row=3)) == "Inconsistent(row=3)"


def test_hashes_are_those_of_the_field_tuples():
    assert hash(H3) == hash((H3.family, H3.size, H3.weights, H3.coord_names, H3.law))
    for record in RECORDS:
        assert hash(record) == hash(tuple(record))
    assert hash(G) == hash(((1, 0, 0),))


def test_schema_equality_reads_the_five_fields():
    twin = GroupSchema("heisenberg", 1, (1, 1, 2), ("x", "y", "z"), ((2, 0, 1),))
    assert twin == H3 and twin is not H3 and hash(twin) == hash(H3)
    assert GroupSchema("heisenberg", 2, (1, 1, 2), ("x", "y", "z"), ((2, 0, 1),)) != H3
    assert GroupSchema("heisenberg", 1, (1, 1, 2), ("x", "y", "z")) != H3
    # a schema is equal only to a schema
    assert H3 != (H3.family, H3.size, H3.weights, H3.coord_names, H3.law)


@pytest.mark.parametrize("schema", [H3, heisenberg(2), unitriangular(4)], ids=str)
def test_sorting_elements_sorts_their_coordinates(schema):
    points = ball(schema, standard_generators(schema), 2)
    shuffled = random.Random(str(schema)).sample(points, len(points))
    assert [g.coords for g in sorted(shuffled)] == sorted(g.coords for g in shuffled)
    assert sorted(shuffled) == points


@pytest.mark.parametrize("record", [H3, *RECORDS], ids=lambda r: type(r).__name__)
def test_records_are_immutable(record):
    name = next(iter(record._fields if hasattr(record, "_fields") else vars(record)))
    with pytest.raises(AttributeError):
        setattr(record, name, 1)
    with pytest.raises(AttributeError):
        record.added = 1
    with pytest.raises(AttributeError):
        delattr(record, name)


def test_schema_messages_name_the_field():
    with pytest.raises(AttributeError, match="cannot assign to field 'size'"):
        H3.size = 2
    with pytest.raises(AttributeError, match="cannot delete field 'law'"):
        del H3.law
    assert H3.size == 1 and H3.law == ((2, 0, 1),)


@pytest.mark.parametrize("record", [H3, *RECORDS], ids=lambda r: type(r).__name__)
def test_copies_round_trip(record):
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert twin == record and hash(twin) == hash(record) and repr(twin) == repr(record)
        assert type(twin) is type(record)


def test_import_loads_no_code_generation_modules():
    # a fresh interpreter: the test process itself may have loaded them
    src = os.path.dirname(os.path.dirname(nilharmonic.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = (
        "import sys\n"
        "import nilharmonic, nilharmonic.suite, nilharmonic.serialize, nilharmonic.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    ).stdout
    assert out == "[]\n"
