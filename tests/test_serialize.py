"""Config round-trips and the polynomial text syntax."""

import copy
import pickle
from fractions import Fraction

import pytest

import nilharmonic.groups as groups
import nilharmonic.laplacian as laplacian
from nilharmonic.errors import ValidationError
from nilharmonic.groups import heisenberg, lattice, unitriangular
from nilharmonic.laplacian import generator_walk, lazy_generator_walk
from nilharmonic.polynomials import Polynomial
from nilharmonic.serialize import (
    measure_from_config,
    measure_to_config,
    parse_fraction,
    parse_polynomial,
    polynomial_to_obj,
    schema_from_config,
    schema_to_config,
)

H3 = heisenberg(1)
Z2 = lattice(2)


def test_schema_round_trips():
    for schema in (lattice(3), H3, heisenberg(2), unitriangular(4)):
        assert schema_from_config(schema_to_config(schema)) == schema


@pytest.mark.parametrize("cfg", [{"family": "heisenberg", "n": 1}, {"family": "lattice", "d": "3"},
                                 {"family": "unitriangular", "n": 4}], ids=str)
def test_every_load_of_a_group_is_one_schema(cfg):
    schema = schema_from_config(cfg)
    assert schema_from_config(dict(cfg)) is schema
    for twin in (pickle.loads(pickle.dumps(schema)), copy.copy(schema), copy.deepcopy(schema)):
        assert twin == schema and hash(twin) == hash(schema)


def test_schema_config_examples():
    assert schema_from_config({"family": "heisenberg", "n": 1}) == H3
    assert schema_from_config({"family": "lattice", "d": 3}) == lattice(3)
    assert schema_from_config({"family": "unitriangular", "n": 4}) == unitriangular(4)


@pytest.mark.parametrize(
    "cfg",
    [
        {"family": "free"},
        {"family": "lattice"},
        {"family": "heisenberg"},
        {},
        "lattice",
        {"family": "lattice", "d": "abc"},
        {"family": "lattice", "d": True},
        {"family": "heisenberg", "n": 2.9},
        {"family": ["lattice"], "d": 2},
    ],
)
def test_bad_schema_configs(cfg):
    with pytest.raises(ValidationError):
        schema_from_config(cfg)


def test_fraction_strings():
    assert parse_fraction("3/2") == Fraction(3, 2)
    assert parse_fraction("-7") == Fraction(-7)
    with pytest.raises(ValidationError):
        parse_fraction("1.5")
    with pytest.raises(ValidationError):
        parse_fraction("x")


def test_measure_round_trip():
    for mu in (
        generator_walk(H3),
        lazy_generator_walk(Z2),
        generator_walk(unitriangular(4)),
    ):
        cfg = measure_to_config(mu)
        assert all(isinstance(a["weight"], str) for a in cfg["atoms"])
        back = measure_from_config(mu.schema, cfg)
        assert back == mu


def test_schema_size_may_be_a_decimal_string():
    assert schema_from_config({"family": "lattice", "d": "3"}) == lattice(3)


def _walk_atoms(one):
    return [
        {"coords": [one, 0, 0], "weight": "1/4"},
        {"coords": [-1, 0, 0], "weight": "1/4"},
        {"coords": [0, 1, 0], "weight": "1/4"},
        {"coords": [0, -1, 0], "weight": "1/4"},
    ]


def _walk_config(**extra):
    cfg = measure_to_config(generator_walk(H3))
    cfg.update(extra)
    return cfg


def test_measure_config_validation():
    with pytest.raises(ValidationError):
        measure_from_config(H3, {"atoms": [{"coords": [1, 0, 0]}]})
    with pytest.raises(ValidationError):
        measure_from_config(H3, {})


def test_config_atoms_are_checked_by_the_measure_alone(monkeypatch):
    # the loader builds each atom from plain ints and Measure checks it once:
    # its generation test reads the checked coordinates
    cfg = _walk_config()
    checked = []
    check = groups._require_conforming

    def counted(schema, g, what="coordinate"):
        checked.append(g)
        check(schema, g, what)

    monkeypatch.setattr(groups, "_require_conforming", counted)
    monkeypatch.setattr(laplacian, "_require_conforming", counted)
    measure = measure_from_config(H3, cfg)
    assert len(checked) == 4 and set(checked) == set(measure.atoms)
    # a wrong coordinate count is refused with the message mul() gives
    short = _walk_config(atoms=[{**a, "coords": a["coords"][:2]} for a in _walk_atoms(1)])
    message = r"^element has 2 coordinates, schema heisenberg\(1\) expects 3$"
    with pytest.raises(ValidationError, match=message):
        measure_from_config(H3, short)


@pytest.mark.parametrize(
    "cfg",
    [
        # the H3 walk with one coordinate that int() would truncate or coerce to 1
        _walk_config(atoms=_walk_atoms(1.7)),
        _walk_config(atoms=_walk_atoms(True)),
        _walk_config(atoms=_walk_atoms("one")),
        _walk_config(atoms=[{"coords": "100", "weight": "1"}]),
        # +-2x and +-y generate an index-2 subgroup
        _walk_config(atoms=[{"coords": [s * 2, 0, 0], "weight": "1/4"} for s in (1, -1)]
                     + [{"coords": [0, s, 0], "weight": "1/4"} for s in (1, -1)]),
        _walk_config(atoms=[{**a, "weight": "0.25"} for a in _walk_atoms(1)]),
        _walk_config(atoms={"coords": [0, 0, 0], "weight": "1"}),
        _walk_config(atoms=[[0, 0, 0]]),
        # a zero denominator, and more digits than int() converts
        _walk_config(atoms=[{**a, "weight": "1/0"} for a in _walk_atoms(1)]),
        _walk_config(atoms=_walk_atoms("9" * 5000)),
    ],
)
def test_bad_measure_configs(cfg):
    with pytest.raises(ValidationError):
        measure_from_config(H3, cfg)


@pytest.mark.parametrize("radius", [0, 4, 8, "x", 4.0, None, True])
def test_retired_adaptedness_radius_is_ignored(radius):
    cfg = _walk_config()
    assert "adaptedness_radius" not in cfg
    assert measure_from_config(H3, {**cfg, "adaptedness_radius": radius}) == \
        measure_from_config(H3, cfg)


def test_polynomial_obj_round_trip():
    p = Fraction(3, 2) * Polynomial.coordinate(H3, 1) - Polynomial.coordinate(H3, 3)
    obj = polynomial_to_obj(p)
    assert obj["terms"] == [
        {"exponents": [1, 0, 0], "coeff": "3/2"},
        {"exponents": [0, 0, 1], "coeff": "-1"},
    ]
    assert Polynomial(H3, {tuple(t["exponents"]): Fraction(t["coeff"]) for t in obj["terms"]}) == p


def test_parse_basic_expressions():
    x, y, z = (Polynomial.coordinate(H3, i) for i in (1, 2, 3))
    assert parse_polynomial(H3, "x^2 - y^2") == x * x - y * y
    assert parse_polynomial(H3, "3/2*x*y + z - 1") == (
        Fraction(3, 2) * x * y + z - Polynomial(H3, {(0, 0, 0): 1})
    )
    assert parse_polynomial(H3, "-x + x") == Polynomial(H3)
    assert parse_polynomial(H3, "0").is_zero
    assert parse_polynomial(H3, "x*x*x") == x * x * x


def test_parse_lattice_and_unitriangular_names():
    x1, x2 = (Polynomial.coordinate(Z2, i) for i in (1, 2))
    assert parse_polynomial(Z2, "x1^3*x2 - 2*x2") == x1 * x1 * x1 * x2 - 2 * x2
    u3 = unitriangular(3)
    assert parse_polynomial(u3, "a_13 - a_12*a_23") == (
        Polynomial.coordinate(u3, 3) - Polynomial.coordinate(u3, 1) * Polynomial.coordinate(u3, 2)
    )


@pytest.mark.parametrize(
    "text",
    ["", "   ", "q + 1", "x^-2", "x +", "2//3", "x^", "(x)",
     pytest.param("9" * 5000, id="long-number"),
     pytest.param("x^" + "9" * 5000, id="long-exponent"),
     pytest.param("1/" + "9" * 5000, id="long-denominator")],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(ValidationError):
        parse_polynomial(H3, text)


def test_render_parse_round_trip():
    x, y, z = (Polynomial.coordinate(H3, i) for i in (1, 2, 3))
    samples = [
        x * x - y * y,
        Fraction(3, 2) * x * y + z - Polynomial(H3, {(0, 0, 0): 1}),
        -z,
        Polynomial(H3),
        Polynomial(H3, {(0, 0, 0): Fraction(-7, 5)}),
    ]
    for p in samples:
        assert parse_polynomial(H3, str(p)) == p
