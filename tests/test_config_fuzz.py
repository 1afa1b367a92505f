"""Property tests: random JSON-like measure configs fail only with ValidationError.

Examples are capped at 100 so the test costs about a second, and the example
database is off so a run writes no files.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nilharmonic.errors import ValidationError
from nilharmonic.groups import heisenberg, lattice, unitriangular
from nilharmonic.laplacian import generator_walk
from nilharmonic.serialize import measure_from_config, measure_to_config

SCHEMAS = [lattice(1), lattice(2), heisenberg(1), heisenberg(2), unitriangular(3), unitriangular(4)]

json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=4)
    | st.from_regex(r"[-+]?[0-9]{1,3}", fullmatch=True)
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
weights = st.from_regex(r"-?[0-9]{1,2}(/[0-9])?", fullmatch=True) | json_scalars


@st.composite
def measure_configs(draw):
    """A generator-walk config with random fields swapped in, or any JSON value."""
    schema = draw(st.sampled_from(SCHEMAS))
    n = schema.n_coords
    coords = (
        st.lists(st.integers(-2, 2), min_size=n, max_size=n)
        | st.lists(st.integers(-2, 2) | json_scalars, min_size=n - 1, max_size=n + 1)
        | json_values
    )
    atom = st.fixed_dictionaries({"coords": coords, "weight": weights})
    cfg = measure_to_config(generator_walk(schema))
    for entry in cfg["atoms"]:
        if draw(st.integers(0, 3)) == 0:
            entry["coords"] = draw(coords)
        if draw(st.integers(0, 3)) == 0:
            entry["weight"] = draw(weights)
    cfg["atoms"] += draw(st.lists(atom, max_size=2))
    if draw(st.integers(0, 9)) == 0:
        cfg = draw(json_values | st.fixed_dictionaries({"atoms": json_values}))
    return schema, cfg


@settings(max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(measure_configs())
def test_measure_config_fuzz_raises_only_validation_error(case):
    schema, cfg = case
    try:
        measure_from_config(schema, cfg)
    except ValidationError:
        pass
