"""Property tests: the integer polynomial parser gives the polynomial, and on
malformed text the error message, of the ``Fraction`` parser it replaced.

Examples are capped at 100 per test, and the example database is off so a
run writes no files.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from nilharmonic.errors import ValidationError
from nilharmonic.groups import heisenberg, lattice, unitriangular
from nilharmonic.serialize import parse_polynomial

# dense_reference.py holds the Fraction parser the integer one replaced
import dense_reference as dense  # noqa: E402

SCHEMAS = [lattice(1), lattice(3), heisenberg(1), unitriangular(3), unitriangular(4)]
H3 = heisenberg(1)

SETTINGS = settings(max_examples=100, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.too_slow])

spaces = st.sampled_from(["", "", " ", "  ", "\t"])
# zero numerators and multi-digit parts, with and without a denominator
numbers = st.builds(
    lambda n, d: f"{n}/{d}" if d else str(n),
    st.integers(0, 10**20) | st.sampled_from([0, 1, 2]),
    st.sampled_from([None, None, 1, 2, 3, 4, 97, 10**15]),
)


@st.composite
def terms(draw, names):
    # several numbers, and a name may repeat: its exponents add
    factor = numbers | st.builds(
        lambda name, e: name if e is None else f"{name}^{e}",
        st.sampled_from(names), st.sampled_from([None, None, 0, 1, 2, 3]),
    )
    factors = draw(st.lists(factor, min_size=1, max_size=4))
    space = draw(spaces)
    return f"{space}*{space}".join(factors)


@st.composite
def texts(draw):
    schema = draw(st.sampled_from(SCHEMAS))
    body = draw(st.lists(terms(schema.coord_names), min_size=1, max_size=6))
    # a term and its negation cancel, wherever they meet
    body += draw(st.lists(st.sampled_from(body), max_size=3))
    signs = draw(st.lists(st.sampled_from(["+", "-"]), min_size=len(body), max_size=len(body)))
    lead, space = draw(st.sampled_from(["", "+", "-"])), draw(spaces)
    text = lead + body[0] + "".join(
        f"{space}{sign} {term}" for sign, term in zip(signs[1:], body[1:])
    )
    return schema, f"{space}{text}{space}"


def _outcome(parse, schema, text):
    try:
        p = parse(schema, text)
    except ValidationError as exc:
        return "error", str(exc)
    return "polynomial", (p.den, list(p.ints.items()))


@SETTINGS
@given(texts())
@example((H3, "2*3/4*x*x^2 - x^3*3/2 + 0*y - 1/2*z + z*1/2"))
@example((H3, "x - x + 1/2 - 1/2"))
def test_integer_parser_equals_the_fraction_parser(case):
    schema, text = case
    kind, found = _outcome(parse_polynomial, schema, text)
    assert kind == "polynomial"
    assert (kind, found) == _outcome(dense.parse_polynomial, schema, text)


# well-formed pieces, operators in every place, and what no token reads
PIECES = ["x", "y", "z", "w", "x1", "a_12", "_x", "2", "0", "37", "3/4", "/", "//", "*", "^",
          "^-", "+", "-", " ", "(", ")", "$", "é", "٣", "\n", "9" * 5000, "1/" + "9" * 5000]


@SETTINGS
@given(st.sampled_from(SCHEMAS + [H3] * 3), st.lists(st.sampled_from(PIECES), max_size=10))
@example(H3, ["x", "^"])
@example(H3, ["2", "//", "3"])
@example(H3, ["x", " ", "$", "x", "^"])
def test_integer_parser_fails_as_the_fraction_parser(schema, pieces):
    text = "".join(pieces)
    assert _outcome(parse_polynomial, schema, text) == _outcome(dense.parse_polynomial, schema, text)
