"""Config files, JSON report payloads and the polynomial text syntax.

Rationals serialize as reduced strings like "3/2" (plain "3" for
integers).  Polynomials serialize as exponent/coefficient pairs in graded
order, so emitted JSON is canonical and byte-reproducible.  The pairs and the
"text" field come from one pass of ``polynomials.render_terms``, which reads
each monomial's sort key and factor text from a memo keyed by schema, bounded
in the monomials it holds over all schemas (``_RENDER_MONOMIALS``).
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from typing import Any, Mapping

from .errors import ValidationError
from .groups import COORD_NAME, GroupElement, GroupSchema, heisenberg, lattice, unitriangular
from .laplacian import Measure
from .polynomials import Exponents, Polynomial, _from_ints, render_terms

_FRACTION_RE = re.compile(r"^-?\d+(/\d+)?$")


def parse_fraction(text: str) -> Fraction:
    text = text.strip()
    if not _FRACTION_RE.match(text):
        raise ValidationError(f"invalid rational {text!r}; expected 'p' or 'p/q'")
    try:
        return Fraction(text)
    except (ZeroDivisionError, ValueError):  # a zero denominator, or too many digits
        raise ValidationError(f"invalid rational {text!r}") from None


# -- config fields ---------------------------------------------------------------

_INT_RE = re.compile(r"^[-+]?\d+$")


def _config_int(value: Any, field: str) -> int:
    """A config integer: a JSON integer or a decimal string, never a bool or float."""
    if type(value) is int or isinstance(value, str) and _INT_RE.match(value.strip()):
        try:
            return int(value)
        except ValueError:  # more digits than int() converts
            pass
    raise ValidationError(f"{field} must be an integer, got {value!r}")


def _object_list(cfg: Mapping[str, Any], key: str) -> list[Mapping[str, Any]]:
    value = cfg[key]
    if not isinstance(value, list) or not all(isinstance(e, Mapping) for e in value):
        raise ValidationError(f"'{key}' must be a list of objects")
    return value


# -- group configs --------------------------------------------------------------

# family -> (constructor, size field, what the size field counts)
_FAMILIES = {
    "lattice": (lattice, "d", "dimension"),
    "heisenberg": (heisenberg, "n", "size"),
    "unitriangular": (unitriangular, "n", "size"),
}


def schema_to_config(schema: GroupSchema) -> dict[str, Any]:
    return {"family": schema.family, _FAMILIES[schema.family][1]: schema.size}


def schema_from_config(cfg: Mapping[str, Any]) -> GroupSchema:
    if not isinstance(cfg, Mapping):
        raise ValidationError("group config must be a JSON object")
    family = cfg.get("family")
    if not isinstance(family, str) or family not in _FAMILIES:
        raise ValidationError(
            f"unknown family {family!r}; expected lattice, heisenberg or unitriangular"
        )
    constructor, field, noun = _FAMILIES[family]
    if field not in cfg:
        raise ValidationError(f"{family} config needs a {noun} field {field!r}")
    return constructor(_config_int(cfg[field], f"{family} field {field!r}"))


# -- measure configs -------------------------------------------------------------

def measure_to_config(measure: Measure) -> dict[str, Any]:
    return {
        "atoms": [
            {"coords": list(g.coords), "weight": str(w)}
            for g, w in measure.atoms.items()
        ],
    }


def measure_from_config(schema: GroupSchema, cfg: Mapping[str, Any]) -> Measure:
    if not isinstance(cfg, Mapping) or "atoms" not in cfg:
        raise ValidationError("measure config must be an object with an 'atoms' list")
    atoms = []
    for entry in _object_list(cfg, "atoms"):
        if not isinstance(entry.get("coords"), list) or "weight" not in entry:
            raise ValidationError("each atom needs a 'coords' list and a 'weight'")
        # plain ints already; Measure checks the coordinate count
        g = GroupElement(tuple(_config_int(c, "atom coordinate") for c in entry["coords"]))
        atoms.append((g, parse_fraction(str(entry["weight"]))))
    return Measure(schema, atoms)


# -- polynomial JSON -------------------------------------------------------------

def polynomial_to_obj(p: Polynomial) -> dict[str, Any]:
    terms, text = render_terms(p)
    return {
        "terms": [{"exponents": list(e), "coeff": c} for e, c in terms],
        "text": text,
    }


def polynomial_from_obj(schema: GroupSchema, obj: Mapping[str, Any]) -> Polynomial:
    if not isinstance(obj, Mapping) or "terms" not in obj:
        raise ValidationError("polynomial object must contain a 'terms' list")
    terms: dict[Exponents, Fraction] = {}
    for entry in _object_list(obj, "terms"):
        exps = entry.get("exponents")
        if not isinstance(exps, list) or len(exps) != schema.n_coords:
            raise ValidationError("term exponents must match the schema coordinate count")
        key = tuple(_config_int(e, "term exponent") for e in exps)
        coeff = parse_fraction(str(entry.get("coeff")))
        if key in terms:
            raise ValidationError(f"duplicate term {exps}")
        terms[key] = coeff
    return Polynomial(schema, terms)


# -- polynomial text syntax -------------------------------------------------------

# a token (a number, a coordinate name or an operator), or any other
# character, which stops the parse; on text with no surrounding whitespace
# each match starts where the one before it ended
_TOKEN_RE = re.compile(rf"\s*(?:(\d+|{COORD_NAME}|[-+*/^()])|(\S))")


def _token_int(tok: str) -> int:
    try:
        return int(tok)
    except ValueError:  # more digits than int() converts
        raise ValidationError(f"number with {len(tok)} digits is too long") from None


def _required(tokens: list[str], pos: int) -> str:
    """tokens[pos], which must not be the empty token that ends the list."""
    if not tokens[pos]:
        raise ValidationError("unexpected end of polynomial")
    return tokens[pos]


def parse_polynomial(schema: GroupSchema, text: str) -> Polynomial:
    """Parse caret-and-star syntax like ``x^2 - y^2 + 3/2*x*y - 1``.

    Coordinate names are the ones declared by the schema (x, y, z for the
    three-dimensional Heisenberg group; x1..xd for lattices; a_ij for
    unitriangular groups).  A term is a product of numbers, each ``p`` or
    ``p/q``, and powers of coordinates, each a name or ``name^e``, with an
    optional sign; a repeated factor multiplies.  Each term is kept as an
    integer numerator and denominator, and the terms are summed over the lcm
    of their denominators into the canonical form.
    """
    text = text.strip()
    if not text:
        raise ValidationError("empty polynomial input")
    matches = _TOKEN_RE.findall(text)
    tokens = [tok for tok, other in matches if not other]
    if len(tokens) != len(matches):
        pos = next(m.start() for m in _TOKEN_RE.finditer(text) if m.group(2))
        raise ValidationError(f"cannot read polynomial at ...{text[pos:pos + 12]!r}")
    end = len(tokens)
    tokens.append("")  # read where a token is required: the input ended
    name_index = {name: i for i, name in enumerate(schema.coord_names)}
    n_coords = schema.n_coords
    found: list[tuple[Exponents, int, int]] = []  # (exponents, numerator, denominator)
    pos = 0
    while pos < end:
        tok = tokens[pos]
        num = den = 1
        if tok in ("+", "-"):
            num = -1 if tok == "-" else 1
            pos += 1
        elif pos:
            raise ValidationError(f"expected '+' or '-' before {tok!r}")
        exps = [0] * n_coords
        while True:
            tok = _required(tokens, pos)
            pos += 1
            if tok.isdigit():
                num *= _token_int(tok)
                if tokens[pos] == "/":
                    tok = _required(tokens, pos + 1)
                    d = _token_int(tok) if tok.isdigit() else 0
                    if d == 0:
                        raise ValidationError("invalid denominator in coefficient")
                    den *= d
                    pos += 2
            elif tok[0].isalpha():
                i = name_index.get(tok)
                if i is None:
                    raise ValidationError(
                        f"unknown coordinate {tok!r}; valid names: "
                        + ", ".join(schema.coord_names)
                    )
                e = 1
                if tokens[pos] == "^":
                    tok = _required(tokens, pos + 1)
                    if not tok.isdigit():
                        raise ValidationError("exponent must be a non-negative integer")
                    e = _token_int(tok)
                    pos += 2
                exps[i] += e
            else:
                raise ValidationError(f"unexpected token {tok!r} in term")
            if tokens[pos] != "*":
                break
            pos += 1
        found.append((tuple(exps), num, den))
    # over the common denominator; a like-term sum that reaches 0 leaves the dict,
    # so the terms keep the order the Fraction parser gave them
    common = lcm(*(den for _, _, den in found))
    acc: dict[Exponents, int] = {}
    for exps, num, den in found:
        c = acc.get(exps, 0) + num * (common // den)
        if c:
            acc[exps] = c
        else:
            acc.pop(exps, None)
    return _from_ints(schema, acc, common)
