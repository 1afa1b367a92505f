"""Coordinate models of finitely generated torsion-free nilpotent groups.

Three families are built in:

* ``lattice(d)``       -- the free abelian group Z^d,
* ``heisenberg(n)``    -- the discrete Heisenberg group H_{2n+1}(Z) with
  coordinates (x_1..x_n, y_1..y_n, z) read off the unipotent matrix model,
* ``unitriangular(n)`` -- upper unitriangular n x n integer matrices with
  the strict upper-triangular entries as coordinates.

Each constructor checks its size and builds each size once (``cache``), so a
built-in group is one shared schema per process: 61 at most, by the size caps.

An element is an integer coordinate vector; every integer vector names
exactly one element.  Each coordinate carries a weight (its depth in the
lower central series), and coordinates are ordered by weight.

Each family's law has the bilinear shape ``(a*b)_t = a_t + b_t + sum a_p*b_q``.
A schema stores it as one list of ``(t, p, q)`` terms, sorted by ``t`` with
``p, q < t``.  That list is the only stored form of the law: translation reads
it directly, and multiplication and inversion are compiled from it once per
schema, on first use, into straight-line functions on coordinate tuples.
"""

from __future__ import annotations

import re
from functools import cache, cached_property
from itertools import accumulate, chain
from operator import attrgetter
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import ValidationError

LATTICE = "lattice"
HEISENBERG = "heisenberg"
UNITRIANGULAR = "unitriangular"

# A coordinate name: one name token of the polynomial text syntax.
COORD_NAME = r"[A-Za-z][A-Za-z0-9_]*"

Coords = tuple[int, ...]


def _names(prefix: str, n: range) -> str:
    """``a0, a1, ...,``: with its trailing comma it unpacks or builds any length."""
    return "".join(f"{prefix}{i}, " for i in n).rstrip()


def _compile(signature: str, *body: str) -> Callable:
    """Compile ``def signature:`` with the ``body`` lines and return the function."""
    namespace: dict = {}
    exec("\n    ".join((f"def {signature}:", *body)), namespace)
    return namespace[signature[: signature.index("(")]]


# The fields of a schema: equality, the hash, repr, pickling and copying read
# these five, and nothing derived from them.
_SCHEMA_FIELDS = ("family", "size", "weights", "coord_names", "law")
_schema_fields = attrgetter(*_SCHEMA_FIELDS)


class GroupSchema:
    """Static description of one group: family, size, weights, names, law.

    ``weights[i]`` is the weight of coordinate ``i`` (0-based internally;
    the public operations below use 1-based coordinate indices, matching
    the coordinate names, distinct ``COORD_NAME`` tokens).  Weights start at
    1 and never decrease.  ``n_coords``, ``step`` (the largest weight) and
    ``layer_ranks`` (``layer_ranks[j]`` coordinates of weight ``j + 1``) are
    derived from them on first use, as are the compiled law and the hash;
    equality reads the five fields only.  ``law`` is the multiplication law as
    0-based terms ``(t, p, q)``, each adding ``a_p*b_q`` to coordinate ``t`` of
    ``a*b``.  Terms are sorted by ``t`` and read only coordinates before
    ``t`` (``p, q < t``), so the inverse can be solved term by term, and add
    weights (``weights[t] >= weights[p] + weights[q]``), so weight-1
    coordinates add.  The coordinates of weight >= 2 must span [G,G], as in
    the built-in families; ``reaches_all_generators`` relies on both.

    A schema is immutable: assigning or deleting an attribute raises
    ``AttributeError``.
    """

    family: str
    size: int
    weights: tuple[int, ...]
    coord_names: tuple[str, ...]
    law: tuple[tuple[int, int, int], ...]

    def __init__(
        self,
        family: str,
        size: int,
        weights: tuple[int, ...],
        coord_names: tuple[str, ...],
        law: tuple[tuple[int, int, int], ...] = (),
    ) -> None:
        w = weights
        if (type(w) is not tuple or not w or any(type(x) is not int for x in w)
                or w[0] != 1 or any(b < a for a, b in zip(w, w[1:]))):
            raise ValidationError(f"weights must be ints from 1 up, never decreasing, got {w!r}")
        names = coord_names
        if (type(names) is not tuple or len(names) != len(w)
                or not all(type(x) is str and re.fullmatch(COORD_NAME, x) for x in names)
                or len(set(names)) != len(names)):
            raise ValidationError(f"need one distinct {COORD_NAME} name per weight, got {names!r}")
        # the law is compiled into source code, so only plain ints may reach it
        for term in law:
            if type(term) is not tuple or len(term) != 3 or any(type(i) is not int for i in term):
                raise ValidationError(f"law term {term!r} must be a tuple of three ints")
        if any(t2 < t1 for (t1, _, _), (t2, _, _) in zip(law, law[1:])):
            raise ValidationError("law terms must be sorted by target coordinate")
        for t, p, q in law:
            if not (0 <= p < t and 0 <= q < t and t < len(w)):
                raise ValidationError(f"law term {(t, p, q)} must read coordinates before {t}")
            if w[t] < w[p] + w[q]:
                raise ValidationError(f"law term {(t, p, q)} needs weight(t) >= weight(p) + weight(q)")
        vars(self).update(zip(_SCHEMA_FIELDS, (family, size, weights, coord_names, law)))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _schema_fields(self) == _schema_fields(other)

    def __repr__(self) -> str:
        values = ", ".join(f"{f}={getattr(self, f)!r}" for f in _SCHEMA_FIELDS)
        return f"{type(self).__qualname__}({values})"

    def __getstate__(self) -> dict:
        # only the fields: derived values are rebuilt on first use after
        # unpickling, and functions made by exec cannot be pickled
        return dict(zip(_SCHEMA_FIELDS, _schema_fields(self)))

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash(_schema_fields(self))

    @cached_property
    def n_coords(self) -> int:
        return len(self.weights)

    @cached_property
    def step(self) -> int:
        return self.weights[-1]

    @cached_property
    def layer_ranks(self) -> tuple[int, ...]:
        return tuple(self.weights.count(j) for j in range(1, self.step + 1))

    @cached_property
    def law_mul(self) -> Callable[[Coords, Coords], Coords]:
        """``a*b`` on coordinate tuples, compiled from ``law`` on first use."""
        n = range(self.n_coords)
        sums = [f"a{t} + b{t}" for t in n]
        for t, p, q in self.law:
            sums[t] += f" + a{p} * b{q}"
        return _compile(
            "law_mul(a, b)",
            f"{_names('a', n)} = a",
            f"{_names('b', n)} = b",
            f"return ({', '.join(sums)},)",
        )

    @cached_property
    def law_inv(self) -> Callable[[Coords], Coords]:
        """``a^-1`` on coordinate tuples, compiled from ``law`` on first use.

        It solves ``a * x = e`` by increasing coordinate: a term of ``x_t``
        reads only ``x_q`` with ``q < t``, which is already final.
        """
        n = range(self.n_coords)
        xs = [f"x{t} = -a{t}" for t in n]
        for t, p, q in self.law:
            xs[t] += f" - a{p} * x{q}"
        return _compile("law_inv(a)", f"{_names('a', n)} = a", *xs, f"return ({_names('x', n)})")

    def weight(self, i: int) -> int:
        """Weight of coordinate ``i`` (1-based)."""
        if not 1 <= _require_int(i, "coordinate index") <= self.n_coords:
            raise ValidationError(f"coordinate index {i} out of range 1..{self.n_coords}")
        return self.weights[i - 1]

    def name(self) -> str:
        return f"{self.family}({self.size})"

    def __str__(self) -> str:
        return self.name()


class GroupElement(NamedTuple):
    """A group element, identified by its integer coordinate vector.

    Equality, hashing and ordering are those of the 1-tuple ``(coords,)``.
    """

    coords: tuple[int, ...]

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


def _size(n: object, low: int, high: int, what: str) -> int:
    """``n`` if it is an int in ``low..high``.  The type is checked first:
    True and 1.0 equal 1, and would find the shared schema of size 1."""
    if not low <= _require_int(n, what) <= high:
        raise ValidationError(f"{what} must be in {low}..{high}")
    return n


def lattice(d: int) -> GroupSchema:
    """The free abelian group Z^d with coordinates x1..xd.

    d is capped at 36, the coordinate count of ``unitriangular(9)``.
    """
    return _lattice(_size(d, 1, 36, "lattice dimension"))


@cache
def _lattice(d: int) -> GroupSchema:
    return GroupSchema(LATTICE, d, (1,) * d, tuple(f"x{i}" for i in range(1, d + 1)))


def heisenberg(n: int) -> GroupSchema:
    """The discrete Heisenberg group H_{2n+1}(Z).

    Coordinates are (x_1..x_n, y_1..y_n, z) with product
    (x, y, z)(x', y', z') = (x + x', y + y', z + z' + x.y').
    For n = 1 the names are simply x, y, z.  n is capped at 17 (35
    coordinates), so no family exceeds the 36 of ``unitriangular(9)``.
    """
    return _heisenberg(_size(n, 1, 17, "heisenberg parameter"))


@cache
def _heisenberg(n: int) -> GroupSchema:
    xs, ys = ([f"{c}{i}" for i in range(1, n + 1)] for c in "xy")
    names = ("x", "y", "z") if n == 1 else (*xs, *ys, "z")
    law = tuple((2 * n, i, n + i) for i in range(n))
    return GroupSchema(HEISENBERG, n, (1,) * (2 * n) + (2,), names, law)


def unitriangular(n: int) -> GroupSchema:
    """Upper unitriangular n x n integer matrices.

    Coordinate t holds entry (i, j); entries are ordered by weight j - i,
    then row-major.  n is capped at 9 so entry names a_ij stay unambiguous.
    """
    return _unitriangular(_size(n, 2, 9, "unitriangular size"))


@cache
def _unitriangular(n: int) -> GroupSchema:
    positions = [(i, i + w) for w in range(1, n) for i in range(1, n - w + 1)]
    index = {pos: t for t, pos in enumerate(positions)}
    return GroupSchema(
        family=UNITRIANGULAR,
        size=n,
        weights=tuple(j - i for i, j in positions),
        coord_names=tuple(f"a_{i}{j}" for i, j in positions),
        # (AB)_ij = A_ij + B_ij + sum over i < k < j of A_ik * B_kj
        law=tuple(
            (t, index[(i, k)], index[(k, j)])
            for t, (i, j) in enumerate(positions)
            for k in range(i + 1, j)
        ),
    )


# -- coordinate arithmetic on raw tuples (hot paths) -------------------------

def mul_coords(schema: GroupSchema, a: Coords, b: Coords) -> Coords:
    return schema.law_mul(a, b)


def inv_coords(schema: GroupSchema, a: Coords) -> Coords:
    return schema.law_inv(a)


def _require_conforming(schema: GroupSchema, g: GroupElement, what: str = "coordinate") -> None:
    # a float, Fraction or bool coordinate hashes equal to an int, and a memo would take it for one
    if not isinstance(g, GroupElement) or type(g.coords) is not tuple:
        raise ValidationError(f"expected a group element with a tuple of coordinates, got {g!r}")
    if len(g.coords) != schema.n_coords:
        raise ValidationError(
            f"element has {len(g.coords)} coordinates, schema {schema.name()} "
            f"expects {schema.n_coords}"
        )
    for c in g.coords:
        _require_int(c, what)


# -- public element operations ------------------------------------------------

def identity(schema: GroupSchema) -> GroupElement:
    return GroupElement((0,) * schema.n_coords)


def _require_int(value: object, what: str) -> int:
    # bool is an int subclass, and int() would truncate floats and Fractions
    if type(value) is not int:
        raise ValidationError(f"{what} must be an int, got {value!r}")
    return value


def basis_element(schema: GroupSchema, i: int, power: int = 1) -> GroupElement:
    """The element e_i^power: ``power`` in slot ``i`` (1-based), zeros elsewhere."""
    if not 1 <= _require_int(i, "coordinate index") <= schema.n_coords:
        raise ValidationError(f"coordinate index {i} out of range 1..{schema.n_coords}")
    coords = [0] * schema.n_coords
    coords[i - 1] = _require_int(power, "power")
    return GroupElement(tuple(coords))


def mul(schema: GroupSchema, g: GroupElement, h: GroupElement) -> GroupElement:
    _require_conforming(schema, g)
    _require_conforming(schema, h)
    return GroupElement(schema.law_mul(g.coords, h.coords))


def inv(schema: GroupSchema, g: GroupElement) -> GroupElement:
    _require_conforming(schema, g)
    return GroupElement(schema.law_inv(g.coords))


def standard_generators(schema: GroupSchema) -> list[GroupElement]:
    """The symmetric set {e_i^{+-1}} over the weight-1 coordinates."""
    gens = []
    for i in range(1, schema.n_coords + 1):
        if schema.weight(i) == 1:
            gens.append(basis_element(schema, i, 1))
            gens.append(basis_element(schema, i, -1))
    return gens


def decomposition_order(schema: GroupSchema) -> tuple[int, ...]:
    """Coordinate order (1-based) in which basis powers rebuild an element.

    Multiplying e_{o_1}^{g_{o_1}} ... e_{o_n}^{g_{o_n}} in this order
    reproduces the element with coordinates g, which is what makes the
    coordinate vector a faithful normal form.  That holds when, for every
    law term (t, p, q), coordinate q comes before p: then a_p is still 0
    when b_q is multiplied in.  Among the admissible coordinates the
    smallest goes first.
    """
    before: list[set[int]] = [set() for _ in range(schema.n_coords)]
    for _, p, q in schema.law:
        before[p].add(q)
    order: list[int] = []
    remaining = list(range(schema.n_coords))
    while remaining:
        c = next((c for c in remaining if before[c].issubset(order)), None)
        if c is None:
            raise ValidationError(f"the law of {schema.name()} admits no decomposition order")
        order.append(c)
        remaining.remove(c)
    return tuple(c + 1 for c in order)


def _check_symmetric(schema: GroupSchema, support: Sequence[GroupElement]) -> list[tuple[int, ...]]:
    coords = []
    seen = set()
    for g in support:
        _require_conforming(schema, g)
        if g.coords not in seen:
            seen.add(g.coords)
            coords.append(g.coords)
    for c in coords:
        if inv_coords(schema, c) not in seen:
            raise ValidationError(f"support is not symmetric: missing inverse of {c}")
    return coords


# The most points a Cayley ball may hold.  The balls of the tests, the
# examples and the benchmark hold at most 1,793 (heisenberg(1) at radius 8);
# heisenberg(1) passes the cap at radius 15, lattice(36) at radius 3.  The
# oracles' balls are counted before they are searched (``_require_ball_size``).
MAX_BALL_POINTS = 20_000


def ball_levels(
    schema: GroupSchema, support: Sequence[GroupElement], radius: int
) -> list[list[tuple[int, ...]]]:
    """BFS spheres: ``levels[r]`` holds the coordinates at word distance r.

    Each level is sorted lexicographically.  The support must be symmetric.
    Points are counted as they are found, and a ball of more than
    ``MAX_BALL_POINTS`` points raises ``ValidationError`` at once, so the
    radius cannot ask for unbounded time or memory.  This is the one
    breadth-first ball search: ``ball`` and the oracles' balls come from it,
    and the oracles' size refusal runs it only where a count cannot decide.
    Measured with tracemalloc on Python 3.11, ``ball`` peaks at 2.6 MB for
    the 16,381 points of heisenberg(1) at radius 14, the largest radius
    under the cap, and ``verify.check_harmonic_batch`` on that ball,
    checking the generator walk's harmonic basis of degree 4, at 10.3 MB.
    """
    if _require_int(radius, "radius") < 0:
        raise ValidationError("radius must be non-negative")
    gens = _check_symmetric(schema, support)
    law_mul = schema.law_mul
    points = dict.fromkeys([(0,) * schema.n_coords])
    levels = [list(points)]
    for _ in range(radius):
        found = len(points)
        for g in levels[-1]:
            for s in gens:
                points.setdefault(law_mul(g, s))
            if len(points) > MAX_BALL_POINTS:
                raise ValidationError(
                    f"the radius-{radius} ball on {schema.name()} has more than "
                    f"{MAX_BALL_POINTS} points; choose a smaller radius"
                )
        levels.append(sorted(list(points)[found:]))
    return levels


def _require_ball_size(schema: GroupSchema, support: Sequence[GroupElement], radius: int) -> None:
    """Refuse what ``ball_levels`` refuses, with its messages.  Level i holds
    at most |S|^i points, S the distinct support points, and the ball is
    searched only if their running sum, taken up to its first term past
    ``MAX_BALL_POINTS`` (O(log cap) terms for |S| >= 2), passes the cap."""
    if _require_int(radius, "radius") < 0:
        raise ValidationError("radius must be non-negative")
    size = len(_check_symmetric(schema, support))
    counts = accumulate(size**i for i in range(min(radius, MAX_BALL_POINTS) + 1))
    if any(count > MAX_BALL_POINTS for count in counts):
        ball_levels(schema, support, radius)


def ball(schema: GroupSchema, support: Sequence[GroupElement], radius: int) -> list[GroupElement]:
    """All products of at most ``radius`` support elements, sorted by coordinates."""
    return [GroupElement(c) for c in sorted(chain(*ball_levels(schema, support, radius)))]


class CoordinateOrderReport(NamedTuple):
    """Result of the leading-coordinate check for a product g*u.

    ``first_nonzero`` is the first index j (1-based) where u is non-zero,
    or None when u is the identity (vacuous pass).  ``prefix_ok[t]`` records
    whether coordinate t+1 of g*u equals that of g, for t+1 < j, and
    ``additive_ok`` whether coordinate j of g*u equals g_j + u_j.
    """

    first_nonzero: int | None
    prefix_ok: tuple[bool, ...]
    additive_ok: bool | None
    passed: bool


def check_coordinate_order(
    schema: GroupSchema, g: GroupElement, u: GroupElement
) -> CoordinateOrderReport:
    _require_conforming(schema, g)
    _require_conforming(schema, u)
    j = next((t + 1 for t, c in enumerate(u.coords) if c != 0), None)
    if j is None:
        return CoordinateOrderReport(None, (), None, True)
    prod = schema.law_mul(g.coords, u.coords)
    prefix = tuple(prod[t] == g.coords[t] for t in range(j - 1))
    additive = prod[j - 1] == g.coords[j - 1] + u.coords[j - 1]
    return CoordinateOrderReport(j, prefix, additive, all(prefix) and additive)


def reaches_all_generators(
    schema: GroupSchema, support: Sequence[GroupElement]
) -> tuple[bool, GroupElement | None]:
    """Whether ``support`` generates the group; returns (ok, a missed generator).

    It does exactly when its image generates G/[G,G], the lattice Z^r of
    weight-1 coordinates (see ``GroupSchema``).  The weight-1 columns are
    reduced in order by integer Euclid steps; a column whose gcd is not +-1
    names a generator e_c outside the generated subgroup.
    """
    for g in support:
        _require_conforming(schema, g)
    return _reaches_all_generators(schema, [g.coords for g in support])


def _reaches_all_generators(
    schema: GroupSchema, support: Iterable[tuple[int, ...]]
) -> tuple[bool, GroupElement | None]:
    """``reaches_all_generators`` on coordinate tuples already checked to
    conform to ``schema``."""
    r = schema.layer_ranks[0]
    rows = [list(c[:r]) for c in support]
    for c in range(r):
        # fold column c into one pivot row; every other row ends with 0 there
        pivot = [0] * r
        for row in rows:
            while row[c]:
                f = pivot[c] // row[c]
                pivot, row[:] = row[:], [u - f * v for u, v in zip(pivot, row)]
        if abs(pivot[c]) != 1:
            return False, basis_element(schema, c + 1)
    return True, None
