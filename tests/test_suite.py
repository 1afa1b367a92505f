"""The invariant suite: pinned records, a broken group law, bad inputs, warm
and cold memos, and the group records memoized per group."""

import random
from fractions import Fraction

import pytest

import nilharmonic.groups as groups
import nilharmonic.laplacian as laplacian
import nilharmonic.linalg as linalg
import nilharmonic.suite as suite
import nilharmonic.verify as verify
from nilharmonic.errors import InternalInconsistency, ValidationError
from nilharmonic.groups import (
    BallSearch,
    GroupElement,
    GroupSchema,
    ball,
    heisenberg,
    lattice,
    standard_generators,
    unitriangular,
)
from nilharmonic.laplacian import (
    Measure,
    generator_walk,
    laplacian_matrix,
    solve_preimage,
)
from nilharmonic.polynomials import (
    _BASES, _IMAGES, _INDICES, _LAPLACIAN_IMAGES, _MOMENTS, Polynomial, _translation_forms,
    laplacian_images, pk_basis,
)
from nilharmonic.serialize import parse_polynomial
from nilharmonic.suite import _group_records, run_invariant_suite

# dense_reference.py holds the Fraction-dict Laplacian the integer one replaced
import dense_reference as dense  # noqa: E402

H3 = heisenberg(1)
U4 = unitriangular(4)


def records(schema, k, radius):
    suite = run_invariant_suite(schema, generator_walk(schema), k, radius)
    return [(r.name, r.passed, r.detail) for r in suite]


def expected(b2, sizes, nullities, targets):
    """Every record of an all-green suite at k=4, r=3 on a generator walk."""
    laplacian = []
    for k, (nullity, n_targets) in enumerate(zip(nullities, targets)):
        laplacian += [
            (f"laplacian.dimension_identity[k={k}]", True, f"nullity {nullity}, predicted {nullity}"),
            (f"laplacian.surjectivity[k={k}]", True, f"{n_targets} targets"),
        ]
    return [
        ("group.associativity", True, f"{b2}^3 triples"),
        ("group.identity_inverse", True, ""),
        ("group.coordinate_order", True, f"{b2}^2 pairs"),
        ("group.basis_decomposition", True, ""),
        ("group.ball_growth", True, f"sizes {sizes}"),
        ("poly.interpolation_soundness", True, "degree <= 2"),
        ("poly.degree_reduction", True, "degree <= 4"),
        ("poly.cocycle_identity", True, "25 pairs"),
        ("poly.product_rule", True, ""),
        ("poly.left_right_agreement", True, ""),
        *laplacian,
        ("laplacian.harmonic_oracle[k=4,r=3]", True, f"{nullities[-1]} basis elements"),
        ("laplacian.symmetric_form", True, ""),
    ]


@pytest.mark.parametrize(
    "schema, pinned",
    [
        (H3, expected(17, [1, 5, 17, 53, 135], [1, 3, 6, 10, 15], [0, 0, 1, 3, 7])),
        (lattice(2), expected(13, [1, 5, 13, 25, 41], [1, 3, 5, 7, 9], [0, 0, 1, 3, 6])),
        (unitriangular(3), expected(17, [1, 5, 17, 53, 135], [1, 3, 6, 10, 15], [0, 0, 1, 3, 7])),
    ],
    ids=str,
)
def test_suite_records_are_pinned(schema, pinned):
    assert records(schema, 4, 3) == pinned


def no_checks(monkeypatch, *also):
    """Make any check or group-record lookup of the suite fail the test, and
    the suite's functions named in ``also``."""
    def no_work(*args):
        raise AssertionError("the suite started its checks")

    for name in ("_group_records", "standard_generators", "laplacian_matrix",
                 "check_harmonic_batch", "_mean_value_checks", *also):
        monkeypatch.setattr(suite, name, no_work)


@pytest.mark.parametrize(
    "k, limit, shape", [(200, None, "671650 x 691951"), (5, 100, "13 x 34")]
)
def test_oversized_degree_is_refused_before_any_check(monkeypatch, k, limit, shape):
    # the matrix of the largest degree is checked first, so the run fails as a
    # bad input, not as failed checks after every smaller degree was built;
    # the group records are not looked up either, so a warm memo cannot
    # answer before the refusal
    no_checks(monkeypatch)
    if limit is not None:
        monkeypatch.setattr(laplacian, "MAX_MATRIX_CELLS", limit)
    with pytest.raises(ValidationError, match=f"degree-{k} .* {shape}, more than the limit"):
        run_invariant_suite(H3, generator_walk(H3), k, 3)


def test_oracle_ball_above_a_lowered_cap_is_refused_before_any_check(monkeypatch):
    # the radius-4 ball has 135 points: a bad input, not a failed oracle record
    no_checks(monkeypatch)
    monkeypatch.setattr(groups, "MAX_BALL_POINTS", 100)
    with pytest.raises(ValidationError, match="radius-4 ball on heisenberg.1. has more than 100"):
        run_invariant_suite(H3, generator_walk(H3), 4, 4)


def test_measure_of_another_schema_is_refused_before_any_check(monkeypatch):
    no_checks(monkeypatch, "matrix_shape", "ball_levels", "_ball_search")
    for schema, measure in ((H3, generator_walk(lattice(3))), (U4, generator_walk(H3))):
        with pytest.raises(ValidationError, match="measure belongs to a different schema"):
            run_invariant_suite(schema, measure, 2, 1)


@pytest.mark.parametrize(
    "k, radius, message",
    [(-1, 1, "k_max must be non-negative, got -1"), (2, -1, "radius must be non-negative"),
     (True, 1, "k_max must be an int, got True"), (2, False, "radius must be an int"),
     (2.0, 1, "k_max must be an int, got 2.0"), (2, Fraction(1), "radius must be an int")],
)
def test_bad_degree_or_radius_is_refused_before_any_check(monkeypatch, k, radius, message):
    no_checks(monkeypatch, "matrix_shape", "ball_levels", "_ball_search")
    with pytest.raises(ValidationError, match=message):
        run_invariant_suite(H3, generator_walk(H3), k, radius)


def seeded_measure(schema, seed):
    """Generators at drawn weights, a pair {s, s^-1} for a drawn s of the
    radius-2 ball that is no generator, and the identity at a drawn weight."""
    rng = random.Random(seed)
    gens = standard_generators(schema)
    others = [g for g in ball(schema, gens, 2) if any(g.coords) and g not in gens]
    s = rng.choice(others)
    s_inv = GroupElement(schema.law_inv(s.coords))
    raw = {}
    for g in gens[::2]:
        raw[g] = raw[GroupElement(schema.law_inv(g.coords))] = rng.randint(1, 6)
    raw[s] = raw[s_inv] = rng.randint(1, 6)
    raw[GroupElement((0,) * schema.n_coords)] = rng.randint(1, 6)
    total = sum(raw.values())
    return Measure(schema, [(g, Fraction(w, total)) for g, w in raw.items()])


@pytest.mark.parametrize("schema", [H3, lattice(2), unitriangular(3), U4], ids=str)
@pytest.mark.parametrize("seed", [1, 2])
def test_measure_records_equal_the_per_degree_loop(schema, seed):
    # one factorization of degree k_max serves every k; the records must be
    # those of one matrix, one elimination and one solve per target per k
    mu = seeded_measure(schema, seed)
    n_group = len(_group_records(schema, 0))
    for k_max in range(6):
        radius = 2 if schema is U4 else 3
        got = records_of(run_invariant_suite(schema, mu, k_max, radius))
        assert got[n_group:] == dense.laplacian_records(schema, mu, k_max, radius)
        assert all(passed for _, passed, _ in got)


def records_of(suite_records):
    return [(r.name, r.passed, r.detail) for r in suite_records]


def test_one_elimination_per_run_on_a_fresh_measure(monkeypatch):
    real, calls = linalg._eliminate, []

    def counted(*args):
        calls.append(args[:2])
        return real(*args)

    monkeypatch.setattr(linalg, "_eliminate", counted)
    for seed, (schema, k_max) in enumerate([(H3, 5), (lattice(2), 4), (U4, 3), (H3, 0)]):
        calls.clear()
        run_invariant_suite(schema, seeded_measure(schema, seed), k_max, 1)
        assert calls == [laplacian.matrix_shape(schema, k_max)]


def test_a_matrix_error_gives_a_matrix_record_per_degree(monkeypatch):
    def broken(schema, measure, k):
        raise InternalInconsistency("no matrix here")

    monkeypatch.setattr(suite, "laplacian_matrix", broken)
    got = records_of(run_invariant_suite(H3, seeded_measure(H3, 3), 3, 1))
    measure_half = [r for r in got if r[0].startswith("laplacian.")]
    assert measure_half[:4] == [
        (f"laplacian.matrix[k={k}]", False, "no matrix here") for k in range(4)
    ]
    assert [name for name, _, _ in measure_half[4:]] == [
        "laplacian.harmonic_oracle[k=3,r=1]", "laplacian.symmetric_form"
    ]


def test_a_check_error_gives_a_matrix_record_at_each_degree_it_reaches(monkeypatch):
    # the preimages of degree-2 targets have degree 4, so k = 4 and 5 fail
    # with the error; every record matches the per-degree loop under the same error
    real = laplacian.apply_laplacian

    def failing(measure, p):
        if p.degree is not None and p.degree >= 4:
            raise InternalInconsistency(f"refused degree {p.degree}")
        return real(measure, p)

    mu = seeded_measure(H3, 4)
    monkeypatch.setattr(suite, "apply_laplacian", failing)
    monkeypatch.setattr(dense, "lib_apply_laplacian", failing)
    got = records_of(run_invariant_suite(H3, mu, 5, 2))
    n_group = len(_group_records(H3, 4))
    assert got[n_group:] == dense.laplacian_records(H3, mu, 5, 2)
    failed = [r for r in got if not r[1]]
    assert failed == [
        ("laplacian.matrix[k=4]", False, "refused degree 4"),
        ("laplacian.matrix[k=5]", False, "refused degree 4"),
    ]


def details(schema, k):
    return {name: detail for name, _, detail in records(schema, k, 1)}


def test_group_records_are_keyed_on_degree():
    _group_records.cache_clear()
    low, high = details(H3, 1), details(H3, 4)
    assert low["poly.interpolation_soundness"] == low["poly.degree_reduction"] == "degree <= 1"
    assert high["poly.interpolation_soundness"] == "degree <= 2"
    assert high["poly.degree_reduction"] == "degree <= 4"
    assert details(H3, 2)["poly.cocycle_identity"] == "25 pairs"
    # degrees past 4 read the same group records as degree 4
    misses = _group_records.cache_info().misses
    top = details(H3, 5)
    assert all(top[name] == high[name] for name in high if not name.startswith("laplacian."))
    assert _group_records.cache_info().misses == misses


def test_a_renamed_schema_gets_its_own_group_records():
    renamed = GroupSchema(H3.family, H3.size, H3.weights, ("a", "b", "c"), H3.law)
    records(H3, 2, 1)
    misses = _group_records.cache_info().misses
    assert records(renamed, 2, 1) == records(H3, 2, 1)
    assert _group_records.cache_info().misses == misses + 1


def test_the_measure_half_is_never_memoized(monkeypatch):
    # a Laplacian that returns its argument, after the group records are warm
    records(H3, 4, 3)
    monkeypatch.setattr(suite, "apply_laplacian", lambda measure, p: p)
    failed = {name for name, passed, _ in records(H3, 4, 3) if not passed}
    assert failed == {
        "laplacian.surjectivity[k=2]", "laplacian.surjectivity[k=3]",
        "laplacian.surjectivity[k=4]", "laplacian.symmetric_form",
    }


def test_each_difference_table_is_built_once_per_group_run(monkeypatch):
    # the 7 monomials of P^2 on heisenberg(1) have degrees 0, 1, 1, 2, 2, 2, 2;
    # checked a degree at a time, they build one table per order and side, 6
    # where a check per monomial built 14
    want = _group_records.__wrapped__(H3, 4)
    real, calls = verify._difference_points, []

    def counted(schema, order, elems, test_points, budget, side):
        calls.append((order, side))
        return real(schema, order, elems, test_points, budget, side)

    monkeypatch.setattr(verify, "_difference_points", counted)
    assert _group_records.__wrapped__(H3, 4) == want
    assert sorted(calls) == [(o, side) for o in (1, 2, 3) for side in ("left", "right")]


def test_the_first_monomial_to_fail_left_right_agreement_is_named(monkeypatch):
    # x*y and z fail, both of degree 2; x*y comes first in graded order
    real = suite.check_left_right_batch

    def failing(schema, polys, k, depth, budget):
        checks = real(schema, polys, k, depth, budget)
        return [c._replace(passed=False) if set(p.ints) & {(1, 1, 0), (0, 0, 1)}
                else c for p, c in zip(polys, checks)]

    monkeypatch.setattr(suite, "check_left_right_batch", failing)
    got = {r.name: r for r in _group_records.__wrapped__(H3, 4)}["poly.left_right_agreement"]
    assert (got.passed, got.detail) == (False, "monomial (1, 1, 0)")


def test_the_first_translate_to_disagree_is_named(monkeypatch):
    # translates off by z, which is 0 on part of the ball, for two pairs of
    # (monomial, u): the detail names the first (monomial, u, g) in that order
    # where a translate at g differs from the monomial at u*g
    real = suite.translate_left
    z = Polynomial.coordinate(H3, 3)
    gens = standard_generators(H3)
    b2, b3 = ball(H3, gens, 2), ball(H3, gens, 3)
    broken = {((0, 1, 0), b2[9]), ((1, 0, 0), b2[3]), ((0, 0, 1), b2[0])}

    def off(p, u):
        q = real(p, u)
        return q + z if (next(iter(p.ints), None), u) in broken else q

    monkeypatch.setattr(suite, "translate_left", off)
    want = next(
        f"monomial {m}, u={u}, g={g}"
        for m in laplacian.pk_basis(H3, 2)
        for u in b2
        for g in b3
        if off(Polynomial(H3, {m: 1}), u).evaluate(g)
        != Polynomial(H3, {m: 1}).evaluate(GroupElement(H3.law_mul(u.coords, g.coords)))
    )
    got = {r.name: r for r in _group_records.__wrapped__(H3, 2)}["poly.interpolation_soundness"]
    assert (got.passed, got.detail) == (False, want)
    assert want.startswith("monomial (1, 0, 0), u=")


def test_broken_law_fails_the_group_checks():
    broken = GroupSchema(U4.family, U4.size, U4.weights, U4.coord_names, U4.law[:-1])
    failed = [r for r in records(broken, 2, 1) if not r[1]]
    assert failed == [
        (
            "group.associativity",
            False,
            "failed at (GroupElement(coords=(-2, 0, 0, 0, 0, 0)), "
            "GroupElement(coords=(-1, -1, 0, 0, 0, 0)), "
            "GroupElement(coords=(-1, 0, -1, 0, 0, 0)))",
        ),
        ("group.identity_inverse", False, "failed at (-1, -1, -1, 0, 0, 0)"),
    ]


# a measure with an identity atom and the pair {s, s^-1}, s = x*y, next to the
# generators, and a target with rational coefficients
MU_PAIRS = Measure(
    H3,
    [(GroupElement(c), w) for c, w in [
        ((-1, 0, 0), Fraction(1, 8)), ((0, -1, 0), Fraction(1, 8)), ((0, 1, 0), Fraction(1, 8)),
        ((1, 0, 0), Fraction(1, 8)), ((1, 1, 0), Fraction(1, 8)), ((-1, -1, 1), Fraction(1, 8)),
        ((0, 0, 0), Fraction(1, 4)),
    ]],
)
TARGETS = ["3/2*x*y - z + 1/3", "x^2*y - 5/7*z^2 + y", "x^3 + 2*y*z"]


def preimages():
    return [solve_preimage(H3, MU_PAIRS, parse_polynomial(H3, q)) for q in TARGETS]


def test_warm_and_cold_memos_give_identical_records(monkeypatch):
    first = records(H3, 4, 3)
    assert records(H3, 4, 3) == first
    for clear in (_IMAGES.clear, _translation_forms.cache_clear, _BASES.clear,
                  _INDICES.clear, _MOMENTS.clear, _LAPLACIAN_IMAGES.clear,
                  laplacian_matrix.cache_clear, _group_records.cache_clear):
        clear()
        assert records(H3, 4, 3) == first
    # solve_preimage checks its answer through apply_laplacian, which sums the
    # Laplacian images of p's monomials, built from the image memo's images:
    # cold, warm, and with room for fewer image terms than one call stores
    # (each stores 200 to 440); a cleared Laplacian image memo makes apply
    # read and store those images again
    _IMAGES.clear()
    _LAPLACIAN_IMAGES.clear()
    cold = preimages()
    for p, q in zip(cold, TARGETS):
        assert dense.apply_laplacian(MU_PAIRS, p) == parse_polynomial(H3, q)
    stored = _IMAGES.size
    assert stored > 0 and preimages() == cold and _IMAGES.size == stored
    monkeypatch.setattr(_IMAGES, "bound", 30)
    for _ in range(2):
        _IMAGES.clear()
        _LAPLACIAN_IMAGES.clear()
        assert preimages() == cold
        assert 0 < _IMAGES.size <= 30


# -- the packed Laplacian checks --------------------------------------------------

def per_target_records(monkeypatch, schema, mu, k_max, radius):
    """The suite's records with its surjectivity and symmetric-form checks
    run one ``apply_laplacian`` call per target and per monomial."""
    with monkeypatch.context() as m:
        m.setattr(suite, "_first_bad_preimages", dense.first_bad_preimages)
        m.setattr(suite, "_first_bad_symmetric_form", dense.first_bad_symmetric_form)
        return records_of(run_invariant_suite(schema, mu, k_max, radius))


def counting_laplacian(monkeypatch, fault=None):
    """Rebind the suite's and the reference loops' ``apply_laplacian`` to a
    counted one, ``fault(p, image)`` applied to each image if given."""
    real, calls = laplacian.apply_laplacian, []

    def counted(measure, p):
        calls.append(p)
        image = real(measure, p)
        return image if fault is None else fault(p, image)

    monkeypatch.setattr(suite, "apply_laplacian", counted)
    monkeypatch.setattr(dense, "lib_apply_laplacian", counted)
    return calls


@pytest.mark.parametrize(
    "schema, k_top",
    [(lattice(2), 6), (lattice(3), 6), (H3, 6), (heisenberg(2), 5), (unitriangular(3), 6), (U4, 5)],
    ids=str,
)
@pytest.mark.parametrize("seed", [3, 4])
def test_packed_laplacian_records_equal_the_per_target_loops(monkeypatch, schema, k_top, seed):
    # measures with an extra pair and an identity atom; one call per chunk
    # where the per-target loops make one per target and per monomial
    mu = seeded_measure(schema, seed)
    calls = counting_laplacian(monkeypatch)
    for k_max in range(k_top + 1):
        calls.clear()
        got = records_of(run_invariant_suite(schema, mu, k_max, 1))
        packed_calls = len(calls)
        calls.clear()
        assert got == per_target_records(monkeypatch, schema, mu, k_max, 1)
        assert all(passed for _, passed, _ in got)
        assert packed_calls <= len(calls) and (k_max < 4 or 2 * packed_calls < len(calls))


def chunks_of_the_preimage_batch(monkeypatch, schema, mu, k_max):
    """The (start, stop, width) chunks of the suite's first packed batch, its
    preimages of the basis of P^(k_max - 2)."""
    seen = []
    real = suite._chunks

    def recorded(bits):
        chunks = list(real(bits))
        seen.append(chunks)
        return iter(chunks)

    with monkeypatch.context() as m:
        m.setattr(suite, "_chunks", recorded)
        run_invariant_suite(schema, mu, k_max, 1)
    return seen[0]


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_a_fault_at_one_target_of_a_chunk_names_that_target(monkeypatch, where):
    # a Laplacian that doubles the coefficient of one target monomial in every
    # image: only that target's preimage fails, packed as well as alone
    mu = seeded_measure(H3, 6)
    k_max = 10
    chunks = chunks_of_the_preimage_batch(monkeypatch, H3, mu, k_max)
    assert len(chunks) >= 3
    start, stop, _ = chunks[1]
    i = {"first": start, "middle": (start + stop) // 2, "last": stop - 1}[where]
    mono_ = pk_basis(H3, k_max - 2)[i]

    def doubled(p, image):
        c = image.terms.get(mono_, 0)
        return image + Polynomial(H3, {mono_: c}) if c else image

    counting_laplacian(monkeypatch, doubled)
    got = records_of(run_invariant_suite(H3, mu, k_max, 1))
    assert got == per_target_records(monkeypatch, H3, mu, k_max, 1)
    assert got[-3] == (f"laplacian.surjectivity[k={k_max}]", False, f"bad preimage for {mono_}")


def test_a_fault_in_the_symmetric_form_batch_names_the_first_monomial(monkeypatch):
    # the images of x^2 and of every monomial after it gain a constant
    mu = seeded_measure(unitriangular(3), 2)
    x2 = (2, 0, 0)
    monos = pk_basis(unitriangular(3), 3)
    after = set(monos[monos.index(x2):])

    def shifted(p, image):
        hit = sum(c for e, c in p.terms.items() if e in after)
        return image + Polynomial(unitriangular(3), {(0, 0, 0): hit}) if hit else image

    counting_laplacian(monkeypatch, shifted)
    got = records_of(run_invariant_suite(unitriangular(3), mu, 3, 1))
    assert got == per_target_records(monkeypatch, unitriangular(3), mu, 3, 1)
    assert got[-1] == ("laplacian.symmetric_form", False, f"monomial {x2}")


def test_a_fault_that_vanishes_on_the_ball_fails_the_record_at_radius_0(monkeypatch):
    # x is 0 at the identity, the whole radius-0 ball, but not on S_3, where
    # the record checks: the image of x^3 gains x, and its degree still drops
    x3 = (3, 0, 0)
    x = Polynomial.coordinate(H3, 1)

    def plus_x(p, image):
        c = p.terms.get(x3, 0)
        return image + x * c if c else image

    counting_laplacian(monkeypatch, plus_x)
    got = records_of(run_invariant_suite(H3, generator_walk(H3), 3, 0))
    assert [r for r in got if not r[1]] == [
        ("laplacian.surjectivity[k=3]", False, "bad preimage for (1, 0, 0)"),
        ("laplacian.symmetric_form", False, f"monomial {x3}"),
    ]


def test_an_image_that_vanishes_on_the_centres_fails_through_its_degree(monkeypatch):
    # x (x - 1) (x - 2) (x - 3) is 0 at every point of S_3, whose first
    # coordinates are 0..3, so only the degree check sees it on x*y's image
    xy = (1, 1, 0)
    x = Polynomial.coordinate(H3, 1)
    one = Polynomial(H3, {(0, 0, 0): 1})
    quartic = x * (x - one) * (x - one * 2) * (x - one * 3)
    mu = generator_walk(H3)
    gens = [g.coords for g in mu.support()]
    s3 = BallSearch({m: i for i, m in enumerate(pk_basis(H3, 3))}, [13], gens, [[] for _ in gens])
    p = Polynomial(H3, {xy: 1})
    image = laplacian.apply_laplacian(mu, p) + quartic
    assert verify._mean_value_checks(mu, [p], s3, [image])[0].passed

    def plus_quartic(p, image):
        c = p.terms.get(xy, 0)
        return image + quartic * c if c else image

    counting_laplacian(monkeypatch, plus_quartic)
    got = records_of(run_invariant_suite(H3, mu, 3, 1))
    assert got[-1] == ("laplacian.symmetric_form", False, f"monomial {xy}")


def laplacian_numerators(mu, p):
    """sum_e n_e D_e, for p's numerators n_e and D_e = b Delta x^e."""
    acc: dict = {}
    for n, image in zip(p.ints.values(), laplacian_images(mu, list(p.ints))):
        for f, d in image.items():
            acc[f] = acc.get(f, 0) + n * d
    return {f: v for f, v in acc.items() if v}


@pytest.mark.parametrize("schema", [H3, lattice(3), U4], ids=str)
def test_every_packed_digit_fits_its_width(monkeypatch, schema):
    # random numerators over random denominators on the basis of P^6, each
    # with a term of degree 6, against random expected images in P^4 and
    # against their Laplacians: each digit of c sum_e n_e D_e and of b a m,
    # D_e = b Delta x^e, is below 2^(B - 1)
    rng = random.Random(str(schema))
    mu = seeded_measure(schema, rng.randrange(100))
    top = pk_basis(schema, 6)[-1]

    def draw(k, *also):
        den = rng.randint(1, 10**rng.randint(1, 12))
        return Polynomial(schema, {
            e: Fraction(rng.randint(-10**rng.randint(1, 30), 10**rng.randint(1, 30)), den)
            for e in [*rng.sample(pk_basis(schema, k), rng.randint(1, 12)), *also]
        })

    def bits(pairs):
        return suite._laplacian_bits(mu, pairs)

    ps = [draw(6, top) for _ in range(60)]
    qs = [draw(4) for _ in ps]
    # an expected image of degree above deg n - 2 makes a call on n alone raise
    assert bits([((1, {top: 1}), (1, {top: 1}))]) is None
    assert not suite._laplacians_agree(mu, [((1, {top: 1}), (1, {top: 1}))])
    # each side alone, against 0, and both sides drawn apart
    for p, q in zip(ps, qs):
        lhs = laplacian_numerators(mu, p).values()
        rhs = [mu.scale * v for v in q.ints.values()]
        (width,) = bits([((p.den, p.ints), (1, {}))])
        assert all(abs(v) < 1 << width - 1 for v in lhs)
        (width,) = bits([((1, {}), (q.den, q.ints))])
        assert all(abs(v) < 1 << width - 1 for v in rhs)
        (width,) = bits([((p.den, p.ints), (q.den, q.ints))])
        assert all(abs(q.den * v) < 1 << width - 1 for v in lhs)
        assert all(abs(p.den * v) < 1 << width - 1 for v in rhs)
    # the Laplacians themselves: each chunk's packed call holds the left
    # sides as its balanced digits
    pairs = [((p.den, p.ints), (q.den, q.ints))
             for p, q in ((p, laplacian.apply_laplacian(mu, p)) for p in ps)]
    widths = bits(pairs)
    chunks = list(verify._chunks(widths))
    assert len(chunks) >= 3
    calls = counting_laplacian(monkeypatch)
    assert suite._laplacians_agree(mu, pairs)
    assert len(calls) == len(chunks)
    for (start, stop, width), packed in zip(chunks, calls):
        image = laplacian_numerators(mu, packed)
        sides = [{f: c * v for f, v in laplacian_numerators(mu, p).items()}
                 for p, (_, (c, _)) in zip(ps[start:stop], pairs[start:stop])]
        for f, v in image.items():
            assert verify._digits(v, width, stop - start) == [side.get(f, 0) for side in sides]
    # one wrong expected image fails its batch
    (a, n), (c, m) = pairs[17]
    one = (0,) * schema.n_coords
    pairs[17] = ((a, n), (c, {**m, one: m.get(one, 0) + 1}))
    assert not suite._laplacians_agree(mu, pairs)
