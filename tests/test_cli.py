"""CLI: exit codes, determinism, JSON round-trips."""

import hashlib
import importlib
import json
import math
import pkgutil
import re
import sys
import time
from fractions import Fraction

import pytest

import nilharmonic
import nilharmonic.cli as cli
import nilharmonic.groups as groups
import nilharmonic.laplacian as laplacian
import nilharmonic.polynomials as polynomials
import nilharmonic.suite as suite
import nilharmonic.verify as verify
from nilharmonic.cli import main
from nilharmonic.groups import heisenberg, lattice
from nilharmonic.laplacian import generator_walk
from nilharmonic.polynomials import Polynomial
from nilharmonic.serialize import measure_to_config


@pytest.fixture
def configs(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
        return str(path)

    return {
        "z1": write("z1.json", {"family": "lattice", "d": 1}),
        "z2": write("z2.json", {"family": "lattice", "d": 2}),
        "h3": write("h3.json", {"family": "heisenberg", "n": 1}),
        "mu_z1": write("mu_z1.json", measure_to_config(generator_walk(lattice(1)))),
        "mu_h3": write("mu_h3.json", measure_to_config(generator_walk(heisenberg(1)))),
        "dir": tmp_path,
    }


def _from_obj(schema, obj):
    """The polynomial of a report's ``terms`` list."""
    terms = {tuple(t["exponents"]): Fraction(t["coeff"]) for t in obj["terms"]}
    assert len(terms) == len(obj["terms"])
    return Polynomial(schema, terms)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_importing_every_module_runs_no_command(monkeypatch, capsys):
    # only ``python -m nilharmonic`` runs the CLI: importing any module of the
    # package, __main__ included, leaves a foreign sys.argv unread
    monkeypatch.setattr(sys, "argv", ["importer", "-p", "no:cacheprovider"])
    monkeypatch.delitem(sys.modules, "nilharmonic.__main__", raising=False)
    names = []
    for info in pkgutil.walk_packages(nilharmonic.__path__, "nilharmonic."):
        try:
            importlib.import_module(info.name)
        except SystemExit as exc:
            pytest.fail(f"importing {info.name} exited with {exc.code!r}")
        names.append(info.name)
    assert "nilharmonic.__main__" in names and "nilharmonic.cli" in names
    assert capsys.readouterr() == ("", "")


def test_dims_table(configs, capsys):
    code, out, err = run(capsys, ["dims", "--group", configs["z2"], "--k", "2"])
    assert code == 0 and not err
    lines = out.splitlines()
    assert lines[0] == "group: lattice(2)"
    assert lines[-1].split() == ["2", "6", "5"]


def test_dims_heisenberg_row(configs, capsys):
    code, out, _ = run(capsys, ["dims", "--group", configs["h3"], "--k", "2"])
    assert code == 0
    rows = [line.split() for line in out.splitlines()[2:]]
    assert rows == [["0", "1", "1"], ["1", "3", "3"], ["2", "7", "6"]]


def test_dims_counts_without_enumerating(tmp_path, capsys, monkeypatch):
    # dim P^10 of Z^36 is C(46, 10), about 4.1e9 monomials; it must be counted
    def no_enumeration(schema, k):
        raise AssertionError("dims enumerated a basis")

    for owner in (polynomials, laplacian, suite):
        monkeypatch.setattr(owner, "pk_basis", no_enumeration)
    group = tmp_path / "z36.json"
    group.write_text(json.dumps({"family": "lattice", "d": 36}), encoding="utf-8")
    code, out, err = run(capsys, ["dims", "--group", str(group), "--k", "10"])
    assert code == 0 and not err
    assert out.splitlines()[-1].split() == [
        "10", str(math.comb(46, 10)), str(math.comb(46, 10) - math.comb(44, 8))
    ]
    # columns stay aligned once a dimension passes seven digits
    header, *rows = out.splitlines()[1:]
    column_ends = [m.end() for m in re.finditer(r"\S+", header)]
    assert all([m.end() for m in re.finditer(r"\S+", row)] == column_ends for row in rows)


@pytest.mark.parametrize("k", [cli.MAX_DIMS_ROWS, 1_000_000_000])
def test_oversized_dims_degree_exits_one(configs, capsys, monkeypatch, k):
    # the count takes O(k) memory, so a degree past the row limit is refused
    # before it starts: one error line and exit 1, not a MemoryError traceback
    def no_count(schema, k):
        raise AssertionError("the dimensions were counted")

    monkeypatch.setattr(cli, "dim_pk_table", no_count)
    code, out, err = run(capsys, ["dims", "--group", configs["h3"], "--k", str(k)])
    assert code == 1 and not out
    assert err == (
        f"error: --k {k} would make {k + 1} rows, more than the limit of {cli.MAX_DIMS_ROWS}\n"
    )


def test_dims_at_a_lowered_row_limit(configs, capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_DIMS_ROWS", 3)
    code, out, err = run(capsys, ["dims", "--group", configs["h3"], "--k", "2"])
    assert code == 0 and not err and out.splitlines()[-1].split() == ["2", "7", "6"]
    code, out, err = run(capsys, ["dims", "--group", configs["h3"], "--k", "3"])
    assert code == 1 and not out and "more than the limit of 3" in err


def test_dims_json_and_determinism(configs, capsys):
    out_path = str(configs["dir"] / "dims.json")
    code, out1, _ = run(capsys, ["dims", "--group", configs["h3"], "--k", "4", "--json", out_path])
    assert code == 0
    blob1 = open(out_path, "rb").read()
    code, out2, _ = run(capsys, ["dims", "--group", configs["h3"], "--k", "4", "--json", out_path])
    assert code == 0
    blob2 = open(out_path, "rb").read()
    assert out1 == out2 and blob1 == blob2
    payload = json.loads(blob1)
    assert payload["rows"][2] == {"k": 2, "dim_pk": 7, "dim_hk": 6}


def test_harmonic_with_verify(configs, capsys):
    out_path = str(configs["dir"] / "harmonic.json")
    code, out, _ = run(
        capsys,
        [
            "harmonic",
            "--group", configs["h3"],
            "--measure", configs["mu_h3"],
            "--k", "2",
            "--verify",
            "--radius", "4",
            "--json", out_path,
        ],
    )
    assert code == 0
    assert "dim: 6 (predicted 6)" in out
    assert "all 6 basis elements pass" in out
    payload = json.loads(open(out_path).read())
    assert payload["verified"] is True
    # every emitted polynomial reparses to an equal value
    h3 = heisenberg(1)
    for obj, text in ((o, o["text"]) for o in payload["basis"]):
        p = _from_obj(h3, obj)
        from nilharmonic.serialize import parse_polynomial

        assert parse_polynomial(h3, text) == p


def _tampered(obj, how):
    terms = [dict(t) for t in obj["terms"]]
    if how == "coeff":
        terms[0]["coeff"] = "2/3"
    elif how == "exponents":
        terms[0]["exponents"] = [0, 0, 2]
    elif how == "duplicate":
        terms.append(terms[0])
    elif how == "bad coeff":
        terms[0]["coeff"] = "1.5"
    return {"terms": terms, "text": {"text": "x - y", "bad text": "x +"}.get(how, obj["text"])}


@pytest.mark.parametrize(
    "how", ["coeff", "exponents", "duplicate", "bad coeff", "text", "bad text"]
)
def test_a_rendering_that_does_not_read_back_is_caught(how):
    # harmonic --verify exits 3 on a basis element whose text or terms,
    # malformed ones included, read back to another polynomial
    from nilharmonic.serialize import parse_polynomial, polynomial_to_obj

    p = parse_polynomial(heisenberg(1), "x*y - 1/3*z + 2")
    obj = polynomial_to_obj(p)
    assert cli._reads_back(p, obj)
    assert not cli._reads_back(p, _tampered(obj, how))


@pytest.mark.parametrize("which", ["input", "preimage"])
def test_a_preimage_report_that_does_not_read_back_exits_3(configs, tmp_path, capsys,
                                                            monkeypatch, which):
    # the coefficient text of one of the two rendered polynomials is
    # tampered with; either is read back before anything is printed
    h3 = heisenberg(1)
    q = Polynomial.coordinate(h3, 1)
    real = cli.polynomial_to_obj

    def rendered(p):
        obj = real(p)
        return _tampered(obj, "coeff") if (p == q) == (which == "input") else obj

    monkeypatch.setattr(cli, "polynomial_to_obj", rendered)
    poly = tmp_path / "q.txt"
    poly.write_text("x", encoding="utf-8")
    code, out, err = run(capsys, [
        "preimage", "--group", configs["h3"], "--measure", configs["mu_h3"], str(poly)])
    assert (code, out, err) == (3, "", "internal inconsistency: preimage does not read back\n")


def test_harmonic_verify_searches_the_oracle_ball_once(configs, capsys, monkeypatch):
    # the size refusal counts the radius-3 ball within the cap, and the basis
    # is certified at S_(k-2), so the ball is never searched; the output is
    # pinned as the run wrote it when it searched the ball twice
    searches = []
    real, real_basis = groups.ball_levels, cli.harmonic_basis

    def counting(schema, support, radius):
        searches.append(radius)
        return real(schema, support, radius)

    def basis(*args):
        searches.append("basis")
        return real_basis(*args)

    # every module of the package that holds the search, as it may import it
    for module in [m for n, m in sys.modules.items() if n.partition(".")[0] == "nilharmonic"]:
        if hasattr(module, "ball_levels"):
            monkeypatch.setattr(module, "ball_levels", counting)
    monkeypatch.setattr(cli, "harmonic_basis", basis)
    code, out, err = run(capsys, [
        "harmonic", "--group", configs["h3"], "--measure", configs["mu_h3"],
        "--k", "4", "--verify", "--radius", "3",
    ])
    assert code == 0 and not err
    assert searches == ["basis"]
    assert out.endswith("verify (radius 3): all 15 basis elements pass\n")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e5506367f40949628e5e4947c755905113c0607c9b517980675189fee1c00497"
    )


def test_harmonic_rejects_asymmetric_measure(configs, tmp_path, capsys):
    bad = tmp_path / "bad_measure.json"
    bad.write_text(
        json.dumps(
            {"atoms": [
                {"coords": [1], "weight": "3/4"},
                {"coords": [-1], "weight": "1/4"},
            ]}
        ),
        encoding="utf-8",
    )
    code, out, err = run(
        capsys,
        ["harmonic", "--group", configs["z1"], "--measure", str(bad), "--k", "1"],
    )
    assert code == 1
    assert "not symmetric" in err and "(1,)" in err


def test_preimage_of_one(configs, tmp_path, capsys):
    poly = tmp_path / "one.txt"
    poly.write_text("1\n", encoding="utf-8")
    code, out, _ = run(
        capsys,
        ["preimage", "--group", configs["z1"], "--measure", configs["mu_z1"], str(poly)],
    )
    assert code == 0
    assert "degree: 2" in out
    assert "verified: laplacian(preimage) == input" in out


def test_preimage_of_zero(configs, tmp_path, capsys):
    poly = tmp_path / "zero.txt"
    poly.write_text("0\n", encoding="utf-8")
    code, out, _ = run(
        capsys,
        ["preimage", "--group", configs["z1"], "--measure", configs["mu_z1"], str(poly)],
    )
    assert code == 0
    assert "preimage: 0" in out


def test_preimage_heisenberg_x(configs, tmp_path, capsys):
    poly = tmp_path / "x.txt"
    poly.write_text("x", encoding="utf-8")
    out_path = str(configs["dir"] / "pre.json")
    code, out, _ = run(
        capsys,
        [
            "preimage",
            "--group", configs["h3"],
            "--measure", configs["mu_h3"],
            str(poly),
            "--json", out_path,
        ],
    )
    assert code == 0
    assert "degree: 3" in out
    payload = json.loads(open(out_path).read())
    h3 = heisenberg(1)
    p_hat = _from_obj(h3, payload["preimage"])
    assert p_hat.degree == 3 and payload["verified"] is True


def test_preimage_parse_error(configs, tmp_path, capsys):
    poly = tmp_path / "bad.txt"
    poly.write_text("q + 1", encoding="utf-8")
    code, _, err = run(
        capsys,
        ["preimage", "--group", configs["z1"], "--measure", configs["mu_z1"], str(poly)],
    )
    assert code == 1 and "unknown coordinate" in err


def test_verify_line_is_fast_and_green(configs, capsys):
    code, out, _ = run(
        capsys,
        ["verify", "--group", configs["z1"], "--measure", configs["mu_z1"],
         "--k", "8", "--radius", "4"],
    )
    assert code == 0
    assert out.splitlines()[-1].startswith("result:")
    assert "FAIL" not in out


def test_verify_corrupted_measure_exits_one(configs, tmp_path, capsys):
    bad = tmp_path / "heavy.json"
    bad.write_text(
        json.dumps(
            {"atoms": [
                {"coords": [1], "weight": "1/2"},
                {"coords": [-1], "weight": "1/2"},
                {"coords": [0], "weight": "1/2"},
            ]}
        ),
        encoding="utf-8",
    )
    code, _, err = run(
        capsys, ["verify", "--group", configs["z1"], "--measure", str(bad), "--k", "2"]
    )
    assert code == 1 and "mass" in err


def test_missing_group_file(configs, capsys):
    code, _, err = run(capsys, ["dims", "--group", "/nonexistent.json", "--k", "2"])
    assert code == 1 and "cannot read" in err


@pytest.mark.parametrize("target", ["missing-directory", "directory"])
@pytest.mark.parametrize("command", ["dims", "harmonic", "preimage", "verify"])
def test_unwritable_json_path_exits_one(configs, tmp_path, capsys, command, target):
    # the report is printed first; the failed write is one line on stderr
    poly = tmp_path / "q.txt"
    poly.write_text("x\n", encoding="utf-8")
    args = {
        "dims": ["--k", "2"],
        "harmonic": ["--measure", configs["mu_h3"], "--k", "2"],
        "preimage": ["--measure", configs["mu_h3"], str(poly)],
        "verify": ["--measure", configs["mu_h3"], "--k", "2", "--radius", "2"],
    }[command]
    if target == "directory":
        path, reason = tmp_path, "Is a directory"
    else:
        path, reason = tmp_path / "missing" / "out.json", "No such file or directory"
    code, out, err = run(capsys, [command, "--group", configs["h3"], *args, "--json", str(path)])
    assert code == 1 and out.startswith("group: heisenberg(1)\n")
    assert err == f"error: cannot write {path}: {reason}\n"


def test_verify_heisenberg_all_green(configs, capsys):
    code, out, _ = run(
        capsys,
        ["verify", "--group", configs["h3"], "--measure", configs["mu_h3"],
         "--k", "3", "--radius", "3"],
    )
    assert code == 0 and "FAIL" not in out


def test_verify_negative_degree_exits_one(configs, capsys):
    # the suite refuses the degree itself, before any check
    code, out, err = run(
        capsys, ["verify", "--group", configs["h3"], "--measure", configs["mu_h3"], "--k", "-1"]
    )
    assert code == 1 and not out
    assert err == "error: k_max must be non-negative, got -1\n"


def test_verify_runs_the_suite_once_per_measure(configs, capsys, tmp_path):
    # a lazy walk and a walk with the pair {x*y, (x*y)^-1}; the suite's group
    # records are computed once, and each measure's block reads as its own run
    lazy = {"atoms": [{"coords": [0, 0, 0], "weight": "1/2"}, *(
        {"coords": c, "weight": "1/8"}
        for c in ([1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]))]}
    measures = [configs["mu_h3"], str(tmp_path / "lazy.json"), str(tmp_path / "pairs.json")]
    (tmp_path / "lazy.json").write_text(json.dumps(lazy), encoding="utf-8")
    (tmp_path / "pairs.json").write_text(json.dumps(_H3_PAIRS), encoding="utf-8")
    head = ["verify", "--group", configs["h3"], "--k", "4", "--radius", "2"]
    singles = []
    for i, path in enumerate(measures):
        report = tmp_path / f"{i}.json"
        code, out, err = run(capsys, [*head, "--measure", path, "--json", str(report)])
        assert code == 0 and not err
        singles.append((out, json.loads(report.read_text(encoding="utf-8"))))
    suite._group_records.cache_clear()
    report = tmp_path / "all.json"
    code, out, err = run(capsys, [*head, "--measure", *measures, "--json", str(report)])
    assert code == 0 and not err
    assert suite._group_records.cache_info().misses == 1
    # one group line, then each single run's lines after its group line
    assert out == "group: heisenberg(1)\n" + "".join(
        single.split("\n", 1)[1] for single, _ in singles
    )
    payload = json.loads(report.read_text(encoding="utf-8"))
    assert payload == {
        "group": singles[0][1]["group"],
        "runs": [{k: v for k, v in report.items() if k != "group"} for _, report in singles],
        "passed": True,
    }


def test_verify_fails_if_any_measure_fails(configs, capsys, monkeypatch):
    # the second measure's Laplacian is broken: its block fails, the first
    # measure's does not, and the run exits 2
    broken = generator_walk(heisenberg(1))
    column_images = suite._column_images
    monkeypatch.setattr(
        suite, "_column_images",
        lambda measure, matrix, k, polys:
            list(polys) if measure is broken else column_images(measure, matrix, k, polys),
    )
    loaded = iter([generator_walk(heisenberg(1)), broken])
    monkeypatch.setattr(cli, "_load_measure", lambda schema, path: next(loaded))
    code, out, _ = run(capsys, ["verify", "--group", configs["h3"], "--measure",
                                configs["mu_h3"], configs["mu_h3"], "--k", "2", "--radius", "1"])
    assert code == 2
    results = [line for line in out.splitlines() if line.startswith("result:")]
    # the symmetric form fails on the second measure; the preimages answer
    # to the group law, so surjectivity does not see the column reader
    assert results == ["result: 18/18 checks passed", "result: 17/18 checks passed"]


_Z1 = {"family": "lattice", "d": 1}
_WALK_Z1 = [{"coords": [1], "weight": "1/2"}, {"coords": [-1], "weight": "1/2"}]


@pytest.mark.parametrize(
    "group",
    [
        {"family": "lattice", "d": 37},
        {"family": "lattice", "d": 10**9},
        {"family": "heisenberg", "n": 18},
        {"family": "heisenberg", "n": 10**9},
    ],
    ids=lambda g: f"{g['family']}-{g.get('d', g.get('n'))}",
)
def test_oversized_family_exits_one(tmp_path, capsys, group):
    # rejected by the family's range check, before any schema field is built
    group_path = tmp_path / "group.json"
    group_path.write_text(json.dumps(group), encoding="utf-8")
    code, out, err = run(capsys, ["dims", "--group", str(group_path), "--k", "2"])
    assert code == 1 and not out
    assert err.startswith("error: ") and "must be in 1.." in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "group, measure",
    [
        ({"family": "lattice", "d": "abc"}, {"atoms": _WALK_Z1}),
        ({"family": "lattice", "d": True}, {"atoms": _WALK_Z1}),
        ({"family": "lattice", "d": 1.9}, {"atoms": _WALK_Z1}),
        ({"family": ["lattice"], "d": 1}, {"atoms": _WALK_Z1}),
        (_Z1, {"atoms": [{"coords": [1.7], "weight": "1/2"},
                         {"coords": [-1], "weight": "1/2"}]}),
        (_Z1, {"atoms": [{"coords": [2], "weight": "1/2"},
                         {"coords": [-2], "weight": "1/2"}]}),
        (_Z1, {"atoms": {"coords": [0], "weight": "1"}}),
    ],
)
def test_bad_config_values_exit_one(tmp_path, capsys, group, measure):
    group_path, measure_path = tmp_path / "group.json", tmp_path / "measure.json"
    group_path.write_text(json.dumps(group), encoding="utf-8")
    measure_path.write_text(json.dumps(measure), encoding="utf-8")
    code, out, err = run(
        capsys,
        ["harmonic", "--group", str(group_path), "--measure", str(measure_path), "--k", "2"],
    )
    assert code == 1 and not out
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "content",
    [b'{"family": "lattice", "d": ' + b"9" * 5000 + b"}", b'{"family": "lattice", "d": 1}\xff'],
    ids=["long-integer-literal", "not-utf8"],
)
def test_undecodable_config_exits_one(tmp_path, capsys, content):
    path = tmp_path / "group.json"
    path.write_bytes(content)
    code, out, err = run(capsys, ["dims", "--group", str(path), "--k", "2"])
    assert code == 1 and not out
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "content", [b"9" * 5000, b"x + 1\xff"], ids=["long-number", "not-utf8"]
)
def test_undecodable_polynomial_exits_one(configs, tmp_path, capsys, content):
    poly = tmp_path / "q.txt"
    poly.write_bytes(content)
    code, out, err = run(
        capsys, ["preimage", "--group", configs["h3"], "--measure", configs["mu_h3"], str(poly)]
    )
    assert code == 1 and not out
    assert err.startswith("error: ") and err.count("\n") == 1


_FULLWIDTH_HALF = "１/２"  # fullwidth 1/2


@pytest.mark.parametrize(
    "group, measure, target",
    [
        (_Z1, {"atoms": [{"coords": [1], "weight": _FULLWIDTH_HALF},
                         {"coords": [-1], "weight": _FULLWIDTH_HALF}]}, None),
        # Arabic-Indic 3/8 twice and 1/4: read as digits, the mass would be 1
        (_Z1, {"atoms": [{"coords": [1], "weight": "٣/8"},
                         {"coords": [-1], "weight": "٣/8"},
                         {"coords": [0], "weight": "1/4"}]}, None),
        ({"family": "lattice", "d": "３"}, measure_to_config(generator_walk(lattice(3))), None),
        ({"family": "heisenberg", "n": 1}, measure_to_config(generator_walk(heisenberg(1))),
         "x^２ + ３*y"),
    ],
    ids=["fullwidth-weight", "arabic-indic-weight", "fullwidth-size", "fullwidth-polynomial"],
)
def test_non_ascii_digits_exit_one(tmp_path, capsys, group, measure, target):
    # only ASCII digits are numbers; read as digits, each input would run
    group_path, measure_path = tmp_path / "group.json", tmp_path / "measure.json"
    group_path.write_text(json.dumps(group), encoding="utf-8")
    measure_path.write_text(json.dumps(measure), encoding="utf-8")
    argv = ["--group", str(group_path), "--measure", str(measure_path)]
    if target is None:
        argv = ["harmonic", *argv, "--k", "2"]
    else:
        poly = tmp_path / "q.txt"
        poly.write_text(target, encoding="utf-8")
        argv = ["preimage", *argv, str(poly)]
    code, out, err = run(capsys, argv)
    assert code == 1 and not out
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["harmonic", "preimage", "verify"])
def test_oversized_matrix_exits_one(configs, tmp_path, capsys, command):
    # harmonic and verify at k = 200 and the preimage of x^400 ask for
    # Laplacian matrices of 10^11 and more cells; each is refused before any
    # basis is built
    target = tmp_path / "q.txt"
    target.write_text("x^400\n", encoding="utf-8")
    args = [str(target)] if command == "preimage" else ["--k", "200"]
    code, out, err = run(
        capsys, [command, "--group", configs["h3"], "--measure", configs["mu_h3"], *args]
    )
    assert code == 1 and not out
    assert err.startswith("error: ") and "more than the limit" in err and err.count("\n") == 1


@pytest.mark.parametrize("command", ["harmonic", "preimage", "verify"])
def test_huge_degree_exits_one_before_counting(configs, tmp_path, capsys, monkeypatch, command):
    # k = 3 * 10^9, and the preimage of x^3000000000, are refused from k alone:
    # counting dim P^k would take O(k) memory first
    def no_count(schema, k):
        raise AssertionError("the dimensions were counted")

    monkeypatch.setattr(polynomials, "dim_pk_table", no_count)
    target = tmp_path / "q.txt"
    target.write_text("x^3000000000\n", encoding="utf-8")
    args = [str(target)] if command == "preimage" else ["--k", "3000000000"]
    code, out, err = run(
        capsys, [command, "--group", configs["h3"], "--measure", configs["mu_h3"], *args]
    )
    assert code == 1 and not out
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "would be at least" in err and "more than the limit" in err


def test_verify_above_a_lowered_cell_limit_exits_one(configs, capsys, monkeypatch):
    # with a 100-cell limit the degree-4 and degree-5 matrices are both too
    # large: one error line and exit 1, not failed checks and exit 2
    monkeypatch.setattr(laplacian, "MAX_MATRIX_CELLS", 100)
    code, out, err = run(
        capsys, ["verify", "--group", configs["h3"], "--measure", configs["mu_h3"], "--k", "5"]
    )
    assert code == 1 and not out
    assert err == (
        "error: the degree-5 Laplacian matrix on heisenberg(1) would be 13 x 34, "
        "more than the limit of 100 cells\n"
    )


@pytest.mark.parametrize("command", ["harmonic", "verify"])
def test_oracle_radius_above_a_lowered_ball_cap_exits_one(configs, capsys, monkeypatch, command):
    # the radius-4 ball of heisenberg(1) has 135 points; with a cap of 100 the
    # oracle's ball is refused before the basis or any check: one error line
    # and exit 1, not a FAIL record and exit 2
    def no_work(*args):
        raise AssertionError("the run started its work")

    monkeypatch.setattr(cli, "harmonic_basis", no_work)
    # a warm group-record memo must not answer before the refusal either
    for name in ("_group_records", "standard_generators"):
        monkeypatch.setattr(suite, name, no_work)
    monkeypatch.setattr(groups, "MAX_BALL_POINTS", 100)
    args = ["--k", "2", "--radius", "4"] + (["--verify"] if command == "harmonic" else [])
    code, out, err = run(
        capsys, [command, "--group", configs["h3"], "--measure", configs["mu_h3"], *args]
    )
    assert code == 1 and not out
    assert err == (
        "error: the radius-4 ball on heisenberg(1) has more than 100 points; "
        "choose a smaller radius\n"
    )


@pytest.mark.parametrize("command", ["harmonic", "verify"])
@pytest.mark.parametrize("radius, message", [
    ("1000000000", "the radius-1000000000 ball on heisenberg(1) has more than 20000 points; "
                   "choose a smaller radius"),
    ("-1", None),
])
def test_oracle_radius_refusals_are_fast_and_keep_their_messages(
        configs, capsys, command, radius, message):
    # the count passes the cap within a few terms and the search it then runs
    # stops within the level that passes the cap, so a huge radius is
    # refused at once; a negative radius keeps each command's message
    if message is None:
        message = "radius must be non-negative" + (", got -1" if command == "verify" else "")
    args = ["--k", "2", "--radius", radius] + (["--verify"] if command == "harmonic" else [])
    start = time.perf_counter()
    code, out, err = run(
        capsys, [command, "--group", configs["h3"], "--measure", configs["mu_h3"], *args]
    )
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["harmonic", "--k", "200"],
        ["verify", "--k", "200"],
        ["preimage", "x^400"],
        ["preimage", "x^3000000000"],
        ["dims", "--k", str(cli.MAX_DIMS_ROWS)],
        ["harmonic", "--k", "2", "--verify", "--radius", "200"],
        ["verify", "--k", "2", "--radius", "200"],
    ],
    ids=" ".join,
)
def test_every_size_refusal_comes_before_the_first_basis_enumeration(
    configs, tmp_path, capsys, monkeypatch, argv
):
    # matrices past MAX_MATRIX_CELLS, a preimage target of huge degree, a dims
    # table past MAX_DIMS_ROWS and oracle balls past MAX_BALL_POINTS are each
    # refused with one error line before any module enumerates a basis
    calls = []

    def no_enumeration(*args):
        calls.append(args)
        raise AssertionError("a basis was enumerated")

    patched = set()
    # every module of the package is loaded once the CLI is imported
    for module in [m for n, m in sys.modules.items() if n.partition(".")[0] == "nilharmonic"]:
        for name in ("pk_basis", "graded_index"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, no_enumeration)
                patched.add((module.__name__, name))
    assert {("nilharmonic.polynomials", "graded_index"), ("nilharmonic.laplacian", "graded_index"),
            ("nilharmonic.laplacian", "pk_basis"), ("nilharmonic.suite", "pk_basis")} <= patched
    command, *args = argv
    if command == "preimage":
        target = tmp_path / "q.txt"
        target.write_text(args[0] + "\n", encoding="utf-8")
        args = [str(target)]
    if command != "dims":
        args += ["--measure", configs["mu_h3"]]
    code, out, err = run(capsys, [command, "--group", configs["h3"], *args])
    assert code == 1 and not out and not calls
    assert err.startswith("error: ") and err.count("\n") == 1


def test_unitriangular_walk_config_runs(tmp_path, capsys):
    # the elementary walk on unitriangular(4), written with no radius field
    atoms = [
        {"coords": [s if i == c else 0 for i in range(6)], "weight": "1/6"}
        for c in range(3)
        for s in (1, -1)
    ]
    group_path, measure_path = tmp_path / "u4.json", tmp_path / "walk.json"
    group_path.write_text(json.dumps({"family": "unitriangular", "n": 4}), encoding="utf-8")
    measure_path.write_text(json.dumps({"atoms": atoms}), encoding="utf-8")
    code, out, err = run(
        capsys,
        ["harmonic", "--group", str(group_path), "--measure", str(measure_path),
         "--k", "2", "--verify", "--radius", "2"],
    )
    assert code == 0 and not err
    assert "dim: 11 (predicted 11)" in out
    assert "all 11 basis elements pass" in out


# -- pinned output of the cross-process runs ------------------------------------
#
# The configs of the harmonic and preimage runs that CI repeats in two processes.
# Their stdout and --json bytes are pinned by sha256, as the code before the
# integer-row Laplacian and the memoized rendering wrote them.  The
# heisenberg(3) and unitriangular(5) runs reach larger degrees than the
# benchmark; they are pinned as the tuple-keyed translation sweep wrote them.
# The unitriangular(5) pair {s, s^-1} has non-zero coordinates of weight 2
# to 4, so its translation forms have long linear parts.  The two verify runs
# are pinned as the suite wrote them when it ran its group and polynomial
# checks once per measure, before their records were cached per group.

_H3_PAIRS = {"atoms": [
    {"coords": [-1, 0, 0], "weight": "1/8"}, {"coords": [0, -1, 0], "weight": "1/8"},
    {"coords": [0, 1, 0], "weight": "1/8"}, {"coords": [1, 0, 0], "weight": "1/8"},
    {"coords": [1, 1, 0], "weight": "1/8"}, {"coords": [-1, -1, 1], "weight": "1/8"},
    {"coords": [0, 0, 0], "weight": "1/4"},
]}
_U4_PAIRS = {"atoms": [
    {"coords": [-1, -1, 0, 0, 0, 0], "weight": "1/12"},
    {"coords": [-1, 0, 0, 0, 0, 0], "weight": "1/9"},
    {"coords": [0, -1, 0, 0, 0, 0], "weight": "1/9"},
    {"coords": [0, 0, -1, 0, 0, 0], "weight": "1/9"},
    {"coords": [0, 0, 0, 0, 0, 0], "weight": "1/6"},
    {"coords": [0, 0, 1, 0, 0, 0], "weight": "1/9"},
    {"coords": [0, 1, 0, 0, 0, 0], "weight": "1/9"},
    {"coords": [1, 0, 0, 0, 0, 0], "weight": "1/9"},
    {"coords": [1, 1, 0, 1, 0, 0], "weight": "1/12"},
]}
_U5_PAIRS = {"atoms": [
    {"coords": [-1, 0, -1, -1, -2, 0, 2, 2, 0, -4], "weight": "1/12"},
    *({"coords": [s if i == c else 0 for i in range(10)], "weight": "1/12"}
      for c in range(4) for s in (1, -1)),
    {"coords": [0] * 10, "weight": "1/6"},
    {"coords": [1, 0, 1, 1, 2, 0, -1, 0, 0, 0], "weight": "1/12"},
]}

PINNED_RUNS = {
    "harmonic-h3-pairs": (
        ["harmonic", "--group", "{h3}", "--measure", "{pairs}", "--k", "4",
         "--verify", "--radius", "2"],
        "962b93ef20a475e7436507c45531c0af0024c59d09c2fa11d4a491d4559e0e3f",
        "3fd4320702d0a5bcdf828febb6ebd8bf3db7d6906e0725ef204130723e43ac62",
    ),
    "preimage-h3-pairs": (
        ["preimage", "--group", "{h3}", "--measure", "{pairs}", "{target}"],
        "fb0c4e9bc12a7cc365a2e9ec139d1d36d5dd42fd7ab3dad1ce81808862e43dfe",
        "d577a5a2a11396e8111752f5f15502023252e5c86410b89b984afe98ad86bca1",
    ),
    "harmonic-u4-pairs": (
        ["harmonic", "--group", "{u4}", "--measure", "{u4_pairs}", "--k", "5"],
        "633fad2897a3e29eda10f7b1991c4a00a62592688339772f5cbfa68ca41b8c80",
        "c268a3117842cb6d3ffb78d9fc3f05bc8898386373ebf2d9e5bf42752daa55fc",
    ),
    "harmonic-h7-walk": (
        ["harmonic", "--group", "{h7}", "--measure", "{h7_walk}", "--k", "6"],
        "e077777d3eda83f67cae96ed9e6e738ff4a20887e8006bc7c77a35564536dd84",
        "cbad986c35dc3e4678f2bc019a7e366f1f37c1db991ee19488f5b4476e5daab2",
    ),
    "harmonic-u5-pairs": (
        ["harmonic", "--group", "{u5}", "--measure", "{u5_pairs}", "--k", "7"],
        "ba91d352ec4ca1226e8d2cf3661767a85c6929c03d185674fdbbc75aaadee49c",
        "daf7509fd408c8c98f758df688e13911695c976ce1e18266cb0d2116bc1b648e",
    ),
    "verify-h3-pairs": (
        ["verify", "--group", "{h3}", "--measure", "{pairs}", "--k", "5", "--radius", "3"],
        "1399c370e463e99ee6a21ed089826149f968f6107f181a627c65111dc21c2c5d",
        "baf68179db40ee1cab9ed4514c9204e213f5726544817eb5e5e7b550e46b7f87",
    ),
    "verify-u4-pairs": (
        ["verify", "--group", "{u4}", "--measure", "{u4_pairs}", "--k", "4", "--radius", "2"],
        "0ccf703e8d1f461aab156d63d71575b10ef53a8cc4690165a8a5651285b62491",
        "b98c314bce5979f4ce2a958bb810d1eba7cf81da1fd15b3461fddbafc73be188",
    ),
    "preimage-u5-pairs": (
        ["preimage", "--group", "{u5}", "--measure", "{u5_pairs}", "{u5_target}"],
        "7b1dc952f1b5f645a8df79f195bedc04125158d3807d91b0db2cadcfc9eedf07",
        "95bd12361f74d9730f3c0f39e48c48c54c275e0a1015c98438807b4708ce92ee",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_RUNS))
def test_cross_process_runs_are_pinned(tmp_path, capsys, name):
    paths = {}
    for key, payload in (
        ("h3", {"family": "heisenberg", "n": 1}), ("pairs", _H3_PAIRS),
        ("u4", {"family": "unitriangular", "n": 4}), ("u4_pairs", _U4_PAIRS),
        ("h7", {"family": "heisenberg", "n": 3}),
        ("h7_walk", measure_to_config(generator_walk(heisenberg(3)))),
        ("u5", {"family": "unitriangular", "n": 5}), ("u5_pairs", _U5_PAIRS),
    ):
        paths[key] = tmp_path / f"{key}.json"
        paths[key].write_text(json.dumps(payload) + "\n", encoding="utf-8")
    for key, text in (
        ("target", "3/2*x*y - z + 1/3"),
        ("u5_target", "2/3*a_12^2*a_23*a_34 - a_13*a_24 + 1/2*a_15 - 3*a_14*a_45 + 1/7"),
    ):
        paths[key] = tmp_path / f"{key}.txt"
        paths[key].write_text(text + "\n", encoding="utf-8")
    argv, stdout_sha, json_sha = PINNED_RUNS[name]
    report = tmp_path / "report.json"
    argv = [a.format(**paths) for a in argv] + ["--json", str(report)]
    code, out, err = run(capsys, argv)
    assert code == 0 and not err
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha
    assert hashlib.sha256(report.read_bytes()).hexdigest() == json_sha
