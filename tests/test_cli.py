"""CLI: exit codes, determinism, JSON round-trips."""

import hashlib
import json
import math
import re

import pytest

import nilharmonic.cli as cli
import nilharmonic.groups as groups
import nilharmonic.laplacian as laplacian
import nilharmonic.polynomials as polynomials
import nilharmonic.suite as suite
from nilharmonic.cli import main
from nilharmonic.groups import heisenberg, lattice
from nilharmonic.laplacian import generator_walk
from nilharmonic.serialize import measure_to_config, polynomial_from_obj


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


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    monkeypatch.setattr(polynomials, "_pk_basis_cached", no_enumeration)
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
        p = polynomial_from_obj(h3, obj)
        from nilharmonic.serialize import parse_polynomial

        assert parse_polynomial(h3, text) == p


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
    p_hat = polynomial_from_obj(h3, payload["preimage"])
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


def test_verify_heisenberg_all_green(configs, capsys):
    code, out, _ = run(
        capsys,
        ["verify", "--group", configs["h3"], "--measure", configs["mu_h3"],
         "--k", "3", "--radius", "3"],
    )
    assert code == 0 and "FAIL" not in out


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
    monkeypatch.setattr(suite, "standard_generators", no_work)
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
# integer-row Laplacian and the memoized rendering wrote them.

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
}


@pytest.mark.parametrize("name", sorted(PINNED_RUNS))
def test_cross_process_runs_are_pinned(tmp_path, capsys, name):
    paths = {}
    for key, payload in (
        ("h3", {"family": "heisenberg", "n": 1}), ("pairs", _H3_PAIRS),
        ("u4", {"family": "unitriangular", "n": 4}), ("u4_pairs", _U4_PAIRS),
    ):
        paths[key] = tmp_path / f"{key}.json"
        paths[key].write_text(json.dumps(payload) + "\n", encoding="utf-8")
    paths["target"] = tmp_path / "target.txt"
    paths["target"].write_text("3/2*x*y - z + 1/3\n", encoding="utf-8")
    argv, stdout_sha, json_sha = PINNED_RUNS[name]
    report = tmp_path / "report.json"
    argv = [a.format(**paths) for a in argv] + ["--json", str(report)]
    code, out, err = run(capsys, argv)
    assert code == 0 and not err
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha
    assert hashlib.sha256(report.read_bytes()).hexdigest() == json_sha
