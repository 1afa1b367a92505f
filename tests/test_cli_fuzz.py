"""Contract fuzzing of ``cli.main``: every drawn command line exits 0-3, never
with a traceback, with exactly one ``error:`` line on exit 1, and a second
run prints and writes the same bytes.

The command lines are run in process.  The inputs are drawn small (k up to 4,
radius up to 2, exponents up to 3) so that every admitted run takes
milliseconds; the examples are capped so the test costs a few seconds, and
the example database is off so a run writes no files.
"""

import contextlib
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import event, given, settings
from hypothesis import strategies as st

from nilharmonic.cli import main
from nilharmonic.groups import heisenberg, lattice, unitriangular
from nilharmonic.laplacian import generator_walk
from nilharmonic.serialize import measure_to_config, schema_to_config

SCHEMAS = [lattice(2), heisenberg(1), unitriangular(3)]


@st.composite
def group_configs(draw, schema, broken):
    """The schema's config or, if ``broken``, one with a missing field, a float
    or bool size or an unknown family."""
    cfg = schema_to_config(schema)
    size_field = next(key for key in cfg if key != "family")
    mutation = broken and draw(st.sampled_from(["missing", "float", "bool", "family"]))
    if mutation == "missing":
        del cfg[draw(st.sampled_from(["family", size_field]))]
    elif mutation == "float":
        cfg[size_field] = float(cfg[size_field])
    elif mutation == "bool":
        cfg[size_field] = True
    elif mutation == "family":
        cfg["family"] = "nilpotent"
    return cfg


@st.composite
def measure_configs(draw, schema, broken):
    """The generator walk's config or, if ``broken``, one with a float weight,
    an asymmetric support, a total mass other than 1, or a support that
    reaches only the first generator."""
    atoms = measure_to_config(generator_walk(schema))["atoms"]
    mutation = broken and draw(st.sampled_from(["float", "asymmetric", "mass", "not adapted"]))
    if mutation == "float":
        atoms[0]["weight"] = float(Fraction(atoms[0]["weight"]))
    elif mutation == "asymmetric":
        atoms[0]["coords"] = [2 * c for c in atoms[0]["coords"]]
    elif mutation == "mass":
        atoms[0]["weight"] = "1/2"
    elif mutation == "not adapted":
        atoms = [
            {"coords": [s] + [0] * (schema.n_coords - 1), "weight": "1/2"} for s in (-1, 1)
        ]
    return {"atoms": atoms}


def polynomial_texts(schema):
    """Strings of the parser's tokens: small numbers, the schema's coordinate
    names and the operators, either in any order or as a sum of terms, each a
    product of a coefficient p or p/q and powers name^e with e <= 3."""
    numbers = st.sampled_from(["0", "1", "2", "3"])
    names = st.sampled_from(schema.coord_names)
    tokens = numbers | names | st.sampled_from(["+", "-", "*", "/", "^", "(", ")"])
    power = st.tuples(names, st.sampled_from(["", "^"]), numbers).map(
        lambda t: t[0] + (t[1] + t[2] if t[1] else "")
    )
    coefficient = st.tuples(numbers, st.sampled_from(["", "/1", "/2", "/3"])).map("".join)
    term = st.tuples(st.sampled_from(["+", "-"]), coefficient, st.lists(power, max_size=2)).map(
        lambda t: f"{t[0]} " + " * ".join([t[1], *t[2]])
    )
    return st.lists(tokens, min_size=1, max_size=10).map(" ".join) | st.lists(
        term, min_size=1, max_size=3
    ).map(" ".join)


@st.composite
def command_lines(draw):
    """One command line, with at most one of the group config, the measure
    config and the --json path broken, so that a good share of them run."""
    schema = draw(st.sampled_from(SCHEMAS))
    broken = draw(st.sampled_from([None, "group", "measure", "json"]))
    json_paths = ["missing directory", "directory"] if broken == "json" else ["none", "writable"]
    return {
        "command": draw(st.sampled_from(["dims", "harmonic", "preimage", "verify"])),
        "group": draw(group_configs(schema, broken == "group")),
        "measure": draw(measure_configs(schema, broken == "measure")),
        "k": draw(st.integers(-1, 4)),
        "radius": draw(st.integers(-1, 2)),
        "verify": draw(st.booleans()),
        "polynomial": draw(polynomial_texts(schema)),
        "json": draw(st.sampled_from(json_paths)),
    }


def _argv(d, line):
    group, measure, target = d / "group.json", d / "measure.json", d / "target.txt"
    group.write_text(json.dumps(line["group"]), encoding="utf-8")
    measure.write_text(json.dumps(line["measure"]), encoding="utf-8")
    target.write_text(line["polynomial"], encoding="utf-8")
    command = line["command"]
    argv = [command, "--group", str(group)]
    if command != "dims":
        argv += ["--measure", str(measure)]
    if command == "preimage":
        argv.append(str(target))
    else:
        argv.append(f"--k={line['k']}")
    if command == "verify" or (command == "harmonic" and line["verify"]):
        argv.append(f"--radius={line['radius']}")
        if command == "harmonic":
            argv.append("--verify")
    out = {
        "none": None,
        "writable": d / "out.json",
        "missing directory": d / "missing" / "out.json",
        "directory": d,
    }[line["json"]]
    if out is not None:
        argv.append(f"--json={out}")
    return argv, out


def _run(argv, out):
    """(exit code, stdout, stderr, the JSON report's bytes or None)."""
    if out is not None and out.is_file():
        out.unlink()
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    report = out.read_bytes() if out is not None and out.is_file() else None
    return code, stdout.getvalue(), stderr.getvalue(), report


@settings(max_examples=250, deadline=None, database=None)
@given(command_lines())
def test_every_command_line_keeps_the_exit_contract(line):
    with tempfile.TemporaryDirectory() as tmp:
        argv, out = _argv(Path(tmp), line)
        first = _run(argv, out)
        code, _, err, _ = first
        event(f"{line['command']} exits {code}")
        assert code in (0, 1, 2, 3), (argv, first)
        assert "Traceback" not in err
        if code == 1:
            assert err.count("\n") == 1 and err.startswith("error: "), (argv, err)
        assert _run(argv, out) == first, argv
