"""Seeded input generator for the benchmark.

Produces only what the program's public loaders accept: group and measure
configs (JSON objects) and polynomial texts.  The group laws needed to build
symmetric measures are re-implemented here from their matrix models, so the
inputs do not depend on the code under test.

Job ``j`` of a workload draws from its own ``random.Random`` seeded with the
string ``"<seed>/<workload>/<j>"``, so a job's inputs do not depend on how
many jobs a run has.  The choices that set a job's cost (group, number of
extra atom pairs, target degree) follow the job index, so every seed gets
the same mix of job sizes; the seed picks the atoms, weights and targets.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path

WORKLOADS_FILE = Path(__file__).with_name("workloads.json")


def load_spec() -> dict:
    with open(WORKLOADS_FILE, encoding="utf-8") as fh:
        return json.load(fh)


# -- coordinate models -------------------------------------------------------

def _ut_positions(n: int) -> list[tuple[int, int]]:
    """Entries (i, j) of an n x n unitriangular matrix, by weight j - i, then row."""
    return [(i, i + w) for w in range(1, n) for i in range(1, n - w + 1)]


def coord_layout(group: dict) -> tuple[list[int], list[str]]:
    """Weights and names of the coordinates, in the library's order."""
    family = group["family"]
    if family == "lattice":
        d = group["d"]
        return [1] * d, [f"x{i}" for i in range(1, d + 1)]
    if family == "heisenberg":
        n = group["n"]
        if n == 1:
            return [1, 1, 2], ["x", "y", "z"]
        names = [f"x{i}" for i in range(1, n + 1)] + [f"y{i}" for i in range(1, n + 1)]
        return [1] * (2 * n) + [2], names + ["z"]
    if family == "unitriangular":
        pos = _ut_positions(group["n"])
        return [j - i for i, j in pos], [f"a_{i}{j}" for i, j in pos]
    raise ValueError(f"unknown family {family!r}")


def _ut_matrix(n: int, c: tuple[int, ...]) -> dict[tuple[int, int], int]:
    m = {(i, i): 1 for i in range(1, n + 1)}
    m.update(zip(_ut_positions(n), c))
    return m


def mul(group: dict, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    family = group["family"]
    if family == "lattice":
        return tuple(u + v for u, v in zip(a, b))
    if family == "heisenberg":
        n = group["n"]
        z = a[-1] + b[-1] + sum(a[i] * b[n + i] for i in range(n))
        return tuple(u + v for u, v in zip(a[:-1], b[:-1])) + (z,)
    n = group["n"]
    ma, mb = _ut_matrix(n, a), _ut_matrix(n, b)
    return tuple(
        sum(ma[i, t] * mb[t, j] for t in range(i, j + 1)) for i, j in _ut_positions(n)
    )


def inv(group: dict, a: tuple[int, ...]) -> tuple[int, ...]:
    family = group["family"]
    if family == "lattice":
        return tuple(-u for u in a)
    if family == "heisenberg":
        n = group["n"]
        z = -a[-1] + sum(a[i] * a[n + i] for i in range(n))
        return tuple(-u for u in a[:-1]) + (z,)
    # back substitution for X with A X = I, entries in order of increasing j - i
    n = group["n"]
    ma = _ut_matrix(n, a)
    x = {(i, i): 1 for i in range(1, n + 1)}
    for i, j in _ut_positions(n):
        x[i, j] = -sum(ma[i, t] * x[t, j] for t in range(i + 1, j + 1))
    return tuple(x[p] for p in _ut_positions(n))


def generators(group: dict) -> list[tuple[int, ...]]:
    """e_i and e_i^-1 for every weight-1 coordinate, in the library's order."""
    weights, _ = coord_layout(group)
    gens = []
    for i, w in enumerate(weights):
        if w == 1:
            for sign in (1, -1):
                e = [0] * len(weights)
                e[i] = sign
                gens.append(tuple(e))
    return gens


# -- measures and targets ----------------------------------------------------

def random_measure(
    group: dict, rng: random.Random, extra_pairs: int, with_identity: bool, radius: int
) -> dict:
    """A symmetric measure config: the generators, ``extra_pairs`` random pairs
    {g, g^-1} from the radius-2 ball, optionally the identity, with random
    integer weights shared by each pair and normalised to total mass 1."""
    gens = generators(group)
    identity = (0,) * len(gens[0])
    gen_set = set(gens)
    candidates = sorted(
        {mul(group, s, t) for s in gens for t in gens} - gen_set - {identity}
    )
    chosen: list[tuple[int, ...]] = []
    for g in rng.sample(candidates, len(candidates)):
        if len(chosen) == 2 * extra_pairs:
            break
        if g not in chosen:
            chosen += [g, inv(group, g)]
    pairs = [(gens[i], gens[i + 1]) for i in range(0, len(gens), 2)]
    pairs += [(chosen[i], chosen[i + 1]) for i in range(0, len(chosen), 2)]
    raw = [(pair, rng.randint(1, 3)) for pair in pairs]
    id_weight = rng.randint(1, 3) if with_identity else 0
    total = 2 * sum(w for _, w in raw) + id_weight
    atoms = [
        {"coords": list(g), "weight": str(Fraction(w, total))}
        for pair, w in raw
        for g in pair
    ]
    if with_identity:
        atoms.append({"coords": list(identity), "weight": str(Fraction(id_weight, total))})
    return {"atoms": atoms, "adaptedness_radius": radius}


def generator_walk(group: dict, radius: int) -> dict:
    gens = generators(group)
    w = str(Fraction(1, len(gens)))
    return {"atoms": [{"coords": list(g), "weight": w} for g in gens], "adaptedness_radius": radius}


def monomials(weights: list[int], degree: int) -> list[tuple[int, ...]]:
    """Exponent vectors of weighted degree at most ``degree``."""
    if not weights:
        return [()] if degree >= 0 else []
    return [
        (e,) + rest
        for e in range(max(degree, -1) // weights[0] + 1)
        for rest in monomials(weights[1:], degree - e * weights[0])
    ]


def random_target(group: dict, rng: random.Random, degree: int, max_terms: int) -> str:
    """Text of a random polynomial of weighted degree exactly ``degree``."""
    weights, names = coord_layout(group)
    monos = monomials(weights, degree)
    top = [m for m in monos if sum(w * e for w, e in zip(weights, m)) == degree]
    picked = [rng.choice(top)]
    rest = [m for m in monos if m != picked[0]]
    picked += rng.sample(rest, min(len(rest), rng.randint(0, max_terms - 1)))
    parts = []
    for mono in picked:
        coeff = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        factors = [
            name if e == 1 else f"{name}^{e}"
            for name, e in zip(names, mono)
            if e
        ]
        body = "*".join(([str(coeff)] if coeff != 1 or not factors else []) + factors)
        parts.append(("- " if rng.random() < 0.5 else "+ ") + body)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


# -- job lists ---------------------------------------------------------------

def job_count(spec: dict, seconds: float) -> int:
    """Jobs sized so that the current code takes about ``seconds``, rounded up
    to whole cycles so every run has the same mix of job sizes."""
    cycle = len(spec.get("cycle", spec.get("degrees"))) * len(spec.get("extra_pairs", [0]))
    want = max(11, seconds / spec["nominal_job_s"])
    return cycle * math.ceil(want / cycle)


def generate(workload: str, seed: int, seconds: float) -> dict:
    """All inputs of one run: configs to load during set-up, then the jobs."""
    spec = load_spec()["workloads"][workload]
    n_jobs = job_count(spec, seconds)
    configs: list[dict] = []
    jobs: list[dict] = []
    if workload == "preimage":
        group = spec["group"]
        configs.append({"group": group, "measure": generator_walk(group, spec["adaptedness_radius"])})
        degrees = spec["degrees"]
        for j in range(n_jobs):
            rng = random.Random(f"{seed}/{workload}/{j}")
            q = random_target(group, rng, degrees[j % len(degrees)], spec["max_terms"])
            jobs.append({"config": 0, "q": q})
    else:
        cycle, extras = spec["cycle"], spec["extra_pairs"]
        for j in range(n_jobs):
            rng = random.Random(f"{seed}/{workload}/{j}")
            entry = cycle[j % len(cycle)]
            extra = extras[(j // len(cycle)) % len(extras)]
            measure = random_measure(
                entry["group"], rng, extra, rng.random() < 0.5, entry["adaptedness_radius"]
            )
            configs.append({"group": entry["group"], "measure": measure})
            job = {"config": j, "k": entry["k"]}
            if "radius" in entry:
                job["radius"] = entry["radius"]
            jobs.append(job)
    return {"workload": workload, "seed": seed, "configs": configs, "jobs": jobs}


def canonical_bytes(obj: object) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")
