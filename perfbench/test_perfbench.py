"""Tests of the benchmark itself: input generation, tail rule, self times.

    python3 -m pytest perfbench -q
"""

import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gen  # noqa: E402
from run import end_to_end, tail  # noqa: E402
from tracer import Tracer, self_time_by_name, self_times, top_level_time  # noqa: E402

WORKLOADS = sorted(gen.load_spec()["workloads"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_bytes(workload):
    a = gen.canonical_bytes(gen.generate(workload, 7, 5))
    b = gen.canonical_bytes(gen.generate(workload, 7, 5))
    assert a == b


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_gives_other_measures_and_targets(workload):
    a, b = gen.generate(workload, 1, 5), gen.generate(workload, 2, 5)
    assert len(a["jobs"]) == len(b["jobs"])
    if workload == "preimage":
        assert [j["q"] for j in a["jobs"]] != [j["q"] for j in b["jobs"]]
    else:
        assert [c["measure"] for c in a["configs"]] != [c["measure"] for c in b["configs"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_job_inputs_do_not_depend_on_run_length(workload):
    short, long = gen.generate(workload, 3, 1), gen.generate(workload, 3, 30)
    n = len(short["jobs"])
    assert len(long["jobs"]) > n
    assert short["jobs"] == long["jobs"][:n]
    assert short["configs"] == long["configs"][: len(short["configs"])]


@pytest.mark.parametrize(
    "group",
    [
        {"family": "lattice", "d": 3},
        {"family": "heisenberg", "n": 1},
        {"family": "heisenberg", "n": 2},
        {"family": "unitriangular", "n": 4},
        {"family": "unitriangular", "n": 5},
    ],
)
def test_generator_group_law_matches_library(group):
    from nilharmonic.groups import inv_coords, mul_coords
    from nilharmonic.serialize import schema_from_config

    schema = schema_from_config(group)
    weights, names = gen.coord_layout(group)
    assert (tuple(weights), tuple(names)) == (schema.weights, schema.coord_names)
    rng = random.Random(0)
    for _ in range(100):
        a = tuple(rng.randint(-4, 4) for _ in weights)
        b = tuple(rng.randint(-4, 4) for _ in weights)
        assert gen.mul(group, a, b) == mul_coords(schema, a, b)
        assert gen.inv(group, a) == inv_coords(schema, a)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generated_inputs_load(workload):
    from nilharmonic.serialize import measure_from_config, parse_polynomial, schema_from_config

    inputs = gen.generate(workload, 11, 1)
    loaded = []
    for cfg in inputs["configs"]:
        schema = schema_from_config(cfg["group"])
        loaded.append((schema, measure_from_config(schema, cfg["measure"])))
    for job in inputs["jobs"]:
        schema, _ = loaded[job["config"]]
        if "q" in job:
            assert parse_polynomial(schema, job["q"]).degree in (1, 2, 3)


def test_tail_rank_leaves_ten_jobs_beyond():
    times = [float(t) for t in range(20)]
    random.Random(0).shuffle(times)
    assert tail(times) == (9.0, 50.0)
    assert tail([float(t) for t in range(11)]) == (0.0, 100.0 / 11)
    with pytest.raises(ValueError):
        tail([1.0] * 10)


def test_end_to_end_times_cancel_a_uniform_slowdown():
    times = [0.1 * (i % 7 + 1) for i in range(30)]

    def client(slow):
        return {
            "job_times_s": [t * slow for t in times],
            "job_ref_s": [0.0075 * slow] * len(times),
            "setup_s": 0.4 * slow,
            "setup_ref_s": 0.0075 * slow,
            "peak_rss_mb": 25.0,
        }

    fast, slow = end_to_end(client(1.0), [client(1.0)]), end_to_end(client(1.6), [client(1.6)])
    assert slow == pytest.approx(fast)
    assert fast["jobs_s"] == pytest.approx(sum(times))
    assert fast["setup_s"] == pytest.approx(0.4)


def test_self_times_subtract_child_coverage():
    spans = [
        ("a", 0.0, 10.0, -1, 0),
        ("b", 1.0, 3.0, 0, 0),
        ("b", 4.0, 6.0, 0, 0),
        ("c", 4.5, 5.0, 2, 0),
        ("a", 20.0, 21.0, -1, 1),
        ("load", 30.0, 32.0, -1, "setup"),
    ]
    assert self_times(spans) == [6.0, 2.0, 1.5, 0.5, 1.0, 2.0]
    in_jobs = lambda job: job != "setup"  # noqa: E731
    by_name = self_time_by_name(spans, in_jobs)
    assert by_name == {"a": 7.0, "b": 3.5, "c": 0.5}
    assert sum(by_name.values()) == top_level_time(spans, in_jobs) == 11.0


def test_tracer_records_nesting_and_restores_names():
    class Owner:
        @staticmethod
        def inner(x):
            return x + 1

        @staticmethod
        def outer(x):
            return Owner.inner(x) * 2

    original_inner, original_outer = Owner.inner, Owner.outer
    tracer = Tracer()
    tracer.plan(Owner, "inner", lambda fn: tracer.span("inner", fn))
    tracer.plan(Owner, "outer", lambda fn: tracer.span("outer", fn))
    tracer.install()
    tracer.job = 3
    assert Owner.outer(1) == 4
    tracer.uninstall()
    assert (Owner.inner, Owner.outer) == (original_inner, original_outer)
    spans = tracer.closed_spans()
    assert [(s[0], s[3], s[4]) for s in spans] == [("outer", -1, 3), ("inner", 0, 3)]
    assert sum(self_times(spans)) == pytest.approx(spans[0][2] - spans[0][1])
