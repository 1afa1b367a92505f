"""One benchmark client: set-up, then a closed loop over the jobs of one run.

Run by ``run.py`` in a fresh interpreter with the library on ``PYTHONPATH``:

    python3 perfbench/child.py --inputs IN.json --out OUT.json [--setup-only]
                               [--trace FILE] [--conformance DIR]

Set-up is timed from the start of this script, before ``import nilharmonic``,
until every group and measure config of the run is loaded and validated.  Each job is timed on its
own; the correctness gate, the output digest and the CLI conformance check run
after a job's timer stops and outside the trace.
"""

from __future__ import annotations

import time

# set-up is timed from here, so the standard-library modules that nilharmonic
# pulls in count even though this harness imports some of them first
T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import gen  # noqa: E402
from tracer import Tracer, self_time_by_name, top_level_time  # noqa: E402


def load_modules():
    import nilharmonic.groups as groups
    import nilharmonic.laplacian as laplacian
    import nilharmonic.linalg as linalg
    import nilharmonic.polynomials as polynomials
    import nilharmonic.serialize as serialize
    import nilharmonic.suite as suite
    import nilharmonic.verify as verify

    return argparse.Namespace(
        groups=groups, polynomials=polynomials, laplacian=laplacian, linalg=linalg,
        verify=verify, suite=suite, serialize=serialize,
    )


def reference_s() -> float:
    """Time of a fixed loop that does not touch the library: a 10 x 10
    Gauss-Jordan elimination over Fraction and tuple-keyed dict updates.

    It runs between jobs, untimed, so ``run.py`` can express every time at a
    fixed host speed.  The collector is off while it runs, so the size of the
    heap the library leaves behind does not change its time.
    """
    start = time.perf_counter()
    gc.disable()
    try:
        n = 10
        m = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(n)]
             for i in range(n)]
        for c in range(n):
            p = next((r for r in range(c, n) if m[r][c]), None)
            if p is None:
                continue
            m[c], m[p] = m[p], m[c]
            pivot = 1 / m[c][c]
            m[c] = [x * pivot for x in m[c]]
            for r in range(n):
                if r != c and m[r][c]:
                    f = m[r][c]
                    m[r] = [a - f * b for a, b in zip(m[r], m[c])]
        counts: dict[tuple[int, ...], int] = {}
        for i in range(3000):
            key = (i % 97, i % 13, i % 7)
            counts[key] = counts.get(key, 0) + i
    finally:
        gc.enable()
    return time.perf_counter() - start


# -- jobs --------------------------------------------------------------------

def run_job(nh, workload: str, job: dict, loaded: list) -> tuple[object, dict]:
    """Run one job through the public API; returns (raw result, rendered output)."""
    schema, measure = loaded[job["config"]]
    if workload == "harmonic":
        report = nh.laplacian.harmonic_basis(schema, measure, job["k"])
        return report, {"basis": [nh.serialize.polynomial_to_obj(p) for p in report.basis]}
    if workload == "preimage":
        q = nh.serialize.parse_polynomial(schema, job["q"])
        p = nh.laplacian.solve_preimage(schema, measure, q)
        return (q, p), {"preimage": nh.serialize.polynomial_to_obj(p)}
    records = nh.suite.run_invariant_suite(schema, measure, job["k"], job["radius"])
    return records, {
        "checks": [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in records]
    }


def gate(nh, workload: str, job: dict, cfg: dict, loaded: list, raw) -> bool:
    """Untimed correctness check of one job's result."""
    schema, measure = loaded[job["config"]]
    if workload == "harmonic":
        weights, _ = gen.coord_layout(cfg["group"])
        k = job["k"]
        dim = len(gen.monomials(weights, k)) - len(gen.monomials(weights, k - 2))
        if len(raw.basis) != dim:
            return False
        checks = nh.verify.check_harmonic_batch(schema, measure, list(raw.basis), 2)
        return all(c.passed for c in checks)
    if workload == "preimage":
        q, p = raw
        group = cfg["group"]
        atoms = [(tuple(a["coords"]), Fraction(a["weight"])) for a in cfg["measure"]["atoms"]]
        support = [g for g, _ in atoms if any(g)]
        identity = (0,) * schema.n_coords
        ball = {identity, *support, *(gen.mul(group, s, t) for s in support for t in support)}
        element = nh.groups.GroupElement
        for g in sorted(ball):
            lhs = p.evaluate(element(g)) - sum(
                w * p.evaluate(element(gen.mul(group, g, s))) for s, w in atoms
            )
            if lhs != q.evaluate(element(g)):
                return False
        return True
    return all(r.passed for r in raw)


def passes(nh, workload: str, job: dict, inputs: dict, loaded: list, raw) -> bool:
    """The gate's verdict; a result the gate cannot even read fails it."""
    try:
        return gate(nh, workload, job, inputs["configs"][job["config"]], loaded, raw)
    except Exception:
        traceback.print_exc()
        return False


def conformance(nh, workload: str, inputs: dict, out0: dict, workdir: Path) -> bool:
    """Run the first job through ``python -m nilharmonic --json`` and compare."""
    job = inputs["jobs"][0]
    cfg = inputs["configs"][job["config"]]
    workdir.mkdir(parents=True, exist_ok=True)
    group_path, measure_path, report_path = (
        workdir / "group.json", workdir / "measure.json", workdir / "report.json"
    )
    group_path.write_text(json.dumps(cfg["group"]), encoding="utf-8")
    measure_path.write_text(json.dumps(cfg["measure"]), encoding="utf-8")
    argv = [sys.executable, "-m", "nilharmonic", workload,
            "--group", str(group_path), "--measure", str(measure_path)]
    if workload == "preimage":
        q_path = workdir / "q.txt"
        q_path.write_text(job["q"], encoding="utf-8")
        argv.append(str(q_path))
    else:
        argv += ["--k", str(job["k"])]
        if workload == "verify":
            argv += ["--radius", str(job["radius"])]
    argv += ["--json", str(report_path)]
    proc = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
    if proc.returncode != 0:
        print(f"conformance: CLI exit {proc.returncode}: {proc.stderr.decode()[-500:]}",
              file=sys.stderr)
        return False
    payload = json.loads(report_path.read_text(encoding="utf-8"))
    key = {"harmonic": "basis", "preimage": "preimage", "verify": "checks"}[workload]
    return payload[key] == out0[key]


# -- tracing -----------------------------------------------------------------

def instrument(tracer: Tracer, nh) -> None:
    """Plan wrappers on every public name the workloads reach, at each site
    where another module imports it."""
    g, p, lap, la, v, su, se = (
        nh.groups, nh.polynomials, nh.laplacian, nh.linalg, nh.verify, nh.suite, nh.serialize
    )
    t = tracer

    def sites(name, owners, after=None, before=None):
        for owner, attr in owners:
            t.plan(owner, attr, lambda fn: t.span(name, fn, after, before))

    def ball_after(tr, args, result):
        levels = bool(result) and isinstance(result[0], list)
        tr.add("groups.ball.points", sum(map(len, result)) if levels else len(result))
        tr.distinct["groups.ball"].add((args[0], tuple(args[1]), args[2]))

    def ball_levels_points(fn):
        def wrapper(*args):
            result = fn(*args)
            if t.parent_name() == "groups.adaptedness":
                t.add("groups.adaptedness.points", sum(map(len, result)))
            return result
        return wrapper

    def translate_after(tr, args, result):
        tr.add("polynomials.translate.terms_out", len(result.terms))

    def matrix_after(tr, args, result):
        schema, measure, k = args
        tr.add("laplacian.matrix.cols", result.cols)
        tr.add("laplacian.matrix.nnz", tr.matrix_signature(result)[1])
        tr.distinct["laplacian.matrix"].add((schema, tuple(measure.atoms.items()), k))

    def solve_before(tr, args):
        tr.solve_key = tr.matrix_signature(args[0])[0]

    def rref_after(tr, args, result):
        m = args[0]
        key, nnz = tr.matrix_signature(m)
        if tr.parent_name() == "linalg.solve":
            key = tr.solve_key  # an augmented system counts as its coefficient matrix
        tr.add("linalg.rref.cells", m.rows * m.cols)
        tr.add("linalg.rref.nnz_in", nnz)
        tr.add("linalg.rref.nnz_out", sum(1 for row in result[0].data for x in row if x))
        tr.distinct["linalg.rref"].add(key)

    def batch_after(tr, args, result):
        tr.add("verify.harmonic_batch.points", sum(c.checked_points for c in result))

    def left_right_after(tr, args, result):
        tr.add("verify.left_right.tuples", result.left.tuples_checked + result.right.tuples_checked)

    for owner in (g, p, v):
        t.plan(owner, "mul_coords", lambda fn: t.counter("groups.mul_coords.calls", fn))
    t.plan(p.Polynomial, "evaluate", lambda fn: t.counter("polynomials.evaluate.calls", fn))
    t.plan(g, "ball_levels", ball_levels_points)
    sites("groups.ball", [(v, "ball"), (v, "ball_levels"), (su, "ball")], ball_after)
    sites("groups.adaptedness", [(lap, "reaches_all_generators")])
    sites("polynomials.translate",
          [(m, f) for m in (p, lap, su) for f in ("translate_left", "translate_right")],
          translate_after)
    sites("polynomials.pk_basis", [(lap, "pk_basis"), (lap, "dim_pk"), (su, "pk_basis")])
    sites("laplacian.measure", [(se, "Measure")])
    sites("laplacian.matrix", [(lap, "laplacian_matrix"), (su, "laplacian_matrix")], matrix_after)
    sites("laplacian.apply", [(lap, "apply_laplacian"), (su, "apply_laplacian")])
    sites("laplacian.entry",
          [(lap, "harmonic_basis"), (lap, "solve_preimage"), (su, "harmonic_basis")])
    sites("linalg.rref", [(la.RationalMatrix, "rref")], rref_after)
    sites("linalg.kernel", [(la.RationalMatrix, "kernel_basis")])
    sites("linalg.solve", [(la.RationalMatrix, "solve")], before=solve_before)
    sites("verify.harmonic_batch",
          [(v, "check_harmonic_batch"), (su, "check_harmonic_batch")], batch_after)
    sites("verify.left_right",
          [(v, "check_left_right_agreement"), (su, "check_left_right_agreement")],
          left_right_after)
    sites("suite.run", [(su, "run_invariant_suite")])
    sites("serialize.load", [(se, "schema_from_config"), (se, "measure_from_config")])
    sites("serialize.parse", [(se, "parse_polynomial")])
    sites("serialize.render", [(se, "polynomial_to_obj")])


SPAN_SECONDS = [
    "groups.ball", "groups.adaptedness", "polynomials.translate", "polynomials.pk_basis",
    "laplacian.measure", "laplacian.matrix", "laplacian.apply", "laplacian.entry",
    "linalg.rref", "linalg.kernel", "linalg.solve", "verify.harmonic_batch",
    "verify.left_right", "suite.run", "serialize.load", "serialize.parse",
    "serialize.render", "trace.bookkeeping",
]
SPAN_CALLS = ["groups.ball", "polynomials.translate", "laplacian.matrix", "laplacian.apply",
              "linalg.rref", "linalg.solve"]
COUNTERS = [
    "groups.mul_coords.calls", "groups.ball.points", "groups.adaptedness.points",
    "polynomials.translate.terms_out", "polynomials.evaluate.calls", "laplacian.matrix.cols",
    "laplacian.matrix.nnz", "linalg.rref.cells", "linalg.rref.nnz_in", "linalg.rref.nnz_out",
    "verify.harmonic_batch.points", "verify.left_right.tuples",
]
PER_DISTINCT = {
    "groups.ball.calls_per_distinct": "groups.ball",
    "laplacian.matrix.builds_per_distinct": "laplacian.matrix",
    "linalg.rref.calls_per_distinct": "linalg.rref",
}


def layer_metrics(tracer: Tracer, jobs_s: float) -> dict[str, float]:
    """Per-layer figures of one traced run.  ``.s`` figures are self times."""
    spans = tracer.closed_spans()
    in_jobs = lambda job: job != "setup"  # noqa: E731
    self_s = self_time_by_name(spans, lambda job: True)
    calls: dict[str, int] = {}
    for s in spans:
        calls[s[0]] = calls.get(s[0], 0) + 1
    out: dict[str, float] = {f"{n}.s": self_s.get(n, 0.0) for n in SPAN_SECONDS}
    out.update({f"{n}.calls": calls.get(n, 0) for n in SPAN_CALLS})
    out.update({k: tracer.counts[k][0] for k in COUNTERS})
    for metric, name in PER_DISTINCT.items():
        n_distinct = len(tracer.distinct[name])
        out[metric] = calls.get(name, 0) / n_distinct if n_distinct else 0.0
    out["trace.remainder.s"] = jobs_s - top_level_time(spans, in_jobs)
    return out


def self_times_add_up(tracer: Tracer, jobs_s: float) -> bool:
    """Job phase: layer self times + bookkeeping + remainder == traced jobs_s."""
    spans = tracer.closed_spans()
    in_jobs = lambda job: job != "setup"  # noqa: E731
    total = sum(self_time_by_name(spans, in_jobs).values())
    remainder = jobs_s - top_level_time(spans, in_jobs)
    return abs(total + remainder - jobs_s) <= 1e-6 * jobs_s


def mul_coords_rate(nh, schemas) -> float:
    """Untimed micro-measure: raw mul_coords calls per second on fixed pairs
    from each group's radius-3 ball."""
    ops, elapsed = 0, 0.0
    for schema in schemas:
        pts = [e.coords for e in nh.groups.ball(schema, nh.groups.standard_generators(schema), 3)]
        pairs = [(pts[i], pts[(7 * i + 3) % len(pts)]) for i in range(len(pts))]
        mul = nh.groups.mul_coords
        start = time.perf_counter()
        while time.perf_counter() - start < 0.1:
            for a, b in pairs:
                mul(schema, a, b)
            ops += len(pairs)
        elapsed += time.perf_counter() - start
    return ops / elapsed


# -- main --------------------------------------------------------------------

def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", help="write spans and counters to this file")
    ap.add_argument("--conformance", help="run the CLI conformance check in this directory")
    args = ap.parse_args()
    with open(args.inputs, encoding="utf-8") as fh:
        inputs = json.load(fh)
    workload = inputs["workload"]

    nh = load_modules()
    tracer = None
    if args.trace:
        tracer = Tracer()
        instrument(tracer, nh)
        tracer.install()
    loaded = []
    for cfg in inputs["configs"]:
        schema = nh.serialize.schema_from_config(cfg["group"])
        loaded.append((schema, nh.serialize.measure_from_config(schema, cfg["measure"])))
    if tracer:
        tracer.uninstall()
    result: dict = {"setup_s": time.perf_counter() - T_START}
    result["setup_ref_s"] = statistics.median(reference_s() for _ in range(9))
    if args.setup_only:
        Path(args.out).write_text(json.dumps(result), encoding="utf-8")
        return 0

    spec = gen.load_spec()
    golden = []
    if inputs["seed"] == spec["default_seed"]:
        golden = json.loads(Path(__file__).with_name("golden.json").read_text())[workload]
    times, refs, digests, failed = [], [], [], []
    bytes_out = 0
    run_digest = hashlib.sha256()
    out0 = None
    for j, job in enumerate(inputs["jobs"]):
        refs.append(reference_s())
        if tracer:
            tracer.job = j
            tracer.install()
        start = time.perf_counter()
        try:
            raw, out = run_job(nh, workload, job, loaded)
        except Exception:  # a failing job is counted, and the loop goes on
            raw, out = None, {"error": traceback.format_exc(limit=3)}
        times.append(time.perf_counter() - start)
        if tracer:
            tracer.uninstall()
        ok = "error" not in out and passes(nh, workload, job, inputs, loaded, raw)
        blob = gen.canonical_bytes(out)
        digest = hashlib.sha256(blob).hexdigest()
        if j < len(golden) and golden[j] != digest:
            ok = False
        if workload != "verify":
            bytes_out += len(blob)
        run_digest.update((b"," if j else b"[") + blob)
        digests.append(digest)
        if not ok:
            failed.append(j)
            print(f"job {j} failed: {out.get('error', 'correctness gate')}", file=sys.stderr)
        if j == 0:
            out0 = out
    run_digest.update(b"]")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    conformance_ok = None
    if args.conformance:
        try:
            conformance_ok = conformance(nh, workload, inputs, out0, Path(args.conformance))
        except (OSError, subprocess.SubprocessError, ValueError, KeyError) as exc:
            print(f"conformance: {exc!r}", file=sys.stderr)
            conformance_ok = False
        if not conformance_ok and 0 not in failed:
            failed.insert(0, 0)

    result.update({
        "job_times_s": times,
        "job_ref_s": refs,
        "failed_jobs": failed,
        "job_digests": digests,
        "outputs_sha256": run_digest.hexdigest(),
        "golden_checked": min(len(golden), len(digests)),
        "conformance": conformance_ok,
        "peak_rss_mb": peak_kb / 1024,
        "bytes_out": bytes_out,
    })
    if tracer:
        jobs_s = sum(times)
        layers = layer_metrics(tracer, jobs_s)
        layers["serialize.bytes_out"] = bytes_out
        layers["groups.mul_coords.ops_per_s"] = mul_coords_rate(
            nh, sorted({s for s, _ in loaded}, key=lambda s: s.name())
        )
        result["layers"] = layers
        result["self_times_add_up"] = self_times_add_up(tracer, jobs_s)
        with open(args.trace, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
