"""Benchmark entry point.

    python3 perfbench/run.py --workload {harmonic,preimage,verify} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout.  The inputs are generated from the
seed; each client is a fresh ``perfbench/child.py`` interpreter that runs its
jobs one after another while this process only waits.

``--trace 0`` times four set-up-only clients and one full client, and prints
the end-to-end metrics.  ``--trace 1`` runs the same jobs in an untraced and
then a traced client, and prints the per-layer metrics, including the tracing
overhead.  The last line of stdout is the JSON result; the line before it
holds the run's metadata.  Spans are written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NoReturn

import gen

HERE = Path(__file__).resolve().parent
DEADLINE_S = 170
SETUP_SAMPLES = 5
# Typical time of child.reference_s() on the 2-core VM the benchmark was
# written on (Python 3.11).  On a shared host the speed of
# the processor drifts by tens of percent within minutes; the same drift
# slows the reference loop run between jobs, so every reported time t is
# t * REF_NOMINAL_S / (median reference time of that client).  Raw figures
# are in the metadata line.
REF_NOMINAL_S = 0.0075


def fail(msg: str) -> NoReturn:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def tail(times: list[float]) -> tuple[float, float]:
    """Time at the highest percentile with at least 10 jobs beyond it: the
    value of rank N - 10 (1-based), i.e. percentile 100 (N - 10) / N."""
    n = len(times)
    if n < 11:
        raise ValueError("need at least 11 jobs for a tail with 10 jobs beyond it")
    return sorted(times)[n - 11], 100.0 * (n - 10) / n


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "nilharmonic").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


class Runner:
    """Starts clients one at a time and waits for each, within one deadline."""

    def __init__(self, root: Path, workdir: Path, inputs_path: Path):
        self.root, self.workdir, self.inputs_path = root, workdir, inputs_path
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.count = 0

    def client(self, *extra: str) -> dict:
        self.count += 1
        out = self.workdir / f"client{self.count}.json"
        argv = [sys.executable, str(HERE / "child.py"), "--inputs", str(self.inputs_path),
                "--out", str(out), *extra]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            fail("out of time before starting a client")
        try:
            proc = subprocess.run(argv, cwd=self.root, env=self.env, timeout=remaining,
                                  stdout=sys.stderr)
        except subprocess.TimeoutExpired:
            fail(f"client {self.count} did not finish within {DEADLINE_S} s")
        if proc.returncode != 0:
            fail(f"client {self.count} exited with code {proc.returncode}")
        return json.loads(out.read_text(encoding="utf-8"))


def slowdown(ref_s: float) -> float:
    """How many times slower than nominal the host ran the reference loop."""
    return ref_s / REF_NOMINAL_S


def jobs_at_nominal_speed(client: dict) -> list[float]:
    factor = slowdown(statistics.median(client["job_ref_s"]))
    return [t / factor for t in client["job_times_s"]]


def end_to_end(main: dict, setups: list[dict]) -> dict[str, float]:
    """End-to-end metrics, every time scaled to the nominal host speed."""
    times = jobs_at_nominal_speed(main)
    jobs_s = sum(times)
    tail_s, _ = tail(times)
    return {
        "setup_s": statistics.median(c["setup_s"] / slowdown(c["setup_ref_s"]) for c in setups),
        "jobs_s": jobs_s,
        "job_p50_s": statistics.median(times),
        "job_tail_s": tail_s,
        "jobs_per_s": len(times) / jobs_s,
        "peak_rss_mb": main["peak_rss_mb"],
    }


def main() -> int:
    spec = gen.load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(spec["workloads"]))
    ap.add_argument("--seed", type=int, default=spec["default_seed"])
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "nilharmonic" / "__init__.py").is_file():
        fail("run from the root of a nilharmonic checkout (src/nilharmonic not found)")
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    out_root = root / ".perfbench_out"
    workdir = out_root / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = gen.generate(args.workload, args.seed, args.seconds)
        inputs_path = workdir / "inputs.json"
        inputs_path.write_bytes(gen.canonical_bytes(inputs))
        runner = Runner(root, workdir, inputs_path)
        conf = ("--conformance", str(workdir / "cli"))
        if args.trace:
            base = runner.client(*conf)
            trace_path = out_root / f"trace-{args.workload}-seed{args.seed}.json"
            traced = runner.client("--trace", str(trace_path))
            layers = traced["layers"]
            traced_jobs_s = sum(traced["job_times_s"])
            layers["trace.overhead"] = (
                sum(jobs_at_nominal_speed(traced)) / sum(jobs_at_nominal_speed(base)) - 1
            )
            layers["trace.jobs_s"] = traced_jobs_s
            additive = traced["self_times_add_up"]
            clients = [base, traced]
            values = layers
        else:
            setups = [runner.client("--setup-only") for _ in range(SETUP_SAMPLES - 1)]
            base = runner.client(*conf)
            setups.append(base)
            additive = True
            clients = [base]
            values = end_to_end(base, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(inputs["jobs"])
    failed_jobs = sorted(set().union(*(c["failed_jobs"] for c in clients)))
    failed = len(failed_jobs)
    same_outputs = len({c["outputs_sha256"] for c in clients}) == 1
    correct = failed == 0 and same_outputs and additive and base["conformance"] is True
    times = base["job_times_s"]
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": attempted,
        "failed_jobs": failed_jobs,
        "failed_frac": failed / attempted,
        "job_tail_percentile": tail(times)[1],
        "job_samples": len(times),
        "raw_jobs_s": sum(times),
        "raw_setup_s": base["setup_s"],
        "host_slowdown": slowdown(statistics.median(base["job_ref_s"])),
        "outputs_sha256": base["outputs_sha256"],
        "golden_jobs_checked": base["golden_checked"],
        "cli_conformance": base["conformance"],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(root),
        "source_sha256": source_digest(root),
    }
    print(json.dumps({"meta": meta}))
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            fail(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
