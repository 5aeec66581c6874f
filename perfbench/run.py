#!/usr/bin/env python3
"""Benchmark of the higgs-threeterm command line, end to end and per layer.

Run from the root of a source tree:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 is the end-to-end run. It is a closed loop with one client: it
starts a fresh `python -m higgs_threeterm ...` process, waits for it, and
starts the next, for S seconds, after one untimed run that fills the
caches. Before each CLI process it times a fresh interpreter importing
`higgs_threeterm.cli` and then `REFERENCE_PROGRAM`, a fixed Python program
that is not part of the code under test. It reports `wall_vs_ref`, the
median over the run of CLI wall time divided by the wall time of the
reference run just before it; the median peak RSS of the CLI processes;
and `setup_s`, the fastest import.

Why a ratio: on a shared 2-vCPU VM the same process runs up to 1.8x
slower while neighbours are busy, in stretches that last from under a
second to minutes, and nothing inside the VM shows it (steal stays near
0). Between runs of 20-30 s, the fastest CLI wall time spread 8-21% and
the median 18-36%. The reference run is slowed as much as the CLI run
next to it, so their ratio spread 2-6%. `setup_s` has to stay in
seconds; the fastest import is the least disturbed one. The raw medians
and minima are kept in the run record and printed above the result line.

--trace 1 is the traced run, a fixed suite whatever the workload. In this
process it calls `cli.main` once untraced and once with the module
attributes of `traced_targets` wrapped, for every workload that
`perfbench/predictions.json` names. It reports each per-layer metric from
the workload predictions.json names for it, so every traced run reports
every layer. The code path is unchanged: the traced report must be
byte-identical to the untraced one, `timing_seconds` aside. Spans are kept
in memory and written to `perfbench/out/` at the end.

Every report is gated outside the timed region: exit code 0, `pass` true,
valid against `schemas/cli-reports.schema.json`, and equal to
`perfbench/reference.json`. A report that fails counts as a failed attempt.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; failure_rate is failed /
attempted. The metric names and units come from `BENCHMARK.json`. The exit
code is 0 whenever that line is printed, and 2 when the tree has no
program to run.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
SRC_DIR = ROOT / "src"
SCHEMA_PATH = ROOT / "schemas" / "cli-reports.schema.json"

MIN_SETUP_SAMPLES = 9
MIN_WALL_SAMPLES = 5
IMPORT_CLI = "import higgs_threeterm.cli"
# Like the CLI: a fresh interpreter, numpy imported, then pure-Python
# enumeration of integer tuples into a dict. 0.25-0.45 s on 2 vCPUs.
REFERENCE_PROGRAM = """
import numpy

def chains(n, acc=()):
    if n == 0:
        yield acc
        return
    for step in (-1, 0, 1, 2):
        yield from chains(n - 1, acc + (step,))

seen = {}
for c in chains(8):
    key = (sum(c), max(c))
    seen[key] = seen.get(key, 0) + len(c)
assert numpy.asarray(sorted(seen.values())).sum() == 8 * 4**8
"""

# All boxes use r_1 = 0 and n_min = 2. The sweeps are exhaustive, so the
# seed does not change their input; it only seeds the metric battery grid.
# Each box takes about a second on 2 vCPUs, so that one run holds about
# fifteen CLI processes.
WORKLOADS = {
    "theorem-wide": lambda seed: [
        "sweep", "--mode", "theorem", "--n-min", "2", "--n-max", "8",
        "--max-rise", "16", "--bound", "20", "--workers", "1",
    ],
    "theorem-dense": lambda seed: [
        "sweep", "--mode", "theorem", "--n-min", "2", "--n-max", "13",
        "--max-rise", "2", "--bound", "13", "--workers", "1",
    ],
    "necessity": lambda seed: [
        "sweep", "--mode", "necessity", "--n-min", "2", "--n-max", "9",
        "--max-rise", "10", "--bound", "10", "--workers", "2",
    ],
    "metric-battery": lambda seed: ["verify-metric", "--grid", "1000", "--seed", str(seed)],
}

# `json.dumps(report, indent=2)` puts the top-level timing on a line of its own.
_TIMING_LINE = re.compile(rb'^  "timing_seconds": -?[0-9][0-9.eE+-]*,?\n', re.M)


def strip_timing(data: bytes) -> bytes:
    return _TIMING_LINE.sub(b"", data)


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Gate:
    """Correctness gate for one CLI report against `perfbench/reference.json`."""

    def __init__(self, reference: dict):
        import jsonschema

        schema = json.loads(SCHEMA_PATH.read_text())
        self._validator = jsonschema.Draft202012Validator(schema)
        self._reference = reference
        # Reports that differ only in the timing line get the same verdict.
        self._valid: set[str] = set()

    def problems(self, workload: str, seed: int, rc: int, data: bytes) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}"]
        try:
            report = json.loads(data)
        except ValueError as exc:
            return [f"report is not JSON: {exc}"]
        key = hashlib.sha256(strip_timing(data)).hexdigest()
        if key not in self._valid:
            errors = [e.message for e in self._validator.iter_errors(report)]
            if errors:
                return [f"schema: {errors[0][:200]}"]
            self._valid.add(key)
        if report.get("pass") is not True:
            return ["pass is not true"]
        ref = self._reference[workload]
        found = []
        if workload == "metric-battery":
            params = report["parameters"]
            if (params["grid_size"], params["seed"]) != (ref["grid_size"], seed):
                found.append(f"parameters {params}")
            names = [row["check_name"] for row in report["checks"]]
            if names != ref["checks"]:
                found.append(f"checks {names}")
            found += [f"check {row['check_name']} failed" for row in report["checks"] if not row["pass"]]
            return found
        for field in ("parameters", "totals", "per_n"):
            if report[field] != ref[field]:
                found.append(f"{field} differs from the reference")
        if digest(report["violations"]) != ref["violations_sha256"]:
            found.append(f"violations differ from the reference ({len(report['violations'])} found)")
        return found


def run_context(workload: str, seed: int) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = done.stdout.strip() or None
    return {
        "workload": workload,
        "command": ["python", "-m", "higgs_threeterm", *WORKLOADS[workload](seed)],
        "seed": seed,
        "seed_changes_input": workload == "metric-battery",
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
    }


# --- end-to-end run ------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p)
    return env


def run_process(argv: list[str], env: dict, stdout) -> tuple[float, float, int, bytes]:
    """Run one process; return (wall s, peak RSS MB of it and its workers, exit code, stdout)."""
    started = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=stdout, stderr=subprocess.DEVNULL, cwd=ROOT, env=env)
    try:
        data = proc.stdout.read() if stdout == subprocess.PIPE else b""
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.stdout is not None:
        proc.stdout.close()
    return wall, usage.ru_maxrss * 1024 / 1e6, proc.returncode, data


def end_to_end(workload: str, seed: int, seconds: int, gate: Gate, record: dict) -> tuple[dict, int, int]:
    env = child_env()

    def timed_run(argv: list[str], what: str) -> float:
        wall, _, rc, _ = run_process(argv, env, subprocess.DEVNULL)
        if rc != 0:
            raise SystemExit(f"error: {what} exited with {rc}")
        return wall

    def time_import() -> float:
        return timed_run([sys.executable, "-c", IMPORT_CLI], f"`{IMPORT_CLI}`")

    def time_reference() -> float:
        return timed_run([sys.executable, "-c", REFERENCE_PROGRAM], "the reference program")

    argv = [sys.executable, "-m", "higgs_threeterm", *WORKLOADS[workload](seed)]
    setup = []
    samples = []

    def sample(timed: bool) -> None:
        ref = time_reference()
        wall, rss, rc, data = run_process(argv, env, subprocess.PIPE)
        problems = gate.problems(workload, seed, rc, data)
        samples.append({"timed": timed, "wall_s": wall, "reference_s": ref, "peak_rss_mb": rss,
                        "exit_code": rc, "report_bytes": len(data), "problems": problems})

    # The untimed run fills the bytecode and page caches; it is gated too.
    time_import()
    sample(timed=False)
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(samples) <= MIN_WALL_SAMPLES:
        setup.append(time_import())
        sample(timed=True)
    while len(setup) < MIN_SETUP_SAMPLES:
        setup.append(time_import())
    failed = sum(1 for s in samples if s["problems"])
    timed = [s for s in samples if s["timed"]]
    walls = [s["wall_s"] for s in timed]
    record.update(setup_s=setup, samples=samples, raw={
        "wall_median_s": statistics.median(walls), "wall_min_s": min(walls),
        "reference_median_s": statistics.median(s["reference_s"] for s in timed),
        "setup_median_s": statistics.median(setup),
    })
    metrics = {
        "wall_vs_ref": statistics.median(s["wall_s"] / s["reference_s"] for s in timed),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in timed),
        "setup_s": min(setup),
    }
    return metrics, len(samples), failed


# --- traced run ----------------------------------------------------------------


class Tracer:
    """In-memory spans (name, start, end, parent, request) in flat arrays."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.request_id = 0
        self._open = [-1]

    def wrap(self, name: str, fn):
        """Return `fn` recording one span per call."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        clock = time.perf_counter
        open_spans = self._open

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(open_spans[-1])
            self.request.append(self.request_id)
            self.start.append(0.0)
            self.end.append(0.0)
            open_spans.append(idx)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self.start[idx] = started
                open_spans.pop()

        return traced


def traced_targets(program) -> list[tuple[object, str, str]]:
    """(module, attribute, span name) for every call the traced run records."""
    cli, sweep, pairing, harmonic = program.cli, program.sweep, program.pairing, program.harmonic
    return [
        (cli, "main", "cli.main"),
        (sweep, "RootSequence", "chain.root_sequence"),
        (sweep, "is_admissible", "chain.is_admissible"),
        (sweep, "tail_slopes", "chain.tail_slopes"),
        (sweep, "multiplicities", "chain.multiplicities"),
        (sweep, "three_term_holds", "chain.three_term"),
        (sweep, "build_matching", "pairing.build_matching"),
        (sweep, "verify_certificate", "pairing.verify_certificate"),
        (pairing, "tail_slopes", "pairing.recheck.tail_slopes"),
        (pairing, "is_admissible", "pairing.recheck.is_admissible"),
        (sweep, "run_sweep", "sweep.run_sweep"),
        (cli, "_emit", "cli.emit"),
        (harmonic, "verification_report", "harmonic.verification_report"),
    ]


@contextmanager
def traced(tracer: Tracer, program):
    """Swap each traced attribute for its wrapper; restore them on exit.

    An attribute a later version of the code no longer has is skipped, so
    its counts read 0.
    """
    saved = []
    try:
        for module, attr, name in traced_targets(program):
            if hasattr(module, attr):
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, tracer.wrap(name, original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def with_workers(argv: list[str], workers: int) -> list[str]:
    argv = list(argv)
    argv[argv.index("--workers") + 1] = str(workers)
    return argv


def import_program() -> SimpleNamespace:
    sys.path.insert(0, str(SRC_DIR))
    import higgs_threeterm
    from higgs_threeterm import cli, harmonic, pairing, sweep

    if Path(higgs_threeterm.__file__).resolve().parent != SRC_DIR / "higgs_threeterm":
        raise SystemExit(f"error: imported higgs_threeterm from {higgs_threeterm.__file__}")
    return SimpleNamespace(cli=cli, sweep=sweep, pairing=pairing, harmonic=harmonic)


def layer_metrics(tracer: Tracer, request: int) -> dict:
    """Per-span-name totals and per-layer self time for one traced request."""
    import numpy as np

    req = np.frombuffer(tracer.request, dtype=np.int32)
    name_id = np.frombuffer(tracer.name_id, dtype=np.int32)
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    duration = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
    mine = req == request
    has_parent = mine & (parent >= 0)
    children = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(duration))
    self_time = duration - children

    out: dict[str, float] = {}
    for nid, name in enumerate(tracer.names):
        sel = mine & (name_id == nid)
        out[f"{name}_s"] = float(duration[sel].sum())
        out[f"{name}.calls"] = int(sel.sum())
        layer = name.split(".")[0] + ".self_s"
        out[layer] = out.get(layer, 0.0) + float(self_time[sel].sum())
    rechecks = ("pairing.recheck.tail_slopes", "pairing.recheck.is_admissible")
    out["pairing.hypothesis_rechecks"] = sum(out.get(f"{n}.calls", 0) for n in rechecks)
    out["pairing.hypothesis_recheck_s"] = sum(out.get(f"{n}_s", 0.0) for n in rechecks)
    return out


class TracedSuite:
    """One untraced and one traced `cli.main` pass per workload."""

    def __init__(self, seed: int, gate: Gate):
        self.seed = seed
        self.gate = gate
        self.program = import_program()
        self.tracer = Tracer()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def call(self, workload: str, argv: list[str], label: str) -> tuple[float, bytes]:
        """Run `cli.main(argv)` into a file; gate the report; return (wall s, report)."""
        path = OUT_DIR / f"report-{workload}-{label}.json"
        started = time.perf_counter()
        rc = self.program.cli.main([*argv, "--out", str(path)])
        wall = time.perf_counter() - started
        data = path.read_bytes()
        path.unlink()
        self.check(workload, label, self.gate.problems(workload, self.seed, rc, data))
        return wall, data

    def check(self, workload: str, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{workload} {label}: {p}" for p in problems]

    def run(self, workload: str) -> dict:
        argv = WORKLOADS[workload](self.seed)
        if "--workers" in argv:
            argv = with_workers(argv, 1)  # spans are recorded in this process only
        extra = {}
        untraced_wall, untraced = self.call(workload, argv, "untraced")
        reports = [untraced]
        if workload == "necessity":
            _, pooled = self.call(workload, with_workers(argv, 2), "untraced-2-workers")
            reports.append(pooled)
            one, two = (json.loads(r)["timing_seconds"] for r in (untraced, pooled))
            extra["sweep.pool_overhead_s"] = two - one / 2

        self.tracer.request_id += 1
        with traced(self.tracer, self.program):
            traced_wall, traced_report = self.call(workload, argv, "traced")
        reports.append(traced_report)
        if any(strip_timing(r) != strip_timing(untraced) for r in reports):
            self.check(workload, "identity", ["traced and untraced reports differ"])

        out = layer_metrics(self.tracer, self.tracer.request_id)
        out.update(extra)
        out["trace.overhead_s"] = traced_wall - untraced_wall
        out["cli.report_bytes"] = len(untraced)
        report = json.loads(untraced)
        if workload == "metric-battery":
            out.update(self.time_checks(report))
            return out
        tests = out["chain.tail_slopes.calls"]
        out["chain.stable_ratio"] = report["totals"]["stable"] / tests if tests else 0.0
        if report["parameters"]["mode"] == "theorem":
            certificates = report["totals"]["certificates"]
            if out["pairing.verify_certificate.calls"] != certificates:
                self.check(workload, "certificates", [
                    f"{out['pairing.verify_certificate.calls']} verify calls for {certificates} certificates"])
        return out

    def time_checks(self, battery: dict) -> dict:
        """Time each check alone through `verification_report(only=...)`."""
        harmonic = self.program.harmonic
        out = {}
        for row in battery["checks"]:
            name = row["check_name"]
            started = time.perf_counter()
            report = harmonic.verification_report(count=1000, seed=self.seed, only=name)
            out[f"harmonic.{name}_s"] = time.perf_counter() - started
            self.check("metric-battery", name, [] if report["pass"] else [f"check {name} failed"])
        return out

    def save_spans(self, path: Path) -> None:
        import numpy as np

        t = self.tracer
        np.savez(path, names=np.array(t.names), name_id=np.frombuffer(t.name_id, dtype=np.int32),
                 parent=np.frombuffer(t.parent, dtype=np.int32),
                 request=np.frombuffer(t.request, dtype=np.int32),
                 start=np.frombuffer(t.start), end=np.frombuffer(t.end))


def traced_run(workload: str, seed: int, gate: Gate, home: dict, record: dict) -> tuple[dict, int, int]:
    suite = TracedSuite(seed, gate)
    per_workload = {}
    # Necessity first: its 2-worker pool forks while this process is small.
    for name in sorted(set(home.values()), key=lambda w: w != "necessity"):
        per_workload[name] = suite.run(name)
    suite.save_spans(OUT_DIR / f"spans-{workload}-seed{seed}.npz")
    record.update(per_workload=per_workload, problems=suite.problems)
    metrics = {metric: per_workload[w].get(metric, 0.0) for metric, w in home.items()}
    return metrics, suite.attempted, suite.failed


# --- entry point ---------------------------------------------------------------


def load_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: cannot read {path}: {exc}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    # Turn SIGTERM into SystemExit, so that a running CLI process is killed
    # and waited for on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    for needed in (SRC_DIR / "higgs_threeterm" / "__init__.py", SCHEMA_PATH):
        if not needed.is_file():
            print(f"error: {needed} is missing; run from the root of a source tree", file=sys.stderr)
            return 2
    spec = load_json(ROOT / "BENCHMARK.json")
    predictions = load_json(BENCH_DIR / "predictions.json")
    gate = Gate(load_json(BENCH_DIR / "reference.json"))
    OUT_DIR.mkdir(exist_ok=True)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    home = {p["metric"]: p["measured_on"] for p in predictions["per_layer"]}
    if args.trace and set(home) != set(units):
        raise SystemExit("error: predictions.json and BENCHMARK.json name different per-layer metrics")

    record = {"context": run_context(args.workload, args.seed), "loadavg_before": os.getloadavg()}
    print(json.dumps({"context": record["context"]}))
    if args.trace:
        values, attempted, failed = traced_run(args.workload, args.seed, gate, home, record)
    else:
        values, attempted, failed = end_to_end(args.workload, args.seed, args.seconds, gate, record)
    record["loadavg_after"] = os.getloadavg()
    record["metrics"] = values
    record["failure_rate"] = failed / attempted
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    for name in units:
        value = values[name]
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{args.workload:>15}  {name:<48} {shown:>12} {units[name]}")
    for name, value in record.get("raw", {}).items():
        print(f"{args.workload:>15}  {name + ' (not a metric)':<48} {value:>12.6g} s")
    print(f"{args.workload:>15}  failure_rate {failed}/{attempted} = {failed / attempted}"
          f"  loadavg {record['loadavg_before'][0]:.2f} -> {record['loadavg_after'][0]:.2f}")
    for problem in record.get("problems", []) + [
        p for s in record.get("samples", []) for p in s["problems"]
    ]:
        print(f"FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
