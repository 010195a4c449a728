#!/usr/bin/env python3
"""Benchmark for apolar: end-to-end metrics per workload, or a per-module trace.

    python3 perfbench/run.py --workload wild --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload gl5 --seed 7 --seconds 90 --trace 1
    python3 perfbench/run.py --quick

Runs from the root of a source checkout, against `src/` (nothing needs to be
installed).  One client runs operations back to back in a closed loop, with
no threads.  With `--trace 0` it reports the end-to-end metrics; with
`--trace 1` it reports per-layer metrics from an outside-in trace, plus the
tracing overhead.  A human-readable table goes to stderr; stdout ends with a
record of the run (provenance, sample counts, per-operation outcomes) and,
on the last line, the result object.  `--quick` runs every workload at
minimal size, traced and untraced, and checks every metric name is present
with its unit.  See README.md in this directory for the metric-to-layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden" / "theorem2_wild.json"
SETUP_SPAWNS = 9  # fresh interpreters timed for setup_s
COLD_SPAWNS = 9  # cold CLI processes timed for cli_cold_ms

# name -> unit, for every end-to-end metric the benchmark computes
END_TO_END = {
    "setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_p90": "ms",
    "op_s_max": "s", "fail_frac": "frac", "cli_cold_ms": "ms", "peak_rss_mb": "MB",
}
# the subset on the result line.  The gated workloads leave out the tail
# metrics, which spread too much between runs on shared cores, and fail_frac,
# which is 0 on a correct run and is carried by `failed`.
_GATED = ("setup_s", "ops_per_s", "op_ms_p50", "cli_cold_ms", "peak_rss_mb")
RESULT_METRICS = {
    "wild": _GATED,
    "powers": _GATED,
    "cli": _GATED,
    "gl5": ("setup_s", "ops_per_s", "op_ms_p50", "op_s_max", "fail_frac", "cli_cold_ms",
            "peak_rss_mb"),
}
# per-layer metrics from the traced run, per operation: name -> unit
PER_LAYER = {
    "poly.Poly.coefficient_vector.self_ms": "ms",
    "poly.monomials.calls": "count",
    "linalg.rref.self_ms": "ms",
    "linalg.rref.calls": "count",
    "linalg.entries": "count",
    "linalg.rank.self_ms": "ms",
    "linalg.kernel_basis.self_ms": "ms",
    "apolarity.contract.self_ms": "ms",
    "apolarity.catalecticant.self_ms": "ms",
    "apolarity.catalecticant.calls": "count",
    "apolarity.concise_dim.calls": "count",
    "apolarity.hilbert_function.calls": "count",
    "apolarity.ann_slice.calls": "count",
    "ideals.generated_slice.self_ms": "ms",
    "ideals.slice_from_forms.self_ms": "ms",
    "wildcert.product_locus.self_ms": "ms",
    "wildcert.product_locus.sample_yield": "ratio",
    "wildcert.cactus_lower_via_slice.self_ms": "ms",
    "wildcert.rank9_lower_cert.self_ms": "ms",
    "wildcert.squares_confined.self_ms": "ms",
    "wildcert.gamma_space.self_ms": "ms",
    "witness.tangent_limit_family.self_ms": "ms",
    "witness.double_point_span.self_ms": "ms",
    "ranks.sylvester_binary.self_ms": "ms",
    "parsing.parse_poly.self_ms": "ms",
    "cli.main.self_ms": "ms",
    "trace.overhead": "ratio",
}
_WILD_LAYERS = (
    "poly.Poly.coefficient_vector", "poly.monomials", "linalg.rref", "linalg.rank",
    "linalg.kernel_basis", "apolarity.contract", "apolarity.catalecticant",
    "apolarity.concise_dim", "apolarity.hilbert_function", "apolarity.ann_slice",
    "ideals.generated_slice", "ideals.slice_from_forms", "wildcert.product_locus",
    "wildcert.cactus_lower_via_slice", "wildcert.rank9_lower_cert",
    "wildcert.squares_confined", "wildcert.gamma_space", "witness.tangent_limit_family",
    "witness.double_point_span",
)
# functions each workload must reach; a traced run that sees no call fails
EXPECTED_LAYERS = {
    "wild": _WILD_LAYERS,
    "gl5": _WILD_LAYERS,
    "powers": ("poly.monomials", "linalg.rref", "linalg.rank", "linalg.kernel_basis",
               "apolarity.contract", "apolarity.catalecticant",
               "apolarity.hilbert_function", "apolarity.ann_slice"),
    "cli": ("cli.main", "parsing.parse_poly", "ranks.sylvester_binary", "linalg.rank",
            "apolarity.catalecticant", "apolarity.hilbert_function", "apolarity.ann_slice"),
}


class BenchError(Exception):
    """The benchmark cannot produce a valid result."""


# -- provenance -----------------------------------------------------------------


def git_commit():
    """The checked-out commit, read from .git without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(), "commit": git_commit(),
        "loop": "closed, one client, no threads",
    }


# -- machine-speed reference ------------------------------------------------------
#
# On shared cores the same operation can take twice as long a minute later,
# so every timing is expressed at a fixed reference speed, against reference
# work that runs no apolar code (reference.py).  In-process work is timed next
# to the reference kernel and a duration t is reported as
# t * KERNEL_SECONDS / (kernel time measured around it).  A spawned process is
# timed between two reference processes: bare interpreter starts for the
# import, the reference script for the cold CLI run, which also computes.
# Wall times are kept in the run record under "wall".

REF_EVERY_S = 0.05  # re-measure the kernel after this much operation time
BARE = (["-c", "pass"], 0.05)  # reference process and what it is taken to cost
REF_SCRIPT = ([str(BENCH / "reference.py")], reference.PROCESS_SECONDS)


def rescale(durations: list, cuts: list, refs: list, nominal: float) -> list:
    """Durations at reference speed.  refs[j] was measured once cuts[j]
    durations were done; the durations between cuts[j] and cuts[j+1] are
    scaled by nominal / median(refs[j-1 .. j+2]), a window around them."""
    out = []
    for j in range(len(refs) - 1):
        factor = nominal / statistics.median(refs[max(0, j - 1): j + 3])
        out += [t * factor for t in durations[cuts[j]:cuts[j + 1]]]
    return out


# -- cold processes -------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _spawn(argv) -> tuple:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=_child_env(),
                          capture_output=True, timeout=120)
    return time.perf_counter() - start, proc


def _spawns(argv, count: int, ref) -> tuple:
    """Wall and reference-scaled seconds of `count` fresh processes, each
    between two runs of the reference process, and the completed processes."""
    ref_argv, nominal = ref
    wall, procs, refs = [], [], [_spawn(ref_argv)[0]]
    for _ in range(count):
        seconds, proc = _spawn(argv)
        wall.append(seconds)
        procs.append(proc)
        refs.append(_spawn(ref_argv)[0])
    return wall, rescale(wall, list(range(count + 1)), refs, nominal), procs


def measure_setup(count: int) -> tuple:
    """Seconds from starting a fresh interpreter until `import apolar.cli` is done."""
    argv = ["-c", "import apolar.cli"]
    _spawn(argv)  # writes bytecode caches; not counted
    wall, scaled, procs = _spawns(argv, count, BARE)
    for proc in procs:
        if proc.returncode != 0:
            raise BenchError(f"import apolar.cli failed: {proc.stderr.decode()[-500:]}")
    return wall, scaled


def measure_cold_cli(count: int) -> tuple:
    """Seconds of `python -m apolar.cli theorem2` on the wild cubic, and the
    runs that failed the exit-code or golden-output check."""
    import workloads

    golden = GOLDEN.read_bytes()
    argv = ["-m", "apolar.cli", "theorem2", "--poly", workloads.WILD,
            "--vars", ",".join(workloads.WILD_VARS)]
    wall, scaled, procs = _spawns(argv, count, REF_SCRIPT)
    failures = [f"cold theorem2: exit {proc.returncode}, stdout "
                f"{'matches' if proc.stdout == golden else 'differs from'} golden"
                for proc in procs if proc.returncode != 0 or proc.stdout != golden]
    return wall, scaled, failures


# -- the closed loop --------------------------------------------------------------


class Outcomes:
    """Latencies (wall and reference-scaled), failures and per-operation
    records of one pass."""

    def __init__(self):
        self.latencies = []
        self.scaled = []
        self.failures = []
        self.records = []
        self.refs = []  # reference kernel times ...
        self.cuts = []  # ... and how many operations were done before each

    def run(self, workload, deadline, *, count=None, tracer=None):
        """Run operations in order until the deadline (at least one), or
        exactly `count` of them."""
        ops = workload.ops
        i = 0
        self._reference()
        unsettled = 0.0
        while True:
            if count is not None:
                if i >= count:
                    break
            elif (i and time.perf_counter() >= deadline) or \
                    (workload.max_ops is not None and i >= workload.max_ops):
                break
            op = ops[i % len(ops)]
            start = time.perf_counter()
            try:
                out = op.call()
                problem = None
            except Exception as exc:  # a failing operation is counted, not fatal
                out, problem = None, f"raised {exc!r}"
            seconds = time.perf_counter() - start
            if tracer is not None:
                tracer.end_op(i, seconds)
            if problem is None:
                problem = op.check(out)
            self.latencies.append(seconds)
            if problem:
                self.failures.append(f"op {i} ({op.kind}): {problem}")
            if op.describe is not None:
                record = {"op": i, "wall_s": seconds}
                if out is not None:
                    record.update(op.describe(out))
                self.records.append(record)
            i += 1
            unsettled += seconds
            if unsettled >= REF_EVERY_S:
                self._reference()
                unsettled = 0.0
        if self.cuts[-1] < len(self.latencies):
            self._reference()
        self.scaled = rescale(self.latencies, self.cuts, self.refs, reference.KERNEL_SECONDS)
        return self

    def _reference(self):
        self.refs.append(reference.time_kernel())
        self.cuts.append(len(self.latencies))


def _metric(value, unit, samples=None) -> dict:
    out = {"value": value, "unit": unit}
    if samples is not None:
        out["samples"] = samples
    return out


def latency_metrics(lat: list) -> dict:
    n = len(lat)
    out = {
        "ops_per_s": _metric(n / sum(lat), "1/s", n),
        "op_ms_p50": _metric(1000.0 * statistics.median(lat), "ms", n),
        "op_s_max": _metric(max(lat), "s", n),
    }
    # reported only with at least ten samples beyond the 90th percentile
    p90 = 1000.0 * statistics.quantiles(lat, n=10)[8] if n >= 100 else None
    out["op_ms_p90"] = _metric(p90, "ms", n)
    return out


def timing_metrics(lat: list, setup: list, cold: list) -> dict:
    out = latency_metrics(lat)
    out["setup_s"] = _metric(statistics.median(setup), "s", len(setup))
    out["cli_cold_ms"] = _metric(1000.0 * statistics.median(cold), "ms", len(cold))
    return out


def run_untraced(args, workload, quick: bool) -> tuple:
    setup_wall, setup = measure_setup(2 if quick else SETUP_SPAWNS)
    cold_wall, cold, cold_failures = measure_cold_cli(1 if quick else COLD_SPAWNS)
    warmup(workload)
    loop = Outcomes().run(workload, time.perf_counter() + args.seconds)
    metrics = timing_metrics(loop.scaled, setup, cold)
    metrics["peak_rss_mb"] = _metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1)
    metrics["fail_frac"] = _metric(len(loop.failures) / len(loop.latencies), "frac",
                                   len(loop.latencies))
    attempted = len(loop.latencies) + len(cold)
    failures = loop.failures + cold_failures
    detail = {"failures": failures[:50], "records": loop.records,
              "wall": timing_metrics(loop.latencies, setup_wall, cold_wall),
              "reference_ms_p50": 1000.0 * statistics.median(loop.refs),
              "setup_s_samples": setup, "cli_cold_s_samples": cold,
              "setup_s_wall_samples": setup_wall, "cli_cold_s_wall_samples": cold_wall}
    return metrics, attempted, failures, detail


def run_traced(args, workload) -> tuple:
    """An untraced pass for a third of the time, then the same operations traced."""
    from tracer import Tracer

    warmup(workload)
    plain = Outcomes().run(workload, time.perf_counter() + args.seconds / 3)
    count = len(plain.latencies)
    tracer = Tracer()
    tracer.install()
    try:
        traced = Outcomes().run(workload, 0.0, count=count, tracer=tracer)
    finally:
        tracer.remove()
    overhead = sum(traced.scaled) / sum(plain.scaled)
    scale = sum(traced.scaled) / sum(traced.latencies)
    missing = [name for name in EXPECTED_LAYERS[workload.name] if not tracer.calls[name]]
    if missing:
        raise BenchError(f"traced {workload.name} run never called: {', '.join(missing)}")
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead":
            value = overhead
        elif name == "wildcert.product_locus.sample_yield":
            value = tracer.sample_yield()
        elif name == "linalg.entries":
            value = tracer.counters["linalg.entries"] / tracer.ops
        else:
            func, field = name.rsplit(".", 1)
            value = tracer.per_op(func, field, scale)
        metrics[name] = _metric(value, unit, tracer.ops)
    failures = plain.failures + traced.failures
    attempted = 2 * count
    detail = {"failures": failures[:50], "records": traced.records,
              "traced_ops": tracer.ops, "untraced_s": sum(plain.latencies),
              "traced_s": sum(traced.latencies), "reference_scale": scale,
              "functions": tracer.table(scale),
              "slowest_op": tracer.slowest_op(),
              "product_locus": {k: v for k, v in tracer.counters.items()
                                if k.startswith("wildcert.")}}
    return metrics, attempted, failures, detail


def warmup(workload):
    """One untimed operation, so the first timed one does not pay first-call costs."""
    if workload.warmup:
        workload.ops[0].call()


# -- reporting --------------------------------------------------------------------


def print_table(name: str, metrics: dict):
    print(f"== {name}", file=sys.stderr)
    for key in sorted(metrics):
        m = metrics[key]
        n = f"  (n={m['samples']})" if "samples" in m else ""
        value = "withheld" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {key:<42} {value:>14} {m['unit']}{n}", file=sys.stderr)


def run_one(args, quick: bool = False) -> dict:
    import workloads

    gen_start = time.perf_counter()
    workload = workloads.BUILDERS[args.workload](args.seed, quick)
    gen_s = time.perf_counter() - gen_start
    if args.trace:
        metrics, attempted, failures, detail = run_traced(args, workload)
        wanted = tuple(PER_LAYER)
    else:
        metrics, attempted, failures, detail = run_untraced(args, workload, quick)
        wanted = RESULT_METRICS[args.workload]
    print_table(f"{args.workload} seed={args.seed} trace={args.trace}", metrics)
    for line in failures[:10]:
        print(f"  FAILED {line}", file=sys.stderr)
    record = {"provenance": provenance(args), "input_generation_s": gen_s,
              "inputs": workload.meta, "metrics": metrics, **detail}
    print(json.dumps(record))
    return metrics, {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name]["value"], "unit": metrics[name]["unit"]}
                    for name in wanted},
    }


def quick(args) -> int:
    """Every workload at minimal size, untraced and traced; names and units checked."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text()) \
        if (ROOT / "BENCHMARK.json").is_file() else None
    problems = []
    for name in ("wild", "gl5", "powers", "cli"):
        for trace in (0, 1):
            run_args = argparse.Namespace(workload=name, seed=args.seed, seconds=0.5,
                                          trace=trace)
            metrics, result = run_one(run_args, quick=True)
            for metric, unit in (PER_LAYER if trace else END_TO_END).items():
                if metrics.get(metric, {}).get("unit") != unit:
                    problems.append(f"{name} trace={trace}: {metric} missing or without unit")
            print(json.dumps({"workload": name, "trace": trace, **result}))
    if spec is not None:
        declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
        known = {**END_TO_END, **PER_LAYER}
        for metric, unit in declared.items():
            if known.get(metric) != unit:
                problems.append(f"BENCHMARK.json: {metric} [{unit}] is not a metric this benchmark reports")
        for w in spec["workloads"]:
            if w["name"] not in RESULT_METRICS:
                problems.append(f"BENCHMARK.json: unknown workload {w['name']}")
            else:
                gap = set(m["name"] for m in spec["end_to_end"]) - set(RESULT_METRICS[w["name"]])
                if gap:
                    problems.append(f"BENCHMARK.json: {w['name']} does not report {sorted(gap)}")
    for line in problems:
        print(f"quick check: {line}", file=sys.stderr)
    print(json.dumps({"quick": True, "ok": not problems, "problems": problems}))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(RESULT_METRICS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="run every workload at minimal size and check metric names")
    args = parser.parse_args(argv)
    if not args.quick and args.workload is None:
        parser.error("--workload is required unless --quick is given")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "apolar" / "__init__.py").is_file() or not GOLDEN.is_file():
        print(f"error: run from a source checkout: {SRC / 'apolar'} or the golden file "
              "is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import apolar

    if Path(apolar.__file__).resolve().parent != SRC / "apolar":
        print(f"error: imported apolar from {apolar.__file__}, not {SRC}", file=sys.stderr)
        return 2
    try:
        if args.quick:
            return quick(args)
        _, result = run_one(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
