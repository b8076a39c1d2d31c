"""squeezelab benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a squeezelab checkout; the package is imported from
``src/`` there, never from an installed copy.  Workloads: cli-readme,
verify-all, precision-envelope (see perfbench/README.md).

The benchmark pins itself and its children to one core.  Passes of the
workload's operations run one at a time, in an order drawn from --seed,
until --seconds are up; the last pass stops before an operation that would
overrun them.  Each operation is timed alone, after an untimed host speed
probe, and its output is checked afterwards, untimed.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with --trace 0, the per-layer ones with --trace 1.
Lines before it, starting with ``#``, record the environment and name
every operation that failed a check.  A traced run alternates untraced
and traced passes, takes per-layer numbers from the traced ones only,
and writes its spans to ``.perfbench/trace-<workload>-seed<N>.jsonl.gz``.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from importlib import metadata

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
RUN_DIR = os.path.join(ROOT, ".perfbench")
SETUP_PROBES = 5  # fresh-interpreter set-ups behind the setup_s median
HOST_PROBES = 3  # host speed probes on each side of a set-up
STARTUP_PROBES = 5
IMPORT_PROBES = 3
PROBE_TIMEOUT = 60  # seconds


def log(line: str) -> None:
    print(f"# {line}", flush=True)


def setup(name: str):
    """Import the checkers and the workload's modules, load its reference
    data and prepare its working files; returns (workload, seconds)."""
    start = time.perf_counter()
    import workloads
    workload = workloads.WORKLOADS[name](RUN_DIR)
    workload.setup()
    return workload, time.perf_counter() - start


def setup_probe_seconds(workload) -> tuple[float, list[float]]:
    """Set-up seconds of a fresh interpreter, and the host slowdowns
    probed just before and after it."""
    probes = [workload.host_slowdown() for _ in range(HOST_PROBES)]
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload",
                           workload.name, "--setup-only"], capture_output=True, text=True,
                          check=True, timeout=PROBE_TIMEOUT)
    probes += [workload.host_slowdown() for _ in range(HOST_PROBES)]
    return float(proc.stdout.strip().splitlines()[-1]), probes


def run_op(op, tracer):
    start = time.perf_counter()
    result = exc = None
    try:
        if tracer is None:
            result = op.run()
        elif op.traced is not None:
            result = tracer.timed(op.span, op.traced)(tracer)
        else:
            result = tracer.timed(op.span, op.run)()
    except Exception as err:  # a raising operation is a measured failure
        exc = err
    wall = time.perf_counter() - start
    problems, accuracy, info = op.check(result, exc)
    return {"op": op.name, "wall": wall, "problems": problems,
            "accuracy": accuracy, "info": info}


def run_pass(workload, order, traced: bool, deadline=None, expected=None) -> dict:
    """One operation after another, each after a host speed probe.  With a
    deadline the pass stops before the first operation whose ``expected``
    wall would overrun it."""
    tracer = saved = None
    if traced:
        import spans
        tracer = spans.Tracer()
        if workload.in_process:
            saved = spans.install(tracer)
    ops, probes = [], []
    try:
        for op in order:
            if deadline is not None and time.perf_counter() + expected[op.name] > deadline:
                break
            probes.append(workload.host_slowdown())
            ops.append(run_op(op, tracer))
    finally:
        if saved is not None:
            spans.uninstall(saved)
    return {"traced": traced, "complete": len(ops) == len(order), "ops": ops,
            "probes": probes, "tracer": tracer}


def measure(workload, seconds: float, rng: random.Random, trace: bool) -> list[dict]:
    """Passes until ``seconds`` are up; the last one stops before the first
    operation that would overrun them, judged by that operation's previous
    wall.  The first pass, and in a traced run (which alternates untraced
    and traced passes) the first two, run whole."""
    deadline = time.perf_counter() + seconds
    passes, expected = [], {}
    while True:
        traced = trace and len(passes) % 2 == 1
        order = [op for op in workload.ops
                 for _ in range(1 if traced else workload.repeats.get(op.name, 1))]
        rng.shuffle(order)
        whole = len(passes) < (2 if trace else 1)
        p = run_pass(workload, order, traced, None if whole else deadline, expected)
        passes.append(p)
        expected.update((o["op"], o["wall"]) for o in p["ops"])
        if not whole and (not p["complete"] or time.perf_counter() >= deadline):
            return passes


def _median_of(values):
    return statistics.median(values) if values else 0.0


def accuracy_table(passes) -> dict:
    """Fewest digits seen per (route, label) over every pass."""
    table = {}
    for p in passes:
        for o in p["ops"]:
            for key, d in o["accuracy"].items():
                table[key] = min(d, table.get(key, d))
    return table


def op_medians(passes) -> dict:
    """Median wall of each operation over the given passes."""
    walls = {}
    for p in passes:
        for o in p["ops"]:
            walls.setdefault(o["op"], []).append(o["wall"])
    return {name: statistics.median(w) for name, w in walls.items()}


def end_to_end(workload, passes, setup_s: float, rss_mb: float) -> dict:
    plain = [p for p in passes if not p["traced"]]
    ops = [o for p in passes for o in p["ops"]]
    acc = accuracy_table(passes)

    def digits_mean(route):
        values = [d for (r, _), d in acc.items() if r == route]
        return sum(values) / len(values) if values else 0.0

    medians = op_medians(plain)
    host = statistics.median(x for p in plain for x in p["probes"])

    def normalized(names):
        """Summed median wall of the named operations over the untraced
        passes, divided by the host slowdown measured between them."""
        return sum(medians[name] for name in names) / host

    return {
        "setup_s": setup_s,
        "wall_s": normalized({op.name for op in workload.ops}),
        "photon_s": normalized(workload.photon_ops),
        "qfunc_s": normalized(workload.qfunc_ops),
        "ok_frac": sum(not o["problems"] for o in ops) / len(ops),
        "peak_rss_mb": rss_mb,
        "photon_digits": digits_mean("photon"),
        "husimi_digits": digits_mean("husimi"),
    }


def _probe_median(argv, repeats: int, timed_inside: bool) -> float:
    """Median wall of a fresh interpreter, or of the seconds it prints."""
    values = []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, check=True,
                              timeout=PROBE_TIMEOUT)
        wall = time.perf_counter() - start
        values.append(float(proc.stdout.strip()) if timed_inside else wall)
    return statistics.median(values)


def per_layer(workload, passes) -> dict:
    """Per-layer numbers from the whole traced passes; the overhead compares
    the operations' median walls in traced and untraced passes."""
    traced = [p for p in passes if p["traced"] and p["complete"]]
    totals = [p["tracer"].totals() for p in traced]
    keys = set().union(*totals)
    layer = {k: statistics.median([t.get(k, 0.0) for t in totals]) for k in keys}
    layer["python.startup_s"] = _probe_median([sys.executable, "-c", "pass"],
                                              STARTUP_PROBES, False)
    layer["squeezelab.import_s"] = _probe_median(
        [sys.executable, "-c", "import time; t = time.perf_counter(); "
         "import squeezelab.cli; print(time.perf_counter() - t)"], IMPORT_PROBES, True)
    layer["cli.byte_identical"] = _median_of(
        [sum(o["info"].get("byte_identical", 0) for o in p["ops"]) for p in traced])
    for (route, label), d in accuracy_table(passes).items():
        layer[f"accuracy.{route}.{label}_digits"] = d
    layer["trace.overhead_s"] = (
        sum(op_medians([p for p in passes if p["traced"]]).values())
        - sum(op_medians([p for p in passes if not p["traced"]]).values()))
    return layer


def write_spans(path: str, passes) -> None:
    with gzip.open(path, "wt") as fh:
        for i, p in enumerate(passes):
            if not p["traced"]:
                continue
            tracer = p["tracer"]
            for span in tracer.spans:
                fh.write(json.dumps({"pass": i, "process": "benchmark",
                                     "span": span}) + "\n")
            for op, child in tracer.children:
                for span in child["spans"]:
                    fh.write(json.dumps({"pass": i, "process": op, "span": span}) + "\n")
            fh.write(json.dumps({"pass": i, "counters": tracer.totals()}) + "\n")


def blas_threads():
    """Thread count of numpy's OpenBLAS, or None where it cannot be asked."""
    import ctypes
    import glob
    import numpy
    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getattr(lib, fn).restype = ctypes.c_int
                return getattr(lib, fn)()
    return None


def environment(threads_env, cores) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None
    return {"nproc": len(cores), "pinned_core": max(cores),
            "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "mpmath": version("mpmath"), "blas_threads": blas_threads(),
            "blas_threads_env": {k: os.environ.get(k) for k in
                                 ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
            "SQUEEZELAB_THREADS": "unset" if threads_env is None
            else f"unset for the run (was {threads_env!r})"}


def metric_units(section: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli-readme", "verify-all", "precision-envelope"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up, print the seconds it took, exit")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "squeezelab", "__init__.py")):
        sys.stderr.write(f"error: no squeezelab sources under {SRC}; run from the "
                         "root of a squeezelab checkout\n")
        return 2
    # the package always comes from this checkout, in this process and its children
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = SRC
    threads_env = os.environ.pop("SQUEEZELAB_THREADS", None)
    # One core for the benchmark and every process it starts, so that the
    # host speed probes and the work they stand for share it (see
    # hostspeed); pinned before numpy loads, so OpenBLAS sizes its pool to it.
    cores = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cores)})
    os.makedirs(RUN_DIR, exist_ok=True)

    if args.setup_only:
        workload, seconds = setup(args.workload)
        workload.close()
        print(repr(seconds))
        return 0

    units = metric_units("per_layer" if args.trace else "end_to_end")
    log("env " + json.dumps(environment(threads_env, cores), sort_keys=True))
    workload, _ = setup(args.workload)  # also fills bytecode caches for the probes
    try:
        loaded = sys.modules.get("squeezelab")
        if loaded is not None and not loaded.__file__.startswith(SRC):
            raise RuntimeError(f"squeezelab imported from {loaded.__file__}")
        passes = measure(workload, args.seconds, random.Random(args.seed), bool(args.trace))
        if args.trace:
            metrics = per_layer(workload, passes)
            trace_path = os.path.join(RUN_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl.gz")
            write_spans(trace_path, passes)
            log(f"spans written to {os.path.relpath(trace_path, ROOT)}")
        else:
            rss = workload.peak_rss_mb()  # before the probes add children of their own
            setups = [setup_probe_seconds(workload) for _ in range(SETUP_PROBES)]
            seconds = statistics.median(s for s, _ in setups)
            host = statistics.median(x for _, probes in setups for x in probes)
            log(f"set-up: median {seconds:.6g}s of {len(setups)}, host slowdown {host:.4g}")
            metrics = end_to_end(workload, passes, seconds / host, rss)
            plain = [p for p in passes if not p["traced"]]
            log("passes: wall_s {:.6g}s as measured, host slowdown {:.4g}".format(
                sum(op_medians(plain).values()),
                statistics.median(x for p in plain for x in p["probes"])))
    finally:
        workload.close()

    attempted = failed = 0
    reported = set()
    for p in passes:
        for o in p["ops"]:
            attempted += 1
            known = o["op"] in workload.known_defects
            failed += bool(o["problems"]) and not known
            if o["problems"] and o["op"] not in reported:
                reported.add(o["op"])
                kind = "known seed defect" if known else "FAILED"
                log(f"{kind} {o['op']}: {'; '.join(o['problems'][:3])}")
    for name in sorted(workload.known_defects - reported):
        log(f"known seed defect {name} now passes its checks")
    identical = [sum(o["info"].get("byte_identical", 0) for o in p["ops"])
                 for p in passes if p["ops"]]
    if not workload.in_process:
        log(f"byte-identical to the seed outputs per pass: {identical}")
    log(f"{sum(bool(p['ops']) for p in passes)} passes, {attempted} operations")
    for op in workload.ops:
        walls = sorted(o["wall"] for p in passes if not p["traced"]
                       for o in p["ops"] if o["op"] == op.name)
        if walls:
            log(f"op {op.name}: n={len(walls)} median={statistics.median(walls):.6g}s "
                f"min={walls[0]:.6g}s max={walls[-1]:.6g}s")

    missing = set(units) - set(metrics) if not args.trace else set()
    if missing:
        raise RuntimeError(f"end-to-end metrics not measured: {sorted(missing)}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
