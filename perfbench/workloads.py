"""The three workloads: README commands as subprocesses, the verify suites
in-process, and the closed forms on the precision-envelope grid."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np

import checks
import hostspeed
from envelope import HARD_CAP, STATES, state_label

HERE = os.path.dirname(os.path.abspath(__file__))
COMMAND_TIMEOUT = 60  # seconds; a README command takes about 1.5


class Op:
    """One operation of a pass.  ``run()`` is timed; ``check(result, exc)``
    returns (problems, accuracy, info) untimed, where accuracy maps
    (route, label) to correct digits."""

    def __init__(self, name, run, check, span=None, traced=None):
        self.name, self.run, self.check = name, run, check
        self.span = span or f"op.{name}"
        self.traced = traced  # traced(tracer) -> result, when run() cannot be wrapped


class Workload:
    name = ""
    in_process = True  # False: the package runs only in child processes
    # ops whose summed wall per pass is photon_s (photon tables) and qfunc_s (Husimi grids)
    photon_ops: frozenset = frozenset()
    qfunc_ops: frozenset = frozenset()
    known_defects: frozenset = frozenset()  # ops that fail their checks at the seed commit
    # runs per untraced pass of the named ops (default 1), for more samples
    # of the short ops behind photon_s and qfunc_s
    repeats: dict = {}

    def host_slowdown(self) -> float:
        """One sample of how much slower than the reference the host runs
        work of this workload's kind (see hostspeed)."""
        return hostspeed.compute_slowdown()

    def __init__(self, run_dir: str):
        self.run_dir = run_dir
        self.ops: list[Op] = []

    def setup(self) -> None:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        import resource
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("SQUEEZELAB_THREADS", None)
    return env


class CliReadme(Workload):
    """The six README commands, each a fresh ``python -m squeezelab``."""

    name = "cli-readme"
    in_process = False
    photon_ops, qfunc_ops = frozenset(["photon"]), frozenset(["qfunc"])
    repeats = {"photon": 6, "qfunc": 6}

    def setup(self):
        self.work = tempfile.mkdtemp(prefix="cli-", dir=self.run_dir)
        self.seed = checks.load_cli_seed()
        self.ref = checks.load_reference()[(7, 1.4)]
        self.env = _child_env()
        # warm-up: fills the bytecode and file caches a desk user already has
        subprocess.run([sys.executable, "-m", "squeezelab", "photon", "--help"],
                       cwd=self.work, env=self.env, check=True, timeout=COMMAND_TIMEOUT,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        self.ops = [self._op(cmd, argv, outputs)
                    for cmd, argv, outputs in checks.README_COMMANDS]

    def _op(self, cmd, argv, outputs):
        def run():
            return subprocess.run([sys.executable, "-m", "squeezelab", *argv],
                                  cwd=self.work, env=self.env, capture_output=True,
                                  timeout=COMMAND_TIMEOUT)

        def traced(tracer):
            out = os.path.join(self.work, "spans.json")
            proc = subprocess.run([sys.executable, os.path.join(HERE, "launch_cli.py"),
                                   out, *argv], cwd=self.work, env=self.env,
                                  capture_output=True, timeout=COMMAND_TIMEOUT)
            with open(out) as fh:
                child = json.load(fh)
            os.remove(out)
            tracer.children.append((cmd, child))
            return proc

        def check(proc, exc):
            return self._check(cmd, outputs, proc, exc)

        return Op(cmd, run, check, traced=traced)

    def _check(self, cmd, outputs, proc, exc):
        if exc is not None:
            return [f"raised {exc!r}"], {}, {}
        problems, accuracy = [], {}
        identical = 0
        if proc.returncode != 0:
            tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
            problems.append(f"exit code {proc.returncode}: {' '.join(tail)}")
        parsed = {}
        for out in outputs:
            key = checks.output_key(cmd, out)
            path = os.path.join(self.work, out)
            if out == "-":
                text = proc.stdout.decode()
            elif os.path.exists(path):
                with open(path) as fh:
                    text = fh.read()
                os.remove(path)
            else:
                problems.append(f"{out} was not written")
                continue
            record = self.seed[key]
            identical += checks.byte_identical(text, record)
            parsed[out] = checks.parse_output(text)
            problems += [f"{key}: {p}" for p in checks.output_problems(parsed[out], record)]
        label = state_label(self.ref.m, self.ref.r)
        if cmd == "photon" and "photon.csv" in parsed:
            rows = parsed["photon.csv"]["rows"]
            probs = np.zeros(max((n for n, _ in rows), default=-1) + 1)
            for n, p in rows:
                probs[n] = p
            d, found = checks.photon_problems(self.ref, probs)
            accuracy[("photon", label)] = d
            problems += found
        if cmd == "qfunc" and len(parsed) == 2:
            n_re, n_im = self.ref.shape
            grid = np.array([row[2] for row in parsed["q.csv"]["rows"]])
            if grid.size == n_re * n_im:
                grid = grid.reshape(n_im, n_re)
            d = min(self.ref.grid_digits(grid),
                    self.ref.slice_digits([row[1] for row in parsed["q_slice.csv"]["rows"]]))
            accuracy[("husimi", label)] = d
            problems += checks.digit_problems(d)
        return problems, accuracy, {"byte_identical": identical}

    def peak_rss_mb(self):
        import resource
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


class VerifyAll(Workload):
    """``verify.run_suites([name])`` for each suite, in-process."""

    name = "verify-all"
    photon_ops, qfunc_ops = frozenset(["oracle"]), frozenset(["normalization"])
    SUITES = ("parity", "normalization", "oracle", "genfun", "fourier", "transition")

    def host_slowdown(self):
        # The probe does not track the suites' dense-matrix and quadrature
        # work (measured over five runs: wall_s divided by it spread 27%,
        # the raw pass walls 8%), so this workload's times stay as measured.
        return 1.0

    def setup(self):
        import squeezelab  # noqa: F401  (the import users pay once)
        import squeezelab.verify as verify
        self.verify = verify
        self.ops = [Op(name, self._runner(name), self._checker(name), span=f"verify.{name}")
                    for name in self.SUITES]

    def _runner(self, name):
        return lambda: self.verify.run_suites([name])

    def _checker(self, name):
        def check(report, exc):
            if exc is not None:
                return [f"raised {exc!r}"], {}, {}
            suite = report["suites"][name]
            problems = [f"check '{c['name']}' failed: measured {c['measured']:.3g} "
                        f"over limit {c['limit']:.3g}"
                        for c in suite["checks"] if not c["passed"]]
            if not (suite["passed"] and report["passed"]) and not problems:
                problems.append("suite reports passed: false")
            accuracy = {}
            # digits of agreement between independent routes
            if name == "oracle":
                routes = [c["measured"] for c in suite["checks"] if " vs " in c["name"]]
                if routes:
                    accuracy[("photon", "verify")] = checks.digits(max(routes))
            if name == "normalization":
                husimi = [c["measured"] for c in suite["checks"]
                          if c["name"].startswith("Husimi")]
                if husimi:
                    accuracy[("husimi", "verify")] = checks.digits(max(husimi))
            return problems, accuracy, {}
        return check


class PrecisionEnvelope(Workload):
    """photon_distribution, q_slice_imag and q_grid on the (m, r) grid,
    each compared with the stored mpmath reference."""

    name = "precision-envelope"
    photon_ops = frozenset(f"{state_label(m, r)}.photon" for m, r in STATES)
    qfunc_ops = frozenset(f"{state_label(m, r)}.grid" for m, r in STATES)
    # fail their checks at the seed commit (see perfbench/README.md)
    known_defects = frozenset(
        ["m20-r2.0.photon"]
        + [f"{label}.{op}" for label in ("m40-r2.0", "m60-r1.0", "m100-r0.5", "m300-r1.5")
           for op in ("photon", "slice", "grid")])

    def setup(self):
        import squeezelab  # noqa: F401  (the import users pay once)
        import squeezelab.squeezed_number as sn
        from squeezelab.tables import GridSpec
        self.sn = sn
        refs = checks.load_reference()
        self.ops = []
        for m, r in STATES:
            ref = refs[(m, r)]
            n_re, n_im = ref.shape
            grid = GridSpec(*ref.re_extent, *ref.im_extent, n_re, n_im)
            if not np.array_equal(grid.axes()[1], ref.slice_y):
                raise RuntimeError(f"grid axes of m={m} r={r} differ from the reference")
            self.ops += self._state_ops(sn.SqueezedNumberState(m, r), ref, grid)

    def _state_ops(self, state, ref, grid):
        label = state_label(state.m, state.r)
        sn = self.sn

        def check_photon(table, exc):
            if exc is not None:
                return [f"raised {type(exc).__name__}: {exc}"], {("photon", label): 0.0}, {}
            d, problems = checks.photon_problems(ref, table.probs)
            return problems, {("photon", label): d}, {}

        def husimi_check(digits_of):
            def check(values, exc):
                if exc is not None:
                    return [f"raised {type(exc).__name__}: {exc}"], {("husimi", label): 0.0}, {}
                d = digits_of(values)
                return checks.digit_problems(d), {("husimi", label): d}, {}
            return check

        return [
            Op(f"{label}.photon", lambda: sn.photon_distribution(state, hard_cap=HARD_CAP),
               check_photon),
            Op(f"{label}.slice", lambda: sn.q_slice_imag(ref.slice_y, state),
               husimi_check(ref.slice_digits)),
            Op(f"{label}.grid", lambda: sn.q_grid(state, grid),
               husimi_check(ref.grid_digits)),
        ]


WORKLOADS = {w.name: w for w in (CliReadme, VerifyAll, PrecisionEnvelope)}
