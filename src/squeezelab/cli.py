"""Command-line surface: distributions, grids, reports and verification,
emitted as reproducible CSV or JSON.

Output bytes are deterministic for a fixed command line: no timestamps,
floats printed with 17 significant digits (full double round-trip), and
the configuration echoed into the header of every file.

Exit codes: 0 success, 2 argument error (an unwritable output path
included), 3 verification failure, 4 numerical non-convergence.

The module imports only the standard library at load time.  ``main``
parses the arguments and checks the output paths and the
``--floor``/``--prominence`` thresholds first, then binds the numerical
names the commands call, so ``--help``, usage errors and output-path
errors exit before numpy loads.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import sys

from . import __version__

# The names the commands call, by the module that defines them.  Each loads
# on first access (PEP 562) and is cached in this module's globals; ``main``
# binds them after the front-end checks.  A name already bound is kept:
# perfbench's spans and the tests rebind ``cli.<name>``, and the commands
# call whatever is bound there.
_LAZY = {
    "numpy": ("np",),
    ".semiclassical": ("approx_p", "classical_boundary", "classical_depth", "fit_scale"),
    ".squeezed_coherent": ("check_squeeze",),
    ".squeezed_number": ("TAIL_EPS", "NonConvergenceError", "SqueezedNumberState",
                         "momentum_wf", "photon_distribution", "position_wf",
                         "q_grid", "q_slice_imag"),
    ".tables": ("GridSpec",),
}
_MODULE_OF = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    """Import the lazy ``name`` on first access and cache it."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(_MODULE_OF[name], __package__)
    value = module if name == "np" else getattr(module, name)
    globals()[name] = value
    return value


def _bind_numerics() -> None:
    """Bind every lazy name that is not bound yet."""
    for name in _MODULE_OF:
        if name not in globals():
            __getattr__(name)


EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFY = 3
EXIT_NONCONVERGENCE = 4

# the names of ``verify.SUITES``, spelled out so that building the parser
# does not import ``verify``
SUITE_NAMES = ("parity", "normalization", "oracle", "genfun", "fourier", "transition")


def _emit(text: str, out: str | None):
    """Write ``text`` to the file ``out``, or to stdout when it is None."""
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="\n") as fh:
            fh.write(text)


def _strict(obj):
    """``obj`` with each non-finite float (nested in dicts, lists and
    tuples) replaced by None, which JSON writes as null: RFC 8259 has no
    NaN or Infinity."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _strict(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(value) for value in obj]
    return obj


def _json(obj, **kwargs) -> str:
    """Strict JSON text of ``obj``, keys sorted; non-finite floats become
    null."""
    return json.dumps(_strict(obj), sort_keys=True, allow_nan=False, **kwargs)


def _write_table(config: dict, columns: dict, fmt: str, out: str | None,
                 extra_header: dict | None = None):
    """Emit named columns of equal length as CSV (with # header comments)
    or JSON v1, echoing ``config`` ({"command": ..., **params}) into the
    header.  Every JSON text, the CSV header lines included, writes a
    non-finite float as null; the CSV body writes it as nan or inf.

    Integer and boolean columns print as integers, float columns with 17
    significant digits (full double round-trip).  The CSV branch formats
    each distinct float of a column once and indexes the strings: a Husimi
    grid repeats most of its coordinates and many of its values.  Floats are
    told apart by bit pattern, not by value, because 0.0 and -0.0 compare
    equal but print as "0" and "-0".
    """
    cols = [np.asarray(c) for c in columns.values()]
    is_int = [c.dtype.kind in "biu" for c in cols]
    if fmt == "csv":
        lines = [f"# squeezelab {__version__} schema v1",
                 f"# config {_json(config)}"]
        if extra_header:
            lines.append(f"# {_json(extra_header)}")
        lines.append(",".join(columns))
        cells = [c.astype(int).astype(object) if i else _float_strings(c)
                 for c, i in zip(cols, is_int)]
        line = ",".join("%d" if i else "%s" for i in is_int) + "\n"
        body = (line * len(cols[0])) % tuple(np.column_stack(cells).ravel())
        text = "\n".join(lines) + "\n" + body
    else:
        # object dtype holds Python ints, floats and None, as json expects
        rows = np.column_stack([c.astype(int if i else float).astype(object)
                                for c, i in zip(cols, is_int)])
        rows[~np.isfinite(np.column_stack(cols).astype(float))] = None
        payload = {
            "schema": "v1",
            "generator": f"squeezelab {__version__}",
            "config": _strict(config),
            "columns": list(columns),
            "rows": rows.tolist(),
        }
        if extra_header:
            payload["meta"] = _strict(extra_header)
        text = json.dumps(payload, sort_keys=True, allow_nan=False, indent=1) + "\n"
    _emit(text, out)


def _float_strings(column: np.ndarray) -> np.ndarray:
    """The %.17g text of each entry, as an object array, formatted once per
    distinct bit pattern."""
    values = np.ascontiguousarray(column, dtype=float)
    _, first, inverse = np.unique(values.view(np.int64), return_index=True,
                                  return_inverse=True)
    text = ("%.17g\n" * len(first)) % tuple(values[first].tolist())
    return np.array(text.split("\n")[:-1], dtype=object)[inverse]


def _slice_path(args) -> str | None:
    """Where ``qfunc`` writes its Im-axis slice: ``--slice-out``, else the
    ``*_slice`` companion of a file ``--out``, else nowhere."""
    if args.slice_out is not None or args.out is None:
        return args.slice_out
    root, ext = os.path.splitext(args.out)
    return f"{root}_slice{ext or '.csv'}"


def _check_outputs(args) -> None:
    """Raise ``ValueError`` before any compute where a command could not
    write its output files, or would write two of them to one path.  An
    existing path must be a writable file; a new one needs a writable
    directory.  Nothing is created."""
    paths = [args.out] + ([_slice_path(args)] if args.command == "qfunc" else [])
    paths = [p for p in paths if p is not None]
    for path in paths:
        if os.path.isdir(path):
            raise ValueError(f"cannot write {path}: it is a directory")
        if os.path.exists(path):
            if not os.access(path, os.W_OK):
                raise ValueError(f"cannot write {path}: permission denied")
            continue
        parent = os.path.dirname(path) or os.curdir
        if not os.path.isdir(parent):
            raise ValueError(f"cannot write {path}: no directory {parent}")
        if not os.access(parent, os.W_OK | os.X_OK):
            raise ValueError(f"cannot write {path}: directory {parent} is not writable")
    if len(paths) == 2:
        grid, slice_out = paths
        if (os.path.abspath(grid) == os.path.abspath(slice_out)
                or os.path.exists(grid) and os.path.exists(slice_out)
                and os.path.samefile(grid, slice_out)):
            raise ValueError(f"--slice-out {slice_out} is the --out file of the grid")


def _require_finite(value: float, flag: str) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{flag} must be finite, got {value}")


def _check_thresholds(args) -> None:
    """Raise ``ValueError`` unless a given ``--floor`` or ``--prominence``
    is finite and nonnegative, as ``analysis`` requires, before any compute;
    the messages of a negative or NaN value are those of ``analysis``."""
    for name in ("floor", "prominence"):
        value = getattr(args, name, None)
        if value is not None:
            if not value >= 0:
                raise ValueError(f"{name} must be nonnegative, got {value}")
            _require_finite(value, f"--{name}")


def _axis(lo: float, hi: float, points: int, lo_flag: str, hi_flag: str) -> np.ndarray:
    """``points`` evenly spaced values from ``lo`` to ``hi``; raises
    ``ValueError``, naming the bounds' options, unless both are finite,
    lo < hi and points >= 2."""
    _require_finite(lo, lo_flag)
    _require_finite(hi, hi_flag)
    if not lo < hi:
        raise ValueError(f"{lo_flag} must be below {hi_flag}")
    if points < 2:
        raise ValueError(f"--points must be at least 2, got {points}")
    return np.linspace(lo, hi, points)


def _phase_space_state(args) -> SqueezedNumberState:
    """The state of a command built on the wave functions or the Husimi
    kernel, checked for their |r| bound before any e^{+-r} extent is taken
    (photon tables have a cutoff rule of their own)."""
    state = SqueezedNumberState(args.m, args.r)
    check_squeeze(state.r)
    return state


def cmd_photon(args) -> int:
    state = SqueezedNumberState(args.m, args.r)
    tail_eps = TAIL_EPS if args.tail_eps is None else args.tail_eps
    table = photon_distribution(state, tail_eps)
    config = {"command": "photon", "m": args.m, "r": args.r, "tail_eps": tail_eps,
              "format": args.format}
    _write_table(config, {"n": table.coords, "probability": table.probs},
                 args.format, args.out, extra_header=dict(table.meta.truncation))
    return EXIT_OK


def cmd_quad(args) -> int:
    state = _phase_space_state(args)
    scale = math.exp(state.r) if args.kind == "momentum" else math.exp(-state.r)
    lim = scale * (math.sqrt(2 * state.m + 1) + 4.0)
    lo = -lim if args.min is None else args.min
    hi = lim if args.max is None else args.max
    coords = _axis(lo, hi, args.points, "--min", "--max")
    wf = momentum_wf if args.kind == "momentum" else position_wf
    amps = np.asarray(wf(coords, state), dtype=complex)
    config = {"command": "quad", "kind": args.kind, "m": args.m, "r": args.r,
              "min": lo, "max": hi, "points": args.points,
              "amplitude": bool(args.amplitude), "format": args.format}
    columns = {"coord": coords, "prob": amps.real ** 2 + amps.imag ** 2}
    if args.amplitude:
        columns.update(re=amps.real, im=amps.imag)
    _write_table(config, columns, args.format, args.out)
    return EXIT_OK


def cmd_qfunc(args) -> int:
    from dataclasses import asdict

    state = _phase_space_state(args)
    lim_re = math.exp(-state.r) * math.sqrt(2 * state.m + 1) + 3.0
    lim_im = math.exp(state.r) * math.sqrt(2 * state.m + 1) + 3.0
    bounds = [default if given is None else given for given, default in
              ((args.re_min, -lim_re), (args.re_max, lim_re),
               (args.im_min, -lim_im), (args.im_max, lim_im))]
    for value, flag in zip(bounds, ("--re-min", "--re-max", "--im-min", "--im-max")):
        _require_finite(value, flag)
    grid = GridSpec(*bounds, args.n_re, args.n_im)
    values = q_grid(state, grid)
    re, im = grid.axes()
    config = {"command": "qfunc", "m": args.m, "r": args.r, **asdict(grid),
              "format": args.format}
    columns = {"re": np.tile(re, grid.n_im), "im": np.repeat(im, grid.n_re),
               "Q": values.ravel()}
    _write_table(config, columns, args.format, args.out,
                 extra_header={"row_major": "im is the slow axis"})
    # companion file: the imaginary-axis slice the oscillations live on
    slice_out = _slice_path(args)
    if slice_out is not None:
        slice_config = {"command": "qfunc-slice", "m": args.m, "r": args.r,
                        "im_min": grid.im_min, "im_max": grid.im_max,
                        "n_im": grid.n_im, "format": args.format}
        _write_table(slice_config, {"im": im, "Q": q_slice_imag(im, state)},
                     args.format, slice_out)
    return EXIT_OK


def cmd_semiclassical(args) -> int:
    state = _phase_space_state(args)
    bound = classical_boundary(state.m, state.r)
    y_lo = args.y_min if args.y_min is not None else 0.0
    y_hi = args.y_max if args.y_max is not None else bound * 1.05
    ys = _axis(y_lo, y_hi, args.points, "--y-min", "--y-max")
    exact = q_slice_imag(ys, state)
    approx = np.full(len(ys), math.nan)
    valid = classical_depth(state.m, state.r, ys) > 0.0
    if not valid.any():
        sys.stderr.write("warning: no point of the range lies inside the "
                         "classical boundary; every row is flagged invalid\n")
        scale = math.nan
    else:
        approx[valid] = approx_p(state.m, state.r, ys[valid])
        mask = valid & (ys < 0.8 * bound)
        if not mask.any():
            mask = valid
        scale = fit_scale(approx[mask], exact[mask])
    config = {"command": "semiclassical", "m": args.m, "r": args.r, "y_min": y_lo,
              "y_max": y_hi, "points": args.points, "format": args.format}
    _write_table(config, {"y": ys, "approx": approx, "exact_slice": exact,
                          "valid": valid}, args.format, args.out,
                 extra_header={"classical_boundary": bound, "fitted_scale": scale})
    return EXIT_OK


def cmd_maxima(args) -> int:
    from . import analysis

    rep = args.representation
    floor = analysis.DEFAULT_FLOOR if args.floor is None else args.floor
    sampled = {"position": analysis.position_density_table,
               "momentum": analysis.momentum_density_table,
               "qslice": analysis.q_slice_table}
    tail_eps = TAIL_EPS if args.tail_eps is None else args.tail_eps
    table = (photon_distribution(SqueezedNumberState(args.m, args.r), tail_eps)
             if rep == "photon" else sampled[rep](_phase_space_state(args)))
    report = analysis.find_maxima(table, floor=floor, refine=rep != "photon")
    config = {"command": "maxima", "representation": rep, "m": args.m, "r": args.r,
              "floor": floor, "format": args.format}
    _write_table(config, {"position": report.positions, "value": report.values},
                 args.format, args.out,
                 extra_header={"count": report.count})
    return EXIT_OK


def cmd_transition(args) -> int:
    from .analysis import ScanError, transition_scan

    try:
        result = transition_scan(args.m, args.r_lo, args.r_hi, args.step,
                                 prominence=args.prominence)
    except ScanError as exc:
        sys.stderr.write(f"error: {exc}\n")
        if exc.trace:
            sys.stderr.write("trace (r, count): "
                             + " ".join(f"({r:.4g},{c})" for r, c in exc.trace) + "\n")
        return EXIT_NONCONVERGENCE
    config = {"command": "transition", "m": args.m, "r_lo": args.r_lo,
              "r_hi": args.r_hi, "step": args.step, "prominence": args.prominence,
              "format": args.format}
    rs, counts = zip(*result.trace)
    _write_table(config, {"r": rs, "prominent_maxima": counts}, args.format, args.out,
                 extra_header={"r_star": result.r_star, "target": result.target})
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import run_suites

    report = run_suites([args.suite])
    _emit(_json(report, indent=1) + "\n", args.out)
    return EXIT_OK if report["passed"] else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="squeezelab",
        description="Squeezed number states: distributions, Husimi grids and "
                    "self-verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--m", type=int, required=True, help="photon index of the state")
        p.add_argument("--r", type=float, required=True, help="squeeze parameter")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    p = sub.add_parser("photon", help="photon-number distribution")
    add_common(p)
    p.add_argument("--tail-eps", type=float, default=None, dest="tail_eps")
    p.set_defaults(func=cmd_photon)

    p = sub.add_parser("quad", help="quadrature probability density")
    add_common(p)
    p.add_argument("--kind", choices=("position", "momentum"), required=True)
    p.add_argument("--min", type=float, default=None)
    p.add_argument("--max", type=float, default=None)
    p.add_argument("--points", type=int, default=2001)
    p.add_argument("--amplitude", action="store_true",
                   help="also emit real and imaginary amplitude columns")
    p.set_defaults(func=cmd_quad)

    p = sub.add_parser("qfunc", help="Husimi Q on a grid, plus the Im-axis slice")
    add_common(p)
    p.add_argument("--re-min", type=float, default=None, dest="re_min")
    p.add_argument("--re-max", type=float, default=None, dest="re_max")
    p.add_argument("--im-min", type=float, default=None, dest="im_min")
    p.add_argument("--im-max", type=float, default=None, dest="im_max")
    p.add_argument("--n-re", type=int, default=201, dest="n_re")
    p.add_argument("--n-im", type=int, default=201, dest="n_im")
    p.add_argument("--slice-out", default=None, dest="slice_out",
                   help="path of the companion Im-axis slice file")
    p.set_defaults(func=cmd_qfunc)

    p = sub.add_parser("semiclassical",
                       help="area-of-overlap approximation vs the exact slice")
    add_common(p)
    p.add_argument("--y-min", type=float, default=None, dest="y_min")
    p.add_argument("--y-max", type=float, default=None, dest="y_max")
    p.add_argument("--points", type=int, default=1500)
    p.set_defaults(func=cmd_semiclassical)

    p = sub.add_parser("maxima", help="local maxima of one representation")
    add_common(p)
    p.add_argument("--representation",
                   choices=("photon", "position", "momentum", "qslice"),
                   required=True)
    p.add_argument("--tail-eps", type=float, default=None, dest="tail_eps")
    p.add_argument("--floor", type=float, default=None)
    p.set_defaults(func=cmd_maxima)

    p = sub.add_parser("transition", help="scan r for the oscillation onset")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r-lo", type=float, required=True, dest="r_lo")
    p.add_argument("--r-hi", type=float, required=True, dest="r_hi")
    p.add_argument("--step", type=float, default=0.02)
    p.add_argument("--prominence", type=float, default=0.1)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_transition)

    p = sub.add_parser("verify", help="run self-verification suites")
    p.add_argument("--suite", default="all", choices=(*SUITE_NAMES, "all"))
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_outputs(args)
        _check_thresholds(args)
        _bind_numerics()
        return args.func(args)
    except (ValueError, OSError) as exc:
        parser.exit(EXIT_USAGE, f"error: {exc}\n")
    except NonConvergenceError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NONCONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
