"""Command-line surface: distributions, grids, reports and verification,
emitted as reproducible CSV or JSON.

Output bytes are deterministic for a fixed command line: no timestamps,
floats printed with 17 significant digits (full double round-trip), and
the configuration echoed into the header of every file.

Exit codes: 0 success, 2 argument error, 3 verification failure,
4 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import __version__, analysis, verify
from .semiclassical import approx_p, classical_boundary, classical_depth, fit_scale
from .squeezed_coherent import check_squeeze
from .squeezed_number import (TAIL_EPS, NonConvergenceError, SqueezedNumberState,
                              momentum_wf, photon_distribution, position_wf,
                              q_grid, q_slice_imag)
from .tables import GridSpec

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFY = 3
EXIT_NONCONVERGENCE = 4

SAMPLED_TABLES = {"position": analysis.position_density_table,
                  "momentum": analysis.momentum_density_table,
                  "qslice": analysis.q_slice_table}


def _emit(text: str, out: str | None):
    """Write ``text`` to the file ``out``, or to stdout when it is None."""
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="\n") as fh:
            fh.write(text)


def _write_table(config: dict, columns: dict, fmt: str, out: str | None,
                 extra_header: dict | None = None):
    """Emit named columns of equal length as CSV (with # header comments)
    or JSON v1, echoing ``config`` ({"command": ..., **params}) into the
    header.

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
                 f"# config {json.dumps(config, sort_keys=True)}"]
        if extra_header:
            lines.append(f"# {json.dumps(extra_header, sort_keys=True)}")
        lines.append(",".join(columns))
        cells = [c.astype(int).astype(object) if i else _float_strings(c)
                 for c, i in zip(cols, is_int)]
        line = ",".join("%d" if i else "%s" for i in is_int) + "\n"
        body = (line * len(cols[0])) % tuple(np.column_stack(cells).ravel())
        text = "\n".join(lines) + "\n" + body
    else:
        # object dtype holds Python ints and floats, as json expects
        rows = np.column_stack([c.astype(int if i else float).astype(object)
                                for c, i in zip(cols, is_int)])
        payload = {
            "schema": "v1",
            "generator": f"squeezelab {__version__}",
            "config": config,
            "columns": list(columns),
            "rows": rows.tolist(),
        }
        if extra_header:
            payload["meta"] = extra_header
        text = json.dumps(payload, sort_keys=True, indent=1) + "\n"
    _emit(text, out)


def _float_strings(column: np.ndarray) -> np.ndarray:
    """The %.17g text of each entry, as an object array, formatted once per
    distinct bit pattern."""
    values = np.ascontiguousarray(column, dtype=float)
    _, first, inverse = np.unique(values.view(np.int64), return_index=True,
                                  return_inverse=True)
    text = ("%.17g\n" * len(first)) % tuple(values[first].tolist())
    return np.array(text.split("\n")[:-1], dtype=object)[inverse]


def _slice_companion_path(out: str) -> str:
    root, ext = os.path.splitext(out)
    return f"{root}_slice{ext or '.csv'}"


def _phase_space_state(args) -> SqueezedNumberState:
    """The state of a command built on the wave functions or the Husimi
    kernel, checked for their |r| bound before any e^{+-r} extent is taken
    (photon tables have a cutoff rule of their own)."""
    state = SqueezedNumberState(args.m, args.r)
    check_squeeze(state.r)
    return state


def cmd_photon(args) -> int:
    state = SqueezedNumberState(args.m, args.r)
    table = photon_distribution(state, args.tail_eps)
    config = {"command": "photon", "m": args.m, "r": args.r, "tail_eps": args.tail_eps,
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
    if not lo < hi:
        raise ValueError("--min must be below --max")
    coords = np.linspace(lo, hi, args.points)
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
    state = _phase_space_state(args)
    lim_re = math.exp(-state.r) * math.sqrt(2 * state.m + 1) + 3.0
    lim_im = math.exp(state.r) * math.sqrt(2 * state.m + 1) + 3.0
    bounds = [default if given is None else given for given, default in
              ((args.re_min, -lim_re), (args.re_max, lim_re),
               (args.im_min, -lim_im), (args.im_max, lim_im))]
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
    slice_out = args.slice_out
    if slice_out is None and args.out is not None:
        slice_out = _slice_companion_path(args.out)
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
    ys = np.linspace(y_lo, y_hi, args.points)
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
    rep = args.representation
    table = (photon_distribution(SqueezedNumberState(args.m, args.r), args.tail_eps)
             if rep == "photon" else SAMPLED_TABLES[rep](_phase_space_state(args)))
    report = analysis.find_maxima(table, floor=args.floor, refine=rep != "photon")
    config = {"command": "maxima", "representation": rep, "m": args.m, "r": args.r,
              "floor": args.floor, "format": args.format}
    _write_table(config, {"position": report.positions, "value": report.values},
                 args.format, args.out,
                 extra_header={"count": report.count})
    return EXIT_OK


def cmd_transition(args) -> int:
    result = analysis.transition_scan(args.m, args.r_lo, args.r_hi, args.step,
                                      prominence=args.prominence)
    config = {"command": "transition", "m": args.m, "r_lo": args.r_lo,
              "r_hi": args.r_hi, "step": args.step, "prominence": args.prominence,
              "format": args.format}
    rs, counts = zip(*result.trace)
    _write_table(config, {"r": rs, "prominent_maxima": counts}, args.format, args.out,
                 extra_header={"r_star": result.r_star, "target": result.target})
    return EXIT_OK


def cmd_verify(args) -> int:
    report = verify.run_suites([args.suite])
    _emit(json.dumps(report, sort_keys=True, indent=1) + "\n", args.out)
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
    p.add_argument("--tail-eps", type=float, default=TAIL_EPS, dest="tail_eps")
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
                   choices=("photon", *SAMPLED_TABLES),
                   required=True)
    p.add_argument("--tail-eps", type=float, default=TAIL_EPS, dest="tail_eps")
    p.add_argument("--floor", type=float, default=analysis.DEFAULT_FLOOR)
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
    p.add_argument("--suite", default="all", choices=(*verify.SUITES, "all"))
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        parser.exit(EXIT_USAGE, f"error: {exc}\n")
    except (NonConvergenceError, analysis.ScanError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        if isinstance(exc, analysis.ScanError) and exc.trace:
            sys.stderr.write("trace (r, count): "
                             + " ".join(f"({r:.4g},{c})" for r, c in exc.trace) + "\n")
        return EXIT_NONCONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
