"""Tests for the command-line surface: formats, determinism, exit codes."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import squeezelab
from squeezelab import cli, semiclassical, squeezed_number, verify
from squeezelab.squeezed_number import SqueezedNumberState, q_grid, q_slice_imag
from squeezelab.tables import GridSpec

# ``main`` binds the numerical names of ``cli``; the tests below that call
# its helpers without ``main`` need them bound as well
cli._bind_numerics()


def _no_constant(name):
    raise AssertionError(f"{name} is not RFC 8259 JSON")


def strict_json(text):
    """``json.loads``, failing on the NaN, Infinity and -Infinity that
    Python's json writes by default but RFC 8259 does not allow."""
    return json.loads(text, parse_constant=_no_constant)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_photon_csv_structure(capsys, tmp_path):
    path = tmp_path / "photon.csv"
    code = cli.main(["photon", "--m", "0", "--r", "0", "--tail-eps", "1e-12",
                     "--out", str(path)])
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# squeezelab")
    assert lines[1].startswith("# config ")
    cfg = json.loads(lines[1][len("# config "):])
    assert cfg["command"] == "photon" and cfg["m"] == 0
    assert lines[-2] == "n,probability"
    assert lines[-1] == "0,1"


@pytest.mark.parametrize("r", ["0", "-0.0"])
@pytest.mark.parametrize("m", [0, 1, 5, 12, 300])
def test_photon_at_r_zero_prints_the_kronecker_table(capsys, m, r):
    code, out, err = run(capsys, "photon", "--m", str(m), "--r", r)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert json.loads(lines[2][2:]) == {"cumulative": 1.0, "cutoff": m,
                                        "tail_eps": 1e-10, "window": 10}
    assert lines[3:] == ["n,probability"] + [f"{n},{int(n == m)}" for n in range(m + 1)]


def test_photon_output_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    cli.main(["photon", "--m", "7", "--r", "1.4", "--out", str(a)])
    cli.main(["photon", "--m", "7", "--r", "1.4", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_photon_json_round_trips_floats(capsys):
    code, out, _ = run(capsys, "photon", "--m", "1", "--r", "0.6",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "v1"
    assert doc["columns"] == ["n", "probability"]
    p1 = dict((r[0], r[1]) for r in doc["rows"])[1]
    want = math.tanh(0.6) ** 0 / math.cosh(0.6) ** 3  # closed form at n=1
    assert p1 == pytest.approx(want, rel=1e-12)


def test_photon_csv_floats_survive_round_trip(capsys):
    code, out, _ = run(capsys, "photon", "--m", "2", "--r", "0.8")
    rows = [line for line in out.splitlines() if not line.startswith("#")][1:]
    vals = [float(line.split(",")[1]) for line in rows]
    from squeezelab import SqueezedNumberState, photon_distribution
    table = photon_distribution(SqueezedNumberState(2, 0.8))
    assert vals == [float(v) for v in table.probs]  # 17 significant digits


def test_quad_momentum_peaks(capsys):
    code, out, _ = run(capsys, "quad", "--kind", "momentum", "--m", "7",
                       "--r", "1.4", "--points", "3001")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()
            if line and not line.startswith("#")][1:]
    dens = np.array([float(r[1]) for r in rows])
    count = sum(1 for i in range(1, len(dens) - 1)
                if dens[i] > dens[i - 1] and dens[i] > dens[i + 1]
                and dens[i] > 1e-6 * dens.max())
    assert count == 8


def test_quad_amplitude_columns(capsys):
    code, out, _ = run(capsys, "quad", "--kind", "position", "--m", "1",
                       "--r", "0.2", "--points", "5", "--min", "-1", "--max", "1",
                       "--amplitude")
    header = [line for line in out.splitlines() if not line.startswith("#")][0]
    assert header == "coord,prob,re,im"


@pytest.mark.parametrize("flag,value", [("--min", 1.0), ("--max", -1.0)])
def test_quad_one_sided_extent_keeps_other_default(capsys, flag, value):
    code, out, _ = run(capsys, "quad", "--kind", "position", "--m", "2", "--r", "0.5",
                       flag, str(value), "--points", "5")
    assert code == 0
    cfg = json.loads(out.splitlines()[1][len("# config "):])
    lim = math.exp(-0.5) * (math.sqrt(5) + 4.0)
    given, other, default = ("min", "max", lim) if flag == "--min" else ("max", "min", -lim)
    assert cfg[given] == value
    assert cfg[other] == pytest.approx(default, rel=1e-15)


def test_quad_one_sided_inverted_extent_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["quad", "--kind", "position", "--m", "2", "--r", "0.5", "--min", "9"])
    assert exc.value.code == 2
    assert "--min must be below --max" in capsys.readouterr().err


def test_quad_fock_limit_matches_hermite_density(capsys):
    # momentum density at r=0 is the plain Fock density
    code, out, _ = run(capsys, "quad", "--kind", "momentum", "--m", "3",
                       "--r", "0", "--points", "41", "--min", "-4", "--max", "4")
    rows = [line.split(",") for line in out.splitlines()
            if line and not line.startswith("#")][1:]
    for sp, spr in ((float(r[0]), float(r[1])) for r in rows):
        h3 = 8 * sp ** 3 - 12 * sp
        want = h3 ** 2 * math.exp(-sp * sp) / (math.sqrt(math.pi) * 8 * 6)
        assert spr == pytest.approx(want, abs=1e-12)


def test_qfunc_grid_and_slice_companion(tmp_path):
    out = tmp_path / "q.csv"
    code = cli.main(["qfunc", "--m", "0", "--r", "0", "--re-min", "-1",
                     "--re-max", "1", "--im-min", "-1", "--im-max", "1",
                     "--n-re", "2", "--n-im", "2", "--out", str(out)])
    assert code == 0
    rows = [line.split(",") for line in out.read_text().splitlines()
            if line and not line.startswith("#")][1:]
    assert len(rows) == 4  # 2x2 smoke grid
    want = math.exp(-2.0) / math.pi  # Q of vacuum at |alpha|^2 = 2
    assert float(rows[0][2]) == pytest.approx(want, rel=1e-12)
    companion = tmp_path / "q_slice.csv"
    assert companion.exists()
    slice_rows = [line for line in companion.read_text().splitlines()
                  if line and not line.startswith("#")][1:]
    assert len(slice_rows) == 2


QFUNC_SMALL = ["qfunc", "--m", "2", "--r", "0.5", "--n-re", "3", "--n-im", "5"]


def _companion_bytes(tmp_path):
    # the slice file that --out alone writes beside the grid
    tmp_path.joinpath("companion").mkdir()
    out = tmp_path / "companion" / "q.csv"
    assert cli.main([*QFUNC_SMALL, "--out", str(out)]) == 0
    return (tmp_path / "companion" / "q_slice.csv").read_bytes()


def test_qfunc_slice_out_with_grid_on_stdout(capsys, tmp_path):
    path = tmp_path / "s.csv"
    code, out, _ = run(capsys, *QFUNC_SMALL, "--slice-out", str(path))
    assert code == 0
    assert out.splitlines()[3] == "re,im,Q"
    assert len(out.splitlines()) == 4 + 3 * 5
    assert path.read_bytes() == _companion_bytes(tmp_path)


def test_qfunc_slice_out_replaces_the_companion(tmp_path):
    grid, path = tmp_path / "q.csv", tmp_path / "s.csv"
    assert cli.main([*QFUNC_SMALL, "--out", str(grid), "--slice-out", str(path)]) == 0
    assert grid.exists()
    assert not (tmp_path / "q_slice.csv").exists()
    assert path.read_bytes() == _companion_bytes(tmp_path)


def test_qfunc_im_slow_axis_row_order(capsys):
    code, out, _ = run(capsys, "qfunc", "--m", "0", "--r", "0",
                       "--re-min", "-1", "--re-max", "1",
                       "--im-min", "-2", "--im-max", "2",
                       "--n-re", "3", "--n-im", "2")
    rows = [line.split(",") for line in out.splitlines()
            if line and not line.startswith("#")][1:]
    res = [float(r[0]) for r in rows[:4]]
    ims = [float(r[1]) for r in rows[:4]]
    assert res == [-1.0, 0.0, 1.0, -1.0]       # re is the fast axis
    assert ims == [-2.0, -2.0, -2.0, 2.0]      # im advances once per row sweep


@pytest.mark.parametrize("flag,value", [("--re-min", -1.0), ("--re-max", 1.0)])
def test_qfunc_one_sided_extent_keeps_other_default(capsys, flag, value):
    code, out, _ = run(capsys, "qfunc", "--m", "2", "--r", "0.5", flag, str(value),
                       "--n-re", "3", "--n-im", "2")
    assert code == 0
    cfg = json.loads(out.splitlines()[1][len("# config "):])
    lim = math.exp(-0.5) * math.sqrt(5) + 3.0
    given, other = ("re_min", "re_max") if flag == "--re-min" else ("re_max", "re_min")
    assert cfg[given] == value
    assert cfg[other] == pytest.approx(math.copysign(lim, -value), rel=1e-15)


def test_qfunc_one_sided_inverted_extent_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["qfunc", "--m", "2", "--r", "0.5", "--im-max", "-9"])
    assert exc.value.code == 2
    assert "min < max" in capsys.readouterr().err


def test_semiclassical_flags_forbidden_rows(capsys):
    code, out, _ = run(capsys, "semiclassical", "--m", "7", "--r", "1.4",
                       "--points", "50")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()
            if line and not line.startswith("#")][1:]
    bound = math.exp(1.4) * math.sqrt(7.5)
    for y, _, _, valid in ((float(r[0]), r[1], r[2], int(r[3])) for r in rows):
        assert valid == (1 if y < bound else 0)
    assert any(int(r[3]) == 0 for r in rows)  # the range extends past the boundary


def test_semiclassical_empty_window_warns(capsys):
    code, out, err = run(capsys, "semiclassical", "--m", "2", "--r", "0.3",
                         "--points", "10", "--y-min", "40", "--y-max", "50")
    assert code == 0
    assert "invalid" in err
    rows = [line.split(",") for line in out.splitlines()
            if line and not line.startswith("#")][1:]
    assert all(int(r[3]) == 0 for r in rows)


@pytest.mark.parametrize("argv", [
    ("--m", "3", "--r", "0.5", "--y-min", "2", "--y-max", "1", "--points", "3"),
    ("--m", "3", "--r", "0.5", "--y-min", "1", "--y-max", "1", "--points", "3"),
    # the default upper bound at (2, 0.3) is 1.05 times the boundary, 2.24
    ("--m", "2", "--r", "0.3", "--y-min", "5", "--points", "3"),
])
def test_semiclassical_empty_or_inverted_range_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(["semiclassical", *argv])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "error: --y-min must be below --y-max" in out.err


@pytest.mark.parametrize("command", [
    ("quad", "--kind", "position", "--m", "1", "--r", "0.5"),
    ("semiclassical", "--m", "3", "--r", "0.5"),
])
@pytest.mark.parametrize("points", ["0", "1", "-1"])
def test_fewer_than_two_points_exit_2(capsys, command, points):
    with pytest.raises(SystemExit) as exc:
        cli.main([*command, "--points", points])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"error: --points must be at least 2, got {points}" in out.err
    assert "no point of the range" not in out.err


def test_maxima_command_photon(capsys):
    code, out, _ = run(capsys, "maxima", "--representation", "photon",
                       "--m", "7", "--r", "1.4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert [row[0] for row in doc["rows"]] == [1, 11, 37, 89]
    assert doc["meta"]["count"] == 4


@pytest.mark.parametrize("m", [0, 1, 2])
def test_maxima_command_photon_unsqueezed(capsys, m):
    # at r = 0 the table is the number state itself: one peak, at n = m
    code, out, _ = run(capsys, "maxima", "--representation", "photon",
                       "--m", str(m), "--r", "0", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"] == [[m, 1.0]]
    assert doc["meta"]["count"] == 1


@pytest.mark.parametrize("argv, message", [
    (("maxima", "--representation", "photon", "--m", "7", "--r", "1.4", "--floor", "nan"),
     "floor must be nonnegative, got nan"),
    (("transition", "--m", "3", "--r-lo", "0.1", "--r-hi", "1.0", "--prominence", "nan"),
     "prominence must be nonnegative, got nan"),
    (("quad", "--kind", "position", "--m", "1", "--r", "nan", "--points", "3"),
     "squeeze parameter must be finite"),
    (("maxima", "--representation", "qslice", "--m", "1", "--r", "nan"),
     "squeeze parameter must be finite"),
    (("maxima", "--representation", "photon", "--m", "3", "--r", "0.5", "--floor", "inf"),
     "--floor must be finite, got inf"),
    (("transition", "--m", "3", "--r-lo", "0.1", "--r-hi", "1.0", "--prominence", "inf"),
     "--prominence must be finite, got inf"),
    # scanned r past the squeeze limit, which raised OverflowError and
    # ZeroDivisionError (exit 1)
    (("transition", "--m", "3", "--r-lo", "0.1", "--r-hi", "1000", "--step", "800"),
     "|r| = 800.1 exceeds 354.891"),
    (("transition", "--m", "3", "--r-lo=-800", "--r-hi", "1", "--step", "400"),
     "|r| = 800.0 exceeds 354.891"),
    # a slice grid of 2.1e15 folded points (34 PB as complex), refused
    # before anything is allocated
    (("maxima", "--representation", "qslice", "--m", "3", "--r=-30"),
     "the Q slice at m=3, r=-30.0 needs 2137294916305080 folded points"),
    (("transition", "--m", "3", "--r-lo=-30", "--r-hi", "1", "--step", "1"),
     "the Q slice at m=3, r=-30.0 needs 2137294916305080 folded points"),
])
def test_nan_arguments_exit_2(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"error: {message}" in out.err


def test_transition_command(capsys):
    code, out, _ = run(capsys, "transition", "--m", "4", "--r-lo", "0.1",
                       "--r-hi", "1.4", "--step", "0.02", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["meta"]["r_star"] - 0.5 * math.log(4)) < 0.15


def test_transition_below_range_exits_4(capsys):
    code, out, err = run(capsys, "transition", "--m", "2", "--r-lo", "1.0",
                         "--r-hi", "1.2", "--step", "0.05")
    assert code == 4
    assert "below" in err


@pytest.mark.parametrize("bounds, name", [
    (("--r-lo", "0.1", "--r-hi", "inf"), "r_hi"),
    (("--r-lo=-inf", "--r-hi", "1.0"), "r_lo"),
    (("--r-lo", "0.1", "--r-hi", "1.0", "--step", "inf"), "step"),
    (("--r-lo", "0.1", "--r-hi", "1.0", "--step", "nan"), "step"),
])
def test_transition_non_finite_range_exits_2(capsys, bounds, name):
    with pytest.raises(SystemExit) as exc:
        cli.main(["transition", "--m", "3", *bounds])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"error: {name} must be finite" in out.err


@pytest.mark.parametrize("command, flag", [
    (("quad", "--kind", "position", "--m", "1", "--r", "0.5", "--points", "3"), "--min"),
    (("quad", "--kind", "momentum", "--m", "1", "--r", "0.5", "--points", "3"), "--max"),
    (("semiclassical", "--m", "1", "--r", "0.5", "--points", "3"), "--y-min"),
    (("semiclassical", "--m", "1", "--r", "0.5", "--points", "3"), "--y-max"),
    *((("qfunc", "--m", "1", "--r", "0.5", "--n-re", "3", "--n-im", "3"), flag)
      for flag in ("--re-min", "--re-max", "--im-min", "--im-max")),
])
@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_non_finite_range_bound_exits_2(capsys, command, flag, value):
    # refused before numpy sees it (no RuntimeWarning, no Hermite error)
    with pytest.raises(SystemExit) as exc:
        cli.main([*command, f"{flag}={value}"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: {flag} must be finite, got {float(value)}\n"


def test_photon_cutoff_cap_exits_4(capsys):
    # at r = 4.5 the tail mass stays above 1e-10 past n = 100 000
    code, out, err = run(capsys, "photon", "--m", "0", "--r", "4.5")
    assert code == 4
    assert out == ""
    assert "did not converge within the cutoff cap" in err


def test_photon_cap_error_names_the_mass(capsys):
    # at tail 3e-14 the float64 mass of the rows through the cap falls
    # short of 1 by more than the tail
    code, out, err = run(capsys, "photon", "--m", "300", "--r", "1.5", "--tail-eps", "3e-14")
    assert code == 4
    assert out == ""
    assert "did not converge within the cutoff cap 100000" in err
    mass = re.search(r": its mass through n = 100000 is 1 - (\S+)\n", err)
    assert mass and 3e-14 < float(mass.group(1)) < 1e-12


@pytest.mark.parametrize("r", ["5", "21", "400"])
def test_photon_window_past_the_cap_exits_4(capsys, r):
    # the cutoff window alone is wider than the cap; at 21 and 400 it is
    # past the range of a C long and of a float
    code, out, err = run(capsys, "photon", "--m", "3", "--r", r)
    assert code == 4
    assert out == ""
    assert err.startswith("error: photon distribution for m=3")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("quad", "--kind", "position", "--m", "1", "--r", "400", "--points", "3"),
    ("quad", "--kind", "momentum", "--m", "1", "--r", "-400", "--points", "3"),
    ("quad", "--kind", "momentum", "--m", "1", "--r", "800", "--points", "3"),
    ("qfunc", "--m", "1", "--r", "400", "--n-re", "3", "--n-im", "3"),
    ("semiclassical", "--m", "1", "--r", "400", "--points", "3"),
    ("maxima", "--representation", "qslice", "--m", "1", "--r", "400"),
])
def test_squeeze_past_float_range_exits_2(capsys, argv):
    # past |r| = 354.89 e^{2|r|} overflows: the wave functions and the
    # Husimi kernel refuse it (quad raised OverflowError, qfunc and
    # semiclassical printed nan), and past 709.8 so would the e^r extents
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "354.891" in out.err and "Traceback" not in out.err


def test_photon_tail_eps_below_floor_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["photon", "--m", "3", "--r", "0.8", "--tail-eps", "1e-15"])
    assert exc.value.code == 2
    assert "tail_eps" in capsys.readouterr().err


def test_bad_arguments_exit_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["photon", "--m", "notanint", "--r", "1.0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["photon", "--m", "-3", "--r", "1.0"])
    assert exc.value.code == 2


def test_cli_import_loads_no_scipy():
    # scipy loads lazily, in the functions that use it
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys, squeezelab.cli; "
            "print([m for m in sys.modules if m.startswith('scipy')])")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert done.stdout.strip() == "[]"


def test_photon_commands_load_no_scipy(tmp_path):
    # the photon amplitudes come from a numpy recurrence, so neither the
    # photon table nor its maxima pay for importing scipy
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys; from squeezelab import cli; "
            "cli.main(['photon', '--m', '7', '--r', '1.4', '--out', sys.argv[1]]); "
            "cli.main(['maxima', '--representation', 'photon', '--m', '7', '--r', '1.4', "
            "'--format', 'json']); "
            "print([m for m in sys.modules if m.startswith('scipy')])")
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path / "photon.csv")],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert (tmp_path / "photon.csv").stat().st_size > 0
    assert '"count": 4' in done.stdout
    assert done.stdout.strip().splitlines()[-1] == "[]"


# runs ``python -m squeezelab ARGS`` and writes its exit code and the numpy
# and squeezelab modules it loaded to REPORT; unlike ``python -X importtime``,
# ``sys.modules`` also lists what ``importlib.import_module`` loaded
FRESH_MAIN = """
import json, runpy, sys
report, sys.argv = sys.argv[1], ["squeezelab", *sys.argv[2:]]
try:
    runpy.run_module("squeezelab", run_name="__main__")
except SystemExit as exc:
    code = exc.code
loaded = [m for m in sys.modules if m.partition(".")[0] in ("numpy", "squeezelab")]
with open(report, "w") as fh:
    json.dump([code, sorted(loaded)], fh)
"""


def _fresh_main(tmp_path, argv, **env):
    """(the finished process, the exit code of ``main``, the loaded modules)
    of ``argv`` run in a fresh process in ``tmp_path``."""
    src = str(Path(cli.__file__).resolve().parents[1])
    report = tmp_path / "report.json"
    done = subprocess.run([sys.executable, "-c", FRESH_MAIN, str(report), *argv],
                          capture_output=True, text=True, cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": src, **env})
    code, loaded = json.loads(report.read_text())
    return done, code, loaded


@pytest.mark.parametrize("argv", [
    ("photon", "--m", "7", "--r", "1.4", "--out", "photon.csv"),
    ("qfunc", "--m", "7", "--r", "1.4", "--n-re", "11", "--n-im", "11", "--out", "q.csv"),
])
def test_photon_and_qfunc_load_only_what_they_run(tmp_path, argv):
    _, code, loaded = _fresh_main(tmp_path, argv)
    assert code == 0
    assert [m for m in loaded if m.startswith("squeezelab")] == [
        "squeezelab", "squeezelab.cli", "squeezelab.semiclassical", "squeezelab.special",
        "squeezelab.squeezed_coherent", "squeezelab.squeezed_number", "squeezelab.tables"]
    assert (tmp_path / argv[-1]).stat().st_size > 0


def test_readme_commands_run_without_scipy(tmp_path):
    # scipy is a test dependency only: with every scipy import failing, as
    # in an install without it, the seven README commands and the dense
    # squeeze operator still run
    src = str(Path(cli.__file__).resolve().parents[1])
    commands = [
        ["photon", "--m", "7", "--r", "1.4", "--out", "photon.csv"],
        ["quad", "--kind", "momentum", "--m", "7", "--r", "1.4", "--points", "4001",
         "--out", "mom.csv"],
        ["qfunc", "--m", "7", "--r", "1.4", "--n-re", "161", "--n-im", "321",
         "--out", "q.csv"],
        ["semiclassical", "--m", "7", "--r", "1.4", "--out", "wkb.csv"],
        ["maxima", "--representation", "photon", "--m", "7", "--r", "1.4",
         "--format", "json"],
        ["transition", "--m", "7", "--r-lo", "0.1", "--r-hi", "1.6", "--step", "0.02"],
        ["verify", "--suite", "all"],
    ]
    code = ("import json, sys; sys.modules['scipy'] = None; "
            "from squeezelab import cli, fock_oracle; "
            "codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]; "
            "print(codes, fock_oracle.build_squeeze(0.8, 200).trusted)")
    done = subprocess.run([sys.executable, "-c", code, json.dumps(commands)],
                          capture_output=True, text=True, cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert done.stdout.strip().splitlines()[-1] == "[0, 0, 0, 0, 0, 0, 0] 20"
    for name in ("photon.csv", "mom.csv", "q.csv", "q_slice.csv", "wkb.csv"):
        assert (tmp_path / name).stat().st_size > 0


@pytest.mark.parametrize("command", [
    ("photon", "--m", "1", "--r", "0.5"),
    ("verify", "--suite", "parity"),
])
@pytest.mark.parametrize("bad", ["directory", "missing"])
def test_unwritable_output_path_exits_2(capsys, tmp_path, command, bad):
    path = tmp_path if bad == "directory" else tmp_path / "missing" / "x.csv"
    with pytest.raises(SystemExit) as exc:
        cli.main([*command, "--out", str(path)])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and str(path) in out.err
    assert not (tmp_path / "missing").exists()


def _never_called(*args, **kwargs):
    raise AssertionError("compute ran before the output path was checked")


# each command's first compute call, patched to fail if it is reached
COMPUTE_OF = {
    ("photon", "--m", "1", "--r", "0.5"): (cli, "photon_distribution"),
    ("quad", "--kind", "position", "--m", "1", "--r", "0.5"): (cli, "position_wf"),
    ("qfunc", "--m", "1", "--r", "0.5"): (cli, "q_grid"),
    ("semiclassical", "--m", "1", "--r", "0.5"): (cli, "q_slice_imag"),
    ("maxima", "--representation", "photon", "--m", "1", "--r", "0.5"):
        (cli, "photon_distribution"),
    ("transition", "--m", "1", "--r-lo", "0.1", "--r-hi", "1.0"):
        (squeezelab.analysis, "transition_scan"),
    ("verify", "--suite", "all"): (verify, "run_suites"),
}


@pytest.mark.parametrize("command, compute", COMPUTE_OF.items(),
                         ids=[command[0] for command in COMPUTE_OF])
def test_missing_output_directory_exits_2_before_compute(capsys, monkeypatch, tmp_path,
                                                         command, compute):
    monkeypatch.setattr(*compute, _never_called)
    path = tmp_path / "missing" / "x.csv"
    with pytest.raises(SystemExit) as exc:
        cli.main([*command, "--out", str(path)])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: ") and str(path) in out.err
    assert list(tmp_path.iterdir()) == []


def test_qfunc_missing_slice_directory_exits_2_before_compute(capsys, monkeypatch,
                                                              tmp_path):
    monkeypatch.setattr(cli, "q_grid", _never_called)
    grid, path = tmp_path / "q.csv", tmp_path / "missing" / "s.csv"
    with pytest.raises(SystemExit) as exc:
        cli.main([*QFUNC_SMALL, "--out", str(grid), "--slice-out", str(path)])
    assert exc.value.code == 2
    assert str(path) in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("same", ["equal", "relative", "hard link"])
def test_qfunc_slice_out_equal_to_out_exits_2(capsys, monkeypatch, tmp_path, same):
    # the slice would overwrite the grid: refused before any compute
    monkeypatch.setattr(cli, "q_grid", _never_called)
    monkeypatch.chdir(tmp_path)
    grid = tmp_path / "q.csv"
    slice_out = {"equal": str(grid), "relative": "./q.csv", "hard link": "s.csv"}[same]
    if same == "hard link":
        grid.write_text("grid\n")
        os.link(grid, slice_out)
    with pytest.raises(SystemExit) as exc:
        cli.main([*QFUNC_SMALL, "--out", str(grid), "--slice-out", slice_out])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --slice-out ") and "--out" in err
    assert grid.exists() == (same == "hard link")
    if same == "hard link":
        assert grid.read_text() == "grid\n"


def test_semiclassical_json_is_strict(capsys):
    # the default range runs past the classical boundary, where the
    # approximation is NaN: JSON writes it as null
    code, out, _ = run(capsys, "semiclassical", "--m", "7", "--r", "1.4", "--format", "json")
    assert code == 0
    doc = strict_json(out)
    invalid = [row for row in doc["rows"] if row[3] == 0]
    assert invalid and all(row[1] is None for row in invalid)
    assert all(isinstance(row[1], float) for row in doc["rows"] if row[3] == 1)


def test_semiclassical_empty_window_header_is_strict(capsys):
    code, out, _ = run(capsys, "semiclassical", "--m", "2", "--r", "0.3",
                       "--points", "3", "--y-min", "40", "--y-max", "50")
    assert code == 0
    header = strict_json(out.splitlines()[2][len("# "):])
    assert header["fitted_scale"] is None


def test_maxima_default_floor_is_echoed(capsys):
    code, out, _ = run(capsys, "maxima", "--representation", "photon", "--m", "3",
                       "--r", "0.5")
    assert code == 0
    config = strict_json(out.splitlines()[1][len("# config "):])
    assert config["floor"] == squeezelab.analysis.DEFAULT_FLOOR


def test_verify_report_is_strict(capsys, monkeypatch):
    check = {"name": "stub", "measured": math.nan, "limit": math.inf, "passed": False}
    monkeypatch.setitem(verify.SUITES, "parity", lambda: [check])
    code, out, _ = run(capsys, "verify", "--suite", "parity")
    assert code == 3
    got = strict_json(out)["suites"]["parity"]["checks"]
    assert got == [{**check, "measured": None, "limit": None}]


def test_verify_nan_route_exits_3_with_null(capsys, monkeypatch):
    # a NaN from the Jacobi route at one state after the first
    jacobi, bad = verify.fock_amplitude, SqueezedNumberState(5, 0.973)
    monkeypatch.setattr(verify, "fock_amplitude", lambda ns, state: jacobi(ns, state) * (
        math.nan if state == bad else 1.0))
    code, out, _ = run(capsys, "verify", "--suite", "oracle")
    assert code == 3
    doc = strict_json(out)
    assert not doc["passed"] and not doc["suites"]["oracle"]["passed"]
    checks = {c["name"]: c for c in doc["suites"]["oracle"]["checks"]}
    assert checks["Jacobi recurrence vs oracle column"] == {
        "name": "Jacobi recurrence vs oracle column", "measured": None, "limit": 1e-8,
        "passed": False}


def test_suite_choices_are_the_verify_suites():
    assert cli.SUITE_NAMES == tuple(verify.SUITES)


def test_verify_single_suite_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "parity")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "v1" and doc["passed"]


def test_verify_takes_no_max_m_flag(capsys):
    # each suite runs its fixed states; there is no knob to resize them
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "all", "--max-m", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --max-m 3" in capsys.readouterr().err


def test_verify_failure_exits_3(capsys, monkeypatch):
    def failing_suite():
        return [{"name": "stub", "measured": 1.0, "limit": 0.0, "passed": False}]
    monkeypatch.setitem(verify.SUITES, "parity", failing_suite)
    code, out, _ = run(capsys, "verify", "--suite", "parity")
    assert code == 3
    assert not json.loads(out)["passed"]


# ------------------------------------------------------------ table writer

WRITER_COLUMNS = {
    "n": np.array([0, 7, -3, 2 ** 40]),
    "x": np.array([0.1, math.nan, -math.inf, -0.0]),
    "y": np.array([1e-300, math.inf, 2.0 / 3.0, 123456789.0]),
    "ok": np.array([True, False, True, False]),
}


def _reference_rows(columns):
    # the per-value contract: integers (and booleans) as int, floats at .17g
    def value(v):
        return int(v) if isinstance(v, (bool, int, np.integer, np.bool_)) else float(v)
    return [[value(v) for v in row] for row in zip(*columns.values())]


def _reference_csv_body(columns):
    def text(v):
        return str(v) if isinstance(v, int) else format(v, ".17g")
    header = ",".join(columns)
    return "".join(f"{line}\n" for line in
                   [header] + [",".join(text(v) for v in row)
                               for row in _reference_rows(columns)])


@pytest.mark.parametrize("columns", [
    WRITER_COLUMNS,
    {"n": np.array([], dtype=int), "x": np.array([])},
    {"x": np.array([0.5])},
    # one string per bit pattern: 0.0 and -0.0 are equal but print apart
    {"x": np.array([0.0, -0.0, 1.5, -0.0, 0.0]), "y": np.array([-0.0, -0.0, 0.0, 2.0, 0.0])},
    {"x": np.array([math.nan, -math.inf, math.nan, math.inf, -math.nan, math.inf, -math.inf])},
    {"x": np.tile([0.1, 2.0 / 3.0, -1e-300, 123456789.0], 50),
     "y": np.repeat([5e-324, -0.25, 1e300, 0.1], 50)},
    {"n": np.array([3, 3, -1, 3, 2 ** 40, -1]), "x": np.array([0.5, 0.5, -0.5, 0.5, 0.5, 0.0])},
])
def test_write_table_matches_per_value_reference(tmp_path, columns):
    config = {"command": "stub", "k": 1}
    csv_path, json_path = tmp_path / "t.csv", tmp_path / "t.json"
    cli._write_table(config, columns, "csv", str(csv_path), extra_header={"a": 1})
    cli._write_table(config, columns, "json", str(json_path), extra_header={"a": 1})
    lines = csv_path.read_text().splitlines(keepends=True)
    assert lines[:3] == [f"# squeezelab {cli.__version__} schema v1\n",
                         '# config {"command": "stub", "k": 1}\n', '# {"a": 1}\n']
    assert "".join(lines[3:]) == _reference_csv_body(columns)
    doc = strict_json(json_path.read_text())
    assert doc["columns"] == list(columns)
    assert doc["meta"] == {"a": 1}
    # JSON has no NaN or Infinity: a non-finite float is null
    want = [[v if isinstance(v, int) or math.isfinite(v) else None for v in row]
            for row in _reference_rows(columns)]
    assert json.dumps(doc["rows"]) == json.dumps(want)
    for got_row, want_row in zip(doc["rows"], want):
        assert [type(v) for v in got_row] == [type(v) for v in want_row]


def test_qfunc_readme_csv_matches_per_value_reference(tmp_path):
    out = tmp_path / "q.csv"
    assert cli.main(["qfunc", "--m", "7", "--r", "1.4", "--n-re", "161", "--n-im", "321",
                     "--out", str(out)]) == 0
    lines = out.read_text().splitlines(keepends=True)
    cfg = json.loads(lines[1][len("# config "):])
    grid = GridSpec(*(cfg[k] for k in ("re_min", "re_max", "im_min", "im_max",
                                       "n_re", "n_im")))
    state = SqueezedNumberState(7, 1.4)
    re, im = grid.axes()
    columns = {"re": np.tile(re, grid.n_im), "im": np.repeat(im, grid.n_re),
               "Q": q_grid(state, grid).ravel()}
    assert "".join(lines[3:]) == _reference_csv_body(columns)
    slice_lines = (tmp_path / "q_slice.csv").read_text().splitlines(keepends=True)
    assert "".join(slice_lines[2:]) == _reference_csv_body(
        {"im": im, "Q": q_slice_imag(im, state)})


def test_write_table_prints_masks_as_integers(capsys):
    config = {"command": "stub"}
    cli._write_table(config, {"valid": np.array([True, False])}, "csv", None)
    assert capsys.readouterr().out.splitlines()[-3:] == ["valid", "1", "0"]
    cli._write_table(config, {"valid": np.array([True, False])}, "json", None)
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert rows == [[1], [0]]
    assert all(type(row[0]) is int for row in rows)  # not JSON true/false


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0),
    (["photon", "--help"], 0),
    (["photon", "--m", "x"], 2),
    (["qfunc", "--m", "2", "--r", "0.5", "--out", "{missing}/q.csv"], 2),
    (["maxima", "--representation", "photon", "--m", "3", "--r", "0.5", "--floor", "inf"], 2),
    (["transition", "--m", "3", "--r-lo", "0.1", "--r-hi", "1", "--prominence", "inf"], 2),
], ids=["help", "photon-help", "usage-error", "path-error", "floor-inf", "prominence-inf"])
def test_front_end_loads_no_numerics(capsys, monkeypatch, tmp_path, argv, code):
    # a fresh process, since this one has numpy loaded; the same command in
    # this process gives the exit code and text to compare against
    argv = [arg.format(missing=tmp_path / "missing") for arg in argv]
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    want = capsys.readouterr()
    done, got, loaded = _fresh_main(tmp_path, argv, COLUMNS="80")
    assert exc.value.code == got == code
    assert (done.returncode, done.stdout, done.stderr) == (0, want.out, want.err)
    assert loaded == ["squeezelab", "squeezelab.cli"]


# the ``cli`` names perfbench's spans rebind, each with its defining module
# and a command that calls it once
HOOKED = {
    "photon_distribution": (squeezed_number, ["photon", "--m", "1", "--r", "0.5"]),
    "q_grid": (squeezed_number, QFUNC_SMALL),
    "q_slice_imag": (squeezed_number, QFUNC_SMALL),  # the slice file of --out
    "position_wf": (squeezed_number, ["quad", "--kind", "position", "--m", "1",
                                      "--r", "0.5", "--points", "3"]),
    "momentum_wf": (squeezed_number, ["quad", "--kind", "momentum", "--m", "1",
                                      "--r", "0.5", "--points", "3"]),
    "approx_p": (semiclassical, ["semiclassical", "--m", "1", "--r", "0.5",
                                 "--points", "5"]),
}


@pytest.mark.parametrize("name", HOOKED)
def test_hooked_names_resolve_and_stay_rebound(capsys, monkeypatch, tmp_path, name):
    module, argv = HOOKED[name]
    for lazy in cli._MODULE_OF:
        monkeypatch.delitem(vars(cli), lazy, raising=False)
    assert getattr(cli, name) is getattr(module, name)
    # with no other lazy name bound, main binds them and calls the wrapper
    calls = []

    def counting(*args, **kwargs):
        calls.append(name)
        return getattr(module, name)(*args, **kwargs)

    monkeypatch.setitem(vars(cli), name, counting)
    assert cli.main([*argv, "--out", str(tmp_path / "out.csv")]) == 0
    assert calls == [name]
    assert vars(cli)[name] is counting


def test_default_tail_eps_is_the_library_default(capsys, monkeypatch):
    seen = []

    def photon_distribution(state, tail_eps):
        seen.append(tail_eps)
        return squeezed_number.photon_distribution(state, tail_eps)

    monkeypatch.setattr(cli, "photon_distribution", photon_distribution)
    code, out, _ = run(capsys, "photon", "--m", "3", "--r", "0.5")
    assert code == 0
    assert '"tail_eps": 1e-10' in out.splitlines()[1]
    # maxima echoes no tail_eps, so the call shows the default it resolved
    code, _, _ = run(capsys, "maxima", "--representation", "photon", "--m", "3", "--r", "0.5")
    assert code == 0
    assert seen == [squeezed_number.TAIL_EPS] * 2 == [1e-10] * 2
