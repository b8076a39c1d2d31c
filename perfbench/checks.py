"""Output checks: digits against the mpmath reference, and the README
command outputs against the values recorded at the seed commit."""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

from envelope import DIGITS_MIN, MASS_TOL

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
MAX_DIGITS = 16.0
# tolerances against seed-recorded CLI values: the test suite's cross-route
# 1e-8 (relative) and normalization 1e-9 (absolute, as a share of the
# column's largest magnitude)
RTOL = 1e-8
ATOL = 1e-9

# The six README commands at m = 7, r = 1.4, with the outputs each leaves:
# a file name in the working directory, or "-" for standard output.
README_COMMANDS = (
    ("photon", ["photon", "--m", "7", "--r", "1.4", "--out", "photon.csv"],
     ("photon.csv",)),
    ("quad", ["quad", "--kind", "momentum", "--m", "7", "--r", "1.4",
              "--points", "4001", "--out", "mom.csv"], ("mom.csv",)),
    ("qfunc", ["qfunc", "--m", "7", "--r", "1.4", "--n-re", "161", "--n-im", "321",
               "--out", "q.csv"], ("q.csv", "q_slice.csv")),
    ("semiclassical", ["semiclassical", "--m", "7", "--r", "1.4", "--out", "wkb.csv"],
     ("wkb.csv",)),
    ("maxima", ["maxima", "--representation", "photon", "--m", "7", "--r", "1.4",
                "--format", "json"], ("-",)),
    ("transition", ["transition", "--m", "7", "--r-lo", "0.1", "--r-hi", "1.6",
                    "--step", "0.02"], ("-",)),
)


def output_key(cmd: str, out: str) -> str:
    return f"{cmd}.stdout" if out == "-" else out


def digits(err: float) -> float:
    """Correct digits for a relative error, clipped to [0, 16]; NaN gives 0."""
    if math.isnan(err):
        return 0.0
    if err <= 0.0:
        return MAX_DIGITS
    return min(MAX_DIGITS, max(0.0, -math.log10(err)))


class Reference:
    """The stored mpmath values of one (m, r) state."""

    def __init__(self, entry: dict):
        self.m, self.r = entry["m"], entry["r"]
        ph, hu = entry["photon"], entry["husimi"]
        self.photon_n = np.asarray(ph["n"])
        self.photon_amp = np.abs(np.asarray(ph["amp"]))
        self.re_extent, self.im_extent = tuple(hu["re_extent"]), tuple(hu["im_extent"])
        self.shape = tuple(hu["shape"])  # (n_re, n_im)
        self.rows, self.cols = hu["rows"], hu["cols"]
        self.slice_y = np.asarray(hu["slice_y"])
        self.slice_q = np.asarray(hu["slice_q"])
        self.grid_q = np.asarray(hu["grid_q"])
        self.q_peak = float(max(self.slice_q.max(), self.grid_q.max()))

    def photon_digits(self, probs) -> float:
        """Fewest correct digits of |<n|m,r>| = sqrt(P_n) over the stored
        rows (all with reference P_n >= PHOTON_FLOOR); rows past the end of
        the table count as P_n = 0."""
        probs = np.asarray(probs, dtype=float)
        got = np.zeros(len(self.photon_n))
        inside = self.photon_n < len(probs)
        with np.errstate(invalid="ignore"):
            got[inside] = np.sqrt(probs[self.photon_n[inside]])
        return digits(float(np.max(np.abs(got - self.photon_amp) / self.photon_amp)))

    def slice_digits(self, q) -> float:
        """Digits of Q on the Im-axis slice, error relative to the peak Q."""
        q = np.asarray(q, dtype=float)
        if q.shape != self.slice_q.shape:
            return 0.0
        return digits(float(np.max(np.abs(q - self.slice_q))) / self.q_peak)

    def grid_digits(self, grid) -> float:
        """Digits of the full (n_im, n_re) grid on the stored subset."""
        grid = np.asarray(grid, dtype=float)
        if grid.shape != self.shape[::-1]:
            return 0.0
        sub = grid[np.ix_(self.rows, self.cols)]
        return digits(float(np.max(np.abs(sub - self.grid_q))) / self.q_peak)


def load_reference() -> dict[tuple, Reference]:
    with open(os.path.join(DATA, "reference.json")) as fh:
        payload = json.load(fh)
    return {(e["m"], e["r"]): Reference(e) for e in payload["states"]}


def photon_problems(ref: Reference, probs) -> tuple[float, list[str]]:
    """(digits, problems) of one photon table."""
    found = []
    mass = float(np.sum(probs))
    if not abs(mass - 1.0) <= MASS_TOL:
        found.append(f"mass {mass:.12g} is off 1 by {abs(mass - 1.0):.2g}, "
                     f"more than {MASS_TOL:g}")
    d = ref.photon_digits(probs)
    if d < DIGITS_MIN:
        found.append(f"{d:.2f} correct digits, below {DIGITS_MIN:g}")
    return d, found


def digit_problems(d: float) -> list[str]:
    return [] if d >= DIGITS_MIN else [f"{d:.2f} correct digits, below {DIGITS_MIN:g}"]


# ---- README command outputs against the seed record ----------------------

def _number(tok: str):
    try:
        return int(tok)
    except ValueError:
        return float(tok)


def parse_csv(text: str) -> dict:
    """Header JSON (config and extra lines merged), columns and rows."""
    header, columns, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("# config "):
            header["config"] = json.loads(line[len("# config "):])
        elif line.startswith("# {"):
            header.update(json.loads(line[2:]))
        elif line.startswith("#"):
            continue
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append([_number(t) for t in line.split(",")])
    return {"header": header, "columns": columns, "rows": rows}


def summarize(text: str) -> dict:
    """The seed record of one output: digest plus the values it is checked on."""
    record = {"sha256": hashlib.sha256(text.encode()).hexdigest()}
    if text.lstrip().startswith("{"):
        record["json"] = json.loads(text)
        return record
    table = parse_csv(text)
    rows = table["rows"]
    stride = 1 if len(rows) <= 250 else math.ceil(len(rows) / 200)
    picked = sorted(set(range(0, len(rows), stride)) | {len(rows) - 1})
    record.update(header=table["header"], columns=table["columns"], nrows=len(rows),
                  colmax=[max((abs(v) for v in col if not math.isnan(v)), default=0.0)
                          for col in zip(*rows)],
                  rows={str(i): rows[i] for i in picked})
    return record


def _close(got, want, scale: float) -> bool:
    if isinstance(want, bool) or isinstance(want, str) or want is None:
        return got == want
    if isinstance(want, int) and isinstance(got, int):
        return got == want
    if not isinstance(got, (int, float)):
        return False
    if math.isnan(want):
        return math.isnan(got)
    return abs(got - want) <= RTOL * abs(want) + ATOL * scale


def _tree_problems(got, want, where: str) -> list[str]:
    """Every recorded key must be present and close; keys added later are fine."""
    if isinstance(want, dict):
        if not isinstance(got, dict):
            return [f"{where}: expected an object"]
        found = []
        for key, value in want.items():
            if key not in got:
                found.append(f"{where}.{key}: missing")
            else:
                found += _tree_problems(got[key], value, f"{where}.{key}")
        return found
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: expected {len(want)} entries"]
        found = []
        for i, (g, w) in enumerate(zip(got, want)):
            found += _tree_problems(g, w, f"{where}[{i}]")
        return found
    scale = abs(want) if isinstance(want, float) and math.isfinite(want) else 0.0
    return [] if _close(got, want, scale) else [f"{where}: {got!r} != seed {want!r}"]


def parse_output(text: str) -> dict:
    """A JSON output as {"json": payload}, a CSV one as :func:`parse_csv` gives it."""
    if text.lstrip().startswith("{"):
        try:
            return {"json": json.loads(text)}
        except ValueError:
            return {"json": None}
    return parse_csv(text)


def output_problems(table: dict, record: dict) -> list[str]:
    """Where one parsed command output misses the seed values beyond tolerance."""
    if "json" in record:
        return _tree_problems(table.get("json"), record["json"], "json")
    if "rows" not in table:
        return ["output is not a CSV table"]
    found = _tree_problems(table["header"], record["header"], "header")
    if table["columns"] != record["columns"]:
        return found + [f"columns {table['columns']} != seed {record['columns']}"]
    rows = table["rows"]
    if len(rows) != record["nrows"]:
        return found + [f"{len(rows)} rows, seed has {record['nrows']}"]
    for idx, want in record["rows"].items():
        got = rows[int(idx)]
        for col, (g, w, scale) in enumerate(zip(got, want, record["colmax"])):
            if not _close(g, w, scale):
                found.append(f"row {idx} column {record['columns'][col]}: {g!r} != seed {w!r}")
    return found


def byte_identical(text: str, record: dict) -> bool:
    return hashlib.sha256(text.encode()).hexdigest() == record["sha256"]


def load_cli_seed() -> dict:
    with open(os.path.join(DATA, "cli_seed.json")) as fh:
        return json.load(fh)
