"""Output checks for benchmark runs.

Every check returns a list of problems; an empty list means the output
passed.  A run with any problem counts as failed, so a fast wrong answer
is not a result.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
import re
from pathlib import Path

# Float tolerances for the reference comparison.  They leave room for
# floating-point sums that a later change reorders (last-digit changes),
# not for a different answer.  Integer and label columns match exactly.
CSV_ATOL = 1e-9
CSV_RTOL = 1e-9
FIT_ATOL = 1e-9
FIT_RTOL = 1e-6

_INT = re.compile(r"-?\d+")


def digest(out_dir: Path) -> str:
    """SHA-256 over the relative names and bytes of every output file."""
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def output_bytes(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())


def read_csv(text: str) -> tuple[str, list[str], list[list[str]]]:
    """(``# {json}`` header line, column names, rows) of a CLI CSV file."""
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith("# "):
        raise ValueError("missing '# {json}' header line")
    columns = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    bad = [k for k, row in enumerate(rows) if len(row) != len(columns)]
    if bad:
        raise ValueError(f"row {bad[0]} has the wrong number of fields")
    return lines[0], columns, rows


def check_report(path: Path, sites: int, magnons: int, samples: int) -> list[str]:
    """Physics invariants of a ``spectrum-report`` CSV.

    Per sample: indices 0..dim-1, exactly C(L, m-1) promoted states and
    no ambiguous label, exactly one state with E - S_J within round-off
    of 0 (the uniform eigenstate), pair-averaged concurrence in [0, 1]
    and participation ratio in [1, dim].
    """
    try:
        _, columns, rows = read_csv(path.read_text())
    except (OSError, ValueError) as err:
        return [f"{path.name}: {err}"]
    dim = math.comb(sites, magnons)
    col = {name: k for k, name in enumerate(columns)}
    problems = []
    if len(rows) != samples * dim:
        return [f"{path.name}: {len(rows)} rows, expected {samples} x {dim}"]
    for s in range(samples):
        block = rows[s * dim : (s + 1) * dim]
        try:
            index = [int(r[col["index"]]) for r in block]
            sample = {int(r[col["sample"]]) for r in block}
            energy = [float(r[col["eigenvalue"]]) for r in block]
            shift = [float(r[col["E_minus_SJ"]]) for r in block]
            conc = [float(r[col["avg_concurrence"]]) for r in block]
            pr = [float(r[col["PR"]]) for r in block]
            label = [int(r[col["promoted"]]) for r in block]
        except (KeyError, ValueError) as err:
            return [f"{path.name}: unreadable field: {err}"]
        if index != list(range(dim)) or sample != {s}:
            problems.append(f"sample {s}: rows out of order")
        if label.count(1) != math.comb(sites, magnons - 1) or set(label) - {0, 1}:
            problems.append(
                f"sample {s}: {label.count(1)} promoted / {label.count(-1)} ambiguous,"
                f" expected C({sites},{magnons - 1}) = {math.comb(sites, magnons - 1)} promoted"
            )
        roundoff = 1e-9 * max(1.0, max(abs(e) for e in energy))
        uniform = sum(1 for d in shift if abs(d) <= roundoff)
        if uniform != 1:
            problems.append(f"sample {s}: {uniform} states at E = S_J, expected 1")
        if not all(0.0 <= c <= 1.0 for c in conc):
            problems.append(f"sample {s}: avg_concurrence outside [0, 1]")
        slack = 1e-9 * dim
        if not all(1.0 - slack <= p <= dim + slack for p in pr):
            problems.append(f"sample {s}: PR outside [1, {dim}]")
    return problems


def check_scaling(csv_path: Path, fits_path: Path, samples: int) -> list[str]:
    """Every Monte Carlo or eigenstate estimate is finite with stderr > 0."""
    try:
        _, columns, rows = read_csv(csv_path.read_text())
        fits = json.loads(fits_path.read_text())
    except (OSError, ValueError) as err:
        return [f"scaling output unreadable: {err}"]
    col = {name: k for k, name in enumerate(columns)}
    if not {"L", "quantity", "estimate", "stderr", "n_samples", "kind"} <= set(col):
        return [f"{csv_path.name}: unexpected columns {columns}"]
    problems = []
    estimates = [r for r in rows if r[col["kind"]] != "reference"]
    if not estimates:
        problems.append("no estimate rows")
    for r in estimates:
        try:
            est, err, n = float(r[col["estimate"]]), float(r[col["stderr"]]), int(r[col["n_samples"]])
        except (KeyError, ValueError) as exc:
            return [f"{csv_path.name}: unreadable field: {exc}"]
        if not (math.isfinite(est) and math.isfinite(err) and err > 0.0):
            problems.append(f"L={r[col['L']]} {r[col['quantity']]}: estimate {est}, stderr {err}")
        if n != samples:
            problems.append(f"L={r[col['L']]}: n_samples {n}, expected {samples}")
    for quantity, block in fits.get("fits", {}).items():
        if "error" in block:
            problems.append(f"fit for {quantity} failed: {block['error']}")
    if "fits" not in fits:
        problems.append("fits file has no 'fits' block")
    return problems


def _close(a: float, b: float, atol: float, rtol: float) -> bool:
    return abs(a - b) <= atol + rtol * abs(b)


def _compare_json(got, want, where: str) -> list[str]:
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{where}: keys differ"]
        return [p for k in sorted(want) for p in _compare_json(got[k], want[k], f"{where}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: lengths differ"]
        return [p for k, (g, w) in enumerate(zip(got, want)) for p in _compare_json(g, w, f"{where}[{k}]")]
    if isinstance(want, float) and isinstance(got, float):
        return [] if _close(got, want, FIT_ATOL, FIT_RTOL) else [f"{where}: {got!r} vs {want!r}"]
    return [] if got == want and type(got) is type(want) else [f"{where}: {got!r} vs {want!r}"]


def _compare_csv(got_text: str, want_text: str, name: str) -> list[str]:
    got_head, got_cols, got_rows = read_csv(got_text)
    want_head, want_cols, want_rows = read_csv(want_text)
    if got_head != want_head or got_cols != want_cols or len(got_rows) != len(want_rows):
        return [f"{name}: header, columns or row count differ"]
    problems = []
    for k, (g_row, w_row) in enumerate(zip(got_rows, want_rows)):
        for c, (g, w) in enumerate(zip(g_row, w_row)):
            if _INT.fullmatch(w) or not _is_float(w):
                same = g == w
            else:
                same = _is_float(g) and _close(float(g), float(w), CSV_ATOL, CSV_RTOL)
            if not same:
                problems.append(f"{name} row {k} {want_cols[c]}: {g} vs {w}")
    return problems


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def compare_to_reference(out_dir: Path, ref_dir: Path) -> list[str]:
    """Compare every output file with its gzipped reference copy."""
    refs = sorted(ref_dir.glob("*.gz"))
    got = sorted(p.name for p in out_dir.iterdir() if p.is_file())
    want = sorted(p.name[: -len(".gz")] for p in refs)
    if got != want:
        return [f"output files {got} differ from reference files {want}"]
    problems = []
    for ref in refs:
        name = ref.name[: -len(".gz")]
        want_text = gzip.decompress(ref.read_bytes()).decode()
        got_text = (out_dir / name).read_text()
        try:
            if name.endswith(".json"):
                problems += _compare_json(json.loads(got_text), json.loads(want_text), name)
            else:
                problems += _compare_csv(got_text, want_text, name)
        except ValueError as err:
            problems.append(f"{name}: {err}")
    return problems


def record_reference(out_dir: Path, ref_dir: Path) -> None:
    """Store every output file gzipped (fixed mtime, so bytes are reproducible)."""
    ref_dir.mkdir(parents=True, exist_ok=True)
    for old in ref_dir.glob("*.gz"):
        old.unlink()
    for path in sorted(p for p in out_dir.iterdir() if p.is_file()):
        (ref_dir / (path.name + ".gz")).write_bytes(gzip.compress(path.read_bytes(), mtime=0))
