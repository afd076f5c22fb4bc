"""Committed outputs: three runs whose printed text tests/data keeps, and
the roundoff bounds within which a later change must reproduce them.

    python tests/committed_outputs.py          # rewrite the files
    python tests/committed_outputs.py --check  # compare, exit 1 past a bound

(with the package importable, e.g. PYTHONPATH=src). The files are

- shear_thick_series.csv: the series CSV of the thick shear layer at
  N = 128, 100 BDF3 steps of 8e-4, a record every step;
- vortex_series.csv: the series CSV of the decaying vortex at N = 64,
  nu = 1e-3, 600 steps of 0.0025, a record every 10th step;
- convergence.csv: convergence_csv(convergence_study(64, 1e-3, 1.0));
- outputs.json: the numpy version that wrote them and the sha256 of each
  run's final omega half spectrum.

Bits may differ across CPUs and numpy builds, so the gate is roundoff,
not bytes: record columns at relative RECORD_RTOL, except div_error, a
roundoff residual near 0 that is held absolutely like the convergence
errors, within ERROR_ATOL ||omega^0||_2 of the run's initial vorticity;
steps, variables, statuses and which rungs have no order, exactly. A
polluted rung ran past the stability limit and ends as noise that
roundoff seeds, so one ulp moves its errors by O(1): only its status is
gated, and its error moves are reported apart. A blown-up rung's errors
stay inf, exactly. --check prints per file whether the bytes match and the
largest move per column; a change that moves bits on purpose rewrites the
files and states the moves.
"""

import hashlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from vorspec import (Grid, RunConfig, TaylorGreenSpec, hm_norm, run,
                     shear_layer_init, taylor_green_exact)
from vorspec.bench import (SHEAR_LAYER_CASES, convergence_csv,
                           convergence_study)
from vorspec.output import CsvSeriesWriter

DATA = Path(__file__).parent / "data"
MANIFEST = "outputs.json"

# the largest record move any change has reported is 2.0e-14 relative
RECORD_RTOL = 1e-12
# the bound of ABSOLUTE columns, in units of the initial ||omega||_2
ERROR_ATOL = 1e-13
# columns whose text must not change, and those held absolutely: the
# convergence errors and the records' div_error, a roundoff residual
EXACT = ("dt", "variable", "status")
ABSOLUTE = ("linf_l2", "l2_h1", "div_error")
# statuses of rungs whose errors are amplified roundoff, reported ungated
NOISE = ("polluted",)


def _series(omega0, cfg):
    """(series CSV text, sha256 of the final omega, ||omega^0||_2)."""
    buf = io.StringIO()
    summary = run(omega0, cfg, series_sink=CsvSeriesWriter(buf).write)
    digest = hashlib.sha256(summary.final_state.omega._half.tobytes())
    return buf.getvalue(), digest.hexdigest(), hm_norm(omega0, 0)


def _shear_thick():
    spec, n, dt = SHEAR_LAYER_CASES["thick"]
    return _series(shear_layer_init(Grid(n), spec),
                   RunConfig(n=n, dt=dt, nu=spec.nu, t_final=100 * dt))


def vortex_omega0():
    """The initial vorticity of the vortex runs, N = 64 and nu = 1e-3."""
    return taylor_green_exact(Grid(64), TaylorGreenSpec(nu=1e-3)).omega


def _vortex():
    dt = 0.0025
    return _series(vortex_omega0(), RunConfig(n=64, dt=dt, nu=1e-3,
                                              t_final=600 * dt,
                                              series_every=10))


def _convergence():
    return (convergence_csv(convergence_study(64, 1e-3, 1.0)), None,
            hm_norm(vortex_omega0(), 0))


OUTPUTS = {"shear_thick_series.csv": _shear_thick,
           "vortex_series.csv": _vortex,
           "convergence.csv": _convergence}


def produce():
    """name -> (text, final omega digest or None, ||omega^0||_2)."""
    return {name: make() for name, make in OUTPUTS.items()}


def committed(name):
    return (DATA / name).read_text(encoding="utf-8")


def _table(text):
    lines = text.splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _move(col, a, b, scale):
    """How far the text b moved from a in column col: relative for record
    columns and orders, in units of scale for ABSOLUTE ones, and inf where
    the text must not change (EXACT columns, an order only one has)."""
    if a == b:
        return 0.0
    if col in EXACT or "" in (a, b):
        return math.inf
    x, y = float(a), float(b)
    move = abs(x - y) / (scale if col in ABSOLUTE else abs(x) or math.nan)
    return move if move == move else math.inf


def moves(old, new, scale):
    """(largest move per gated column, columns past their bound, largest
    move per error column of the NOISE rungs) of new against old, two CSV
    texts. An order is a log ratio of two gated error columns: its moves
    are reported, and only its presence gated."""
    head, rows = _table(old)
    new_head, new_rows = _table(new)
    if new_head != head or len(new_rows) != len(rows):
        return {}, ["header or row count"], {}
    status = head.index("status") if "status" in head else None
    gated, noise = {}, {}
    for row, new_row in zip(rows, new_rows):
        noisy = status is not None and row[status] in NOISE
        for col, a, b in zip(head, row, new_row):
            into = noise if noisy and col in ABSOLUTE else gated
            into[col] = max(into.get(col, 0.0), _move(col, a, b, scale))
    bound = {col: math.inf if col.startswith("order_") else
             ERROR_ATOL if col in ABSOLUTE else RECORD_RTOL for col in head}
    return gated, [col for col, move in gated.items()
                   if move == math.inf or move > bound[col]], noise


def _listed(largest):
    return ", ".join(f"{col} {move:.1e}" for col, move in largest.items())


def check(out=sys.stdout):
    """Compare fresh outputs with the committed ones; report per file and
    return the names of the files past a bound."""
    manifest = json.loads(committed(MANIFEST))
    print(f"committed by numpy {manifest['numpy']}, this is numpy "
          f"{np.__version__}", file=out)
    failed = []
    for name, (text, digest, scale) in produce().items():
        old = committed(name)
        largest, past, noise = moves(old, text, scale)
        same = "bytes match" if old == text else "bytes differ"
        if digest is not None:
            same += (", final omega digest "
                     + ("matches" if digest == manifest["final_omega_sha256"]
                        [name] else "differs"))
        print(f"{name}: {same}; largest move per column: "
              + _listed(largest), file=out)
        if noise:
            print(f"  polluted rungs, not gated: {_listed(noise)}", file=out)
        if past:
            print(f"  past the bound: {', '.join(past)}", file=out)
            failed.append(name)
    return failed


def regenerate():
    digests = {}
    for name, (text, digest, _) in produce().items():
        (DATA / name).write_text(text, encoding="utf-8")
        if digest is not None:
            digests[name] = digest
    (DATA / MANIFEST).write_text(json.dumps(
        {"numpy": np.__version__, "final_omega_sha256": digests},
        indent=2) + "\n", encoding="utf-8")


def main(argv):
    if argv == ["--check"]:
        return 1 if check() else 0
    if argv:
        sys.exit("usage: committed_outputs.py [--check]")
    regenerate()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
