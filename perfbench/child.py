"""One benchmark instance: set up a workload in a fresh interpreter, run it
once through the public vorspec API, check its outputs, report timings.

Started by perfbench/run.py, one instance at a time:

    python3 perfbench/child.py --workload NAME --seed N --trace 0|1 \
        --workdir DIR --out RESULT.json

The result is one JSON object written to ``--out``; an unexpected exception
exits with status 1. Its ``setup_done_t`` is a ``time.perf_counter()``
reading; on Linux that clock is CLOCK_MONOTONIC, shared by all processes,
so the parent measures set-up time from its own spawn time.
"""

from __future__ import annotations

import argparse
import io
import json
import random
import resource
import sys
import time
import traceback
from bisect import bisect_left, bisect_right
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

# one-line rationale per workload, recorded with every result
WORKLOADS = {
    "shear-thick": "thick double shear layer, N=128, 400 BDF3 steps, record "
                   "every 10th step to an in-memory CSV: the solver core "
                   "(FFT, convection, kinematics) dominates",
    "tg-series": "decaying vortex, N=64, 600 steps, a CSV row every step "
                 "and PGM+raw snapshots to files: diagnostics and output do "
                 "half the work",
    "tg-ladder": "the paper's temporal order table, convergence_study(64, "
                 "1e-3, 1.0) over five step sizes: per-call overhead and "
                 "blow-up exits dominate; seed unused",
}

SHEAR_STEPS = 400
SHEAR_SERIES_EVERY = 10
TG_N, TG_DT, TG_NU, TG_STEPS = 64, 0.0025, 1e-3, 600
TG_SNAPSHOT_EVERY = 100
LADDER_ARGS = (64, 1e-3, 1.0)

# index of the first main-loop state of BDF3: states 0..2 come from the
# startup ladder, so observer intervals from step 3 on time plain steps
FIRST_LOOP_STEP = 3


class Segment:
    """Observer timestamps of one run() call, one per step from step 0."""

    def __init__(self, n_steps: int):
        self.n_steps = n_steps
        self.stamps: list = []
        self.blowup_step = None

    def intervals(self):
        st = self.stamps
        return [(st[k - 1], st[k]) for k in range(FIRST_LOOP_STEP, len(st))]

    @property
    def steps_computed(self) -> int:
        return self.n_steps if self.blowup_step is None else self.blowup_step


# --- seeded inputs ------------------------------------------------------------

def shear_thick_input(v, np, seed: int):
    """Thick layer of Brown & Minion with the perturbation delta sin(2 pi x)
    shifted by a whole number of grid cells chosen by the seed.

    A grid-aligned shift is an exact discrete symmetry, so every seed has the
    same diagnostics up to FFT roundoff and one stored reference checks all.
    """
    spec, n, dt = v.SHEAR_LAYER_CASES["thick"]
    grid = v.Grid(n)
    shift = random.Random(seed).randrange(n)
    X, Y = grid.nodes()
    u = np.where(Y <= 0.5, np.tanh(spec.rho * (Y - 0.25)),
                 np.tanh(spec.rho * (0.75 - Y)))
    vy = spec.delta * np.sin(2.0 * np.pi * (X - shift / n))
    w = (v.derivative(v.ScalarField.from_physical(grid, vy), "x", 1)
         - v.derivative(v.ScalarField.from_physical(grid, u), "y", 1))
    coeffs = np.array(w.spectral)
    coeffs[0, 0] = 0.0
    cfg = v.RunConfig(n=n, dt=dt, nu=spec.nu, t_final=SHEAR_STEPS * dt,
                      series_every=SHEAR_SERIES_EVERY)
    return v.ScalarField.from_spectral(grid, coeffs), cfg, {"x_shift_cells": shift}


def tg_series_input(v, np, seed: int):
    """Decaying vortex 4 pi sin(2 pi (x - x0)) sin(2 pi (y - y0)); any phase
    keeps it a single-|k| exact solution."""
    rng = random.Random(seed)
    x0, y0 = rng.random(), rng.random()
    grid = v.Grid(TG_N)
    X, Y = grid.nodes()
    w = 4.0 * np.pi * np.sin(2.0 * np.pi * (X - x0)) * np.sin(2.0 * np.pi * (Y - y0))
    cfg = v.RunConfig(n=TG_N, dt=TG_DT, nu=TG_NU, t_final=TG_STEPS * TG_DT,
                      series_every=1, snapshot_every=TG_SNAPSHOT_EVERY)
    return v.ScalarField.from_physical(grid, w), cfg, {"x0": x0, "y0": y0}


# --- output checks ------------------------------------------------------------

class Checks:
    def __init__(self):
        self.items = []

    def add(self, name: str, ok: bool, detail: str = ""):
        self.items.append({"name": name, "ok": bool(ok), "detail": detail})

    @property
    def ok(self) -> bool:
        return all(c["ok"] for c in self.items)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def check_shear_thick(checks, summary, reference):
    recs = summary.records
    w0 = recs[0].max_omega
    wmax = max(r.max_omega for r in recs)
    checks.add("steps", summary.steps == SHEAR_STEPS, f"{summary.steps}")
    checks.add("max_omega<=2*initial", wmax <= 2.0 * w0, f"{wmax:.6g} vs {w0:.6g}")
    dmax = max(r.div_error for r in recs)
    checks.add("div_error<=1e-10", dmax <= 1e-10, f"{dmax:.3e}")
    # the skew form makes the L2 norm decay; allow only roundoff slack
    rises = [k for k in range(1, len(recs))
             if recs[k].enstrophy > recs[k - 1].enstrophy * (1.0 + 1e-13)]
    checks.add("enstrophy non-increasing", not rises, f"rises at {rises[:3]}")
    final = recs[-1]
    worst, where = 0.0, ""
    for name, ref in reference["final_record"].items():
        if name == "div_error":  # roundoff itself: checked against its bound
            continue
        r = _rel(getattr(final, name), ref)
        if r > worst:
            worst, where = r, name
    # a perturbation of omega0 at 1e-15 moves every column by < 1e-14
    # relative; a wrong step moves them by far more
    checks.add("final record matches reference (rtol 1e-10)",
               worst <= 1e-10, f"worst {where} {worst:.2e}")


def scalar_trajectory(z: float, steps: int):
    """Amplitude recurrence of one decaying mode, z = -nu |k|^2 dt: explicit
    midpoint start, one BDF2 step, BDF3 after (the scheme of vorspec.run)."""
    ys = [1.0, 1.0 + z + 0.5 * z * z]
    ys.append((4.0 * ys[1] - ys[0]) / (3.0 - 2.0 * z))
    while len(ys) <= steps:
        ys.append((3.0 * ys[-1] - 1.5 * ys[-2] + ys[-3] / 3.0) / (11.0 / 6.0 - z))
    return ys[:steps + 1]


def check_tg_series(checks, np, v, summary, omega0, csv_path, snapshots):
    recs = summary.records
    checks.add("records", len(recs) == TG_STEPS + 1, f"{len(recs)}")
    z = -8.0 * TG_NU * np.pi ** 2 * TG_DT
    ys = scalar_trajectory(z, TG_STEPS)
    amp = max(_rel(r.l2_omega / recs[0].l2_omega, y) for r, y in zip(recs, ys))
    checks.add("exact decay of ||w||_2 (rtol 1e-10)", amp <= 1e-10, f"{amp:.2e}")
    w0 = omega0.physical
    shape = np.max(np.abs(summary.final_state.omega.physical - ys[-1] * w0))
    shape /= np.max(np.abs(w0))
    checks.add("final field = decay * initial (rtol 1e-10)", shape <= 1e-10,
               f"{shape:.2e}")
    dmax = max(r.div_error for r in recs)
    checks.add("div_error<=1e-11", dmax <= 1e-11, f"{dmax:.3e}")
    fmax = max(r.F for r in recs[1:]) / recs[0].F
    gmax = max(r.G1 for r in recs[1:]) / recs[0].G1
    checks.add("F, G1 <= initial", fmax <= 1.0 and gmax <= 1.0,
               f"F {fmax:.6f} G1 {gmax:.6f} of initial")
    with open(csv_path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header_ok = lines[0] == ",".join(v.SeriesRecord.FIELDS)
    rows_ok = len(lines) == len(recs) + 1 and all(
        tuple(float(x) for x in line.split(",")) == rec.values()
        for line, rec in zip(lines[1:], recs))
    checks.add("CSV parses back bit-exact", header_ok and rows_ok)
    raw_ok = len(snapshots) == TG_STEPS // TG_SNAPSHOT_EVERY + 1
    for step, base, phys in snapshots:
        with open(base + ".raw", "rb") as fh:
            raw_ok = raw_ok and np.array_equal(v.read_raw(fh), phys)
        with open(base + ".pgm", "rb") as fh:
            raw_ok = raw_ok and fh.read(3) == b"P5\n"
    checks.add("raw snapshots round-trip, PGM headers", raw_ok,
               f"{len(snapshots)} snapshots")


def check_tg_ladder(checks, np, rows, reference):
    omega = {r.dt: r for r in rows if r.variable == "omega"}
    blown = [dt for dt in (0.02, 0.01) if omega[dt].blown_up]
    checks.add("dt 0.02 and 0.01 blow up", len(blown) == 2, f"{blown}")
    # rung 0.005 is left unchecked on purpose: its status is to be refined
    for dt, ref in reference["omega_err_linf_l2"].items():
        row = omega[float(dt)]
        r = _rel(row.err_linf_l2, ref)
        checks.add(f"omega error at dt {dt} (rtol 1e-2)",
                   not row.blown_up and r <= 1e-2,
                   f"{row.err_linf_l2:.4e} vs {ref:.4e}")
    order = omega[0.00125].order_linf
    checks.add("finest-pair order >= 2.7", order is not None and order >= 2.7,
               f"{order}")


# --- per-layer metrics from the spans -----------------------------------------

def layer_metrics(rec, segments, trace_mod):
    """Aggregate the recorded spans into per-step and per-call layer figures.

    Main-loop steps are the observer intervals from step 3 on; a span is
    charged to the interval its start falls in.
    """
    spans = rec.spans
    kids = rec.child_lists()
    bounds = sorted(iv for seg in segments for iv in seg.intervals())
    starts = [b[0] for b in bounds]
    steps = len(bounds)

    def interval_of(t):
        i = bisect_right(starts, t) - 1
        return i if i >= 0 and t < bounds[i][1] else None

    span_starts = [s.start for s in spans]
    fft_per_iv = [0] * steps
    covered = [0.0] * steps
    has_record = [False] * steps
    tot = {"fft_s": 0.0, "fft_b": 0, "conv_n": 0, "conv_self": 0.0,
           "state": 0.0, "helm": 0.0, "run": 0.0}
    rec_n = rec_s = rec_fft = 0
    csv = []
    snap = []
    bench_self = 0.0
    for i, s in enumerate(spans):
        dur = s.end - s.start
        j = interval_of(s.start)
        name = s.name
        if name.startswith("spectral."):
            if j is not None:
                fft_per_iv[j] += 1
                tot["fft_s"] += dur
                tot["fft_b"] += s.nbytes
        elif name == "diagnostics.make_record":
            rec_n += 1
            rec_s += dur
            end = bisect_left(span_starts, s.end, i + 1)
            rec_fft += sum(spans[d].name.startswith("spectral.")
                           for d in range(i + 1, end))
        elif name == "integrators.run":
            tot["run"] += dur
        elif name == "output.csv_write":
            csv.append(dur)
        elif name in ("output.write_pgm", "output.write_raw"):
            snap.append(dur)
        elif name == "bench.convergence_study":
            bench_self += trace_mod.self_time(
                spans, i, [c for c in kids[i]
                           if spans[c].name == "integrators.run"])
        if j is None:
            continue
        if name == "convection.skew_convection":
            tot["conv_n"] += 1
            tot["conv_self"] += trace_mod.self_time(spans, i, kids[i])
        elif name == "fields.make_state":
            tot["state"] += dur
        elif name == "integrators.helmholtz_solve":
            tot["helm"] += dur
        if s.parent >= 0 and spans[s.parent].name == "integrators.run":
            covered[j] += dur
            if name in ("diagnostics.make_record", "output.write_pgm"):
                has_record[j] = True

    def per_step(x):
        return x / steps if steps else 0.0

    def mean(xs):
        return sum(xs) / len(xs) if xs else 0.0

    computed = sum(seg.steps_computed for seg in segments)
    wasted = sum(seg.steps_computed for seg in segments
                 if seg.blowup_step is not None)
    step_self = [(b - a) - c for (a, b), c in zip(bounds, covered)]
    kinds = {"plain": sorted({c for c, r in zip(fft_per_iv, has_record) if not r}),
             "record": sorted({c for c, r in zip(fft_per_iv, has_record) if r})}
    metrics = {
        "spectral.fft_calls_per_step": per_step(sum(fft_per_iv)),
        "spectral.fft_ms_per_step": 1e3 * per_step(tot["fft_s"]),
        "spectral.fft_bytes_per_step": per_step(tot["fft_b"]),
        "convection.calls_per_step": per_step(tot["conv_n"]),
        "convection.self_ms_per_step": 1e3 * per_step(tot["conv_self"]),
        "fields.make_state_ms_per_step": 1e3 * per_step(tot["state"]),
        "integrators.helmholtz_ms_per_step": 1e3 * per_step(tot["helm"]),
        "integrators.step_self_ms": 1e3 * mean(step_self),
        "diagnostics.make_record_ms_per_call": 1e3 * rec_s / rec_n if rec_n else 0.0,
        "diagnostics.fft_calls_per_record": rec_fft / rec_n if rec_n else 0.0,
        "diagnostics.record_share": rec_s / tot["run"] if tot["run"] else 0.0,
        "output.csv_us_per_row": 1e6 * mean(csv),
        "output.snapshot_ms_per_write": 1e3 * mean(snap),
        "bench.self_s": bench_self,
        "bench.wasted_step_frac": wasted / computed if computed else 0.0,
    }
    counts = {"fft_calls_total": sum(s.name.startswith("spectral.") for s in spans),
              "fft_calls_per_interval": kinds,
              "fft_calls_per_record": rec_fft,
              "records": rec_n, "loop_steps": steps,
              "missing_names": rec.missing}
    return metrics, counts


# --- one instance -------------------------------------------------------------

def run_instance(args):
    recorder = None
    if args.trace:
        import spans as trace_mod

        recorder = trace_mod.Recorder(f"{args.workload}-{args.seed}-{args.index}")
        recorder.install_fft()
    clock = time.perf_counter
    t_imp = clock()
    import numpy as np
    import vorspec.cli  # noqa: F401  CLI start-up cost: the whole package
    import vorspec as v
    import vorspec.bench
    import vorspec.output as vout
    import_s = clock() - t_imp
    if recorder is not None:
        recorder.install_vorspec()

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    with open(REFERENCE, "r", encoding="utf-8") as fh:
        reference = json.load(fh)[args.workload]
    segments = []

    def stamping(observer_inner=None, n_steps=0):
        seg = Segment(n_steps)
        segments.append(seg)
        stamps = seg.stamps

        def observer(k, flow):
            stamps.append(clock())
            if observer_inner is not None:
                observer_inner(k, flow)
        return seg, observer

    info = {}
    if args.workload == "shear-thick":
        omega0, cfg, info = shear_thick_input(v, np, args.seed)
    elif args.workload == "tg-series":
        omega0, cfg, info = tg_series_input(v, np, args.seed)
    else:
        info = {"seed": "unused: convergence_study builds its own analytic input"}
        real_run = vorspec.bench.run

        def ladder_run(omega0, cfg, **kw):
            inner = kw.get("observer")
            if recorder is not None and inner is not None:
                inner = recorder.wrap("bench.observe", inner)
            seg, kw["observer"] = stamping(inner, cfg.n_steps)
            try:
                return real_run(omega0, cfg, **kw)
            except v.BlowUpError as e:
                seg.blowup_step = e.step
                raise
        vorspec.bench.run = ladder_run

    t_tel = clock()
    v.get_telescope_coefficients()
    telescope_s = clock() - t_tel
    t_setup = clock()

    checks = Checks()
    out_bytes = 0
    if args.workload == "shear-thick":
        buf = io.StringIO()
        writer = vout.CsvSeriesWriter(buf)
        _, obs = stamping(n_steps=cfg.n_steps)
        t0 = clock()
        summary = v.run(omega0, cfg, series_sink=writer.write, observer=obs)
        run_s = clock() - t0
        out_bytes = len(buf.getvalue().encode("utf-8"))
        check_shear_thick(checks, summary, reference)
    elif args.workload == "tg-series":
        csv_path = str(workdir / "series.csv")
        snapshots = []

        def snapshot_sink(step, flow):
            base = str(workdir / f"tg_{step:06d}")
            with open(base + ".pgm", "wb") as fh:
                vout.write_pgm(fh, flow.omega)
            with open(base + ".raw", "wb") as fh:
                vout.write_raw(fh, flow.omega)
            snapshots.append((step, base, flow.omega.physical))

        _, obs = stamping(n_steps=cfg.n_steps)
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            writer = vout.CsvSeriesWriter(fh)
            t0 = clock()
            summary = v.run(omega0, cfg, series_sink=writer.write,
                            snapshot_sink=snapshot_sink, observer=obs)
            run_s = clock() - t0
        out_bytes = sum(f.stat().st_size for f in workdir.iterdir())
        check_tg_series(checks, np, v, summary, omega0, csv_path, snapshots)
    else:
        t0 = clock()
        rows = vorspec.bench.convergence_study(*LADDER_ARGS)
        run_s = clock() - t0
        check_tg_ladder(checks, np, rows, reference)

    intervals = [b - a for seg in segments for a, b in seg.intervals()]
    result = {
        "ok": checks.ok,
        "checks": checks.items,
        "input": info,
        "setup_done_t": t_setup,
        "run_s": run_s,
        "loop_steps": len(intervals),
        "loop_s": sum(intervals),
        "step_ms": [1e3 * x for x in intervals],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if recorder is not None:
        metrics, counts = layer_metrics(recorder, segments, trace_mod)
        metrics.update({"diagnostics.telescope_s": telescope_s,
                        "cli.import_s": import_s,
                        "output.bytes_written": out_bytes})
        result["layers"] = metrics
        result["counts"] = counts
        recorder.dump(str(Path(args.out).with_suffix(".spans.jsonl")))
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    try:
        result = run_instance(args)
        code = 0
    except Exception:  # reported as a failed run, with its traceback
        result = {"ok": False, "error": traceback.format_exc()}
        code = 1
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
