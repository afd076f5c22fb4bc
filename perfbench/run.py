"""vorspec benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. For about S seconds it starts one fresh,
single-threaded child interpreter after another (a closed loop with one
client), each running one instance of the workload through the public
vorspec API on inputs built from the seed, and checking the outputs.
With --trace 0 the last stdout line is a JSON object with the end-to-end
metrics, times in units of a calibration kernel (see Calibrator); with
--trace 1 children alternate untraced and traced, and it carries the
per-layer metrics. Lines before it give the machine record, the
workload rationale, every metric's median, quartiles and sample count, and
the output checks. The full result and the span files go to .perfbench_out/.
Exit status 2 when the source tree or the arguments are unusable.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# every run, with its last child, must end well inside 180 s
HARD_LIMIT_S = 170.0
MIN_UNTRACED = 3
PROBE_ROUNDS = 20
CAL_ROUNDS = 400
PY_LOOP = 500

# gated end-to-end metrics; times are in units of the calibration kernel
END_TO_END = {"setup_s": "s", "run_cal": "cal", "wall_cal": "cal",
              "steps_per_cal": "1/cal", "step_cal_p50": "cal",
              "step_cal_p95": "cal", "peak_rss_mb": "MB", "ok_frac": "ratio"}
# printed and recorded next to them
RAW_UNITS = {"run_s": "s", "wall_s": "s", "steps_per_s": "1/s",
             "step_ms_p50": "ms", "step_ms_p95": "ms", "cal_s": "s"}
PER_LAYER = {
    "spectral.fft_calls_per_step": "count",
    "spectral.fft_ms_per_step": "ms",
    "spectral.fft_bytes_per_step": "B",
    "convection.calls_per_step": "count",
    "convection.self_ms_per_step": "ms",
    "fields.make_state_ms_per_step": "ms",
    "integrators.helmholtz_ms_per_step": "ms",
    "integrators.step_self_ms": "ms",
    "diagnostics.make_record_ms_per_call": "ms",
    "diagnostics.fft_calls_per_record": "count",
    "diagnostics.record_share": "ratio",
    "diagnostics.telescope_s": "s",
    "cli.import_s": "s",
    "output.csv_us_per_row": "us",
    "output.snapshot_ms_per_write": "ms",
    "output.bytes_written": "B",
    "bench.self_s": "s",
    "bench.wasted_step_frac": "ratio",
    "trace_overhead_frac": "ratio",
}
# exact counts: must repeat across instances of one run
EXACT = ("spectral.fft_calls_per_step", "diagnostics.fft_calls_per_record",
         "output.bytes_written", "convection.calls_per_step")


def machine_record() -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "fft_backend": "numpy.fft (pocketfft)"
            if hasattr(numpy.fft, "_pocketfft") else "numpy.fft",
            "commit": git_commit()}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class Calibrator:
    """Machine speed right now, from a fixed numpy kernel that uses no
    vorspec code.

    On a shared virtual machine other tenants slow each CPU by up to 2x, for
    seconds to minutes at a time and independently per CPU. Each instance is
    therefore pinned to the CPU on which a short probe runs fastest, and its
    times are also reported in units of the kernel's time measured on that
    CPU just before and just after it, which cancels the slow drifts.
    """

    def __init__(self):
        import numpy

        self.np = numpy
        rng = numpy.random.default_rng(0)
        self.a = rng.standard_normal((128, 128))
        self.mult = numpy.exp(-rng.random((128, 128)))
        self.cpus = sorted(os.sched_getaffinity(0))

    def _kernel(self, rounds: int) -> float:
        """Seconds for ``rounds`` rounds of the operation mix of a solver
        step: a transform pair, pointwise products and some interpreter work."""
        np, a = self.np, self.a
        t = time.perf_counter()
        for _ in range(rounds):
            b = np.fft.ifft2(np.fft.fft2(a) * self.mult).real
            a = 0.5 * (a + b)
            acc = 0.0
            for k in range(PY_LOOP):
                acc += k * 0.5
        return time.perf_counter() - t

    def on(self, cpu: int, rounds: int) -> float:
        os.sched_setaffinity(0, {cpu})
        try:
            return self._kernel(rounds)
        finally:
            os.sched_setaffinity(0, self.cpus)

    def quietest_cpu(self) -> int:
        return min(self.cpus, key=lambda c: self.on(c, PROBE_ROUNDS))


def spawn(args, index: int, traced: bool, run_dir: Path, deadline: float,
          cal: Calibrator):
    """Run one child to completion on the quietest CPU; returns its result
    dict (ok False on any failure) with the parent-side wall time and the
    calibration time (mean of before and after) added."""
    cpu = cal.quietest_cpu()
    cal_before = cal.on(cpu, CAL_ROUNDS)
    out = run_dir / f"child{index}.json"
    workdir = run_dir / f"work{index}"
    cmd = [sys.executable, str(HERE / "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(int(traced)), "--index", str(index),
           "--workdir", str(workdir), "--out", str(out)]
    t0 = time.perf_counter()
    with open(run_dir / f"child{index}.log", "wb") as log:
        proc = subprocess.Popen(cmd, env=child_env(), stdout=log, stderr=log,
                                preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
        try:
            code = proc.wait(timeout=max(1.0, deadline - t0))
        except subprocess.TimeoutExpired:
            code = "timeout"
        finally:  # also on SIGTERM or Ctrl-C: leave no child behind
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    wall = time.perf_counter() - t0
    cal_s = 0.5 * (cal_before + cal.on(cpu, CAL_ROUNDS))
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        res = json.loads(out.read_text())
    except (OSError, ValueError):
        res = {"ok": False, "error": "no result"}
    if code != 0:
        res["ok"] = False
        res.setdefault("error", f"exit status {code}")
    res["traced"] = traced
    res["wall_s"] = wall
    res["cal_s"] = cal_s
    if "setup_done_t" in res:
        res["setup_s"] = res["setup_done_t"] - t0
    return res


def summary(values) -> dict:
    """Median, quartiles and sample count of a list of numbers."""
    vals = sorted(values)
    if len(vals) >= 2:
        q1, med, q3 = statistics.quantiles(vals, n=4, method="inclusive")
    else:
        q1 = med = q3 = vals[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(vals)}


def end_to_end(results, attempted: int, failed: int) -> dict:
    """Raw timings and the same timings in calibration units (``*_cal``).

    Only the calibrated ones, set-up time, memory and ok_frac are gated
    metrics; the raw ones are printed and recorded next to them.
    """
    ok = [r for r in results if r["ok"] and not r["traced"]]
    if not ok:
        return {}
    # step percentiles per instance, then the median over instances: one
    # instance mostly sees one contention level, the pooled steps a mixture
    cuts = [statistics.quantiles(r["step_ms"], n=20, method="inclusive")
            for r in ok]
    steps = {"steps": sum(len(r["step_ms"]) for r in ok),
             "beyond_per_instance": len(ok[0]["step_ms"]) // 20}
    rate = [r["loop_steps"] / r["loop_s"] for r in ok]
    cal = [r["cal_s"] for r in ok]
    stats = {
        "setup_s": summary([r["setup_s"] for r in ok]),
        "run_s": summary([r["run_s"] for r in ok]),
        "run_cal": summary([r["run_s"] / c for r, c in zip(ok, cal)]),
        "wall_s": summary([r["wall_s"] for r in ok]),
        "wall_cal": summary([r["wall_s"] / c for r, c in zip(ok, cal)]),
        "steps_per_s": summary(rate),
        "steps_per_cal": summary([x * c for x, c in zip(rate, cal)]),
        "step_ms_p50": dict(summary([c[9] for c in cuts]), **steps),
        "step_cal_p50": dict(summary([q[9] / 1e3 / c
                                      for q, c in zip(cuts, cal)]), **steps),
        "step_ms_p95": dict(summary([c[18] for c in cuts]), **steps),
        "step_cal_p95": dict(summary([q[18] / 1e3 / c
                                      for q, c in zip(cuts, cal)]), **steps),
        "cal_s": summary(cal),
        "peak_rss_mb": summary([r["peak_rss_mb"] for r in ok]),
        "ok_frac": {"median": (attempted - failed) / attempted, "n": attempted},
    }
    return stats


def per_layer(results) -> dict:
    traced = [r for r in results if r["ok"] and r["traced"]]
    plain = [r for r in results if r["ok"] and not r["traced"]]
    if not traced or not plain:
        return {}
    stats = {name: summary([r["layers"][name] for r in traced])
             for name in PER_LAYER if name != "trace_overhead_frac"}
    def run_cal(rs):
        return statistics.median(r["run_s"] / r["cal_s"] for r in rs)

    stats["trace_overhead_frac"] = {
        "median": run_cal(traced) / run_cal(plain) - 1.0, "n": len(traced)}
    return stats


def counts_repeat(results) -> tuple:
    """Exact counts must be identical in every traced instance."""
    traced = [r for r in results if r["ok"] and r["traced"]]
    sigs = [(json.dumps(r["counts"], sort_keys=True),
             tuple(r["layers"][k] for k in EXACT)) for r in traced]
    return len(set(sigs)) <= 1, (traced[0]["counts"] if traced else {})


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="vorspec benchmark runner")
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "vorspec" / "__init__.py").is_file():
        print(f"error: no vorspec sources under {SRC}; run from the "
              f"repository root of a full checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    start = time.perf_counter()
    deadline = start + HARD_LIMIT_S
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = OUT / tag
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    # start another instance only if it should end inside the window (or
    # too few ran yet), so a run lasts about --seconds
    cal = Calibrator()
    results = []
    while True:
        now = time.perf_counter()
        plain = sum(not r["traced"] for r in results)
        typical = statistics.median(r["wall_s"] for r in results) if results else 0.0
        longest = max((r["wall_s"] for r in results), default=0.0)
        fits = now + typical <= start + args.seconds
        if (not fits and plain >= MIN_UNTRACED) or now + 1.5 * longest > deadline:
            break
        traced = bool(args.trace) and len(results) % 2 == 1
        results.append(spawn(args, len(results), traced, run_dir, deadline,
                             cal))

    attempted = len(results)
    failed = sum(not r["ok"] for r in results)
    if args.trace:
        stats = per_layer(results)
        repeat_ok, counts = counts_repeat(results)
        names, units = PER_LAYER, PER_LAYER
    else:
        stats = end_to_end(results, attempted, failed)
        repeat_ok, counts = True, {}
        names, units = END_TO_END, dict(END_TO_END, **RAW_UNITS)
    correct = failed == 0 and repeat_ok and set(names) <= set(stats)

    record = {"workload": args.workload, "why": WORKLOADS[args.workload],
              "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "machine": machine_record(),
              "loop": "closed, 1 client, 1 child process at a time",
              "attempted": attempted, "failed": failed,
              "counts_repeat": repeat_ok, "counts": counts,
              "stats": stats, "children": [
                  {k: r.get(k) for k in ("ok", "traced", "checks", "error",
                                         "input", "wall_s", "setup_s", "run_s",
                                         "cal_s")}
                  for r in results]}
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1))

    print(f"# workload {args.workload}: {WORKLOADS[args.workload]}")
    print(f"# seed {args.seed}; inputs: "
          f"{results[0].get('input') if results else None}")
    print("# machine " + json.dumps(record["machine"]))
    for name, st in stats.items():
        spread = (f" q1 {st['q1']:.6g} q3 {st['q3']:.6g}" if "q1" in st else "")
        extra = "".join(f" {k}={v}" for k, v in st.items()
                        if k not in ("median", "q1", "q3"))
        print(f"{name:36s} {st['median']:.6g} {units[name]}{spread}{extra}")
    if counts:
        print("# exact counts " + ("repeat" if repeat_ok else "DIFFER")
              + " across traced instances: " + json.dumps(counts))
    for i, r in enumerate(results):
        bad = [c for c in r.get("checks", []) if not c["ok"]]
        if not r["ok"]:
            print(f"# instance {i} FAILED: {bad or r.get('error')}")
    if results and results[0].get("checks"):
        print("# checks (instance 0): " + "; ".join(
            f"{c['name']} {'ok' if c['ok'] else 'FAIL'} {c['detail']}".strip()
            for c in results[0]["checks"]))
    metrics = {n: {"value": stats[n]["median"], "unit": units[n]}
               for n in names if n in stats}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
