"""Seeded end-to-end and per-layer benchmark of the skrp pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload pointwise_dims --seed 1 --seconds 40 --trace 0

Workloads: geodesic_fans, pointwise_dims, profile_scan (see workloads.py).
The run sets up the workload (``setup_s`` is the median of this process and
SETUP_PROBES fresh processes), warms up for WARMUP_S seconds, then runs full
passes until ``--seconds`` have passed and at least one block of the
workload's BLOCK_PASSES passes is done.  Times and rates are the median over
blocks of the pass rebuilt from each step's fastest run in the block
(README.md says why).  Every output is checked; the last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
spends half the time on untraced passes and half on traced passes, reports
the per-layer metrics and the tracing overhead, and writes the spans to
.perfbench_out/.
"""

from __future__ import annotations

import os

# One BLAS thread: the workloads are serial, and extra threads add noise.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WARMUP_S = 4.0
MIN_TRACE_PASSES = 2    # per half of a traced run
SETUP_PROBES = 6
# Stop starting passes when the next one could end after this many seconds
# from process start; a run must finish within 180 s.
RUN_BUDGET_S = 150.0


def _setup(workload: str, seed: int):
    """Import skrp, then build every profile, table and chart once."""
    t0 = perf_counter()
    import skrp  # noqa: F401  (importing is part of set-up)
    from probe import Probe
    from workloads import WORKLOADS
    probe = Probe()
    probe.install()
    wl = WORKLOADS[workload](seed, probe)
    wl.setup()
    return perf_counter() - t0, wl, probe


def _setup_in_fresh_process(workload: str, seed: int) -> float:
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def _passes(run_pass, probe, seconds: float, t_process: float,
            min_passes: int):
    """Full passes until ``seconds`` have passed and ``min_passes`` are
    done; returns each pass's wall time and the probe's tally of it."""
    samples, tallies = [], []
    t_start = perf_counter()
    while True:
        t0 = perf_counter()
        run_pass()
        samples.append(perf_counter() - t0)
        tallies.append(probe.reset())
        now = perf_counter()
        if now - t_start >= seconds and len(samples) >= min_passes:
            break
        if now - t_process + max(samples) > RUN_BUDGET_S:
            break
    return samples, tallies


def _fastest_steps(samples, tallies):
    """The pass rebuilt from each step's fastest run across the passes of
    one block.

    Returns (seconds, [(kind, seconds, work)]): each step of the pass at its
    fastest time, plus the untimed remainder of the pass at its fastest.
    README.md ("Why the fastest steps") says why.
    """
    layout = [(kind, work) for kind, _, work in tallies[0].steps]
    if any([(k, w) for k, _, w in t.steps] != layout for t in tallies):
        # The passes did not run the same steps (a failure changes the
        # flow): fall back to the fastest whole pass.
        i = samples.index(min(samples))
        return samples[i], tallies[i].steps
    times = [min(col) for col in
             zip(*[[s for _, s, _ in t.steps] for t in tallies])]
    rest = min(total - sum(s for _, s, _ in t.steps)
               for total, t in zip(samples, tallies))
    steps = [(kind, s, work) for (kind, work), s in zip(layout, times)]
    return rest + sum(times), steps


def _rate(steps, kind: str) -> float:
    """Work per second over the steps of one kind."""
    return (sum(w for k, _, w in steps if k == kind)
            / sum(s for k, s, _ in steps if k == kind))


def _block_metrics(samples, tallies) -> dict:
    """Timing metrics of one block of passes, from its fastest steps."""
    pass_s, steps = _fastest_steps(samples, tallies)
    return {"pass_s": (pass_s, "s"),
            "points_per_s": (_rate(steps, "point"), "points/s"),
            "path_steps_per_s": (_rate(steps, "path"), "steps/s"),
            "charts_per_s": (_rate(steps, "chart"), "charts/s")}


def quartiles(values) -> tuple:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _machine() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"machine": platform.machine(),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def _finish(run, title: str, metrics: dict) -> int:
    """Print the run's checks and metrics, then the result line."""
    print(f"fail_ratio: {run.failed / run.attempted:.6g} ratio  "
          f"({run.failed} of {run.attempted} checks)")
    print(f"residual_ratio_max: {run.ratio_max:.6g} ratio")
    for what in run.failures[:20]:
        print(f"FAILED: {what}")
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": run.failed == 0, "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("geodesic_fans", "pointwise_dims",
                                 "profile_scan"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up in this process and print it")
    args = parser.parse_args(argv)
    t_process = perf_counter()

    if not (SRC / "skrp" / "__init__.py").is_file():
        print(f"perfbench: no skrp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setup_s, wl, probe = _setup(args.workload, args.seed)
    if args.setup_only:
        print(repr(setup_s))
        return 0
    from probe import Tally

    machine = _machine()
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("machine: " + json.dumps(machine, sort_keys=True))

    t0 = perf_counter()
    while perf_counter() - t0 < WARMUP_S:
        wl.warm()
    warm = probe.reset()

    if args.trace:
        return _traced_run(args, wl, probe, warm, t_process)

    setups = [setup_s] + [_setup_in_fresh_process(args.workload, args.seed)
                          for _ in range(SETUP_PROBES)]
    samples, tallies = _passes(wl.run_pass, probe, args.seconds, t_process,
                               wl.BLOCK_PASSES)
    tally = sum(tallies, Tally())
    # Each estimate takes its fastest steps from a block of the same number
    # of passes whatever the speed of the code, so faster code gets more
    # blocks but not a lower minimum.  Whole blocks only; a run cut short
    # by RUN_BUDGET_S uses what it has.
    n_blocks = max(1, len(samples) // wl.BLOCK_PASSES)
    size = min(wl.BLOCK_PASSES, len(samples))
    blocks = [_block_metrics(samples[i * size:(i + 1) * size],
                             tallies[i * size:(i + 1) * size])
              for i in range(n_blocks)]
    metrics = {"setup_s": (statistics.median(setups), "s")}
    for name, (_, unit) in blocks[0].items():
        metrics[name] = (statistics.median(b[name][0] for b in blocks), unit)
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    q1, med, q3 = quartiles(samples)
    print(f"passes: {len(samples)}  fastest {min(samples):.4f} s  median "
          f"{med:.4f} s  quartiles [{q1:.4f}, {q3:.4f}]  samples "
          + " ".join(f"{s:.4f}" for s in samples))
    print(f"blocks of {size} passes: {n_blocks}; pass from fastest steps "
          "per block " + " ".join(f"{b['pass_s'][0]:.4f}" for b in blocks))
    print("setup samples: " + " ".join(f"{s:.4f}" for s in setups))
    steps = tallies[0].steps
    print(f"per pass: {len(steps)} steps, "
          f"{sum(w for k, _, w in steps if k == 'point'):g} "
          f"pointwise points, {tally.path_steps / len(samples):g} path-steps, "
          f"{sum(w for k, _, w in steps if k == 'chart'):g} charts")
    return _finish(warm + tally, "end-to-end metrics:", metrics)


def _traced_run(args, wl, probe, warm, t_process) -> int:
    from probe import Tally
    from spans import Tracer, per_layer

    half = args.seconds / 2.0
    plain, untraced = _passes(wl.run_pass, probe, half, t_process,
                              MIN_TRACE_PASSES)
    untraced = sum(untraced, Tally())

    tracer = Tracer()
    tracer.install()
    traced_pass = tracer.span("bench.pass", wl.run_pass)

    def one_traced_pass():
        tracer.pass_no += 1
        traced_pass()

    traced, tallies = _passes(one_traced_pass, probe, half, t_process,
                              MIN_TRACE_PASSES)
    tally = sum(tallies, Tally())
    metrics, table = per_layer(tracer, tally, len(traced), min(traced),
                               min(plain))
    print(f"untraced passes: {len(plain)}  fastest {min(plain):.4f} s;  "
          f"traced passes: {len(traced)}  fastest {min(traced):.4f} s;  "
          f"spans {table['spans']}")
    print("layer self time per traced pass:")
    for layer, secs in table["layers"].items():
        print(f"  {layer:10s} {secs:10.4f} s  {secs / table['pass_s']:7.1%}")
    print("top spans by self time per traced pass (self, total):")
    for name, self_s, total_s in table["top"]:
        print(f"  {name:40s} {self_s:10.4f} s {total_s:10.4f} s "
              f"{self_s / table['pass_s']:7.1%}")
    print("per point by chart dimension n:")
    print(f"  {'n':>3} {'metric_jet calls':>17} {'curvature ms':>13} "
          f"{'skrp_report ms':>15} {'identity_report ms':>19} "
          f"{'models.g points':>16}")
    for n in (4, 6, 8):
        print(f"  {n:3d} "
              f"{metrics[f'tensor.metric_jet.calls_per_point.n{n}'][0]:17.2f}"
              f" {metrics[f'tensor.curvature.ms_per_point.n{n}'][0]:13.3f}"
              f" {metrics[f'verify.skrp_report.ms_per_point.n{n}'][0]:15.3f}"
              f" {metrics[f'verify.identity_report.ms_per_point.n{n}'][0]:19.3f}"
              f" {metrics[f'models.g.points_per_point.n{n}'][0]:16.1f}")
    tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    return _finish(warm + untraced + tally,
                   "per-layer metrics (per traced pass):", metrics)


if __name__ == "__main__":
    sys.exit(main())
