"""Benchmark of spherelab at the paper's scale.

Usage, from the repository root::

    python3 perfbench/run.py --workload quad_train --seed 1 --seconds 30 --trace 0

Workloads are listed in BENCHMARK.json and built in ``workloads.py``. A run
sets the workload up several times (reporting the median as ``setup_s``),
then repeats one deterministic pass of it until ``--seconds`` is spent,
always completing at least one. Every pass is checked against references
that share no code with spherelab, and every pass of a run must give the
same output digest.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics. With ``--trace 1`` half the time runs untraced
passes and half runs traced ones, and the object carries the per-layer
metrics of ``tracing.py`` instead. Earlier lines hold the run manifest and
a report of the outputs.

spherelab is imported from ``src/`` of the checkout that holds this
directory, and the run fails without printing a result when it is absent.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: on a 2-core VM a second thread made the MLP step about
# 10 % faster and its run-to-run spread wider.
BLAS_THREADS = 1
# Set-up repeats at least 5 times and until 2 s are spent, at most 50 times:
# a 30 ms set-up needs many repeats for a steady median.
SETUPS_MIN = 5
SETUPS_MAX = 50
SETUP_SECONDS = 2.0
WORKLOADS = ("quad_train", "relu_train", "quad_analyze")
RESERVED_CHECK_SEED = 20180108  # kept out of tuning, for checking later claims

# (name, unit, better) of the metrics a run reports with --trace 0.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("samples_per_s", "samples/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("paper", "small"), default="paper",
                   help="small runs the same code on tiny problems, for tests")
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        p.error("--seed must be an unsigned 64-bit integer")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def pin_threads() -> None:
    """Cap BLAS threads before numpy loads; a lower setting already made stays."""
    for var in THREAD_VARS:
        try:
            current = int(os.environ.get(var, ""))
        except ValueError:
            current = 0
        os.environ[var] = str(current if 0 < current < BLAS_THREADS else BLAS_THREADS)


def import_spherelab():
    """spherelab from this checkout's ``src/``, never an installed copy."""
    if not (SRC / "spherelab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no spherelab sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import spherelab

    if Path(spherelab.__file__).resolve().parent != (SRC / "spherelab").resolve():
        raise SystemExit(f"perfbench: spherelab was imported from {spherelab.__file__}")
    return spherelab


def blas_threads():
    """Threads the loaded OpenBLAS will use, or None when it cannot be asked."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def manifest(args, spherelab, workload) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "spherelab": spherelab.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "blas_threads": blas_threads(),
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "seeds": {"seed": args.seed, "reserved_check_seed": RESERVED_CHECK_SEED},
        "workload": args.workload,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "config": workload.config(),
    }


class Pass:
    """Timings and checked outputs of one pass; ``raw`` is kept for the last."""

    def __init__(self, workload, raw, phases, wall):
        self.wall = wall
        self.phases = phases
        self.rate = workload.rate(raw, phases, wall)
        self.digest = workload.digest(raw)
        self.checks = workload.verify(raw)
        self.raw = raw


def run_passes(workload, budget: float, tracer=None) -> list[Pass]:
    """Repeat the pass while another one of median length fits in ``budget``."""
    passes: list[Pass] = []
    began = time.perf_counter()
    while True:
        job = workload.prepare()
        with tracer if tracer is not None else contextlib.nullcontext():
            t0 = time.perf_counter()
            raw, phases = workload.execute(job)
            wall = time.perf_counter() - t0
        if passes:
            passes[-1].raw = None
        passes.append(Pass(workload, raw, phases, wall))
        elapsed = time.perf_counter() - began
        if elapsed + statistics.median(p.wall for p in passes) > budget:
            return passes


def run(args) -> tuple[dict, dict, dict]:
    """One benchmark run: (manifest, report, result) as JSON-ready dicts."""
    spherelab = import_spherelab()
    import tracing
    import workloads

    workload = workloads.make(args.workload, workloads.SIZES[args.size], args.seed)
    head = manifest(args, spherelab, workload)
    setups = []
    while len(setups) < SETUPS_MIN or (sum(setups) < SETUP_SECONDS
                                         and len(setups) < SETUPS_MAX):
        t0 = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t0)

    budget = args.seconds / 2 if args.trace else args.seconds
    plain = run_passes(workload, budget)
    checks = [c for p in plain for c in p.checks]
    checks.append(("digest.same_every_pass", len({p.digest for p in plain}) == 1))
    traced = []
    if args.trace:
        tracer = tracing.Tracer()
        traced = run_passes(workload, budget, tracer)
        checks += [c for p in traced for c in p.checks]
        checks.append(("digest.traced_equals_untraced",
                       {p.digest for p in traced} == {plain[0].digest}))
        finish_tracer = tracing.Tracer()
        with finish_tracer:
            checks += workload.finish(traced[-1].raw, ROOT)
        metrics = tracing.layer_metrics(tracer.spans, [p.wall for p in traced],
                                        [p.wall for p in plain], finish_tracer.spans)
    else:
        checks += workload.finish(plain[-1].raw, ROOT)
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(p.wall for p in plain),
            "samples_per_s": statistics.median(p.rate for p in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}

    failed = sorted({name for name, ok in checks if not ok})
    phases = {k: statistics.median(p.phases[k] for p in plain) for k in plain[0].phases}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(plain),
        "traced_passes": len(traced),
        "digest": plain[0].digest,
        "pass_walls_s": [p.wall for p in plain],
        "traced_walls_s": [p.wall for p in traced],
        "setups_s": setups,
        "phases_s": phases,
        "outputs": workload.summary((traced or plain)[-1].raw),
        "failed_checks": failed,
    }
    result = {
        "correct": not failed,
        "attempted": len(checks),
        "failed": sum(1 for _, ok in checks if not ok),
        "metrics": metrics,
    }
    return head, report, result


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_threads()
    head, report, result = run(args)
    print(json.dumps({"manifest": head}))
    print(json.dumps({"report": report}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
