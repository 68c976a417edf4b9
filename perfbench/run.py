"""HOPI benchmark: the default ``repro build -> serve -> /v1`` path.

Usage (from the repository root)::

    python3 perfbench/run.py --workload read-cold --seed 7 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all --seed 7     # every workload

Workloads: ``read-cold``, ``read-hot`` and ``write-mixed``.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
same inputs with span wrappers installed and reports the per-layer
metrics instead. Every metric is printed by name with its unit, with
the host and run context; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.

The command exits non-zero, printing no result, when the program
cannot be imported or a validity guard finds that the run did not
measure what its workload claims; it exits 1 after printing a result
with ``correct`` false when an answer disagrees with its oracle.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import platform
import shutil
import signal
import sys
import tempfile
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

#: every end-to-end metric: (unit, meaning). Every workload reports
#: every metric, so the operation behind ``op_*`` is the workload's own:
#: a ``/v1/query`` round trip (read-cold, read-hot) or the ack of a
#: batch ``/v1/update`` in write-mixed's closed-loop phase. Failed
#: operations are the result's ``failed`` count.
#: The operation's tail percentiles, write-mixed's open-loop ack
#: latencies and its ``recovery_s`` are printed in each run's context,
#: not gated (see workloads.py).
END_TO_END = {
    "setup_s": ("s", "run start to the first timed operation, median of "
                "the set-ups of the run"),
    "cover_entries": ("count", "2-hop label entries |L| of the served index"),
    "index_bytes": ("bytes", "bytes of the persisted database"),
    "peak_rss_mb": ("MB", "peak RSS of the server (VmHWM)"),
    "op_p50_ms": ("ms", "median latency of the workload's operation "
                  "(write-mixed: a 32-op update in its closed-loop phase)"),
    "ops_per_s": ("1/s", "operations completed per second (write-mixed: "
                  "update ops acknowledged in its closed-loop phase)"),
}


def _context(run, workload_why: str) -> dict:
    return {
        "workload": run.workload,
        "why": workload_why,
        "seed": run.seed,
        "seconds": run.seconds,
        "host_cpus": run.nproc,
        "python": platform.python_version(),
        "numpy": importlib.util.find_spec("numpy") is not None,
        **run.context,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 work_root: Path):
    import layers
    from workloads import WORKLOADS, Run

    fn, why = WORKLOADS[name]
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work_root))
    run = Run(name, seed, seconds, trace, work)
    try:
        fn(run)
        run.check_generator()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if trace:
        metrics = {k: (run.layers.get(k, 0.0), unit)
                   for k, unit in layers.PER_LAYER_UNITS.items()}
    else:
        metrics = {k: (run.metrics[k], unit)
                   for k, (unit, _) in END_TO_END.items()}
    context = _context(run, why)
    print(f"== {name} (seed {seed}, {'traced' if trace else 'untraced'}) ==")
    print("context: " + json.dumps(context, sort_keys=True, default=str))
    for key, (value, unit) in metrics.items():
        print(f"  {key:36s} {value:16.6f} {unit}")
    print(f"  attempted {run.attempted}, failed {run.failed}")
    for message in run.errors:
        print(f"  FAILED: {message}")
    for message in run.missing_wrappers:
        print(f"  untraced (target not found): {message}")
    for message in run.invalid:
        print(f"  INVALID: {message}")
    return run, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=16)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # a terminated benchmark unwinds, so every server it started is stopped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    try:
        import repro  # noqa: F401
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    work_root = ROOT / ".perfbench_run"
    work_root.mkdir(exist_ok=True)
    combined = {}
    attempted = failed = 0
    invalid = False
    for name in names:
        try:
            run, metrics = run_workload(name, args.seed, args.seconds,
                                        bool(args.trace), work_root)
        except Exception:
            traceback.print_exc()
            return 3
        attempted += run.attempted
        failed += run.failed
        invalid = invalid or bool(run.invalid)
        for key, (value, unit) in metrics.items():
            label = key if len(names) == 1 else f"{name}.{key}"
            combined[label] = {"value": value, "unit": unit}
    if invalid:
        print("the run is invalid (see INVALID above); no result", file=sys.stderr)
        return 4
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": combined}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
