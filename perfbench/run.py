"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workloads drive the program's
own entry points (``repro-simulate``, ``repro-serve`` and a live writer
built on ``LiveSession``) in child processes.  With ``--trace 0`` the
end-to-end metrics of ``BENCHMARK.json`` are reported; with
``--trace 1`` the per-layer metrics, from a traced pass of the same
workload.  A table with units and sample counts goes to stdout first;
the last line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--workload all``
runs every workload in turn.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import layers, stats  # noqa: E402
from perfbench.procs import ProcessFailed, stop_all  # noqa: E402
from perfbench.workloads import WORKLOADS, Outcome  # noqa: E402


def cli_import(samples: int = 3) -> tuple[float, int]:
    """Median seconds for a fresh interpreter to import the CLIs the
    workloads start, and how many modules that loads."""
    code = ("import sys, time; t = time.perf_counter(); "
            "import repro.cli.simulate, repro.cli.serve; "
            "print(time.perf_counter() - t, len(sys.modules))")
    times, modules = [], 0
    for _ in range(samples):
        res = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, cwd=ROOT, env={"PYTHONPATH": str(ROOT / "src")},
            timeout=120)
        seconds, modules = res.stdout.split()
        times.append(float(seconds))
    return stats.median(times), int(modules)


def end_to_end_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"]}


def run_one(workload: str, seed: int, seconds: int,
            trace: bool) -> dict:
    """Run *workload*, print its table and return its result object."""
    t0 = time.monotonic()
    out = Outcome()
    try:
        WORKLOADS[workload](out, seed, seconds, trace)
    except (ProcessFailed, OSError) as exc:
        # A program process failed: count it and report what was
        # measured, so the other workloads of ``--workload all`` still
        # run.
        out.op(False, f"{type(exc).__name__}: {exc}")
        stop_all()
    if trace:
        out.layer["cli.import_s"], out.layer["cli.modules_loaded"] = \
            cli_import()
        units = layers.PER_LAYER
        values = {name: float(out.layer.get(name, 0.0)) for name in units}
        also = {}
    else:
        units = end_to_end_units()
        missing = sorted(set(units) - set(out.values))
        if missing:
            out.op(False, f"no value for {', '.join(missing)}")
        values = {name: out.values.get(name) for name in units}
        also = {name: (out.layer[name], unit)
                for name, unit in layers.PER_LAYER.items()
                if name in out.layer}

    print(f"{workload} seed={seed} trace={int(trace)} "
          f"({time.monotonic() - t0:.1f}s)")
    rows = [(name, values[name], unit) for name, unit in units.items()]
    if also:
        rows.append(("also measured (not in the result line):", None, ""))
        rows += [(name, v, unit) for name, (v, unit) in also.items()]
    rows.append(("error_frac", out.failed / max(out.attempted, 1), "ratio"))
    out.samples["error_frac"] = out.attempted
    for name, value, unit in rows:
        shown = "" if value is None else f"{value:.6g}"
        n = out.samples.get(name)
        print(f"  {name:36s} {shown:>14s} {unit:6s}"
              + (f" n={n}" if n else ""))
    for problem in out.problems:
        print(f"  FAILED: {problem}")
    return {
        "correct": out.failed == 0
        and all(v is not None for v in values.values()),
        "attempted": max(out.attempted, 1),
        "failed": out.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()
                    if values[name] is not None},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them in turn (the "
                             "result line then prefixes each metric with "
                             "its workload)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {name: run_one(name, args.seed, args.seconds,
                                 bool(args.trace))
                   for name in names}
    finally:
        stop_all()
    if len(results) == 1:
        result = results[args.workload]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": v
                        for name, r in results.items()
                        for metric, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
