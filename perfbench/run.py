"""galkappa benchmark: seeded known-answer verdicts, one workload per run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from
``src/`` there.  The workload runs in a fresh interpreter (``worker.py``);
set-up time is the median over several fresh interpreters that only import
``galkappa.cli``.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics, with ``--trace 1`` the per-layer ones.  Workloads,
metrics and the layer-to-metric map are described in README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import refclock  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 7        # fresh interpreters timed for setup_s (median)
IMPORTTIME_PROBES = 3   # fresh interpreters under -X importtime (median)
WORKER_TIMEOUT_S = 170
BLAS_THREADS = "1"      # pinned: threaded BLAS made large numcheck runs erratic

PROBE = ("import time; t = time.perf_counter(); import galkappa.cli; "
         "t = time.perf_counter() - t; import refclock; "
         "print(t, refclock.floor_seconds(5))")


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    path = [str(root / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(path)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = BLAS_THREADS
    env.pop("GALKAPPA_REPORT_DIR", None)
    return env


def _python(args, env, cwd, timeout=60) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd, timeout=timeout,
                          capture_output=True, text=True, check=False)


def _import_seconds(env, root) -> float:
    """Import time of galkappa.cli in a fresh interpreter, scaled to the
    nominal host speed by the reference floor measured right after it."""
    proc = _python(["-c", PROBE], env, root)
    if proc.returncode != 0:
        raise RuntimeError(f"cannot import galkappa.cli:\n{proc.stderr}")
    seconds, floor = map(float, proc.stdout.split())
    return seconds * refclock.REF_NOMINAL_S / floor


def _importtime(env, root) -> dict:
    """numpy's cumulative and galkappa's own import time, from -X importtime."""
    proc = _python(["-X", "importtime", "-c", "import galkappa.cli"], env, root)
    numpy_us, galkappa_us = 0, 0
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \| (\s*)(\S+)", line)
        if not m:
            continue
        self_us, cum_us, name = int(m.group(1)), int(m.group(2)), m.group(4)
        if name == "numpy":
            numpy_us = max(numpy_us, cum_us)
        if name.split(".")[0] == "galkappa":
            galkappa_us += self_us
    return {"numpy": numpy_us / 1000.0, "galkappa": galkappa_us / 1000.0}


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "galkappa" / "cli.py").is_file():
        print("error: run from the root of a galkappa checkout (no src/galkappa/cli.py)",
              file=sys.stderr)
        return 2
    env = _child_env(root)
    out_dir = root / ".bench_out"
    work = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.parent.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        _import_seconds(env, root)  # untimed: compiles bytecode on a fresh checkout
        setup = [_import_seconds(env, root) for _ in range(SETUP_PROBES - 1)]
        proc = _python([str(HERE / "worker.py"), "--workload", args.workload,
                        "--seed", str(args.seed), "--seconds", str(args.seconds),
                        "--trace", str(args.trace), "--workdir", str(work)],
                       env, root, timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0 or not proc.stdout.strip():
            print(f"error: worker failed ({proc.returncode}):\n{proc.stderr}", file=sys.stderr)
            return 1
        raw = json.loads(proc.stdout.strip().splitlines()[-1])
        if args.trace:
            probes = [_importtime(env, root) for _ in range(IMPORTTIME_PROBES)]
            spans = work / "spans.jsonl"
            if spans.exists():
                shutil.move(str(spans), out_dir / f"spans-{tag}.jsonl")
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    loaded = Path(raw["galkappa_file"]).resolve()
    if root.resolve() / "src" not in loaded.parents:
        print(f"error: galkappa was imported from {loaded}, not this checkout",
              file=sys.stderr)
        return 1

    env_record = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "blas_threads_env": BLAS_THREADS,
        **raw["env"],
    }
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in raw["layers"].items()}
        metrics["setup.import_numpy_ms"] = {
            "value": statistics.median(p["numpy"] for p in probes), "unit": "ms"}
        metrics["setup.import_galkappa_self_ms"] = {
            "value": statistics.median(p["galkappa"] for p in probes), "unit": "ms"}
        samples = raw["deck_size"]
    else:
        # Each time is scaled to the nominal host speed by the reference
        # floor of its own pass (refclock), which takes out the host's drift
        # from one pass to the next; a verdict's time is then the fastest of
        # its scaled repetitions, which leaves out the shorter swings.
        scales = [refclock.REF_NOMINAL_S / min(refs) for refs in raw["refs"]]
        best = [min(scale * t for scale, t in zip(scales, times)) for times in raw["walls"]]
        samples = len(best)
        executions = sum(len(times) for times in raw["walls"])
        metrics = {
            "verdicts_per_s": {"value": samples / sum(best), "unit": "1/s"},
            "verdict_p50_ms": {"value": 1000.0 * statistics.median(best), "unit": "ms"},
            "verdict_p90_ms": {"value": 1000.0 * _percentile(best, 90), "unit": "ms"},
            "peak_rss_mib": {"value": raw["peak_rss_mib"], "unit": "MiB"},
            "setup_s": {"value": statistics.median(setup + [scales[0] * raw["import_s"]]),
                        "unit": "s"},
        }
    error_rate = raw["failed"] / raw["attempted"]
    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "timed_verdicts": samples, "verdict_error_rate": error_rate,
               "executions": None if args.trace else executions,
               "reference_floor_ms": None if args.trace else [
                   1000.0 * min(refs) for refs in raw["refs"]],
               "unscaled_verdicts_per_s": None if args.trace else (
                   samples / sum(min(times) for times in raw["walls"])),
               "problems": raw["problems"], "environment": env_record}
    (out_dir / f"summary-{tag}.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(f"environment: {json.dumps(env_record)}")
    print(f"{args.workload}: {samples} timed verdicts, verdict_error_rate {error_rate:g}")
    for problem in raw["problems"]:
        print(f"wrong verdict: {json.dumps(problem)}")
    print(json.dumps({"correct": raw["failed"] == 0, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
