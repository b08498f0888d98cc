"""One workload in one fresh interpreter: import, warm up, run decks, check.

Started by ``run.py`` with ``src`` on PYTHONPATH and the BLAS thread count
pinned in the environment.  Every verdict is one call to
``galkappa.cli.main(argv)`` with stdout captured and GALKAPPA_REPORT_DIR
pointing at a scratch directory, so the report layer runs too.  Prints one
JSON object (the raw measurements) as its last stdout line.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

_T0 = time.perf_counter()
import galkappa.cli as cli  # noqa: E402  (the import is the measured set-up)

IMPORT_S = time.perf_counter() - _T0

import oracle  # noqa: E402
import refclock  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3         # every verdict is timed at least this many times
HARD_CAP_S = 120.0     # never start a pass after this, whatever the speed
REF_EVERY_S = 0.25     # spacing of the reference-loop samples


class Runner:
    """Runs verdicts, checks each against its known answer, hashes reports."""

    def __init__(self, report_dir: Path):
        self.report_dir = report_dir
        self.digests = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run(self, verdict) -> float:
        """Run and check one verdict; return its wall time in seconds."""
        path = self.report_dir / (oracle.report_name(verdict.argv, verdict.expect) + ".json")
        if path.exists():
            path.unlink()
        out, err = io.StringIO(), io.StringIO()
        exit_code, crash = None, None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                exit_code = cli.main(list(verdict.argv))
        except Exception as exc:  # any exception is a wrong verdict, never a crash
            crash = exc
        wall = time.perf_counter() - t0

        problems = []
        if crash is not None:
            problems.append(f"raised {crash!r}")
        raw = path.read_bytes() if path.exists() else None
        report = None
        if raw is not None:
            try:
                report = json.loads(raw)
            except ValueError:
                problems.append("report is not JSON")
            digest = hashlib.sha256(raw).hexdigest()
            first = self.digests.setdefault(tuple(verdict.argv), digest)
            if first != digest:
                problems.append("report bytes differ from an earlier repetition")
        if crash is None:
            problems += oracle.check(verdict.expect, exit_code, out.getvalue(), report)
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append({"argv": verdict.argv, "problems": problems})
        return wall


def _run_timed(runner: Runner, deck, seconds: float):
    """Whole passes over the deck, closed loop, one verdict at a time.

    Passes repeat until `seconds` have gone by and every verdict has run
    MIN_PASSES times.  The reference loop runs between verdicts about every
    REF_EVERY_S.  Returns each verdict's wall times and the reference times.
    """
    walls = [[] for _ in deck]
    refs = []   # one list of reference times per pass
    start = last_ref = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_CAP_S or (elapsed >= seconds and len(refs) >= MIN_PASSES):
            break
        refs.append([refclock.reference_seconds()])
        for k, verdict in enumerate(deck):
            if time.perf_counter() - last_ref >= REF_EVERY_S:
                refs[-1].append(refclock.reference_seconds())
                last_ref = time.perf_counter()
            walls[k].append(runner.run(verdict))
    return walls, refs


def _blas_record() -> dict:
    """BLAS library, version and the thread count it reports, if it can tell."""
    import numpy as np

    rec = {"numpy": np.__version__, "blas": None, "blas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        rec["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        pass
    try:
        import ctypes

        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.lower()}
        for lib in sorted(libs):
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    rec["blas_threads"] = fn()
                    return rec
    except OSError:
        pass
    return rec


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    workdir = Path(args.workdir)
    inputs, reports = workdir / "inputs", workdir / "reports"
    inputs.mkdir(parents=True)
    reports.mkdir()
    deck = workloads.build_deck(args.workload, args.seed)
    for verdict in deck:
        for name, text in verdict.files.items():
            (inputs / name).write_text(text)
    os.chdir(inputs)
    os.environ["GALKAPPA_REPORT_DIR"] = str(reports)

    runner = Runner(reports)
    runner.run(deck[0])  # untimed warm-up

    result = {"import_s": IMPORT_S, "galkappa_file": cli.__file__,
              "env": _blas_record(), "deck_size": len(deck)}
    if args.trace:
        import tracer

        untraced = [runner.run(v) for v in deck]
        tr = tracer.Tracer()
        tr.install()
        traced = []
        for k, verdict in enumerate(deck):
            tr.verdict = k + 1
            traced.append(runner.run(verdict))
        tr.uninstall()
        result["layers"] = tr.metrics(untraced, traced)
        tr.write_spans(workdir / "spans.jsonl")
    else:
        walls, refs = _run_timed(runner, deck, args.seconds)
        result.update(walls=walls, refs=refs)
    result.update(
        attempted=runner.attempted,
        failed=runner.failed,
        problems=runner.problems,
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
