"""Pieces shared by the three workloads: the closed loop over whole rounds,
the per-run record of operations, and the end-to-end metrics."""

from __future__ import annotations

import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class Mismatch(Exception):
    """An answer that disagrees with an oracle."""


def expect(cond, message: str) -> None:
    if not cond:
        raise Mismatch(message)


def child_env() -> dict:
    """Children see the checkout's source first and a fixed hash seed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONSTARTUP", None)
    return env


def run_child(args: list) -> dict:
    """Run child.py with ``args``, wait for it to end and return its JSON
    report."""
    proc = subprocess.run(
        [sys.executable, str(CHILD), *args], capture_output=True, text=True,
        env=child_env(), cwd=str(ROOT), timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark child failed ({proc.returncode}): {proc.stderr[-2000:]}")
    report = json.loads(proc.stdout.splitlines()[-1])
    if Path(report["module"]).resolve().parent != SRC / "symfunc":
        raise RuntimeError(f"benchmark child loaded symfunc from {report['module']}")
    return report


def cli_main(cli, argv: list):
    """Call ``cli.main(argv)`` in this process with stdout captured; returns
    (exit code, parsed JSON output or None)."""
    buf = io.StringIO()
    real, sys.stdout = sys.stdout, buf
    try:
        rc = cli.main(argv)
    finally:
        sys.stdout = real
    return rc, json.loads(buf.getvalue()) if rc == 0 else None


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def nearest_rank(values, pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


class Record:
    """Everything one run learns about its operations."""

    def __init__(self, tail_pct: int):
        self.tail_pct = tail_pct
        self.attempted = 0
        self.failed = 0
        self.calibrated: list[float] = []
        self.raw: list[float] = []
        self.kernels: list[float] = []
        self.mismatches: list[str] = []
        self.setup_calibrated: list[float] = []
        self.setup_raw: list[float] = []
        self.rss_mb = 0.0
        self.rounds = 0
        self.layers = tracing.empty_layer_metrics()
        self.overhead_s: list[float] = []
        self.trace_spans: list = []
        self.absent: set = set()  # traced names that this version lacks

    def add_trace(self, label, spans, factor) -> None:
        tracing.add_spans(self.layers, spans, factor)
        self.trace_spans.append((label, factor, spans))

    def write_trace(self, path) -> None:
        """One JSON line per operation: label, calibration factor, spans."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for label, factor, spans in self.trace_spans:
                fh.write(json.dumps({"op": label, "factor": factor, "spans": spans}) + "\n")

    def op(self, label, calibrated, raw, factor, failed=False, check=None, result=None):
        """Count one operation; ``check(result)`` runs only for operations
        that did not fail, outside any timed span."""
        self.attempted += 1
        if failed:
            self.failed += 1
            return
        self.calibrated.append(calibrated)
        self.raw.append(raw)
        self.kernels.append(calib.NOMINAL_S / factor)
        if check is not None:
            try:
                check(result)
            except Mismatch as exc:
                self.mismatch(label, str(exc))
            except Exception as exc:  # a reshaped answer is a wrong answer
                self.mismatch(label, f"{type(exc).__name__}: {exc}")

    def mismatch(self, label, message) -> None:
        self.mismatches.append(f"{label}: {message}")
        print(f"MISMATCH {label}: {message}", file=sys.stderr)

    def end_to_end(self, raw: bool = False) -> dict:
        times = self.raw if raw else self.calibrated
        setup = self.setup_raw if raw else self.setup_calibrated
        return {
            "setup_s": statistics.median(setup),
            "latency_p50_ms": statistics.median(times) * 1000,
            "latency_tail_ms": nearest_rank(times, self.tail_pct) * 1000,
            "ops_per_s": len(times) / sum(times),
            "peak_rss_mb": self.rss_mb,
        }

    def summary_line(self) -> dict:
        """Raw (uncalibrated) figures, printed for reference before the result."""
        return {
            "raw": self.end_to_end(raw=True),
            "kernel_ms_median": statistics.median(self.kernels) * 1000,
            "ops_timed": len(self.calibrated),
            "rounds": self.rounds,
            "tail_percentile": self.tail_pct,
            "mismatches": len(self.mismatches),
            "absent": sorted(self.absent),
        }

    def result(self, trace: bool) -> dict:
        if trace:
            metrics = dict(self.layers)
            ops = max(1, len(self.overhead_s))
            metrics["trace.overhead_ms"] = sum(self.overhead_s) / ops * 1000
            units = {k: ("count" if k.endswith("calls") else "ms") for k in metrics}
        else:
            metrics = self.end_to_end()
            units = END_TO_END_UNITS
        return {
            "correct": not self.mismatches,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }


def rounds(seconds: float, min_rounds: int, max_seconds: float = 120.0):
    """Round indices for a closed loop: whole rounds until ``seconds`` have
    passed and at least ``min_rounds`` are done; never start one after
    ``max_seconds``."""
    start = time.perf_counter()
    k = 0
    while True:
        elapsed = time.perf_counter() - start
        if (k >= min_rounds and elapsed >= seconds) or (k and elapsed >= max_seconds):
            return
        yield k
        k += 1


def in_process_loop(rec: Record, make_round, seconds: float, min_rounds: int,
                    trace: bool) -> None:
    """Run rounds of in-process operations. ``make_round(k)`` returns a list
    of (label, thunk, check). Untraced: time-boxed rounds, each op timed
    between kernel passes. Traced: round 0 once with the wrappers installed,
    then once more without them, for the overhead."""
    if not trace:
        for k in rounds(seconds, min_rounds):
            for label, thunk, check in make_round(k):
                s = calib.timed(thunk)
                rec.op(label, s.calibrated, s.raw, s.factor, failed=s.error is not None,
                       check=check, result=s.result)
                if s.error is not None:
                    print(f"FAILED {label}: {s.error!r}", file=sys.stderr)
            rec.rounds += 1
        return
    ops = make_round(0)
    t = tracing.Tracer()
    t.install()
    rec.absent.update(t.absent)
    traced = []
    try:
        for label, thunk, check in ops:
            t.take()
            s = calib.timed(thunk)
            rec.add_trace(label, t.take(), s.factor)
            traced.append(s.calibrated)
            rec.op(label, s.calibrated, s.raw, s.factor, failed=s.error is not None,
                   check=check, result=s.result)
    finally:
        t.uninstall()
    for (label, thunk, check), before in zip(ops, traced):
        s = calib.timed(thunk)
        rec.overhead_s.append(before - s.calibrated)
    rec.rounds = 1
