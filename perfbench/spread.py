"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload cli_cold --seeds 1-10 [--seconds 20]
                                [--tag a]

Each run is a separate ``run.py`` process, one after the other. Its two last
lines (the raw figures and the result) are kept in
``perfbench/results/<tag>-<workload>-<seed>.json``. The table printed at the
end gives, for every end-to-end metric, the median and quartiles of the
calibrated and of the raw values, and the spread: the distance between the
quartiles as a share of the median, as ``statistics.quantiles(n=4)`` gives
them. The ``kernel`` row is the median reference-kernel pass of each run, the
measure of how fast this machine ran.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(s) for s in text.split(",")]


def spread(values) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, IQR / median)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_list, required=True, help="e.g. 1-10 or 3,7,9")
    p.add_argument("--seconds", type=int, default=RUN_SECONDS)
    p.add_argument("--tag", default="run")
    args = p.parse_args(argv)
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    cal, raw, kernel, shares = {}, {}, [], set()
    for seed in args.seeds:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=str(HERE.parent), capture_output=True, text=True,
        )
        wall = time.perf_counter() - t0
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            return 1
        summary, result = json.loads(lines[-2]), json.loads(lines[-1])
        (out_dir / f"{args.tag}-{args.workload}-{seed}.json").write_text(
            json.dumps({"summary": summary, "result": result, "wall_s": wall}) + "\n")
        for name, m in result["metrics"].items():
            cal.setdefault(name, []).append(m["value"])
            raw.setdefault(name, []).append(summary["raw"][name])
        kernel.append(summary["kernel_ms_median"])
        shares.add(result["failed"] / result["attempted"])
        print(f"seed {seed}: {wall:.0f} s, correct={result['correct']}, "
              f"{result['failed']}/{result['attempted']} failed, {summary['rounds']} rounds, "
              f"kernel {summary['kernel_ms_median']:.3f} ms", flush=True)
    print(f"\n{args.workload}, {len(args.seeds)} runs of {args.seconds} s, "
          f"failed shares {sorted(shares)}\n")
    print("| metric | calibrated median [q1, q3] | spread | raw median [q1, q3] | spread |")
    print("|---|---|---|---|---|")
    for name in cal:
        c, r = spread(cal[name]), spread(raw[name])
        print(f"| {name} | {c[0]:.4g} [{c[1]:.4g}, {c[2]:.4g}] | {c[3]:.1%} "
              f"| {r[0]:.4g} [{r[1]:.4g}, {r[2]:.4g}] | {r[3]:.1%} |")
    k = spread(kernel)
    print(f"| kernel_ms | | | {k[0]:.4g} [{k[1]:.4g}, {k[2]:.4g}] | {k[3]:.1%} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
