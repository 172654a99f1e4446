"""Benchmark entry point.

    python3 perfbench/run.py --workload {cli_cold,session_warm,reps}
                             --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout; the library is loaded from the
checkout's ``src``. The last line of stdout is the result object: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer ones.
The line before it holds the raw (uncalibrated) figures for reference. A
traced run also writes its spans to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("cli_cold", "session_warm", "reps"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "symfunc" / "__init__.py").is_file():
        print(f"error: no symfunc sources at {SRC}", file=sys.stderr)
        return 2
    # Pin string hashing for this process as the children pin it.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()),
                                  *(argv if argv is not None else sys.argv[1:])])
    sys.path.insert(0, str(SRC))
    import importlib

    import calib

    workload = importlib.import_module(args.workload)
    calib.warm_up()
    rec = workload.run(args.seed, args.seconds, bool(args.trace))
    loaded = sys.modules.get("symfunc")  # cli_cold loads it only in children
    if loaded is not None and Path(loaded.__file__).resolve().parent != SRC / "symfunc":
        print("error: symfunc was not loaded from this checkout", file=sys.stderr)
        return 2
    if args.trace:
        rec.write_trace(HERE / "out" / f"trace-{args.workload}-seed{args.seed}.jsonl")
    print(json.dumps(rec.summary_line()))
    print(json.dumps(rec.result(bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
