"""One fresh interpreter: time the import of symfunc, then one CLI call or one
table build, and print a JSON report as the last line of stdout.

    python3 perfbench/child.py cli <trace 0|1> <symfunc argv...>
    python3 perfbench/child.py setup <max table degree>

Only the kernel (``fractions``) is loaded before the timed import, so the
import time is what a user pays for symfunc itself. The request comes as argv
rather than JSON for the same reason. The parent sets PYTHONPATH to the
checkout's ``src`` and PYTHONHASHSEED to 0.
"""

import gc
import sys

import calib

TABLE_BASES = ("h", "e", "s", "m")


def timed_import(name: str):
    """Import ``name`` between two kernel passes; returns (module, raw,
    calibrated, factor)."""
    import importlib

    sample = calib.timed(importlib.import_module, name)
    if sample.error is not None:
        raise sample.error
    return sample.result, sample.raw, sample.calibrated, sample.factor


def table_pieces(ring, max_degree: int):
    """(label, thunk) for each transition table up to ``max_degree``: the
    conversion of p_d into each other basis builds that basis' tables at
    degree d (m needs s and the Kostka matrix first, so it comes last)."""
    for d in range(1, max_degree + 1):
        for b in TABLE_BASES:
            yield f"tables {b}{d}", (lambda d=d, b=b: ring.convert(ring.basis_element("p", (d,)), b))


def _rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_cli(trace: bool, argv: list) -> dict:
    _, import_raw, import_cal, _ = timed_import("symfunc.cli")
    import io

    cli = sys.modules["symfunc.cli"]
    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    out, err = io.StringIO(), io.StringIO()
    real = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        sample = calib.timed(cli.main, argv)
    finally:
        sys.stdout, sys.stderr = real
    spans = tracer.take() if tracer else []
    if sample.error is not None:
        rc = f"exception {sample.error!r}"
    else:
        rc = sample.result
    return {
        "import_raw": import_raw, "import_cal": import_cal,
        "raw": sample.raw, "calibrated": sample.calibrated, "factor": sample.factor,
        "rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(),
        "rss_mb": _rss_mb(), "spans": spans,
        "absent": tracer.absent if tracer else [],
        "module": sys.modules["symfunc"].__file__,
    }


def run_setup(max_degree: int) -> dict:
    ring, raw, cal, _ = timed_import("symfunc.ring")
    for _, thunk in table_pieces(ring, max_degree):
        sample = calib.timed(thunk)
        if sample.error is not None:
            raise sample.error
        raw += sample.raw
        cal += sample.calibrated
    return {"raw": raw, "calibrated": cal, "rss_mb": _rss_mb(),
            "module": sys.modules["symfunc"].__file__}


def main() -> int:
    mode = sys.argv[1]
    calib.warm_up()
    gc.disable()
    if mode == "cli":
        report = run_cli(sys.argv[2] == "1", sys.argv[3:])
    elif mode == "setup":
        report = run_setup(int(sys.argv[2]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    import json

    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
