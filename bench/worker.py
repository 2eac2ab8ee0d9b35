"""One round of one workload in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N --spawned T --out FILE
                            [--trace SPANS_FILE] [--setup-only]

``--spawned`` is the parent's ``time.monotonic()`` just before it started
this process; set-up time runs from there until the first operation can
run.  The worker times each operation (wall and CPU), converts its output
to plain JSON outside the timed span, and writes JSON lines to ``--out``:
a header, one record per operation, and the peak resident memory last.
The calibration loop (``calibration.py``) runs once right after set-up and
once after each operation; the header carries the first timing, and each
operation's record the mean of the timings on either side of it.
Run with ``src`` on ``PYTHONPATH``; ``bench/run.py`` does that.
"""

from __future__ import annotations

import argparse
import json
import platform
import time


def _peak_rss_mib() -> float:
    """Peak resident memory of this process since it started the worker.
    Not ``ru_maxrss``: Linux carries that over from the parent process
    through fork and exec, so it would report the parent's size instead."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import wwords
    from calibration import calibrate
    from workloads import WORKLOADS

    ops = WORKLOADS[args.workload](args.seed)
    setup_s = time.monotonic() - args.spawned
    cal = calibrate()
    doc: dict = {"setup_s": setup_s, "setup_cal_s": cal[0],
                 "python": platform.python_version(),
                 "wwords_file": wwords.__file__}
    if args.setup_only:
        with open(args.out, "w") as fh:
            fh.write(json.dumps(doc) + "\n")
        return

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    # each record is written as soon as it is made, so that finished
    # outputs do not stay in memory and add to the peak of later operations
    with open(args.out, "w") as fh:
        fh.write(json.dumps(doc) + "\n")
        for op in ops:
            error = value = None
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                value = op.run()
            except Exception as exc:  # counted as a failed operation
                error = f"{type(exc).__name__}: {exc}"
            c1, w1 = time.process_time(), time.perf_counter()
            result = None if error else op.convert(value)
            value = None
            after = calibrate()
            fh.write(json.dumps({
                "name": op.name, "kind": op.kind, "wall_s": w1 - w0,
                "cpu_s": c1 - c0, "error": error,
                "cal_wall_s": (cal[0] + after[0]) / 2,
                "cal_cpu_s": (cal[1] + after[1]) / 2,
                "result": result}) + "\n")
            cal = after
        if tracer is not None:
            tracer.uninstall()
            tracer.write(args.trace)
        fh.write(json.dumps({"peak_rss_mib": _peak_rss_mib()}) + "\n")


if __name__ == "__main__":
    main()
