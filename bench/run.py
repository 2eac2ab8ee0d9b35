"""Benchmark of the wwords engines, one workload per invocation.

    python3 bench/run.py --workload identities|equations|discovery \\
        --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the package from
``src``.  Each round of the workload runs in a fresh single-threaded worker
process (``bench/worker.py``), one at a time.  Rounds repeat while the
next one, at the last one's pace, still ends within ``--seconds`` seconds of
the start, and every run has at least ``MIN_ROUNDS``.  Every time is
divided by the time of the calibration loop (``calibration.py``) measured
next to it and read in seconds at the reference speed, so that the drift
of a shared machine's speed cancels; a time metric adds up each
operation's median over the run's rounds.  With ``--trace 1``
one more round runs with the tracer installed, and the result reports the
per-layer metrics instead of the end-to-end ones.

Every output is checked against ``bench/reference.py`` after its worker has
ended, so no check falls in a timed span.  The last line of standard output
is the JSON result; a record of the run (machine, git SHA, seed, per-
operation times, problems) goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import REFERENCE_S
from reference import References, check_operation

WORKLOADS = ("identities", "equations", "discovery")
#: set-up is sampled at least this many times per run (rounds count too)
SETUP_SAMPLES = 7
#: every operation is repeated at least this many times in a run
MIN_ROUNDS = 3
WORKER_TIMEOUT_S = 170


def _worker(root: Path, out: Path, workload: str, seed: int,
            *extra: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"  # same dict layouts, so the same peak memory
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(root / "bench" / "worker.py"),
         "--workload", workload, "--seed", str(seed),
         "--spawned", repr(spawned), "--out", str(out), *extra],
        cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    out.unlink()
    doc = lines[0]
    if not Path(doc["wwords_file"]).resolve().is_relative_to(root / "src"):
        raise RuntimeError(f"worker imported wwords from {doc['wwords_file']}, "
                           f"not from {root / 'src'}")
    if len(lines) > 1:  # a round: operation records, then the peak memory
        doc.update(lines[-1], ops=lines[1:-1])
    return doc


def _git_sha(root: Path) -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "wwords").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _round_total(doc: dict) -> float:
    return sum(op["wall_s"] for op in doc["ops"])


def _scaled_total(rounds: list[dict], key: str) -> float:
    """Sum over the operations of each one's median time over the rounds,
    every time scaled by the calibration timed next to it."""
    times: dict[str, list[float]] = {}
    for doc in rounds:
        for op in doc["ops"]:
            times.setdefault(op["name"], []).append(
                op[key] / op[f"cal_{key}"] * REFERENCE_S)
    return sum(statistics.median(t) for t in times.values())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd().resolve()
    if not (root / "src" / "wwords" / "__init__.py").is_file():
        print("bench: src/wwords not found; run from the root of a wwords "
              "source checkout", file=sys.stderr)
        return 2
    declared = json.loads((root / "BENCHMARK.json").read_text())
    out_dir = root / "bench" / "out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch = out_dir / f"{tag}.worker.json"

    refs = References()
    attempted = failed = 0
    wrong: list[str] = []

    def checked(doc: dict) -> dict:
        """Check a round's outputs, then drop them so that the parent's
        memory, which each worker starts from, stays the same."""
        nonlocal attempted, failed
        for op in doc["ops"]:
            attempted += 1
            problems = check_operation(op, refs)
            del op["result"]
            if problems:
                failed += 1
                if not op["error"]:
                    wrong.extend(problems)
                else:
                    print(f"bench: {problems[0]}")
        return doc

    started = time.monotonic()
    rounds: list[dict] = []
    while True:
        round_started = time.monotonic()
        rounds.append(checked(_worker(root, scratch, args.workload,
                                      args.seed)))
        now = time.monotonic()
        next_round_ends = now + (now - round_started) - started
        if len(rounds) >= MIN_ROUNDS and next_round_ends > args.seconds:
            break
    traced = None
    if args.trace:
        spans_file = out_dir / f"{tag}.spans.jsonl"
        traced = checked(_worker(root, scratch, args.workload, args.seed,
                                 "--trace", str(spans_file)))
    setups = [(r["setup_s"], r["setup_cal_s"]) for r in rounds]
    while len(setups) < SETUP_SAMPLES:
        doc = _worker(root, scratch, args.workload, args.seed, "--setup-only")
        setups.append((doc["setup_s"], doc["setup_cal_s"]))

    if traced is None:
        values = {"wall_s": _scaled_total(rounds, "wall_s"),
                  "cpu_s": _scaled_total(rounds, "cpu_s"),
                  "setup_s": statistics.median(s / cal * REFERENCE_S
                                               for s, cal in setups),
                  # a round's peak only rises with the allocator's and
                  # the kernel's page layout, so the lowest is the steadiest
                  "peak_rss_mib": min(r["peak_rss_mib"] for r in rounds)}
        declared_metrics = declared["end_to_end"]
    else:
        from tracing import layer_metrics, read_spans
        overhead = (_round_total(traced)
                    - statistics.median(_round_total(r) for r in rounds))
        values = layer_metrics(read_spans(spans_file), overhead)
        declared_metrics = declared["per_layer"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared_metrics}
    # the unscaled medians, for the record only
    raw = {"round_wall_s": statistics.median(_round_total(r) for r in rounds),
           "setup_s": statistics.median(s for s, _ in setups),
           "calibration_s": statistics.median(
               op["cal_wall_s"] for r in rounds for op in r["ops"])}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": _git_sha(root),
        "source_digest": _source_digest(root), "nproc": os.cpu_count(),
        "python": rounds[0]["python"], "platform": platform.platform(),
        "rounds": len(rounds), "attempted": attempted, "failed": failed,
        "setup_samples": setups,
        "peak_rss_mib": [r["peak_rss_mib"] for r in rounds],
        "metrics": metrics, "raw": raw,
        "problems": wrong,
        "ops": [[{key: op[key] for key in ("name", "wall_s", "cpu_s",
                                           "cal_wall_s", "cal_cpu_s", "error")}
                 for op in doc["ops"]]
                for doc in rounds + ([traced] if traced else [])],
    }
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1))
    print(f"bench: {args.workload} seed={args.seed} rounds={len(rounds)} "
          f"attempted={attempted} failed={failed} git={record['git_sha']} "
          f"src={record['source_digest']} nproc={record['nproc']} "
          f"python={record['python']} unscaled: round "
          f"{raw['round_wall_s']:.3f} s, set-up {raw['setup_s']:.3f} s, "
          f"calibration {raw['calibration_s'] * 1000:.2f} ms")
    for problem in wrong[:10]:
        print(f"bench: wrong output: {problem}")
    print(json.dumps({"correct": not wrong, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
