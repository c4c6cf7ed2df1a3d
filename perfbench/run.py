"""Benchmark of the ionreadout readout chain.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper_pipeline --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --self-check              # every workload once, tiny, all checks
    python3 perfbench/run.py --check-seeds 101-110     # full size, one run per seed, all checks
    python3 perfbench/run.py --reference               # paper pipeline at 10^5 trials per state

A timed run starts one fresh worker process per repetition until the
time is up, and reports medians over repetitions.  With ``--trace 1`` it
alternates untraced and traced repetitions and reports the per-layer
metrics of the traced ones.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("paper_pipeline", "offline_csv", "side_paths")
END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
RUN_LIMIT_S = 170  # a timed run, all repetitions included, ends within this
REFERENCE_SEED = 42


def run_worker(workload: str, seed: int, size: str = "full", traced: bool = False,
               timeout_s: float = RUN_LIMIT_S) -> dict:
    """Run one repetition in a fresh interpreter and return its JSON result."""
    n = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               OMP_NUM_THREADS=n, OPENBLAS_NUM_THREADS=n, MKL_NUM_THREADS=n)
    workdir = OUT / f"{workload}-{seed}-{os.getpid()}-{time.monotonic_ns()}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--size", size, "--root", str(ROOT), "--workdir", str(workdir)]
    if traced:
        cmd.append("--traced")
    env["PERFBENCH_T0"] = repr(time.monotonic())
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout_s)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def _failed_checks(rep: dict) -> list[str]:
    return [f"{c['name']}: {c['detail']}" for c in rep["checks"] if not c["ok"]]


def timed(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Repeat the workload for ``seconds`` and aggregate the repetitions."""
    kinds = (False, True) if trace else (False,)
    start = time.monotonic()
    reps: list[tuple[bool, dict]] = []
    rounds = 0
    while True:
        # alternate the order so neither kind always runs first in a round
        for traced in (kinds if rounds % 2 == 0 else kinds[::-1]):
            left = RUN_LIMIT_S - (time.monotonic() - start)
            reps.append((traced, run_worker(workload, seed, traced=traced, timeout_s=left)))
        rounds += 1
        per_round = (time.monotonic() - start) / rounds
        if rounds >= (2 if trace else 3) and time.monotonic() + per_round > start + seconds:
            break

    plain = [r for t, r in reps if not t]
    traced_reps = [r for t, r in reps if t]
    correct = True
    for _, rep in reps:
        for line in _failed_checks(rep):
            correct = False
            print(f"CHECK FAILED {workload} seed {seed}: {line}", file=sys.stderr)
    if trace:
        metrics = {}
        for name in traced_reps[0]["layers"]:
            metrics[name] = statistics.median(r["layers"][name] for r in traced_reps)
        metrics["trace.overhead_s"] = (statistics.median(r["run_s"] for r in traced_reps)
                                       - statistics.median(r["run_s"] for r in plain))
        absent = sorted({m for r in traced_reps for m in r["absent"]})
        if absent:
            print(f"not measured: {', '.join(absent)}", file=sys.stderr)
        import spans  # local: the untraced path needs no tracing code
        units = {name: spec[0] for name, spec in spans.METRICS.items()}
    else:
        metrics = {name: statistics.median(r[name] for r in plain) for name in END_TO_END}
        units = END_TO_END
    for name, value in metrics.items():
        print(f"{workload:<15} {name:<32} {value:>16.6g} {units[name]}")
    print(f"{workload:<15} repetitions {len(plain)} untraced, {len(traced_reps)} traced; "
          f"run_s " + " ".join(f"{r['run_s']:.3f}" for _, r in reps))
    return {
        "correct": correct,
        "attempted": sum(r["attempted"] for _, r in reps),
        "failed": sum(r["failed"] for _, r in reps),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def check_runs(seeds: list[int], size: str, traced: bool) -> int:
    """Run every workload once per seed with all checks; print each check."""
    bad = 0
    for workload in WORKLOADS:
        for seed in seeds:
            rep = run_worker(workload, seed, size=size, traced=traced)
            failed = _failed_checks(rep)
            bad += bool(failed) or rep["failed"] > 0
            print(f"{workload} seed {seed}: run {rep['run_s']:.2f} s, "
                  f"{rep['attempted']} ops, {rep['failed']} failed, "
                  f"{len(rep['checks']) - len(failed)}/{len(rep['checks'])} checks pass")
            for c in rep["checks"]:
                print(f"    {'ok  ' if c['ok'] else 'FAIL'} {c['name']}: {c['detail']}")
    print("all checks pass" if not bad else f"{bad} run(s) with failures")
    return 1 if bad else 0


def reference() -> int:
    """The paper pipeline at 10^5 trials per state: one untraced and one traced run.

    Prints the end-to-end figures of the untraced run and the per-layer
    figures (the per-stage times of README.md) of the traced one.
    """
    import spans
    plain = run_worker("paper_pipeline", REFERENCE_SEED, size="reference", timeout_s=1800)
    traced = run_worker("paper_pipeline", REFERENCE_SEED, size="reference", traced=True,
                        timeout_s=1800)
    for name, unit in END_TO_END.items():
        print(f"{name:<32} {plain[name]:>16.6g} {unit}")
    layers = dict(traced["layers"], **{"trace.overhead_s": traced["run_s"] - plain["run_s"]})
    for name, value in layers.items():
        print(f"{name:<32} {value:>16.6g} {spans.METRICS[name][0]}")
    failed = _failed_checks(plain) + _failed_checks(traced)
    for line in failed:
        print(f"CHECK FAILED: {line}")
    if traced["absent"]:
        print(f"not measured: {', '.join(traced['absent'])}")
    bad = failed or plain["failed"] or traced["failed"]
    print(f"{len(plain['checks']) + len(traced['checks']) - len(failed)} checks pass, "
          f"{len(failed)} fail; {plain['failed'] + traced['failed']} operations failed")
    return 1 if bad else 0


def _seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload once at a tiny size, traced, with all checks")
    parser.add_argument("--check-seeds", metavar="LO-HI",
                        help="run every workload once per seed at full size with all checks")
    parser.add_argument("--reference", action="store_true",
                        help=f"time the paper pipeline at 10^5 trials per state, seed "
                             f"{REFERENCE_SEED}, untraced and traced, with all checks")
    args = parser.parse_args()

    if not (ROOT / "src" / "ionreadout" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'ionreadout'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.self_check:
        return check_runs([args.seed], "tiny", traced=True)
    if args.check_seeds:
        return check_runs(_seed_range(args.check_seeds), "full", traced=False)
    if args.reference:
        return reference()
    if args.workload is None:
        parser.error("--workload is required for a timed run")
    result = timed(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
