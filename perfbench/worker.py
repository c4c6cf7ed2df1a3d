"""One repetition of one workload, in a fresh process.

Started by ``run.py``, which passes the monotonic time at which it
launched this process in ``PERFBENCH_T0`` so that set-up time includes
interpreter start-up.  Prints one JSON line: set-up and run time, peak
RSS, the operations attempted and failed, every check, and with
``--traced`` the per-layer metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "tiny", "reference"), default="full")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--root", required=True, help="checkout holding src/ionreadout")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    t0 = float(os.environ["PERFBENCH_T0"])

    src = Path(args.root).resolve() / "src"
    sys.path.insert(0, str(src))
    import ionreadout
    import ionreadout.cli  # noqa: F401  (the CLI is not imported by the package)
    if Path(ionreadout.__file__).resolve().parent != src / "ionreadout":
        raise SystemExit(f"imported {ionreadout.__file__}, not the checkout's {src}")

    import workloads
    workload = workloads.WORKLOADS[args.workload](args.size)
    tracer = None
    if args.traced:
        import spans
        tracer = spans.Tracer()
        tracer.install(ionreadout)

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = workload.setup(args.seed, workdir, ionreadout)
        setup_s = time.monotonic() - t0

        start = time.perf_counter()
        outputs = workload.run(inputs)
        run_s = time.perf_counter() - start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        result = {"setup_s": setup_s, "run_s": run_s, "peak_rss_mb": peak_rss_mb,
                  "attempted": len(outputs["ops"]),
                  "failed": sum(1 for _, rc in outputs["ops"] if rc != 0)}
        checks = []
        if tracer is not None:
            tracer.settle_files()
            layers, self_time, absent = tracer.layer_metrics()
            tracer.dump(workdir.parent / f"trace-{args.workload}.json")
            covered = sum(self_time.values())
            unattributed = run_s - covered
            result.update(layers=layers, self_time=self_time, absent=absent)
            # Layer self times add up to the time spent inside traced calls;
            # what the clock saw outside them must be negligible.
            checks.append(("trace_coverage", -1e-3 <= unattributed <= 0.01 * run_s + 1e-3,
                           f"layers cover {covered:.4f} s of {run_s:.4f} s"))
        checks += workload.check(inputs, outputs, ionreadout)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["checks"] = [{"name": n, "ok": bool(ok), "detail": d} for n, ok, d in checks]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
