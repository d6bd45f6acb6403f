"""mdpvol benchmark: one workload per process, checked against exact oracles.

    python3 mdpbench/run.py --workload {smalltime_tail,rv_longtime,closed_form_sweep}
                            --seed N --seconds S --trace {0,1}

Run from the repository root; mdpvol is imported from ./src.  The run
first times the set-up of several fresh interpreters, then repeats the
workload's operation until S seconds have passed (always finishing the
operation in flight), checks every output, and prints one JSON object as
its last line.  With --trace 0 it reports the end-to-end metrics; with
--trace 1 it alternates untraced and traced operations and reports the
per-layer metrics, per traced operation.  Results and spans are written
under mdpbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3


def _child(*args: str) -> str:
    done = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"), *args],
                          capture_output=True, text=True, timeout=120, check=True)
    return done.stdout.strip().splitlines()[-1]


def setup_seconds(workload: str, seed: int) -> float:
    """Median, over fresh interpreters, of process start to model and config built."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.time()
        samples.append(float(_child("setup", workload, str(seed))) - start)
    return statistics.median(samples)


def import_seconds(module: str) -> float:
    return statistics.median(float(_child("import", module))
                             for _ in range(IMPORT_SAMPLES))


def philox_normals_per_s(seed: int, n_paths: int, n_steps: int) -> float:
    """Normal draws alone, keyed by (seed, chunk) and drawn (2, n) per step as the engine does."""
    import numpy as np

    n, steps = min(n_paths, 1 << 17), min(n_steps, 100)
    times = []
    for chunk in range(3):
        key = np.array([seed & 0xFFFFFFFFFFFFFFFF, chunk], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        start = time.perf_counter()
        for _ in range(steps):
            rng.standard_normal((2, n))
        times.append(time.perf_counter() - start)
    return 2 * n * steps / statistics.median(times)


def layer_metrics(tracer, n_ops: int) -> dict[str, tuple[float, str]]:
    totals = tracer.totals()

    def get(span: str, field: str) -> float:
        return totals.get(span, {}).get(field, 0.0) / n_ops

    simulate_total = totals.get("mc.simulate", {}).get("total_s", 0.0)
    metrics = {
        "mc.simulate.self_s": (get("mc.simulate", "self_s"), "s"),
        "mc.simulate.path_steps_per_s": (
            tracer.counters["mc.path_steps"] / simulate_total if simulate_total else 0.0,
            "1/s"),
        "mc.estimate.self_s": (get("mc.estimate", "self_s"), "s"),
        "mc.chunks": (get("mc.chunk_stream", "calls"), "count"),
        "mc.batch_bytes": (tracer.counters["mc.batch_bytes"] / n_ops, "bytes"),
        "models.coeffs_fused.calls": (get("models.coeffs_fused", "calls"), "count"),
        "models.coeffs_fused.self_s": (get("models.coeffs_fused", "self_s"), "s"),
    }
    for span in ("invariant.gamma_invariant", "invariant.speed_measure",
                 "invariant.integrate", "quadrature.integrate_logweight",
                 "poisson.solve_poisson_cev", "rates.heston_large_time_params",
                 "rates.share_large_time_params", "ldp.heston_lambda_star",
                 "ldp.curvature", "asymptotics.quote_catalog",
                 "config.validate_config", "reporting.runner",
                 "reporting.write_csv"):
        metrics[f"{span}.self_s"] = (get(span, "self_s"), "s")
    for span in ("invariant.integrate", "quadrature.integrate_logweight",
                 "ldp.heston_lambda_star"):
        metrics[f"{span}.calls"] = (get(span, "calls"), "count")
    metrics["reporting.bytes_written"] = (
        tracer.counters["reporting.bytes_written"] / n_ops, "bytes")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("smalltime_tail", "rv_longtime", "closed_form_sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "mdpvol", "__init__.py")):
        print(f"error: no mdpvol package under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)

    # fresh interpreters first, before this process loads the workload
    setup_s = None if args.trace else setup_seconds(args.workload, args.seed)

    sys.path.insert(0, SRC)
    import tracing
    import workloads

    work = workloads.make(args.workload, args.seed, OUT)
    problems = work.self_test()
    tracer = tracing.Tracer() if args.trace else None
    times, traced_times = [], []
    attempted = failed = 0
    start = time.perf_counter()
    try:
        # a traced run needs at least one untraced and one traced operation
        while (time.perf_counter() - start < args.seconds
               or (tracer is not None and attempted < 2)):
            traced = tracer is not None and attempted % 2 == 1
            model, run = work.model, work.run
            if traced:
                model = tracer.install(model)
                run = tracer.wrap(run, "op")  # the root span of the operation
            try:
                op_start = time.perf_counter()
                output = run(attempted, model)
                elapsed = time.perf_counter() - op_start
            except Exception as exc:  # a raising operation counts as failed
                bad = [f"op {attempted} raised {exc!r}"]
            else:
                (traced_times if traced else times).append(elapsed)
                bad = work.check(attempted, output)
            finally:
                if traced:
                    tracer.uninstall()
            attempted += 1
            if bad:
                failed += 1
                print("FAILED " + "; ".join(bad), file=sys.stderr)
        problems += work.determinism()
        if args.trace:
            metrics = layer_metrics(tracer, len(traced_times))
            spec = getattr(work, "spec", None)
            metrics["mc.philox.normals_per_s"] = (
                philox_normals_per_s(args.seed, spec["n_paths"], spec["n_steps"])
                if spec else 0.0, "1/s")
            metrics["setup.import_mdpvol_s"] = (import_seconds("mdpvol"), "s")
            metrics["setup.import_scipy_stats_s"] = (import_seconds("scipy.stats"), "s")
            metrics["trace.overhead_s"] = (
                statistics.median(traced_times) - statistics.median(times)
                if times and traced_times else 0.0, "s")
            tracer.dump(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json"))
        else:
            metrics = {
                "setup_s": (setup_s, "s"),
                "op_s": (statistics.median(times) if times else float("nan"), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                "MB"),
            }
    finally:
        if hasattr(work, "close"):
            work.close()

    for problem in problems:
        print("INCORRECT " + problem, file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }
    detail = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, op_times_s=times,
                  traced_op_times_s=traced_times, problems=problems)
    with open(os.path.join(OUT, f"result-{args.workload}-{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as handle:
        json.dump(detail, handle, indent=1)
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
