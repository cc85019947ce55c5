"""Benchmark of the recon-net pipeline, run from the root of a source checkout.

    python3 perfbench/run.py --workload chain-n200 --seed 1 --seconds 42 --trace 0

Set-up generates the workload's inputs from ``--seed`` with ``recon-net
synth``. The benchmark then repeats the workload's operations in this one
process until ``--seconds`` have passed, checks every output, and prints
one JSON object as its last line of output. With ``--trace 0`` it reports
the end-to-end metrics of BENCHMARK.json: each command at the median of
its timings over the passes after the first, plus set-up time (the median
of three set-ups, each in a fresh interpreter so the import of reconnet is
paid every time) and peak RSS. With ``--trace 1`` it alternates traced and
untraced passes and reports the per-layer metrics of BENCHMARK.json from
spans around the public functions of each reconnet module; the spans and
the environment are written to ``.perfbench_out/results``.
"""

from __future__ import annotations

import os
import sys

# before numpy is imported anywhere: BLAS stays single-threaded, so the
# CLI's two worker threads never oversubscribe the cores
THREAD_VARS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_VARS)
os.environ.pop("RECON_NET_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

SETUP_REPEATS = 3
OUT_DIR = ".perfbench_out"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--make-inputs", metavar="DIR",
                   help="only generate the inputs into DIR and print the seconds it took")
    return p.parse_args(argv)


def make_inputs_child(args) -> int:
    """Set-up as it is timed: import reconnet, then generate the inputs."""
    start = time.perf_counter()
    import workloads

    workloads.make_inputs(workloads.WORKLOADS[args.workload], args.seed, Path(args.make_inputs))
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


def timed_setups(args, inputs: Path) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(inputs, ignore_errors=True)
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", "0", "--make-inputs", str(inputs)],
            capture_output=True, text=True, timeout=150, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed with exit code {proc.returncode}:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 prints its config instead
        blas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_vars": {k: os.environ.get(k) for k in (*THREAD_VARS, "RECON_NET_THREADS")},
    }


def median_of(rows: list[dict]) -> dict:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "reconnet" / "__init__.py").is_file():
        print("perfbench: run from the root of a recon-net checkout (no src/reconnet here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    if args.make_inputs:
        return make_inputs_child(args)

    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    work = root / OUT_DIR / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    inputs, out = work / "inputs", work / "out"
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"

    setup_times = [] if args.trace else timed_setups(args, inputs)

    import checks
    import layers
    import workloads
    from spans import Tracer

    workload = workloads.WORKLOADS[args.workload]
    setup_tracer = None
    if args.trace:
        # wrappers only rebind names in modules already imported; cli imports
        # every other module, so it must load before the first install
        import reconnet.cli  # noqa: F401

        setup_tracer = Tracer(run_id)
        setup_tracer.install(layers.TARGETS)
        try:
            workloads.make_inputs(workload, args.seed, inputs)
        finally:
            setup_tracer.uninstall()
    degree = workloads.degree_targets(inputs) if workload.degree_fits else None
    stream = checks.Stream(inputs / "stream" / "transactions.csv", workloads.YEAR)

    passes = []  # (tracer or None, iteration)
    reference, windows = None, 0
    start = time.perf_counter()
    while (not passes or time.perf_counter() - start < args.seconds
           or (args.trace and len(passes) < 2)):
        # traced passes first, so the first mann_whitney_auc call is traced
        # and its rise in peak RSS is seen
        tracer = Tracer(run_id) if args.trace and len(passes) % 2 == 0 else None
        # traced passes run each operation once, so per-layer numbers
        # describe one execution of the pass
        it = workloads.Iteration(workload, args.seed, inputs, out,
                                 0.0 if args.trace else workloads.MIN_OP_SECONDS, tracer)
        if tracer:
            tracer.install(layers.TARGETS)
        try:
            # the degree fits feed no end-to-end metric: they run in the first
            # pass, to be checked, and in traced passes
            it.run(degree if not passes or tracer else None)
        finally:
            if tracer:
                tracer.uninstall()
        hashes, counted = it.check(stream, reference)
        if reference is None:
            reference, windows = hashes, counted
        passes.append((tracer, it))

    attempted = sum(len(it.ops) for _, it in passes)
    failures = [f"pass {k}: {op.name}: {op.error}" for k, (_, it) in enumerate(passes)
                for op in it.ops if op.error]
    # the first pass warms up and is checked in full; it is timed only if it is alone
    untraced = workloads.run_metrics(
        [it for t, it in passes[1:] if t is None] or [passes[0][1]], windows)

    if args.trace:
        per_pass = []
        for tracer, it in passes:
            if tracer is None:
                continue
            m, accounted = layers.layer_metrics(tracer.spans)
            # spans cover every operation of the pass, probes included
            m["trace.remainder_s"] = sum(op.seconds for op in it.ops) - accounted
            per_pass.append(m)
        values = median_of(per_pass)
        for name in layers.MAX_OVER_PASSES:
            values[name] = max(m[name] for m in per_pass)
        traced_wall = workloads.run_metrics([it for t, it in passes if t], windows)["wall_s"]
        values["trace.overhead_s"] = traced_wall - untraced["wall_s"]
        setup_metrics, _ = layers.layer_metrics(setup_tracer.spans)
        for name in layers.SETUP_SPANS:
            for suffix in (".self_s", ".calls"):
                values[name + suffix] = setup_metrics[name + suffix]
        declared = spec["per_layer"]
    else:
        values = dict(untraced)
        values["setup_s"] = statistics.median(setup_times)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        declared = spec["end_to_end"]

    if set(values) != {m["name"] for m in declared}:
        print(f"perfbench: computed metrics {sorted(values)} do not match BENCHMARK.json",
              file=sys.stderr)
        return 3

    env = environment()
    results = root / OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {"run_id": run_id, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "environment": env, "setup_runs_s": setup_times,
              "passes": [{"traced": t is not None,
                          "ops": [[op.name, op.seconds, op.error] for op in it.ops]}
                         for t, it in passes],
              "failures": failures, "metrics": values}
    (results / f"{run_id}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        with open(results / f"{run_id}.spans.jsonl", "w", encoding="utf-8") as fh:
            tracers = [("setup", setup_tracer)] + [
                (f"pass{k}", t) for k, (t, _) in enumerate(passes) if t is not None]
            for label, tracer in tracers:
                for sp in tracer.spans:
                    fh.write(json.dumps({"run_id": run_id, "pass": label, "id": sp.span_id,
                                         "parent": sp.parent, "name": sp.name,
                                         "start": sp.start, "end": sp.end,
                                         "attrs": sp.attrs}) + "\n")

    for line in failures:
        print(line, file=sys.stderr)
    print(json.dumps({"environment": env}))
    print(json.dumps({
        # a failed operation without a wrong output, such as a degree fit that
        # raises NonConvergenceError, counts in failed but leaves correct true
        "correct": not any(op.wrong for _, it in passes for op in it.ops),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
