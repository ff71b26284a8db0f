"""Run one workload of the memctx benchmark and print its metrics.

    python3 perfbench/run.py --workload {train,rollout,ingest} --seed N --seconds S --trace {0,1}

Run from the root of a memctx checkout; the program is imported from its
``src`` directory.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:
end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``.  See README.md beside this file for what each one means.
"""

import os

# One BLAS thread, fixed before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
SETUPS = 5  # setup_s is the median of this many set-ups
WORKLOAD_NAMES = ("train", "rollout", "ingest")
COUNTS = (
    ("tensor.tape_nodes", "count"),
    ("tensor.tape_mb", "MB"),
    ("dit.seq_tokens", "count"),
    ("compressor.ctx_tokens", "count"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def environment(np, tensor) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "cores": os.cpu_count(),
        "default_dtype": str(tensor.default_dtype()),
    }


def measure(wl, seconds: float):
    """End-to-end metrics: set up several times, then run closed-loop rounds untraced."""
    setup_s = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        wl.setup()
        setup_s.append(time.perf_counter() - start)
    start = time.perf_counter()
    while not wl.round_s or time.perf_counter() - start < seconds:
        wl.run_round(len(wl.round_s))
    wl.verify()
    gated, detail, info = wl.summary()
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        **gated,
    }
    return metrics, {"detail": detail, **info, "setup_s_each": setup_s}


def measure_layers(wl, seconds: float, spans_path: Path):
    """Per-layer metrics: each round runs twice, once untraced and once traced.

    Rounds of one index do the same work, and the two runs of a pair share
    the machine's speed at the time.  Which run goes first alternates,
    because the second run of a pair finds memory already mapped.
    """
    from tracing import SETUP_OP, NullTracer, Tracer, installed, wrap_points

    tracer = Tracer()
    with installed(tracer):
        wl.tracer = tracer
        wl.setup()
    wl.tracer = NullTracer()
    untraced, traced, units = [], [], 0
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        r = len(traced)
        for trace_it in (False, True) if r % 2 == 0 else (True, False):
            if trace_it:
                units_before = wl.units
                wl.tracer = tracer
                with installed(tracer):
                    wl.run_round(r)
                wl.tracer = NullTracer()
                traced.append(wl.round_s[-1])
                units += wl.units - units_before
            else:
                wl.run_round(r)
                untraced.append(wl.round_s[-1])
    wl.verify()
    # The first round of a process runs cold; compare warm pairs when there are any.
    skip = 1 if len(traced) > 1 else 0
    untraced_s, traced_s = sum(untraced[skip:]), sum(traced[skip:])

    per_op = tracer.layer_totals(lambda op: op >= 0)
    per_setup = tracer.layer_totals(lambda op: op == SETUP_OP)
    metrics = {}
    for layer in [name for name, *_ in wrap_points()] + ["training.step"]:
        totals, n_ops = (per_setup, 1) if layer == "training.make_dataset" else (per_op, units)
        calls, total_s, self_s = totals.get(layer, (0, 0.0, 0.0))
        metrics[f"{layer}.calls"] = (calls / n_ops, "count")
        metrics[f"{layer}.ms"] = (total_s * 1e3 / n_ops, "ms")
        metrics[f"{layer}.self_ms"] = (self_s * 1e3 / n_ops, "ms")
    for name, unit in COUNTS:
        total, samples = tracer.counts.get(name, (0.0, 0))
        metrics[name] = (total / samples if samples else 0.0, unit)
    metrics["trace_overhead"] = (traced_s / untraced_s, "ratio")
    info = {
        "round_pairs": len(traced),
        "operations_traced": units,
        "operation": wl.unit,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(BENCH_DIR.parent)),
    }
    spans_path.parent.mkdir(exist_ok=True)
    tracer.write(spans_path, {"workload": wl.name, "seed": wl.seed})
    return metrics, info


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "memctx" / "__init__.py").is_file():
        print(f"error: memctx sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    from memctx import tensor
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed)
    if args.trace:
        spans_path = BENCH_DIR / "out" / f"spans-{args.workload}-seed{args.seed}.json"
        metrics, info = measure_layers(wl, args.seconds, spans_path)
    else:
        metrics, info = measure(wl, args.seconds)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(np, tensor),
        "dtypes": wl.output_dtypes(),
        "attempted": wl.attempted,
        "failed": wl.failed,
        "errors": dict(wl.errors),
        "checks": {name: {"passed": p, "failed": f} for name, (p, f) in wl.checks.items()},
        **info,
    }
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("env " + "  ".join(f"{k} {v}" for k, v in report["env"].items()))
    print("dtypes " + "  ".join(f"{k} {v}" for k, v in report["dtypes"].items()))
    print(f"operations attempted {wl.attempted}  failed {wl.failed}  errors {dict(wl.errors)}")
    for name, (p, f) in wl.checks.items():
        print(f"check {name:<20} {'ok' if f == 0 and p > 0 else 'FAILED'}  passed {p}  failed {f}")
    for label, table in (("metric", metrics), ("detail", info.get("detail", {}))):
        for name, (value, unit) in table.items():
            print(f"{label} {name:<40} {value if value is None else format(value, '.6g')} {unit}")
    print("report " + json.dumps(report))
    result = {
        "correct": wl.correct,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
