#!/usr/bin/env python3
"""Pipeline benchmark for lkwb: certify-q, det-subst and kernel-cyclo.

Each pass runs one workload's operations through `lkwb.cli.main` in a
fresh interpreter (perfbench/worker.py); passes repeat until --seconds
have gone by, at least one.  Each operation's time is its best over the
passes, so that a burst of load from other tenants of the machine during
one pass does not count.  Every report is then checked apart from the
program (perfbench/workloads.py).  The last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`; the
line before it holds per-operation times, backends and any problems.

--trace 0 reports the end-to-end metrics, measured with no
instrumentation: pass_s, cpu_s, peak_rss_mb and setup_s.  --trace 1 runs
one untraced and one traced pass and reports the per-layer metrics, the
import time of each module and the cost of the tracing itself.

Usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from workloads import WORKLOADS, Checker, operations  # noqa: E402

SETUP_SAMPLES = 4
IMPORTTIME_REPEATS = 5
CHILD_TIMEOUT_S = 170
MODULES = ("scalars", "kernels", "linalg", "lkrep", "reducibility", "cli")
IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import lkwb.cli; "
                "print(time.perf_counter() - t0)")

# Per-layer metrics: span name and field, or a count the worker read.
SPAN_METRICS = (
    ("lkrep.build_rep", "s"), ("lkrep.build_rep", "calls"),
    ("lkrep.verify_relations", "s"), ("lkrep.verify_relations", "calls"),
    ("reducibility.build_m_matrix", "self_s"), ("reducibility.build_m_matrix", "calls"),
    ("reducibility.det_on_locus", "self_s"),
    ("reducibility.one_dim_subspaces", "s"),
    ("reducibility.indecomposability_probe", "self_s"),
    ("reducibility.kernel_k", "self_s"),
    ("reducibility.certify", "self_s"),
    ("linalg.kernel", "self_s"), ("linalg.kernel", "calls"),
    ("linalg.det", "s"), ("linalg.det", "calls"),
    ("linalg.operator_closure", "s"), ("linalg.operator_closure", "calls"),
    ("linalg.is_invariant", "s"),
    ("linalg.commutant_basis", "self_s"), ("linalg.commutant_basis", "calls"),
    ("linalg.charpoly", "s"), ("linalg.charpoly", "calls"),
    ("kernels.bareiss_det_int", "s"), ("kernels.bareiss_det_int", "calls"),
    ("cli.emit_report", "s"),
    ("cli.main", "self_s"),
)
COUNT_UNITS = {
    "m_matrix.dim": "count", "m_matrix.nnz": "count", "m_matrix.max_coeff_bits": "bits",
    "det.degree_bound": "count", "det.points_checked": "count",
    "commutant.rows": "count", "commutant.rank": "count", "commutant.rank_per_row": "ratio",
}


def child(args):
    """Run the interpreter on src/ of the checkout, hash seed pinned."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{args[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc


def import_probe():
    """Seconds to import lkwb.cli in a fresh interpreter."""
    return float(child(["-c", IMPORT_PROBE]).stdout)


def import_seconds():
    """Median self import time of each lkwb module, from -X importtime."""
    pattern = re.compile(r"import time:\s+(\d+) \|\s+\d+ \|\s+lkwb\.(\w+)$")
    samples = {name: [] for name in MODULES}
    for _ in range(IMPORTTIME_REPEATS):
        for line in child(["-X", "importtime", "-c", "import lkwb.cli"]).stderr.splitlines():
            m = pattern.match(line.strip())
            if m and m.group(2) in samples:
                samples[m.group(2)].append(int(m.group(1)) / 1e6)
    return {f"import.{name}.s": statistics.median(v) for name, v in samples.items()}


def worker_pass(workload, seed, trace):
    args = [str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    out = child(args + (["--trace"] if trace else [])).stdout
    return json.loads(out.strip().splitlines()[-1])


def check_passes(workload, seed, passes):
    """(attempted, failures, problems) over the operations of every pass."""
    checker = Checker()
    ops = operations(workload)
    attempted = 0
    failures, problems = [], []
    for p in passes:
        for op, res in zip(ops, p["ops"], strict=True):
            attempted += 1
            if res["rc"] != 0:
                failures.append({"op": op.label, "rc": res["rc"], "report": res["report"][-400:]})
                continue
            try:
                found = checker.check(op, json.loads(res["report"]), seed)
            except (ValueError, KeyError, TypeError) as exc:
                found = [f"unreadable report: {type(exc).__name__}: {exc}"]
            problems += [f"{op.label}: {text}" for text in found]
    return attempted, failures, problems


def metric(value, unit):
    return {"value": value, "unit": unit}


def best_of(passes, field):
    """Sum over the operations of each one's least time across the passes."""
    return sum(min(times) for times in zip(*([o[field] for o in p["ops"]] for p in passes)))


def end_to_end(passes, setup_s):
    return {
        "pass_s": metric(best_of(passes, "wall_s"), "s"),
        "cpu_s": metric(best_of(passes, "cpu_s"), "s"),
        "peak_rss_mb": metric(max(p["peak_rss_mb"] for p in passes), "MB"),
        "setup_s": metric(setup_s, "s"),
    }


def per_layer(untraced, traced, imports):
    spans = traced["spans"]
    out = {}
    for span, field in SPAN_METRICS:
        value = spans.get(span, {}).get(field, 0)
        out[f"{span}.{field}"] = metric(value, "count" if field == "calls" else "s")
    for name, value in imports.items():
        out[name] = metric(value, "s")
    for name, value in traced["counts"].items():
        out[name] = metric(value, COUNT_UNITS[name])
    overhead = traced["pass_s"] - untraced["pass_s"]
    out["trace.overhead_s"] = metric(overhead, "s")
    out["trace.overhead_share"] = metric(overhead / untraced["pass_s"], "ratio")
    out["trace.spans"] = metric(sum(s["calls"] for s in spans.values()), "count")
    out["trace.span_cost_s"] = metric(traced["span_cost_s"], "s")
    return out


def main():
    ap = argparse.ArgumentParser(description="lkwb pipeline benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "lkwb" / "cli.py").is_file():
        print(f"lkwb sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

    if args.trace:
        passes = [worker_pass(args.workload, args.seed, trace=False),
                  worker_pass(args.workload, args.seed, trace=True)]
        metrics = per_layer(passes[0], passes[1], import_seconds())
    else:
        # Import samples are spread over the run, SETUP_SAMPLES before the
        # first pass and after each pass, so their median does not rest on
        # the load of one moment; the first import writes the bytecode caches.
        import_probe()
        setup = [import_probe() for _ in range(SETUP_SAMPLES)]
        passes = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < args.seconds:
            passes.append(worker_pass(args.workload, args.seed, trace=False))
            setup += [import_probe() for _ in range(SETUP_SAMPLES)]
        metrics = end_to_end(passes, statistics.median(setup))

    attempted, failures, problems = check_passes(args.workload, args.seed, passes)
    first = passes[0]
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "python": first["python"],
        "backends": first["backends"],
        "env": {"PYTHONHASHSEED": "0", "LKWB_NO_SPEEDUPS": os.environ.get("LKWB_NO_SPEEDUPS")},
        "passes": [{"traced": "spans" in p, "pass_s": p["pass_s"], "cpu_s": p["cpu_s"],
                    "peak_rss_mb": p["peak_rss_mb"],
                    "ops_s": {o["op"]: round(o["wall_s"], 4) for o in p["ops"]}}
                   for p in passes],
        "failures": failures,
        "problems": problems,
    }))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
