"""One pass over a workload in a fresh interpreter.

Runs each operation of the workload once through `lkwb.cli.main`, with
the report captured, and prints one JSON line: per-operation exit codes,
reports and times, the pass's wall and CPU time and the process's peak
resident memory.  With --trace, the public functions of each layer are
wrapped in spans first, and span totals and counts read from returned
objects are added.

Usage: python perfbench/worker.py --workload NAME --seed N [--trace]
(src/ of the checkout must be on PYTHONPATH).
"""

import argparse
import contextlib
import io
import json
import platform
import resource
import sys
import time
from collections import defaultdict

from workloads import operations

# (module, function) pairs wrapped in a span by --trace.  cli.main is the
# root span of each operation, so its self time is the part no other span
# covers.
SPANS = (
    ("cli", "main"),
    ("cli", "emit_report"),
    ("lkrep", "build_rep"),
    ("lkrep", "verify_relations"),
    ("reducibility", "certify"),
    ("reducibility", "kernel_k"),
    ("reducibility", "build_m_matrix"),
    ("reducibility", "det_on_locus"),
    ("reducibility", "one_dim_subspaces"),
    ("reducibility", "indecomposability_probe"),
    ("linalg", "kernel"),
    ("linalg", "det"),
    ("linalg", "operator_closure"),
    ("linalg", "is_invariant"),
    ("linalg", "commutant_basis"),
    ("linalg", "charpoly"),
    ("kernels", "bareiss_det_int"),
)


def cpu_seconds():
    """User + system CPU time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Tracer:
    """Nested spans kept in memory: calls, total and self time per name."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self._children = []  # time covered by child spans, one slot per open span
        self.results = defaultdict(list)  # name -> (args, result) kept for counting

    def wrap(self, name, fn, keep=False):
        def traced(*args, **kwargs):
            self._children.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = self._children.pop()
                self.calls[name] += 1
                self.total[name] += dt
                self.self_time[name] += dt - child
                if self._children:
                    self._children[-1] += dt
            if keep:
                self.results[name].append((args, result))
            return result

        return traced

    def install(self):
        """Replace every binding of each SPANS function in the lkwb modules."""
        import importlib

        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "lkwb" or name.startswith("lkwb."))]
        kept = {"reducibility.build_m_matrix", "reducibility.det_on_locus",
                "linalg.commutant_basis"}
        for mod_name, fn_name in SPANS:
            orig = getattr(importlib.import_module(f"lkwb.{mod_name}"), fn_name)
            name = f"{mod_name}.{fn_name}"
            wrapped = self.wrap(name, orig, keep=name in kept)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapped)

    def counts(self):
        """Exact counts read from the kept arguments and results."""
        dims = nnz = bits = 0
        for _, mn in self.results["reducibility.build_m_matrix"]:
            entries = [x for row in mn.matrix.rows for x in row if x]
            dims += mn.matrix.nrows
            nnz += len(entries)
            bits = max([bits] + [coeff_bits(x) for x in entries])
        degree_bound = points = 0
        for _, verdict in self.results["reducibility.det_on_locus"]:
            degree_bound += verdict.proof.get("degree_bound", 0)
            points += verdict.proof.get("points_checked", 0)
        rows = rank = 0
        for (ops, *_), basis in self.results["linalg.commutant_basis"]:
            size = ops[0].nrows ** 2
            rows += len(ops) * size
            rank += size - len(basis)
        return {
            "m_matrix.dim": dims,
            "m_matrix.nnz": nnz,
            "m_matrix.max_coeff_bits": bits,
            "det.degree_bound": degree_bound,
            "det.points_checked": points,
            "commutant.rows": rows,
            "commutant.rank": rank,
            "commutant.rank_per_row": rank / rows if rows else 0.0,
        }


def coeff_bits(x):
    """Largest bit length of a numerator or denominator inside a scalar."""
    if hasattr(x, "coeffs"):  # Q[x]/(f)
        return max((coeff_bits(c) for c in x.coeffs if c), default=0)
    if hasattr(x, "num"):  # Q(r) or Q(l, r)
        return max(coeff_bits(c) for p in (x.num, x.den) for c in p.terms.values())
    return max(int(x.numerator).bit_length(), int(x.denominator).bit_length())


def run_pass(workload, seed, tracer=None):
    import lkwb.cli
    import lkwb.kernels
    import lkwb.scalars

    if tracer is not None:
        tracer.install()
    main = lkwb.cli.main
    results = []
    for op in operations(workload):
        argv = op.argv(seed)
        buf = io.StringIO()
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            try:
                rc = main(argv)
            except Exception as exc:  # an operation that crashes counts as failed
                rc = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - c0
        results.append({"op": op.label, "rc": rc, "wall_s": wall, "cpu_s": cpu,
                        "report": buf.getvalue()})
    out = {
        "ops": results,
        "pass_s": sum(r["wall_s"] for r in results),
        "cpu_s": sum(r["cpu_s"] for r in results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "backends": {"rationals": lkwb.scalars.RAT_BACKEND,
                     "kernels": lkwb.kernels.BACKEND},
        "python": platform.python_version(),
    }
    if tracer is not None:
        out["spans"] = {name: {"calls": tracer.calls[name], "s": tracer.total[name],
                               "self_s": tracer.self_time[name]}
                        for name in tracer.calls}
        out["counts"] = tracer.counts()
        out["span_cost_s"] = sum(tracer.calls.values()) * span_cost()
    return out


def span_cost(calls=100_000):
    """Seconds one span adds to a call, from wrapped and bare no-op calls."""
    def noop():
        return None

    traced = Tracer().wrap("noop", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        traced()
    t2 = time.perf_counter()
    return max(0.0, (t2 - t1) - (t1 - t0)) / calls


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    out = run_pass(args.workload, args.seed, Tracer() if args.trace else None)
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
