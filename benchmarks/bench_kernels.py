#!/usr/bin/env python3
"""Benchmark the compiled kernels against the pure-Python fallback.

Function-level timings import both backends side by side.  End-to-end
timings of the certifier are the pipeline benchmark's job (perfbench/).

Usage: python benchmarks/bench_kernels.py
"""

import os
import random
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from lkwb import _kernels_py as pure  # noqa: E402

try:
    from lkwb import _speedups as fast
except ImportError:
    fast = None


def timeit(fn, *args, repeat=5):
    best = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


def make_terms(rng, nterms, span=40):
    from fractions import Fraction

    d = {}
    while len(d) < nterms:
        a = rng.randint(-4, 4)
        b = rng.randint(-span, span)
        d[pure.pack_exp(a, b)] = Fraction(rng.randint(-99, 99), rng.randint(1, 9))
    return d


def make_poly(rng, deg, bits=64):
    return [rng.getrandbits(bits) - (1 << (bits - 1)) for _ in range(deg)] + [1]


def make_int_matrix(rng, n, bits=200):
    return [[rng.getrandbits(bits) - (1 << (bits - 1)) for _ in range(n)] for _ in range(n)]


def row(label, t_pure, t_fast):
    speedup = f"{t_pure / t_fast:6.2f}x" if t_fast else "   n/a"
    fast_s = f"{t_fast * 1e3:9.3f}" if t_fast is not None else "      n/a"
    print(f"{label:<38} {t_pure * 1e3:9.3f} {fast_s} {speedup}")


def main():
    rng = random.Random(20240902)

    print(f"{'kernel':<38} {'pure ms':>9} {'fast ms':>9} {'speedup':>8}")
    print("-" * 70)

    a, b = make_terms(rng, 60), make_terms(rng, 60)
    t_p = timeit(pure.terms_mul, a, b)
    t_f = timeit(fast.terms_mul, a, b) if fast else None
    row("terms_mul 60x60 Laurent terms", t_p, t_f)

    pa, pb = make_poly(rng, 300), make_poly(rng, 300)
    t_p = timeit(pure.poly_mul_int, pa, pb)
    t_f = timeit(fast.poly_mul_int, pa, pb) if fast else None
    row("poly_mul_int deg 300", t_p, t_f)

    prod = pure.poly_mul_int(pa, pb)
    t_p = timeit(pure.poly_divexact_int, prod, pa)
    t_f = timeit(fast.poly_divexact_int, prod, pa) if fast else None
    row("poly_divexact_int deg 600/300", t_p, t_f)

    m = make_int_matrix(rng, 15)
    t_p = timeit(pure.bareiss_det_int, m)
    t_f = timeit(fast.bareiss_det_int, m) if fast else None
    row("bareiss_det_int 15x15, 200-bit", t_p, t_f)

    pm = [[make_poly(rng, 8, bits=24) for _ in range(8)] for _ in range(8)]
    t_p = timeit(pure.bareiss_det_polyint, pm, repeat=3)
    t_f = timeit(fast.bareiss_det_polyint, pm, repeat=3) if fast else None
    row("bareiss_det_polyint 8x8 deg 8", t_p, t_f)


if __name__ == "__main__":
    main()
