"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Exact arithmetic throughout: every assertion is an equality of exact
values (zero tolerance); the only flagged-probabilistic verdict is the
sampled determinant's identically_zero.  Run with -s to see the lines live.
"""

import random
import time
from contextlib import contextmanager

from lkwb.linalg import Matrix, commutant_basis, det, find_invertible_submatrix, kernel
from lkwb.lkrep import param_map, rational_rep, substituted_rep, symbolic_rep, verify_relations
from lkwb.reducibility import (
    _kernel_at,
    build_m_matrix,
    catalog,
    det_on_locus,
    embed_subspace,
    indecomposability_probe,
    kernel_k,
    lower_intersection,
    named_locus,
    persistent_vector_check,
    probe_operators,
    rep_at,
)
from lkwb.scalars import QLR, QQ, cyclotomic_field, rat

import oracles


@contextmanager
def criterion(name, budget_seconds, detail=""):
    t0 = time.time()
    try:
        yield
    except BaseException:
        print(f"[{name}] FAIL after {time.time() - t0:.1f}s  {detail}")
        raise
    dt = time.time() - t0
    assert dt < budget_seconds, f"{name} over budget: {dt:.1f}s >= {budget_seconds}s"
    print(f"[{name}] PASS ({dt:.1f}s < {budget_seconds}s)  {detail}")


def non_locus_points(n, rng, count):
    points = []
    while len(points) < count:
        r = rat(rng.randint(2, 9), rng.randint(1, 5))
        if abs(r) in (0, 1):
            continue
        l = rat(rng.randint(1, 60), rng.randint(1, 9)) * (1 if rng.random() < 0.5 else -1)
        if any(l == loc.l_value(r) for loc in catalog(n)):
            continue
        points.append((l, r))
    return points


def test_ac1_relation_gate():
    with criterion("AC-1", 120, "braid/BMW relations, symbolic n<=5, sampled n=6..8"):
        for n in (3, 4, 5):
            report = verify_relations(symbolic_rep(n))
            assert report.all_passed, (n, report.failures)
        rng = random.Random(101)
        for n in (6, 7, 8):
            for l, r in non_locus_points(n, rng, 3):
                report = verify_relations(rational_rep(n, l, r))
                assert report.all_passed, (n, l, r, report.failures)


def test_ac2_generic_irreducibility():
    with criterion("AC-2", 120, "det M(n) != 0 at 5 random non-locus points, n=3..7"):
        rng = random.Random(202)
        for n in range(3, 8):
            for l, r in non_locus_points(n, rng, 5):
                mn = build_m_matrix(rational_rep(n, l, r))
                assert det(mn.matrix), (n, l, r)


def test_ac3_locus_vanishing():
    with criterion("AC-3", 600, "det M(n) identically zero on each catalog locus, n=3..6"):
        for n in (3, 4, 5, 6):
            for locus in catalog(n):
                verdict = det_on_locus(n, locus, "substituted")
                assert verdict.verdict == "identically_zero", (n, locus.name, verdict)
                assert not verdict.probabilistic


def test_ac4_dimension_table():
    with criterion("AC-4", 900, "kernel and closure dims match the theorem table, r=2 and 3/2"):
        for r in (rat(2), rat(3, 2)):
            for n in range(3, 8):
                # dim 1 at l = r^(3-2n)
                rep = kernel_k(n, named_locus("l=r3-2n", n), r)
                assert rep.k == 1 and rep.minimal_dims == (1,) and rep.invariant, (n, r, rep.k)
                # dim n-1 at l = +-r^(3-n) for n != 4; dims {3,3,3} for n = 4
                if n == 4:
                    for name in ("l=+r3-n", "l=-r3-n", "l=-r3"):
                        rep = kernel_k(4, named_locus(name, 4), r)
                        assert rep.k == 3 and rep.minimal_dims == (3,) and rep.invariant
                        assert rep.unique_minimal
                else:
                    for name in ("l=+r3-n", "l=-r3-n"):
                        rep = kernel_k(n, named_locus(name, n), r)
                        assert rep.k == n - 1 and rep.minimal_dims == (n - 1,), (n, name, rep.k)
                        assert rep.invariant and rep.unique_minimal
                # dim n(n-3)/2 at l = r for n >= 4
                if n >= 4:
                    d = n * (n - 3) // 2
                    rep = kernel_k(n, named_locus("l=r", n), r)
                    assert rep.k == d and rep.minimal_dims == (d,) and rep.invariant
                # dim (n-1)(n-2)/2 at l = -r^3 for n >= 5
                if n >= 5:
                    d = (n - 1) * (n - 2) // 2
                    rep = kernel_k(n, named_locus("l=-r3", n), r)
                    assert rep.k == d and rep.minimal_dims == (d,) and rep.invariant


def test_ac5_exceptional_points():
    with criterion("AC-5", 600, "phi12: two lines; phi20: k(5)=7 and K(5)^V4 = K(4)"):
        from lkwb.reducibility import one_dim_subspaces

        f12 = cyclotomic_field("phi12")
        x = f12.gen()
        assert -(x ** 3) == x ** -3  # the two n=3 loci collide at r^6 = -1
        rep = rep_at(3, named_locus("l=-r3", 3), x)
        lines = one_dim_subspaces(rep)
        assert sum(entry["space"].dim for entry in lines) == 2

        f20 = cyclotomic_field("phi20")
        y = f20.gen()
        assert y ** 10 == f20.from_int(-1)
        report5 = kernel_k(5, named_locus("l=-r3", 5), y, with_closures=False)
        assert report5.k == 7 == (5 - 1) * (5 - 2) // 2 + 1
        inter = lower_intersection(report5, 1)
        report4 = kernel_k(4, named_locus("l=-r3", 4), y, with_closures=False)
        assert inter == embed_subspace(report4.basis, 4, 5)


def test_ac6_rank_certificates():
    with criterion("AC-6", 300, "invertible n x n minors at l=r, (n-1) x (n-1) at l=-r3, symbolic r"):
        for n in (5, 6):
            mn = build_m_matrix(substituted_rep(n, 1, 1))  # l = r
            rows, cols = find_invertible_submatrix(mn.matrix, n)
            assert len(rows) == n
            assert det(mn.matrix.submatrix(rows, cols))
            mn = build_m_matrix(substituted_rep(n, -1, 3))  # l = -r^3
            rows, cols = find_invertible_submatrix(mn.matrix, n - 1)
            assert len(rows) == n - 1
            assert det(mn.matrix.submatrix(rows, cols))


def test_ac7_persistent_vector():
    with criterion("AC-7", 300, "a K(5)^V4 vector is annihilated by M(6) and M(7), both loci"):
        for name in ("l=r", "l=-r3"):
            report = persistent_vector_check(named_locus(name, 5), 7, rat(2))
            assert report.verified, (name, report.checked)
            assert report.checked == ((6, True), (7, True))


def test_ac8_indecomposability_probe():
    with criterion("AC-8", 300, "probes: loci evidence, generic commutant dim 1, control witness"):
        rng = random.Random(808)
        for n in (4, 5):
            for locus in catalog(n):
                rep = rep_at(n, locus, rat(2))
                probe = indecomposability_probe(rep, 10, rng)
                assert probe.verdict == "indecomposable_evidence", (n, locus.name, probe)
                assert probe.trials == 10
                if probe.commutant_dim > 1:
                    assert probe.probabilistic  # sampled verdicts are flagged
            generic = rational_rep(n, rat(5), rat(2))
            assert len(commutant_basis(list(generic.g))) == 1
        control = [
            Matrix(QQ, [[2, 0, 0, 0, 0], [0, 2, 0, 0, 0], [0, 0, 3, 0, 0],
                        [0, 0, 0, 3, 0], [0, 0, 0, 0, 3]]),
            Matrix(QQ, [[2, 1, 0, 0, 0], [0, 2, 0, 0, 0], [0, 0, 3, 0, 0],
                        [0, 0, 1, 3, 1], [0, 0, 0, 0, 3]]),
        ]
        probe = probe_operators(control, 10, rng)
        assert probe.verdict == "decomposable_witness"
        assert not probe.probabilistic  # the witness is verified exactly


def test_ac9_parameter_dictionary():
    with criterion("AC-9", 60, "loci map to t in {1/q, -1, 1/q^n, 1/sqrt(q)^n, -1/sqrt(q)^n}"):
        l, r = QLR.l(), QLR.r()
        for n in (4, 5, 6, 7, 8):
            q = r ** -2
            sqrt_q_inv = r  # the reported square-root choice: sqrt(q) = 1/r
            expected = {
                "l=r": q ** -1,
                "l=-r3": QLR.from_int(-1),
                "l=r3-2n": q ** -n,
                "l=+r3-n": sqrt_q_inv ** n,
                "l=-r3-n": -(sqrt_q_inv ** n),
            }
            for locus in catalog(n):
                out = param_map("lr_to_qt", l=locus.l_value(r), r=r)
                assert out["q"] == q
                assert out["t"] == expected[locus.name], locus.name


def test_ac10_oracle_equivalence():
    with criterion("AC-10", 60, "naive-elimination kernel dims agree for n=3,4 at all loci"):
        from lkwb.linalg import rank

        for n in (3, 4):
            for locus in catalog(n):
                report, rep, mn, _ = _kernel_at(n, locus, rat(2), with_closures=False)
                oracle_dim = oracles.naive_kernel_dim(oracles.to_fraction_rows(mn.matrix))
                assert report.k == oracle_dim, (n, locus.name, report.k, oracle_dim)
                assert rank(mn.matrix) + report.k == rep.dim
