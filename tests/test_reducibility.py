"""Test element M(n), kernels at loci, invariant subspaces, certification."""

import argparse
import dataclasses
import functools
import json
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

import lkwb.reducibility as reducibility
from lkwb import cli, kernels, linalg, lkrep
from lkwb.errors import (
    DepthTooLarge,
    InfeasibleMode,
    InvalidConfig,
    RelationGateNotPassed,
    ZeroSeed,
)
from lkwb.linalg import (
    MERSENNE_EXPONENTS,
    Matrix,
    SubspaceBasis,
    kernel,
    operator_closure,
)
from lkwb.lkrep import (
    LKRep,
    pair_index_map,
    rational_rep,
    substituted_rep,
    symbolic_rep,
    verify_relations,
)
from lkwb.reducibility import (
    GENERIC,
    _certified_closures,
    _coefficient_bound,
    _kernel_at,
    _univariate_zero_verdict,
    build_m_matrix,
    catalog,
    certify,
    dense_int_row,
    det_on_locus,
    embed_subspace,
    exceptional_layering,
    expected_spectrum,
    indecomposability_probe,
    kernel_k,
    lower_intersection,
    minimal_invariant,
    named_locus,
    one_dim_subspaces,
    persistent_vector_check,
    probe_operators,
    rep_at,
    scan,
)
from lkwb.scalars import QLR, QQ, QR, LaurentPoly, RatFunc, cyclotomic_field, parse_rat, rat

import oracles


class TestMnMatrix:
    def test_m3_structure(self):
        rep = rational_rep(3, rat(5), rat(2))
        mn = build_m_matrix(rep)
        e1, e2 = rep.e
        conj = linalg.inverse(rep.g[1]) * e1 * rep.g[1]
        assert mn.matrix == e1 + e2 + conj

    def test_gate_enforced(self):
        rep = rational_rep(3, rat(5), rat(2))
        broken = LKRep(rep.params, rep.g, tuple(e.scale(rat(2)) for e in rep.e))
        with pytest.raises(RelationGateNotPassed):
            build_m_matrix(broken)

    @staticmethod
    def dense_chain(rep):
        """M(n) from matrix products: each e_i, then its conjugates one by one."""
        total = Matrix.zeros(rep.field, rep.dim, rep.dim)
        for e in rep.e:
            total = total + e
        g_inv = [linalg.inverse(g) for g in rep.g]
        for i in range(1, rep.n):
            t = rep.e[i - 1]
            for j in range(i + 2, rep.n + 1):
                t = g_inv[j - 2] * t * rep.g[j - 2]
                total = total + t
        return total

    def test_rank1_fast_path_equals_dense_chain(self):
        # same M(n) whether or not the rank-1 factorization is exploited
        rep = rational_rep(4, rat(7, 2), rat(3))
        assert build_m_matrix(rep).matrix == self.dense_chain(rep)

    def test_shared_denominator_of_g_and_e(self):
        # over Q at height the gate's one D is the lcm of the common
        # denominators of g alone and of e alone, and M(n)'s chains run on it
        rng = random.Random(36)
        for r in (rat(37, 11), rat(101, 7)):
            for n in (3, 4, 5):
                for _ in range(2):
                    l = rat(rng.randint(1, 99) * rng.choice((1, -1)), rng.randint(1, 99))
                    rep = rational_rep(n, l, r)
                    den, _, _ = verify_relations(rep).cleared
                    families = []
                    for mats in (rep.g, rep.e):
                        family, _ = linalg.clear_entries(QQ, [x for m in mats for row in m.rows
                                                              for x in row])
                        families.append(family)
                    assert den == math.lcm(*families)
                    assert build_m_matrix(rep).matrix == self.dense_chain(rep), (n, l, r)

    def test_one_clearing_per_build(self, monkeypatch):
        # build_m_matrix reads the rows the gate cleared and clears no matrix itself
        calls = []
        original = linalg.clear_rows

        def spied(field, rows):
            calls.append(len(rows))
            return original(field, rows)

        for module in (linalg, lkrep, reducibility):
            if getattr(module, "clear_rows", None) is original:
                monkeypatch.setattr(module, "clear_rows", spied)
        phi20 = cyclotomic_field("phi20").gen()
        for rep in (rational_rep(5, rat(5), rat(37, 11)), substituted_rep(5, 1, 1),
                    rep_at(5, named_locus("l=-r3", 5), phi20), symbolic_rep(4)):
            calls.clear()
            build_m_matrix(rep)
            # the gate's one call, on every row of g and e
            assert calls == [2 * (rep.n - 1) * rep.dim]

    def test_no_inverse_of_g1(self, monkeypatch):
        # a chain is conjugated by g_{j-1} for j >= 3 only, so S g_k^-1 is
        # formed for k = 2..n-1 alone: n - 2 inverses, one at n = 3
        calls = []
        original = reducibility._inverse_rows

        def spied(g, a, e_row, den, m_den, m_num):
            calls.append(a)
            return original(g, a, e_row, den, m_den, m_num)

        monkeypatch.setattr(reducibility, "_inverse_rows", spied)
        phi20 = cyclotomic_field("phi20").gen()
        for rep in (rational_rep(3, rat(5), rat(2)), rational_rep(6, rat(-3, 7), rat(37, 11)),
                    substituted_rep(5, 1, 1), rep_at(5, named_locus("l=-r3", 5), phi20),
                    symbolic_rep(4)):
            calls.clear()
            assert build_m_matrix(rep).matrix == self.dense_chain(rep)
            assert len(calls) == rep.n - 2

    @pytest.mark.parametrize("n, field", [(4, "Q(r)"), (5, "Q(r)"), (5, "phi20")])
    def test_rank1_chains_equal_dense_chain_on_every_locus(self, n, field):
        for locus in catalog(n):
            if field == "Q(r)":
                rep = substituted_rep(n, locus.eps, locus.k)
            else:
                rep = rep_at(n, locus, cyclotomic_field(field).gen())
            mn = build_m_matrix(rep).matrix
            assert mn == self.dense_chain(rep), locus.name
            if field == "Q(r)":  # no entry of M(n) has a denominator on the loci
                assert all(x.den.is_const() for row in mn.rows for x in row), locus.name

    @pytest.mark.parametrize("n", range(3, 8))
    def test_every_coefficient_is_an_int(self, n):
        # Z[l^+-1, r^+-1] is the one coefficient ring: g, e and M(n) over
        # Q(l,r) and on every locus over Q(r) carry no Rat coefficient
        reps = [substituted_rep(n, locus.eps, locus.k) for locus in catalog(n)]
        if n <= 5:
            reps.append(symbolic_rep(n))
        for rep in reps:
            for m in (*rep.g, *rep.e, build_m_matrix(rep).matrix):
                assert all(type(c) is int for row in m.rows for x in row
                           for p in (x.num, x.den) for c in p.terms.values())

    @staticmethod
    def _reps():
        yield from (symbolic_rep(n) for n in (3, 4))
        for n in (3, 4, 5):
            yield from (substituted_rep(n, loc.eps, loc.k) for loc in catalog(n))
        for name, n in (("phi12", 3), ("phi20", 5)):
            r = cyclotomic_field(name).gen()
            yield from (rep_at(n, loc, r) for loc in catalog(n))
        for n in (3, 4, 5):
            for r in (rat(2), rat(3, 2), rat(-5, 3)):
                for l in (1 / r, -r, r, -1 / r, rat(5), rat(-3, 7)):
                    yield rational_rep(n, l, r)

    def test_every_e_i_is_rank_one_on_its_pair_row(self):
        for rep in self._reps():
            index = pair_index_map(rep.n)
            for i, e in enumerate(rep.e, start=1):
                a, w = reducibility._rank1_factor(e._row_nonzeros())
                pair_row = index[(i, i + 1)]
                assert [b for b, row in enumerate(e.rows) if any(row)] == [pair_row]
                assert a == pair_row
                assert list(w) == [(j, x) for j, x in enumerate(e.rows[pair_row]) if x]

    @staticmethod
    def by_field_loop(rep):
        """M(n) from oracles.m_matrix_by_field_loop, summed in the field."""
        f = rep.field
        g_inv = [linalg.inverse(g) for g in rep.g]
        rows = oracles.m_matrix_by_field_loop(*([m.rows for m in mats] for mats in
                                                (rep.g, g_inv, rep.e)), f.zero(), f.one())
        return Matrix(f, rows)

    @staticmethod
    def catalog_reps(field, n):
        """(locus, r, rep) on every catalog locus at n; r is None over Q(r)."""
        if field == "Q(r)":
            return [(locus, None, substituted_rep(n, locus.eps, locus.k)) for locus in catalog(n)]
        r = cyclotomic_field(field).gen() if field.startswith("phi") else parse_rat(field)
        return [(locus, r, rep_at(n, locus, r)) for locus in catalog(n)]

    @pytest.mark.parametrize("field, n", [
        *((r, n) for r in ("2", "37/11", "101/7") for n in range(3, 8)),
        *(("Q(r)", n) for n in range(4, 8)),
        *(("Q(l,r)", n) for n in range(3, 6)),
        ("phi20", 4), ("phi20", 5), ("phi24", 6)])
    def test_domain_sum_equals_the_field_loop(self, field, n):
        # one sum over a common denominator, divided once, against the field sum
        reps = ([symbolic_rep(n)] if field == "Q(l,r)"
                else [rep for _, _, rep in self.catalog_reps(field, n)])
        for rep in reps:
            got = build_m_matrix(rep).matrix
            want = self.by_field_loop(rep)
            assert got == want and got.to_text() == want.to_text()
            assert [list(row) for row in got._row_nonzeros()] == [
                [(j, x) for j, x in enumerate(row) if x] for row in got.rows]

    @pytest.mark.parametrize("field, n", [
        *((r, n) for r in ("2", "37/11") for n in range(3, 9)),
        *(("Q(r)", n) for n in range(3, 8)),
        ("phi12", 3), ("phi20", 5), ("phi24", 6)])
    def test_u_is_block_triangular_and_w_has_the_kernel_of_m(self, field, n):
        # M(n) = U^T C W: u_ij lies on the pairs (i', j), i <= i' < j, and is
        # nonzero at (i, j), so ker W = ker M, with the same RREF basis
        index = pair_index_map(n)
        for locus, r, rep in self.catalog_reps(field, n):
            chains = reducibility.pair_chains(rep)
            assert [pair for pair, _, _, _ in chains.chains] == list(index)
            for (i, j), k, u, _ in chains.chains:
                assert k == j - i - 1
                assert {a for a, _ in u} <= {index[(h, j)] for h in range(i, j)}, (i, j)
                assert dict(u).get(index[(i, j)]), (i, j)
            got, want = kernel(chains.w), kernel(chains.matrix)
            assert got.dim == expected_spectrum(n, locus, r)["k"], locus.name
            assert got.vectors == want.vectors and got.pivots == want.pivots
            assert got.to_json_obj() == want.to_json_obj()

    @staticmethod
    def corrupt_u(chains, mutant):
        """The chains with u_13 lost at (1, 3), or given an entry at (2, 4), off its block."""
        index = pair_index_map(chains.n)
        out = []
        for (i, j), k, u, w in chains.chains:
            if (i, j) == (1, 3):
                diagonal = dict(u)[index[(1, 3)]]
                if mutant == "lost its pair":
                    u = [(a, x) for a, x in u if a != index[(1, 3)]]
                else:
                    u = sorted([*u, (index[(2, 4)], diagonal)])
            out.append(((i, j), k, u, w))
        return dataclasses.replace(chains, chains=tuple(out))

    @pytest.mark.parametrize("mutant", ["lost its pair", "left its block"])
    def test_a_corrupted_u_is_refused_before_any_kernel(self, monkeypatch, mutant):
        # ker W = ker M needs U invertible: a chain whose u_ij is not on its
        # block, or vanishes at (i, j), stops every reader of W before a
        # kernel is taken or M v = 0 is decided on W
        original = reducibility.pair_chains
        for module in (reducibility, cli):
            monkeypatch.setattr(module, "pair_chains",
                                lambda rep: self.corrupt_u(original(rep), mutant))
        read = []
        for module, name in ((reducibility, "kernel"), (cli, "kernel"),
                             (reducibility, "annihilates")):
            def spied(*args, _f=getattr(module, name), _name=name):
                read.append(_name)
                return _f(*args)
            monkeypatch.setattr(module, name, spied)
        refused = r"u of the pair \(1, 3\) leaves its block or vanishes at its own pair"
        locus = named_locus("l=-r3", 5)
        with pytest.raises(AssertionError, match=refused):
            kernel_k(5, locus, rat(2))
        with pytest.raises(AssertionError, match=refused):
            certify(5, rat(2))
        with pytest.raises(AssertionError, match=refused):
            scan(5, rat(2), 1)
        with pytest.raises(AssertionError, match=refused):
            cli.main(["closure", "--n", "5", "--locus", "l=-r3", "--r", "2/1"])
        # persistence reads K(5) first, so the chains at n = 6 alone are corrupted
        monkeypatch.setattr(reducibility, "pair_chains", lambda rep: (
            self.corrupt_u(original(rep), mutant) if rep.n == 6 else original(rep)))
        with pytest.raises(AssertionError, match=refused):
            persistent_vector_check(locus, 6, rat(2))
        assert read == ["kernel"]  # K(5), the one kernel of persistence

    def test_rank1_factor_rejects_other_ranks(self):
        with pytest.raises(AssertionError):
            reducibility._rank1_factor(Matrix(QQ, [[1, 2, 0], [0, 1, 3], [1, 3, 3]])._row_nonzeros())
        with pytest.raises(AssertionError):
            reducibility._rank1_factor(Matrix.zeros(QQ, 3, 3)._row_nonzeros())


class TestKernelDims:
    def test_n4_catalog_r2(self):
        for locus, exp in zip(catalog(4), (2, 3, 1, 3, 3)):
            report = kernel_k(4, locus, rat(2))
            assert report.k == exp
            assert report.invariant
            assert report.minimal_dims == (exp,)
            assert report.unique_minimal

    def test_n3_catalog(self):
        for locus, exp in zip(catalog(3), (1, 1, 2, 2)):
            report = kernel_k(3, locus, rat(2))
            assert report.k == exp
            assert report.minimal_dims == (exp,)

    def test_named_loci_are_the_cli_names(self):
        # the catalog at n = 3 is {-r^3, 1/r^3, 1, -1}, named as at every n
        assert [locus.name for locus in catalog(3)] == ["l=-r3", "l=r3-2n", "l=+r3-n", "l=-r3-n"]
        assert [(locus.eps, locus.k) for locus in catalog(3)] == [(-1, 3), (1, -3), (1, 0), (-1, 0)]
        for name in ("l=1/r3", "l=1", "l=-1"):
            with pytest.raises(ValueError):
                named_locus(name, 3)

    def test_generic_point_trivial_kernel(self):
        rep = rep_at(4, named_locus("custom", 4, custom_l=rat(5)), rat(2))
        mn = build_m_matrix(rep)
        assert kernel(mn.matrix).dim == 0

    def test_oracle_agreement_n4(self):
        # naive dense elimination oracle (no Bareiss, no pivot heuristics)
        for locus in catalog(4):
            report, rep, mn, _ = _kernel_at(4, locus, rat(2), with_closures=False)
            oracle_dim = oracles.naive_kernel_dim(oracles.to_fraction_rows(mn.matrix))
            assert report.k == oracle_dim


class TestDetOnLocus:
    def test_substituted_n3_n4_all_zero(self):
        for n in (3, 4):
            for locus in catalog(n):
                verdict = det_on_locus(n, locus, "substituted")
                assert verdict.verdict == "identically_zero"
                assert not verdict.probabilistic
                assert verdict.proof["technique"] in ("evaluation", "zero-row")

    def test_symbolic_generic_nonzero(self):
        verdict = det_on_locus(3, GENERIC, "symbolic")
        assert verdict.verdict == "nonzero"
        assert verdict.witness

    def test_symbolic_locus_matches_substituted_build(self):
        # l -> eps r^k is a ring map, so it carries M(n) over Q(l,r), whose
        # denominators lie in r alone, to M(n) built with l substituted:
        # checked entry by entry in the reference arithmetic on every
        # catalog locus for n = 3, 4, 5
        def ref(p):
            return {key: Fraction(c) for key, c in p.pairs()}

        for n in (3, 4, 5):
            symbolic = build_m_matrix(symbolic_rep(n)).matrix
            for locus in catalog(n):
                built = build_m_matrix(substituted_rep(n, locus.eps, locus.k)).matrix
                for sym_row, sub_row in zip(symbolic.rows, built.rows):
                    for f, g in zip(sym_row, sub_row):
                        assert f.den.is_univariate_r()
                        image = oracles.laurent_substitute_l(ref(f.num), locus.eps, locus.k)
                        assert (oracles.laurent_mul(image, ref(g.den))
                                == oracles.laurent_mul(ref(g.num), ref(f.den))), (n, locus.name)

    def test_both_exact_modes_decide_a_locus_on_one_matrix(self, monkeypatch):
        # symbolic differs from substituted at a catalog locus only in its
        # method, and no rep over Q(l,r) is built there
        fields = []
        build_rep = lkrep.build_rep

        def spied(params):
            fields.append(params.field)
            return build_rep(params)

        monkeypatch.setattr(lkrep, "build_rep", spied)
        loci = [(n, locus) for n in (3, 4, 5) for locus in catalog(n)]
        assert len(loci) == 14
        for n, locus in loci:
            symbolic = det_on_locus(n, locus, "symbolic").to_json_obj()
            substituted = det_on_locus(n, locus, "substituted").to_json_obj()
            assert symbolic.pop("method") == "symbolic"
            assert substituted.pop("method") == "substituted-univariate"
            assert symbolic == substituted
        assert fields == [QR] * 28
        # the generic locus is the one that builds over Q(l,r)
        det_on_locus(3, GENERIC, "symbolic")
        assert fields[-1] == QLR

    def test_sampled_modes(self):
        assert det_on_locus(4, GENERIC, "sampled", seed=42).verdict == "nonzero"
        v = det_on_locus(4, named_locus("l=r", 4), "sampled", seed=42)
        assert v.verdict == "identically_zero"
        assert v.probabilistic

    def test_mode_limits(self):
        with pytest.raises(InfeasibleMode):
            det_on_locus(6, GENERIC, "symbolic")
        with pytest.raises(InfeasibleMode):
            det_on_locus(8, named_locus("l=r", 8), "substituted")


def _qr_matrix(int_rows):
    """Matrix over Q(r) whose entries are the dense integer polynomials of int_rows."""
    return Matrix(QR, tuple(
        tuple(RatFunc.from_laurent(LaurentPoly.from_pairs(
            [((0, k), rat(c)) for k, c in enumerate(e) if c])) for e in row)
        for row in int_rows), _trusted=True)


def _trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _poly_add(a, b):
    width = max(len(a), len(b))
    return _trim((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(width))


def _poly_sum(polys):
    return functools.reduce(_poly_add, polys, [])


class TestModularZeroProof:
    """The det zero test: D+1 points, rank mod a Mersenne prime above a coefficient bound."""

    @pytest.fixture
    def matrices(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        polys = st.lists(st.integers(-4, 4), max_size=4).map(_trim)

        @st.composite
        def draw_matrix(draw):
            size = draw(st.integers(1, 4))
            rows = [[draw(polys) for _ in range(size)] for _ in range(size)]
            if size > 1 and draw(st.booleans()):
                # a singular matrix: the last row is a Z[r] combination of the others
                mults = [draw(st.lists(st.integers(-2, 2), max_size=2).map(_trim))
                         for _ in range(size - 1)]
                last = [[] for _ in range(size)]
                for m, row in zip(mults, rows):
                    last = [_poly_add(acc, kernels.poly_mul_int(m, e)) for acc, e in zip(last, row)]
                rows[-1] = last
            return rows

        settings = hyp.settings(max_examples=120, deadline=None, derandomize=True)
        return hyp, draw_matrix(), settings

    def test_dense_int_row_reconstructs_entries(self):
        # each entry an integer numerator over the lcm of its coefficient
        # denominators, and the row cleared to int Laurent polynomials over den
        rng = random.Random(41)
        for _ in range(40):
            values = []
            for _ in range(4):
                pairs = [((0, rng.randint(-4, 6)), rat(rng.randint(-9, 9), rng.randint(1, 6)))
                         for _ in range(rng.randint(0, 3))]
                d = math.lcm(*(c.denominator for _, c in pairs))
                values.append(RatFunc(LaurentPoly.from_pairs(
                    (k, c.numerator * (d // c.denominator)) for k, c in pairs), LaurentPoly.const(d)))
            den, row = linalg.clear_denominators(values)
            scale, shift, ints_row = dense_int_row(row)
            for x, p, ints in zip(values, row, ints_row):
                back = LaurentPoly.from_pairs([((0, i + shift), scale * c) for i, c in enumerate(ints)])
                assert back == p and RatFunc(back, den) == x
            content = kernels.poly_content_int([c for ints in ints_row for c in ints])
            assert content == (1 if any(row) else 0)
            assert bool(scale) == any(row)

    def test_verdict_agrees_with_bareiss_over_z(self, matrices):
        hyp, mats, settings = matrices

        @settings
        @hyp.given(mats)
        def check(rows):
            verdict = _univariate_zero_verdict(_qr_matrix(rows), len(rows), None,
                                               "substituted-univariate")
            d = oracles.bareiss_det_polyint(rows)
            assert (verdict.verdict == "identically_zero") == (d == [])
            if d:
                assert kernels.poly_eval_int(d, int(verdict.witness["r"])) != 0

        check()

    def test_bound_covers_every_coefficient(self, matrices):
        hyp, mats, settings = matrices

        @settings
        @hyp.given(mats)
        def check(rows):
            d = oracles.bareiss_det_polyint(rows)
            assert _coefficient_bound(rows) >= max(map(abs, d), default=0)

        check()

    def test_mersenne_exponents_give_primes(self):
        sympy = pytest.importorskip("sympy")
        assert list(MERSENNE_EXPONENTS) == sorted(MERSENNE_EXPONENTS)
        for e in MERSENNE_EXPONENTS:
            assert sympy.isprime((1 << e) - 1), e

    def test_planted_roots_at_the_first_points(self):
        # D = 4 and D(r) = (r^2 - 4)(r^2 - 9) vanishes at 2, -2, 3, -3: only the
        # fifth point, 4, shows that det is not the zero polynomial
        m = _qr_matrix([[[-4, 0, 1], []], [[], [-9, 0, 1]]])
        verdict = _univariate_zero_verdict(m, 2, None, "substituted-univariate")
        assert verdict.verdict == "nonzero"
        assert verdict.witness["r"] == "4"
        assert verdict.proof["degree_bound"] == 4

    def test_vanishing_denominator_never_gives_zero(self):
        # the cleared determinant r + 2 is nonzero at r = 2, where the
        # denominator vanishes, and zero at r = -2; the witness is r = 3
        r = QR.r()
        m = Matrix(QR, (((r + 2) / (r - 2),),), _trusted=True)
        verdict = _univariate_zero_verdict(m, 1, None, "substituted-univariate")
        assert verdict.verdict == "nonzero"
        assert verdict.witness["r"] == "3"

    def test_bound_beyond_the_table_fails_before_any_point(self, monkeypatch):
        def no_points(*args, **kwargs):
            raise AssertionError("a point was evaluated")

        monkeypatch.setattr(reducibility, "rank_mod_p", no_points)
        m = _qr_matrix([[[1 << 4500, 1]]])
        with pytest.raises(InfeasibleMode):
            _univariate_zero_verdict(m, 1, None, "substituted-univariate")

    def test_locus_proofs_name_modulus_and_bound(self):
        for locus in catalog(4):
            proof = det_on_locus(4, locus, "substituted").proof
            assert proof["technique"] == "evaluation"
            assert proof["points_checked"] == proof["degree_bound"] + 1
            assert proof["all_zero"]
            e = int(proof["modulus"][2:-2])
            assert proof["modulus"] == f"2^{e}-1" and e in MERSENNE_EXPONENTS
            assert 0 < proof["coefficient_bound_bits"] < e


class TestKernelWitness:
    """The polynomial kernel vector mod p that proves the zero test's points singular."""

    @staticmethod
    def spy(monkeypatch):
        # nullspace: full point kernels; solves: leading-column point solves;
        # candidates: full vectors built from a stable probe
        seen = {"rank": 0, "nullspace": 0, "solves": 0, "candidates": 0, "witness": []}
        rank, nullspace, solve, interpolate, witness = (
            reducibility.rank_mod_p, reducibility.nullspace_mod_p,
            reducibility._leading_kernel_vector, reducibility._interpolate_kernel_vector,
            reducibility._kernel_witness)

        def counting(key, fn):
            def counted(*args, **kwargs):
                seen[key] += 1
                return fn(*args, **kwargs)
            return counted

        def recording_witness(*args):
            w = witness(*args)
            seen["witness"].append((args, w))
            return w

        monkeypatch.setattr(reducibility, "rank_mod_p", counting("rank", rank))
        monkeypatch.setattr(reducibility, "nullspace_mod_p", counting("nullspace", nullspace))
        monkeypatch.setattr(reducibility, "_leading_kernel_vector", counting("solves", solve))
        monkeypatch.setattr(reducibility, "_interpolate_kernel_vector",
                            counting("candidates", interpolate))
        monkeypatch.setattr(reducibility, "_kernel_witness", recording_witness)
        return seen

    @staticmethod
    def locus_matrix(n, name):
        locus = named_locus(name, n)
        return build_m_matrix(substituted_rep(n, locus.eps, locus.k)).matrix, locus

    def test_locus_points_need_no_rank(self, monkeypatch):
        for name in ("l=r", "l=-r3", "l=r3-2n", "l=+r3-n", "l=-r3-n"):
            matrix, locus = self.locus_matrix(5, name)
            want = _univariate_zero_verdict(matrix, 5, locus, "substituted")
            with monkeypatch.context() as mp:
                seen = self.spy(mp)
                got = _univariate_zero_verdict(matrix, 5, locus, "substituted")
            assert got == want and got.verdict == "identically_zero"
            (int_rows, _, p, degree_bound), w = seen["witness"][0]
            assert seen["rank"] == 0
            # one full kernel, at the first point, then leading-column solves
            assert seen["nullspace"] == 1
            assert 1 + seen["solves"] <= (degree_bound + 1) // 2
            assert any(w) and reducibility._annihilates(int_rows, w, p)
            assert oracles.annihilates_modp(int_rows, w, p)

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_catalog_witnesses_take_few_points_and_no_rank(self, monkeypatch, n):
        # at n = 4, l=-r3-n the coordinates of v are even in r, and
        # the symmetric grid makes their interpolants one degree short at
        # every even count
        for locus in catalog(n):
            matrix = build_m_matrix(substituted_rep(n, locus.eps, locus.k)).matrix
            with monkeypatch.context() as mp:
                seen = self.spy(mp)
                got = _univariate_zero_verdict(matrix, n, locus, "substituted")
            assert got.verdict == "identically_zero", locus.name
            assert seen["witness"][0][1] is not None, locus.name
            assert seen["nullspace"] == 1, locus.name
            assert 1 + seen["solves"] <= 16, locus.name
            assert seen["candidates"] == 1, locus.name
            assert seen["rank"] == 0, locus.name

    def test_witness_is_zero_right_of_the_first_free_column(self, monkeypatch):
        for name in ("l=r", "l=-r3", "l=r3-2n", "l=+r3-n"):
            matrix, locus = self.locus_matrix(6, name)
            with monkeypatch.context() as mp:
                seen = self.spy(mp)
                _univariate_zero_verdict(matrix, 6, locus, "substituted")
            (int_rows, width, p, _), w = seen["witness"][0]
            pivots, _ = linalg.nullspace_mod_p(reducibility._rows_at(int_rows, width, 2, p),
                                               p, len(int_rows))
            f = min(set(range(len(int_rows))).difference(pivots))
            assert len(w) == len(int_rows)
            assert w[f] and not any(w[f + 1:]), name

    def test_corrupted_witness_fails_the_identity(self, monkeypatch):
        matrix, locus = self.locus_matrix(5, "l=+r3-n")
        with monkeypatch.context() as mp:
            seen = self.spy(mp)
            _univariate_zero_verdict(matrix, 5, locus, "substituted")
        (int_rows, _, p, _), w = seen["witness"][0]
        assert reducibility._annihilates(int_rows, w, p)
        for j, c in enumerate(w):
            for i in range(len(c)):
                bad = [list(x) for x in w]
                bad[j][i] = (bad[j][i] + 1) % p
                assert not reducibility._annihilates(int_rows, bad, p), (j, i)

    @pytest.mark.parametrize("n, name", [(4, "l=r3-2n"), (5, "l=-r3"), (6, "l=+r3-n"),
                                         (6, "l=r3-2n")])
    def test_one_coefficient_mutants_agree_with_the_field_check(self, monkeypatch, n, name):
        # 200 mutants: one coefficient of w, anywhere up to two past its
        # length and in the zero padding right of the first free column,
        # moved by a random nonzero residue
        matrix, locus = self.locus_matrix(n, name)
        with monkeypatch.context() as mp:
            seen = self.spy(mp)
            _univariate_zero_verdict(matrix, n, locus, "substituted")
        (int_rows, _, p, _), w = seen["witness"][0]
        rng = random.Random(n * 100 + len(name))
        for _ in range(200):
            bad = [list(c) for c in w]
            j = rng.randrange(len(bad))
            i = rng.randrange(len(bad[j]) + 2)
            bad[j] += [0] * (i + 1 - len(bad[j]))
            bad[j][i] = (bad[j][i] + rng.randrange(1, p)) % p
            bad[j] = _trim(bad[j])
            assert not reducibility._annihilates(int_rows, bad, p), (j, i)
            assert not oracles.annihilates_modp(int_rows, bad, p), (j, i)

    def test_packed_identity_agrees_with_the_field_check(self):
        # A w = 0 over Z[r] by construction, with w reduced mod p, and then
        # one coefficient moved: the packed check and the field check agree
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        p = (1 << 61) - 1
        polys = st.lists(st.integers(-(1 << 40), 1 << 40), max_size=5).map(_trim)

        @hyp.settings(max_examples=120, deadline=None, derandomize=True)
        @hyp.given(st.integers(2, 4).flatmap(lambda size: st.tuples(
            st.lists(st.lists(polys, min_size=size - 1, max_size=size - 1),
                     min_size=size, max_size=size),
            st.lists(polys, min_size=size - 1, max_size=size - 1),
            st.integers(0, size - 1), st.integers(0, 6), st.integers(1, p - 1))))
        def check(case):
            cols, w, j, i, shift = case
            # the last column makes A w = 0 with w = (w_0, ..., w_{N-2}, 1)
            rows = [row + [[-c for c in _poly_sum(kernels.poly_mul_int(a, b)
                                                  for a, b in zip(row, w))]]
                    for row in cols]
            w = [[c % p for c in e] for e in w] + [[1]]
            assert reducibility._annihilates(rows, w, p)
            assert oracles.annihilates_modp(rows, w, p)
            bad = [list(e) for e in w]
            bad[j] += [0] * (i + 1 - len(bad[j]))
            bad[j][i] = (bad[j][i] + shift) % p
            bad[j] = _trim(bad[j])
            assert (reducibility._annihilates(rows, bad, p)
                    == oracles.annihilates_modp(rows, bad, p))

        check()

    @pytest.mark.parametrize("sign", [1, -1])
    def test_packed_identity_at_its_bound(self, sign):
        # every coefficient of every row of A w is N * 5 * p * (p - 1), the
        # stated bound itself, and divisible by p; one entry moved by 1 is not
        p = (1 << 61) - 1
        size, length = 8, 5
        rows = [[[sign * p] * length for _ in range(size)] for _ in range(size)]
        w = [[p - 1] * length for _ in range(size)]
        assert reducibility._annihilates(rows, w, p)
        rows[size - 1][0] = [sign * (p + 1)] + [sign * p] * (length - 1)
        assert not reducibility._annihilates(rows, w, p)
        assert not oracles.annihilates_modp(rows, w, p)

    def test_corrupted_witness_falls_back_to_ranks(self, monkeypatch):
        matrix, locus = self.locus_matrix(5, "l=+r3-n")
        want = _univariate_zero_verdict(matrix, 5, locus, "substituted")
        interpolate = reducibility._interpolate_kernel_vector

        def corrupted(*args):
            w = interpolate(*args)
            if w is not None:
                w[0] = kernels.poly_sub(w[0], [-1])  # one coefficient changed
            return w

        monkeypatch.setattr(reducibility, "_interpolate_kernel_vector", corrupted)
        seen = self.spy(monkeypatch)
        got = _univariate_zero_verdict(matrix, 5, locus, "substituted")
        assert got == want
        degree_bound = got.proof["degree_bound"]
        assert seen["witness"][0][1] is None
        assert seen["rank"] == degree_bound + 1
        # the give-up rule: the points double from 4 while they fit in
        # (degree_bound + 1) / 2, and no point is solved after that
        doubled = 4
        while 2 * doubled <= (degree_bound + 1) // 2:
            doubled *= 2
        assert seen["nullspace"] == 1
        assert 1 + seen["solves"] == doubled
        # one candidate for the one stable probe
        assert seen["candidates"] == 1

    def test_zero_candidate_is_refused(self, monkeypatch):
        matrix, locus = self.locus_matrix(4, "l=r")
        want = _univariate_zero_verdict(matrix, 4, locus, "substituted")
        monkeypatch.setattr(reducibility, "_interpolate_kernel_vector",
                            lambda good, ncols, p, b: [[] for _ in range(ncols)])
        seen = self.spy(monkeypatch)
        assert _univariate_zero_verdict(matrix, 4, locus, "substituted") == want
        assert seen["witness"][0][1] is None
        assert seen["rank"] == want.proof["degree_bound"] + 1

    def test_points_where_the_witness_vanishes_are_ranked(self, monkeypatch):
        matrix, locus = self.locus_matrix(5, "l=-r3")
        want = _univariate_zero_verdict(matrix, 5, locus, "substituted")
        witness = reducibility._kernel_witness

        def vanishing_at_3(int_rows, width, p, degree_bound):
            # still a kernel vector, and zero at the third grid point r = 3
            w = witness(int_rows, width, p, degree_bound)
            return [kernels.modp_poly_mul(c, [p - 3, 1], p) for c in w]

        monkeypatch.setattr(reducibility, "_kernel_witness", vanishing_at_3)
        seen = self.spy(monkeypatch)
        assert _univariate_zero_verdict(matrix, 5, locus, "substituted") == want
        assert seen["rank"] == 1

    def test_points_with_other_pivots_are_skipped(self, monkeypatch):
        # rank 2 with pivot columns (0, 2), except at r = 2, where they are (1, 2);
        # the kernel vector (-1/(r - 2), 1, 0) gives w = (-1, r - 2, 0).  The
        # first point, r = 2, has the smaller first free column 0; at r = -2
        # columns 0..1 are independent, so the search restarts there with a
        # full kernel, and r = 2 is not used
        rows = [[[-2, 1], [1], []], [[4, -4, 1], [-2, 1], []], [[], [], [1] + [0] * 19 + [1]]]
        seen = self.spy(monkeypatch)
        verdict = _univariate_zero_verdict(_qr_matrix(rows), 3, None, "substituted-univariate")
        assert verdict.verdict == "identically_zero"
        (_, _, p, degree_bound), w = seen["witness"][0]
        assert degree_bound == 23
        assert w == [[p - 1], [p - 2, 1], []]
        # full kernels at 2 and -2; solves at -2, 3, -3, 4 and -4, where the
        # probe repeats
        assert seen["nullspace"] == 2
        assert seen["solves"] == 5
        assert seen["candidates"] == 1
        assert seen["rank"] == 0

    def test_a_later_point_with_a_smaller_first_free_column_is_skipped(self, monkeypatch):
        # as above with the special point at r = 3, the third grid point:
        # there column 0 vanishes, so its first free column is 0 < 1, and it
        # is skipped, with no full kernel; w = (-1, r - 3, 0)
        rows = [[[-3, 1], [1], []], [[9, -6, 1], [-3, 1], []], [[], [], [1] + [0] * 19 + [1]]]
        seen = self.spy(monkeypatch)
        verdict = _univariate_zero_verdict(_qr_matrix(rows), 3, None, "substituted-univariate")
        assert verdict.verdict == "identically_zero"
        (_, _, p, _), w = seen["witness"][0]
        assert w == [[p - 1], [p - 3, 1], []]
        # one full kernel at 2; solves at -2, 3 (skipped), -3, 4 and -4
        assert seen["nullspace"] == 1
        assert seen["solves"] == 5
        assert seen["candidates"] == 1
        assert seen["rank"] == 0

    @staticmethod
    def cut_solve(int_rows, width, pt, p, f):
        """(f_t, v) from nullspace_mod_p on the rows at pt cut to the columns 0..f."""
        rows = [{j: x for j, x in row.items() if j <= f}
                for row in reducibility._rows_at(int_rows, width, pt, p)]
        pivots, basis = linalg.nullspace_mod_p(rows, p, f + 1)
        f_t = min(set(range(f + 1)).difference(pivots), default=f + 1)
        return f_t, basis[0] if f_t == f else None

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_leading_solves_agree_with_the_cut_nullspace(self, monkeypatch, n):
        # every catalog locus at the first 8 grid points, with f the first
        # free column of the first point's full kernel, as the search takes it
        solved = 0
        for locus in catalog(n):
            matrix = build_m_matrix(substituted_rep(n, locus.eps, locus.k)).matrix
            with monkeypatch.context() as mp:
                seen = self.spy(mp)
                _univariate_zero_verdict(matrix, n, locus, "substituted")
            (int_rows, width, p, _), _ = seen["witness"][0]
            points = reducibility._grid_points(8)
            pivots, _ = linalg.nullspace_mod_p(reducibility._rows_at(int_rows, width, points[0], p),
                                               p, len(int_rows))
            f = min(set(range(len(int_rows))).difference(pivots))
            for pt in points:
                got = reducibility._leading_kernel_vector(int_rows, width, pt, p, f)
                assert got == self.cut_solve(int_rows, width, pt, p, f), (locus.name, pt)
                solved += got[1] is not None
        assert solved == 8 * len(catalog(n))

    @pytest.mark.parametrize("p", [(1 << 61) - 1, 1073740201])
    def test_leading_solve_restarts_and_skips(self, p):
        # (r - 2, 0, 1; 0, 1, 0; 0, 0, 0): first free column 2, but 0 at r = 2
        skip = [[[-2, 1], [], [1]], [[], [1], []], [[], [], []]]
        # (1, 1, 0; 2, 2, 0; 1, r, 0): first free column 1 at r = 1; at r = 2
        # only the last row, checked against v = (-1, 1), shows that the
        # columns 0..1 are independent
        restart = [[[1], [1], []], [[2], [2], []], [[1], [0, 1], []]]
        # the pivot at column f comes first: independent, then short of column 0
        ahead = [[[], [1]], [[1], []]]
        short = [[[], [1]], [[], [2]]]
        cases = [(skip, 2, 2, (0, None)), (skip, 3, 2, (2, [p - 1, 0, 1])),
                 (restart, 1, 1, (1, [p - 1, 1])), (restart, 2, 1, (2, None)),
                 (ahead, 2, 1, (2, None)), (short, 2, 1, (0, None))]
        for rows, pt, f, want in cases:
            width = max(len(e) for row in rows for e in row)
            got = reducibility._leading_kernel_vector(rows, width, pt, p, f)
            assert got == want == self.cut_solve(rows, width, pt, p, f), (rows, pt)

    def test_a_row_past_the_pivots_shows_the_restart(self, monkeypatch):
        # column 0 is (r - 2) times column 1 = (r + 2, 1, 0), so w = (-1, r - 2, 0).
        # At r = 2 column 0 vanishes: first free column 0.  At r = -2 row 0 is
        # zero on column 0, so the solve on column 0 is done after that row,
        # and only row 1, checked against v = (1), shows that column 0 has
        # rank 1 there: the search restarts at -2
        rows = [[[-4, 0, 1], [2, 1], []], [[-2, 1], [1], []], [[], [], [1] + [0] * 19 + [1]]]
        seen = self.spy(monkeypatch)
        verdict = _univariate_zero_verdict(_qr_matrix(rows), 3, None, "substituted-univariate")
        assert verdict.verdict == "identically_zero"
        (_, _, p, _), w = seen["witness"][0]
        assert w == [[p - 1], [p - 2, 1], []]
        assert seen["nullspace"] == 2
        assert seen["solves"] == 5
        assert seen["rank"] == 0

    def test_nonzero_matrix_passes_no_candidate(self, monkeypatch):
        # D = (r^2 - 4)(r^2 - 9)(r^2 - 16)(r^2 - 25)(r^30 + 1): the first eight
        # points are singular, each with the kernel (1, 0), which A w = 0 rejects
        f = [1]
        for t in (2, 3, 4, 5):
            f = kernels.poly_mul_int(f, [-t * t, 0, 1])
        rows = [[f, []], [[], [1] + [0] * 29 + [1]]]
        annihilates = reducibility._annihilates
        checked = []

        def recording(*args):
            checked.append(annihilates(*args))
            return checked[-1]

        monkeypatch.setattr(reducibility, "_annihilates", recording)
        seen = self.spy(monkeypatch)
        verdict = _univariate_zero_verdict(_qr_matrix(rows), 2, None, "substituted-univariate")
        assert verdict.verdict == "nonzero"
        assert verdict.witness["r"] == "6"
        # one candidate, at 5 points, where the constant probe first repeats,
        # and refused; at r = 6, columns 0..0 are independent, and the full
        # kernel there is empty: the search gives up
        assert checked == [False]
        assert seen["nullspace"] == 2
        assert seen["solves"] == 8
        assert seen["witness"][0][1] is None

    @pytest.fixture
    def planted(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        polys = st.lists(st.integers(-3, 3), max_size=3).map(_trim)

        @st.composite
        def draw_product(draw):
            # A = B C over Z[r] with B size x inner and C inner x size: rank at
            # most inner, so det A = 0 when inner < size; inner = size is the
            # full-rank control
            size = draw(st.integers(2, 4))
            inner = draw(st.integers(1, size))
            b = [[draw(polys) for _ in range(inner)] for _ in range(size)]
            c = [[draw(polys) for _ in range(size)] for _ in range(inner)]
            rows = [[_poly_sum(kernels.poly_mul_int(b[i][k], c[k][j]) for k in range(inner))
                     for j in range(size)] for i in range(size)]
            return rows, inner

        settings = hyp.settings(max_examples=150, deadline=None, derandomize=True)
        return hyp, draw_product(), settings

    def test_planted_rank_products(self, monkeypatch, planted):
        hyp, products, settings = planted
        seen = self.spy(monkeypatch)

        @settings
        @hyp.given(products)
        def check(case):
            rows, inner = case
            size = len(rows)
            seen.update(rank=0, nullspace=0, solves=0, candidates=0, witness=[])
            verdict = _univariate_zero_verdict(_qr_matrix(rows), size, None,
                                               "substituted-univariate")
            d = oracles.bareiss_det_polyint(rows)
            assert (verdict.verdict == "identically_zero") == (d == [])
            if inner < size:
                assert d == []
            for (int_rows, _, p, _), w in seen["witness"]:
                if w is not None:
                    assert d == [] and any(w)
                    assert oracles.annihilates_modp(int_rows, w, p)
            if d:
                # the control: no w passes, and the ranks find a nonzero point
                assert all(w is None for _, w in seen["witness"])
                assert seen["rank"] >= 1
                assert kernels.poly_eval_int(d, int(verdict.witness["r"])) != 0

        check()


class TestOneDim:
    def test_unique_line_at_one_dim_locus(self):
        rep = rep_at(4, named_locus("l=r3-2n", 4), rat(2))
        lines = one_dim_subspaces(rep)
        assert sum(e["space"].dim for e in lines) == 1
        assert lines[0]["lambda"] == "r"

    def test_n3_line_at_minus_r3(self):
        rep = rep_at(3, named_locus("l=-r3", 3), rat(2))
        lines = one_dim_subspaces(rep)
        assert sum(e["space"].dim for e in lines) == 1
        assert lines[0]["lambda"] == "-1/r"

    def test_exceptional_two_lines(self):
        field = cyclotomic_field("phi12")
        x = field.gen()
        rep = rep_at(3, named_locus("l=-r3", 3), x)
        lines = one_dim_subspaces(rep)
        assert sum(e["space"].dim for e in lines) == 2
        assert {e["lambda"] for e in lines} == {"r", "-1/r"}


class TestMinimalInvariant:
    def test_dims_at_loci(self):
        cases = [
            (4, "l=r", 2),
            (5, "l=+r3-n", 4),
            (4, "l=-r3", 3),
        ]
        for n, name, expected in cases:
            locus = named_locus(name, n)
            report, rep, mn, closures = _kernel_at(n, locus, rat(2))
            assert report.minimal_dims == (expected,)
            for cl in closures:
                assert report.basis.contains_space(cl)

    def test_zero_seed(self):
        rep = rational_rep(3, rat(5), rat(2))
        with pytest.raises(ZeroSeed):
            minimal_invariant(rep, (rat(0),) * 3)

    @pytest.mark.parametrize("n, r_val", [
        (4, rat(2)),
        (5, rat(2)),
        (5, cyclotomic_field("phi20").gen()),
    ])
    def test_generators_alone_give_the_closure_under_inverses(self, n, r_val):
        for locus in catalog(n):
            rep = rep_at(n, locus, r_val)
            g_inv = [linalg.inverse(g) for g in rep.g]
            basis = kernel(build_m_matrix(rep).matrix)
            assert basis.dim
            for v in basis.vectors:
                closure = minimal_invariant(rep, v)
                assert closure == operator_closure([v], list(rep.g) + g_inv)
                assert closure == SubspaceBasis.from_vectors(rep.field, closure.ambient_dim,
                                                             closure.vectors)


@functools.lru_cache(maxsize=None)
def kernel_case(n, locus, r):
    """(rep, K(n)) at a catalog locus; r is a rational or a cyclotomic modulus name."""
    r_val = cyclotomic_field(r).gen() if r.startswith("phi") else parse_rat(r)
    rep = rep_at(n, named_locus(locus, n), r_val)
    return rep, kernel(build_m_matrix(rep).matrix)


def count_exact_spins(monkeypatch):
    """The seeds of every exact minimal_invariant spin from here on."""
    seeds = []
    exact = reducibility.minimal_invariant

    def counted(rep, seed):
        seeds.append(seed)
        return exact(rep, seed)

    monkeypatch.setattr(reducibility, "minimal_invariant", counted)
    return seeds


class TestCertifiedClosures:
    """Closures certified by a spin mod p equal the exact spins; mutants fall back."""

    # the exceptional points n = 5 at phi20 and n = 6 at phi24 hold a line and
    # a (n-1)(n-2)/2-dimensional invariant subspace inside K(n)
    CASES = [(4, "l=r", "2"), (5, "l=+r3-n", "3/2"), (4, "l=-r3", "-5/3"),
             (3, "l=-r3", "phi12"), (3, "l=+r3-n", "phi12"), (5, "l=-r3", "phi20"),
             (5, "l=r", "phi20"), (6, "l=r3-2n", "phi24")]

    def test_against_the_exact_spin(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        @hyp.settings(max_examples=60, deadline=None, derandomize=True)
        @hyp.given(st.sampled_from(self.CASES), st.data())
        def check(case, data):
            rep, basis = kernel_case(*case)
            field = rep.field

            def vector_of(space):
                coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=space.dim,
                                            max_size=space.dim).filter(any))
                return tuple(sum((c * v[j] for c, v in zip(coeffs, space.vectors) if c),
                                 field.zero()) for j in range(space.ambient_dim))

            # a random invariant subspace: K(n) or the closure of a vector of it
            u = basis if data.draw(st.booleans()) else operator_closure([vector_of(basis)], rep.g)
            count = data.draw(st.integers(1, 3))
            vectors = list(u.vectors[:2]) + [vector_of(u) for _ in range(count)]
            known = data.draw(st.sampled_from([[u], [basis, u], [u, basis]]))
            got = _certified_closures(rep, vectors, known)
            assert got == [operator_closure([v], rep.g) for v in vectors]

        check()

    @pytest.mark.parametrize("n, locus, r, spins", [
        (4, "l=r", "2", 0), (5, "l=-r3", "phi20", 1), (6, "l=r3-2n", "phi24", 1),
        (3, "l=-r3-n", "phi12", 0)])
    def test_exact_spins_only_where_the_certificate_falls_short(self, monkeypatch, n, locus, r,
                                                                spins):
        rep, basis = kernel_case(n, locus, r)
        seeds = count_exact_spins(monkeypatch)
        closures = _certified_closures(rep, basis.vectors, [basis])
        assert len(seeds) == spins
        assert closures == [operator_closure([v], rep.g) for v in basis.vectors]

    # the kernel-cyclo points: r^(2n) = -1, where K(n) on l=-r3 and l=r3-2n is
    # layered
    @pytest.mark.parametrize("n, locus, r", [
        (n, locus.name, r) for n, r in ((3, "phi12"), (5, "phi20"), (6, "phi24"))
        for locus in catalog(n)])
    def test_a_spin_stopped_at_the_known_dimension_changes_no_closure(self, monkeypatch, n,
                                                                      locus, r):
        rep, basis = kernel_case(n, locus, r)
        capped = _certified_closures(rep, basis.vectors, [basis])
        spin = linalg.spin_mod_p
        stops = []

        def uncapped(seed, columns, p, stop=None):
            stops.append(stop)
            return spin(seed, columns, p)

        monkeypatch.setattr(reducibility, "spin_mod_p", uncapped)
        assert _certified_closures(rep, basis.vectors, [basis]) == capped
        assert stops and all(s is not None for s in stops)
        if (n, locus) == (6, "l=-r3"):
            assert sorted({c.dim for c in capped}) == [10, 11]

    def test_a_root_that_is_no_root_is_refused(self, monkeypatch):
        field = cyclotomic_field("phi12")
        expected = {locus.name: kernel_k(3, locus, field.gen()).to_json_obj()
                    for locus in catalog(3)}
        p = linalg.residue_prime(field)
        root = kernels.modp_poly_root
        monkeypatch.setattr(kernels, "modp_poly_root", lambda f, q: (root(f, q) + 1) % q)
        linalg._root_powers.cache_clear()
        try:
            assert linalg.image_mod_p(field.gen(), p) is None
            seeds = count_exact_spins(monkeypatch)
            for locus in catalog(3):
                report = kernel_k(3, locus, field.gen())
                assert report.to_json_obj() == expected[locus.name]
                assert seeds[-report.k:] == list(report.basis.vectors)
        finally:
            monkeypatch.undo()
            linalg._root_powers.cache_clear()

    @pytest.mark.parametrize("n, locus", [(4, "l=r"), (4, "l=-r3"), (5, "l=+r3-n")])
    def test_a_prime_dividing_a_denominator_falls_back(self, monkeypatch, n, locus):
        # at r = p the prime divides the denominators of the g_i
        p = linalg.residue_prime(QQ)
        rep = rep_at(n, named_locus(locus, n), rat(p))
        assert all(linalg.columns_mod_p(g, p) is None for g in rep.g)
        seeds = count_exact_spins(monkeypatch)
        report, rep, _, closures = _kernel_at(n, named_locus(locus, n), rat(p))
        assert seeds == list(report.basis.vectors)
        assert closures == [operator_closure([v], rep.g) for v in report.basis.vectors]
        assert report.minimal_dims == (report.k,) and report.unique_minimal

    def test_a_vector_outside_the_known_subspace_is_refused(self, monkeypatch):
        # diag(1, 2, 3): e_2 spins to a line mod p, of the dimension of span(e_1)
        g = Matrix(QQ, [[1, 0, 0], [0, 2, 0], [0, 0, 3]])
        rep = SimpleNamespace(field=QQ, g=(g,))
        line = SubspaceBasis.coordinate(QQ, 3, [0])
        v = (rat(0), rat(1), rat(0))
        p = linalg.residue_prime(QQ)
        assert linalg.spin_mod_p({1: 1}, [linalg.columns_mod_p(g, p)], p) == line.dim
        seeds = count_exact_spins(monkeypatch)
        assert _certified_closures(rep, [v, line.vectors[0]], [line]) == [
            SubspaceBasis.coordinate(QQ, 3, [1]), line]
        assert seeds == [v]

    # an overstated spin dimension at the exceptional point would certify K(n)
    # for a vector of the smaller subspace; the spin itself is checked against
    # operator_closure in test_linalg.py
    @pytest.mark.parametrize("n, locus, r, shift", [
        (4, "l=-r3", "2", -1), (4, "l=-r3", "2", 1), (5, "l=-r3", "phi20", -1),
        (6, "l=r", "phi24", 1)])
    def test_a_wrong_spin_dimension_falls_back(self, monkeypatch, n, locus, r, shift):
        rep, _ = kernel_case(n, locus, r)
        want = kernel_k(n, named_locus(locus, n), rep.params.r).to_json_obj()
        spin = linalg.spin_mod_p
        monkeypatch.setattr(reducibility, "spin_mod_p",
                            lambda *args, **kwargs: spin(*args, **kwargs) + shift)
        seeds = count_exact_spins(monkeypatch)
        report = kernel_k(n, named_locus(locus, n), rep.params.r)
        assert report.to_json_obj() == want
        assert seeds == list(report.basis.vectors)


class TestLowerIntersections:
    def test_nontrivial_at_l_equals_r(self):
        report = kernel_k(5, named_locus("l=r", 5), rat(2), with_closures=False)
        inter = lower_intersection(report, 1)
        assert inter.dim > 0

    def test_depth_two_nontrivial_when_dimension_forces_it(self):
        # dim K(7) + dim V^(5) = 14 + 10 > 21 = dim V^(7)
        report = kernel_k(7, named_locus("l=r", 7), rat(2), with_closures=False)
        inter2 = lower_intersection(report, 2)
        assert inter2.dim >= 14 + 10 - 21

    def test_depth_guard(self):
        report = kernel_k(4, named_locus("l=r", 4), rat(2), with_closures=False)
        with pytest.raises(DepthTooLarge):
            lower_intersection(report, 2)
        with pytest.raises(DepthTooLarge):
            lower_intersection(report, 3)

    def test_exceptional_identity_phi20(self):
        # at r^10 = -1, l = -r^3: K(5) ∩ V^(4) = K(4), and the sandwich holds
        field = cyclotomic_field("phi20")
        x = field.gen()
        locus5 = named_locus("l=-r3", 5)
        report5 = kernel_k(5, locus5, x, with_closures=False)
        assert report5.k == 7
        inter = lower_intersection(report5, 1)
        report4 = kernel_k(4, named_locus("l=-r3", 4), x, with_closures=False)
        assert report4.k == 3
        assert inter == embed_subspace(report4.basis, 4, 5)
        assert report4.k + 3 <= report5.k <= report4.k + 4


class TestPersistence:
    def test_minus_r3_to_n6(self):
        report = persistent_vector_check(named_locus("l=-r3", 5), 6, rat(2))
        assert report.verified
        assert report.checked == ((6, True),)

    def test_second_specialization(self):
        # locus-level property: also holds at r = 3
        report = persistent_vector_check(named_locus("l=r", 5), 6, rat(3))
        assert report.verified


def block_diagonal(*blocks):
    """The Matrix over Q with the given square integer blocks on its diagonal."""
    n = sum(len(b) for b in blocks)
    rows = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            rows[at + i][at:at + len(row)] = row
        at += len(b)
    return Matrix(QQ, rows)


QUARTER_TURN = [[0, -1], [1, 0]]
AC8_CONTROL = [
    block_diagonal([[2, 0], [0, 2]], [[3, 0, 0], [0, 3, 0], [0, 0, 3]]),
    block_diagonal([[2, 1], [0, 2]], [[3, 0, 0], [1, 3, 1], [0, 0, 3]]),
]


def catalog_ops():
    return [[*rep.g, rep.e[0]] for n in (4, 5) for rep in
            (rep_at(n, locus, rat(2)) for locus in catalog(n))]


def check_probe_witness(ops, probe):
    """Recheck a probe verdict from its witness with the naive oracles alone."""
    assert not probe.probabilistic
    n = ops[0].nrows
    if probe.verdict == "decomposable_witness":
        parts = probe.witness["parts"]
        assert probe.witness["split_dims"] == [part.dim for part in parts]
        assert all(0 < part.dim < n for part in parts)
        # the parts span V with dims adding to n, so they meet in 0
        assert sum(part.dim for part in parts) == n
        assert oracles.naive_rank([list(v) for part in parts for v in part.vectors]) == n
        rows = [oracles.to_fraction_rows(op) for op in ops]
        for part in parts:
            assert oracles.invariant_by_reduction(
                [list(v) for v in part.vectors], part.pivots, rows, 0)
        return [part.dim for part in parts]
    assert probe.verdict == "indecomposable_evidence"
    comm = linalg.commutant_basis(ops)
    assert probe.commutant_dim == len(comm)
    if len(comm) == 1:
        return 1
    # the radical is the null space of the trace form, here from full products
    form = [[sum((a * b).rows[i][i] for i in range(n)) for b in comm] for a in comm]
    radical_dim = oracles.naive_kernel_dim(oracles.to_fraction_rows(Matrix(QQ, form)))
    assert probe.witness["radical_dim"] == radical_dim
    mu, p = probe.witness["minimal_polynomial"], probe.witness["prime"]
    q = len(comm) - radical_dim
    assert len(mu) - 1 == q
    assert mu[-1] % p and reducibility._irreducible_mod_p(mu, p)
    return q


class TestProbe:
    def test_generic_commutant_scalars(self):
        rep = rational_rep(4, rat(5), rat(2))
        probe = indecomposability_probe(rep, 5, random.Random(1))
        assert probe.verdict == "indecomposable_evidence"
        assert probe.commutant_dim == 1
        assert not probe.probabilistic

    def test_scalar_commutant_is_exact_without_samples(self, monkeypatch):
        def unexpected(*args):
            raise AssertionError("a charpoly taken at a scalar commutant")

        monkeypatch.setattr(reducibility, "charpoly", unexpected)
        rep = rational_rep(4, rat(5), rat(2))
        rng = random.Random(1)
        state = rng.getstate()
        probe = indecomposability_probe(rep, 10, rng)
        assert rng.getstate() == state
        assert (probe.verdict, probe.commutant_dim, probe.trials, probe.probabilistic) == \
            ("indecomposable_evidence", 1, 10, False)

    def test_locus_evidence(self):
        rep = rep_at(4, named_locus("l=r", 4), rat(2))
        probe = indecomposability_probe(rep, 10, random.Random(2))
        assert probe.verdict == "indecomposable_evidence"

    def test_irreducible_charpoly_is_evidence(self):
        # the commutant of a quarter turn is Q(i), a field: local, exactly, with
        # no sample drawn; the generator 1 - J has minimal polynomial x^2 - 2x + 2
        rng = random.Random(1)
        state = rng.getstate()
        probe = probe_operators([Matrix(QQ, QUARTER_TURN)], 10, rng)
        assert rng.getstate() == state
        assert probe.verdict == "indecomposable_evidence"
        assert probe.commutant_dim == 2 and not probe.probabilistic
        assert probe.notes == ("C is local: C/J is a field of degree 2",)
        assert check_probe_witness([Matrix(QQ, QUARTER_TURN)], probe) == 2

    @pytest.mark.parametrize("cases, verdict, detail", [
        (lambda: [[Matrix(QQ, QUARTER_TURN)]], "indecomposable_evidence", 2),
        (lambda: [[Matrix(QQ, [[2, 0], [0, 3]])]], "decomposable_witness", [1, 1]),
        (lambda: [AC8_CONTROL], "decomposable_witness", [3, 2]),
        (lambda: [[Matrix(QQ, [[1, 1, 0], [0, 1, 1], [0, 0, 1]])]], "indecomposable_evidence", 1),
        (lambda: [[block_diagonal(QUARTER_TURN, [[0, -2], [1, 0]])]],
         "decomposable_witness", [2, 2]),
        (lambda: [[block_diagonal(QUARTER_TURN, QUARTER_TURN)]], "decomposable_witness", [2, 2]),
        (catalog_ops, "indecomposable_evidence", 1),
    ], ids=["quarter-turn", "diag-2-3", "ac8-control", "jordan-3",
            "quarter-turn+sqrt-2", "quarter-turn+quarter-turn", "catalog-n4-n5"])
    def test_exact_verdict_table(self, cases, verdict, detail):
        # detail: the split dims, or the degree of C/J (1 for a scalar commutant)
        for ops in cases():
            rng = random.Random(3)
            state = rng.getstate()
            probe = probe_operators(ops, 10, rng)
            assert rng.getstate() == state
            assert (probe.verdict, probe.trials) == (verdict, 10)
            assert check_probe_witness(ops, probe) == detail

    def test_conjugated_direct_sum_splits(self):
        hyp = pytest.importorskip("hypothesis")

        def has_rational_eigenvalue(b):
            if len(b) == 1:
                return True
            disc = (b[0][0] - b[1][1]) ** 2 + 4 * b[0][1] * b[1][0]
            return disc >= 0 and math.isqrt(disc) ** 2 == disc

        st = hyp.strategies
        entries = st.integers(-3, 3)
        block = st.integers(1, 2).flatmap(
            lambda k: st.lists(st.lists(entries, min_size=k, max_size=k), min_size=k, max_size=k))

        @hyp.settings(max_examples=40, deadline=None, derandomize=True)
        @hyp.given(st.lists(block, min_size=2, max_size=3), st.data())
        def check(blocks, data):
            a = block_diagonal(*blocks)
            n = a.nrows
            # a unimodular change of basis: a product of elementary matrices
            p = Matrix.identity(QQ, n)
            for _ in range(2 * n):
                i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                          unique=True))
                e = [[int(r == c) for c in range(n)] for r in range(n)]
                e[i][j] = data.draw(st.integers(-2, 2))
                p = p * Matrix(QQ, e)
            ops = [p * a * linalg.inverse(p)]
            probe = probe_operators(ops, 1, None)
            assert not probe.probabilistic
            if any(has_rational_eigenvalue(b) for b in blocks):
                # that block gives C/J a factor Q, so some basis element of C
                # that is not scalar mod J has a rational eigenvalue whose
                # Fitting split is proper
                assert probe.verdict == "decomposable_witness", blocks
            else:
                # a product of number fields of degree 2 is split only when a
                # basis element has a rational eigenvalue (see the next test)
                assert probe.verdict in ("decomposable_witness", "inconclusive"), blocks
            if probe.verdict == "decomposable_witness":
                assert sum(check_probe_witness(ops, probe)) == n

        check()

    def test_product_of_quadratic_fields_is_not_claimed_local(self):
        # [[-3, -3], [-2, -1]] + [[-1, 1], [1, -2]] after a change of basis:
        # C = Q(sqrt 7) x Q(sqrt 5), and no basis element of C has a rational
        # eigenvalue.  Each generator's minimal polynomial is reducible over Q,
        # so no prime certifies it; the probe factors nothing over Q, so V is
        # left undecided, and never claimed indecomposable
        a = Matrix(QQ, [[-7, -10, 9, 5], [10, 21, -4, -8], [-6, -16, -3, 5], [22, 49, -5, -18]])
        assert linalg.charpoly(a) == [-3, -5, 10, 7, 1]  # (t^2 + 4t - 3)(t^2 + 3t + 1)
        probe = probe_operators([a], 10, None)
        assert (probe.verdict, probe.commutant_dim, probe.probabilistic) == ("inconclusive", 4, False)
        assert probe.notes == ("no generator of C/J was found",)

    def test_quaternion_commutant_is_inconclusive(self):
        # right multiplication by i and j on H = Q^4 (basis 1, i, j, k) has the
        # left multiplications as commutant: Hamilton's quaternions, a division
        # algebra, so V is indecomposable, but C/J = H is noncommutative, the
        # case the exact probe leaves open
        right_i = Matrix(QQ, [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
        right_j = Matrix(QQ, [[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]])
        probe = probe_operators([right_i, right_j], 10, None)
        assert (probe.verdict, probe.commutant_dim, probe.probabilistic) == ("inconclusive", 4, False)
        assert probe.notes == ("C/J is noncommutative",)

    def test_noncommuting_commutant_element_claims_no_split(self, monkeypatch):
        # diag(1, 0) does not commute with the quarter turn: its Fitting parts
        # are the coordinate axes, which the quarter turn swaps
        monkeypatch.setattr(reducibility, "commutant_basis", lambda ops: [
            Matrix.identity(QQ, 2), Matrix(QQ, [[1, 0], [0, 0]])])
        probe = probe_operators([Matrix(QQ, QUARTER_TURN)], 10, None)
        assert probe.verdict == "inconclusive" and not probe.witness
        assert probe.notes == ("a Fitting split failed its check",)

    def test_failed_invariance_claims_no_split(self, monkeypatch):
        monkeypatch.setattr(reducibility, "is_invariant", lambda space, ops: False)
        probe = probe_operators([Matrix(QQ, [[2, 0], [0, 3]])], 10, None)
        assert probe.verdict == "inconclusive" and not probe.witness

    def test_prime_dividing_the_leading_coefficient_certifies_nothing(self, monkeypatch):
        # C = Q[a] with a^2 = 10007: every generator's primitive minimal
        # polynomial has leading coefficient 10007, so mod 10007 it drops degree
        ops = [Matrix(QQ, [[0, 10007], [1, 0]])]
        probe = probe_operators(ops, 10, None)
        assert probe.verdict == "indecomposable_evidence"
        assert probe.witness["minimal_polynomial"][-1] == 10007
        assert probe.witness["prime"] != 10007
        monkeypatch.setattr(reducibility, "_PROBE_PRIMES", (10007,))
        probe = probe_operators(ops, 10, None)
        assert probe.verdict == "inconclusive"
        assert probe.notes == ("no generator of C/J was found",)

    def test_irreducible_mod_p_matches_sympy(self):
        # sympy's is_irreducible over GF(p), on squarefree and repeated factors alike
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        rng = random.Random(5)
        verdicts = set()
        for p in (3, 5, 7, 10007):
            for _ in range(30):
                deg = rng.randint(1, 8)
                s = [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]
                poly = sympy.Poly(list(reversed(s)), x, modulus=p)
                want = poly.is_irreducible
                assert reducibility._irreducible_mod_p(s, p) == want, (s, p)
                squarefree = sympy.degree(sympy.gcd(poly, poly.diff(x))) <= 0
                verdicts.add((want, squarefree))
        assert verdicts == {(True, True), (False, True), (False, False)}
        # (x^2 + 1)^2: reducible with no root, as -1 is no square mod 10007
        assert not reducibility._irreducible_mod_p([1, 0, 2, 0, 1], 10007)


def loci_distinct(n, r_val):
    """The pairs of catalog loci whose l values coincide at r_val."""
    values = [(loc.name, loc.l_value(r_val)) for loc in catalog(n)]
    return [(a, b) for i, (a, la) in enumerate(values) for b, lb in values[i + 1:] if la == lb]


class TestLociDistinctness:
    def test_rational_r_no_collisions(self):
        for n in (4, 5, 6):
            assert loci_distinct(n, rat(2)) == []
            assert loci_distinct(n, rat(3, 2)) == []

    def test_cyclotomic_collision(self):
        # -r^3 = r^(3-2n) exactly when r^(2n) = -1
        field = cyclotomic_field("phi20")
        x = field.gen()
        collisions = loci_distinct(5, x)
        assert ("l=-r3", "l=r3-2n") in collisions
        assert -(x ** 3) == x ** (3 - 2 * 5)


class TestCertifyAndScan:
    def test_certify_n3(self):
        report = certify(3, rat(2), seed=7)
        assert report.all_match
        by_name = {rec.locus: rec for rec in report.records}
        assert by_name["l=-r3"].k == 1
        assert by_name["l=r3-2n"].k == 1
        assert by_name["l=+r3-n"].k == 2
        assert by_name["l=-r3-n"].k == 2

    def test_certify_n4_example(self):
        report = certify(4, rat(2), seed=7)
        assert report.all_match
        dims = {rec.locus: rec.minimal_dims for rec in report.records}
        assert dims == {
            "l=r": (2,), "l=-r3": (3,), "l=r3-2n": (1,),
            "l=+r3-n": (3,), "l=-r3-n": (3,),
        }

    def test_certify_reads_det_from_kernel(self, monkeypatch):
        def no_det(m):
            raise AssertionError("det called next to the kernel")

        monkeypatch.setattr(reducibility, "det", no_det)
        report = certify(3, rat(2), seed=7)
        assert report.all_match
        assert all(rec.det_verdict == "zero" and rec.k > 0 for rec in report.records)
        assert report.generic.det_verdict == "nonzero" and report.generic.k == 0

    def test_jobs_pool_capped_by_loci(self, monkeypatch):
        import concurrent.futures

        sizes = []

        class Recorder:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
        pooled = certify(3, rat(2), seed=3, jobs=100000)
        assert sizes == [len(catalog(3))]
        serial = certify(3, rat(2), seed=3)
        assert sizes == [len(catalog(3))]
        assert json.dumps(pooled.to_json_obj()) == json.dumps(serial.to_json_obj())

    def test_jobs_below_one_rejected(self):
        for jobs in (0, -1):
            with pytest.raises(InvalidConfig):
                certify(3, rat(2), jobs=jobs)

    def test_certify_deterministic_json(self):
        a = json.dumps(certify(3, rat(2), seed=3).to_json_obj())
        b = json.dumps(certify(3, rat(2), seed=3).to_json_obj())
        assert a == b

    def test_certify_exceptional_point(self):
        field = cyclotomic_field("phi12")
        report = certify(3, field.gen(), seed=1)
        by_name = {rec.locus: rec for rec in report.records}
        # -r^3 = 1/r^3 at this point; both records expect two lines
        assert by_name["l=-r3"].one_dim_count == 2
        assert by_name["l=r3-2n"].one_dim_count == 2
        assert report.all_match

    def test_scan(self):
        report = scan(4, rat(3, 2), 42)
        assert report.all_match
        kinds = [row["locus"] for row in report.rows]
        assert kinds.count("random") == 5

    def test_expected_spectrum_table(self):
        assert expected_spectrum(6, named_locus("l=r", 6))["k"] == 9
        assert expected_spectrum(6, named_locus("l=-r3", 6))["k"] == 10
        assert expected_spectrum(7, named_locus("l=-r3", 7))["min_dim"] == 15
        assert expected_spectrum(4, GENERIC) is None

    # expected_spectrum as (min_dim, k, k_source, count) per catalog locus,
    # in catalog order: l=r (not at n = 3), l=-r3, l=r3-2n, l=+r3-n, l=-r3-n
    L, M = "literature", "measured"
    SPECTRA = {
        3: ((1, 1, M, 1), (1, 1, M, 1), (2, 2, M, 1), (2, 2, M, 1)),
        4: ((2, 2, L, 1), (3, 3, L, 1), (1, 1, M, 1), (3, 3, M, 1), (3, 3, M, 1)),
        5: ((5, 5, L, 1), (6, 6, L, 1), (1, 1, M, 1), (4, 4, M, 1), (4, 4, M, 1)),
        6: ((9, 9, L, 1), (10, 10, L, 1), (1, 1, M, 1), (5, 5, M, 1), (5, 5, M, 1)),
        7: ((14, 14, L, 1), (15, 15, L, 1), (1, 1, M, 1), (6, 6, M, 1), (6, 6, M, 1)),
        8: ((20, 20, L, 1), (21, 21, L, 1), (1, 1, M, 1), (7, 7, M, 1), (7, 7, M, 1)),
    }
    # at r^(2n) = -1
    LAYERED_SPECTRA = {
        (3, "phi12"): ((1, 2, M, 2), (1, 2, M, 2), (2, 2, M, 1), (2, 2, M, 1)),
        (5, "phi20"): ((5, 5, L, 1), (6, 7, L, 1), (6, 7, L, 1), (4, 4, M, 1), (4, 4, M, 1)),
        (6, "phi24"): ((9, 9, L, 1), (10, 11, L, 1), (10, 11, L, 1), (5, 5, M, 1), (5, 5, M, 1)),
    }

    @staticmethod
    def spectra(n, r_val):
        return tuple(tuple(expected_spectrum(n, locus, r_val).values()) for locus in catalog(n))

    def test_expected_spectrum_literal_table(self):
        for r_val in (rat(2), rat(3, 2)):
            for n, want in self.SPECTRA.items():
                assert self.spectra(n, r_val) == want, (n, r_val)
                assert not any(exceptional_layering(n, locus, r_val) for locus in catalog(n))
        for (n, name), want in self.LAYERED_SPECTRA.items():
            x = cyclotomic_field(name).gen()
            assert self.spectra(n, x) == want, (n, name)
            # layered at l=-r3 and l=r3-2n only, n = 3 included
            assert [locus.name for locus in catalog(n)
                    if exceptional_layering(n, locus, x)] == ["l=-r3", "l=r3-2n"]

    def test_cli_locus_choices_are_the_catalog(self):
        subparsers, = (a for a in cli.build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction))
        choices = {tuple(action.choices) for p in subparsers.choices.values()
                   for action in p._actions if action.dest == "locus"}
        assert choices == {("generic", "l=r", "l=-r3", "l=r3-2n", "l=+r3-n", "l=-r3-n", "custom")}

    def test_expected_spectrum_r3_minus_2n_collides_with_minus_r3(self):
        x = cyclotomic_field("phi20").gen()
        assert expected_spectrum(5, named_locus("l=r3-2n", 5), x) == \
            expected_spectrum(5, named_locus("l=-r3", 5), x)
        assert expected_spectrum(5, named_locus("l=r3-2n", 5), x)["k"] == 7
        assert expected_spectrum(5, named_locus("l=r3-2n", 5), rat(2))["k"] == 1


class TestCertifyMismatches:
    """certify's failure path: each comparison forced to fail, one at a time."""

    N, R, SEED = 4, rat(2), 7

    @pytest.fixture(scope="class")
    def clean(self):
        report = certify(self.N, self.R, seed=self.SEED)
        assert report.all_match
        return report

    @staticmethod
    def records_json(report):
        return {rec.locus: rec.to_json_obj() for rec in report.loci}

    def test_an_expected_k_off_by_one_is_recorded_with_its_kernel(self, clean, monkeypatch):
        original = reducibility.expected_spectrum

        def off_by_one(n, locus, r_val=None):
            expected = original(n, locus, r_val)
            if locus.name == "l=+r3-n":
                expected = {**expected, "k": expected["k"] + 1}
            return expected

        monkeypatch.setattr(reducibility, "expected_spectrum", off_by_one)
        report = certify(self.N, self.R, seed=self.SEED)
        assert not report.all_match
        got, want = self.records_json(report), self.records_json(clean)
        rec, was = got.pop("l=+r3-n"), want.pop("l=+r3-n")
        assert got == want
        basis = kernel_k(self.N, named_locus("l=+r3-n", self.N), self.R).basis
        assert rec == {**was, "expected_k": 4, "match": False,
                       "mismatches": ["k=3, expected 4 (measured)"],
                       "witnesses": {**was["witnesses"], "kernel_basis": basis.to_json_obj()}}

    def test_a_generic_draw_on_a_catalog_l_fails_both_generic_checks(self, clean, monkeypatch):
        locus = named_locus("l=-r3", self.N)
        monkeypatch.setattr(reducibility, "_random_l_off_catalog",
                            lambda n, r_val, rng, bound: locus.l_value(r_val))
        report = certify(self.N, self.R, seed=self.SEED)
        assert not report.all_match
        got, want = self.records_json(report), self.records_json(clean)
        generic = got.pop("generic")
        want.pop("generic")
        assert got == want
        k = kernel_k(self.N, locus, self.R, with_closures=False).k
        assert generic["l"] == "-8" and generic["k"] == k > 0
        assert generic["det_verdict"] == "zero" and generic["match"] is False
        assert generic["mismatches"][:2] == ["determinant vanishes at a non-locus point",
                                             f"kernel dimension {k} at a non-locus point"]

    def test_a_closure_outside_the_kernel_is_a_mismatch(self, monkeypatch):
        # the whole space is invariant and escapes every proper K(n)
        monkeypatch.setattr(reducibility, "_certified_closures", lambda rep, vectors, known: [
            reducibility.coordinate_subspace(rep.n, rep.n, rep.field)] * len(vectors))
        report = certify(self.N, self.R, seed=self.SEED)
        assert not report.all_match
        for rec in report.records:
            assert "a minimal invariant subspace escapes K(n)" in rec.mismatches, rec.locus
            assert "kernel_basis" in rec.witnesses

    def test_the_cli_exits_1_with_the_report_on_stdout(self, clean, monkeypatch, capsys):
        original = reducibility.expected_spectrum
        monkeypatch.setattr(reducibility, "expected_spectrum", lambda n, locus, r_val=None: {
            **original(n, locus, r_val), "k": -1})
        args = ["certify", "--n", str(self.N), "--r", "2/1", "--seed", str(self.SEED)]
        assert cli.main(args) == 1
        out = capsys.readouterr()
        assert out.err == ""
        obj = json.loads(out.out)
        report = certify(self.N, self.R, seed=self.SEED)
        assert obj == {"command": "certify", "seed": self.SEED, **report.to_json_obj()}
        assert obj["all_match"] is False
        assert all(not rec["match"] for rec in obj["loci"][:-1])


class TestBivariateGridVerdict:
    """_bivariate_grid_verdict on 2 x 2 matrices over Q(l,r)."""

    @staticmethod
    def matrix(rows):
        return Matrix(QLR, [[QLR.coerce(x) for x in row] for row in rows])

    def test_a_singular_matrix_is_identically_zero_on_the_whole_grid(self):
        l, r = QLR.l(), QLR.r()
        # row 2 is l times row 1; each row spans degree 1 in l and in r
        m = self.matrix([[l + r, l * r], [l * l + l * r, l * l * r]])
        verdict = reducibility._bivariate_grid_verdict(m, 4)
        dl = dr = 1 + 1
        assert verdict.verdict == "identically_zero" and not verdict.probabilistic
        assert verdict.proof == {"technique": "grid", "degree_bounds": [dl, dr],
                                 "points": [dl + 1, dr + 1], "all_zero": True}
        assert verdict.witness == {}

    def test_a_nonsingular_matrix_gives_its_first_nonzero_grid_point(self):
        l, r = QLR.l(), QLR.r()
        one = QLR.one()
        # det = l + r^2 + r - l^2 r, which vanishes at the first grid point (2, 2)
        m = self.matrix([[l + r, l * r], [l + one, r + one]])
        verdict = reducibility._bivariate_grid_verdict(m, 4)
        assert verdict.verdict == "nonzero"
        assert verdict.proof == {"technique": "grid", "degree_bounds": [2, 2]}
        grid = [(lv, rv) for rv in (2, -2, 3) for lv in (2, -2, 3)]
        dets = [oracles.naive_det([[x.evaluate(rat(lv), rat(rv)) for x in row] for row in m.rows])
                for lv, rv in grid]
        first = next(i for i, d in enumerate(dets) if d)
        assert first > 0
        assert verdict.witness == {"l": str(grid[first][0]), "r": str(grid[first][1])}

    def test_the_degree_bound_spans_the_whole_row(self):
        # det = l - 2: no entry spans a degree in l, but row 1 does, from
        # the 2 to the l, so the grid needs a second value of l
        l = QLR.l()
        m = self.matrix([[l, 2], [1, 1]])
        verdict = reducibility._bivariate_grid_verdict(m, 4)
        assert verdict.verdict == "nonzero"
        assert verdict.proof == {"technique": "grid", "degree_bounds": [1, 0]}
        assert verdict.witness == {"l": "-2", "r": "2"}


class TestOnePoint:
    """A point is (n, Locus, r): an l off the catalog is carried by its locus."""

    def test_a_generic_locus_with_l_reports_as_the_custom_one(self):
        for n, l_val, r_val in ((4, rat(5), rat(2)), (5, rat(-7, 3), rat(37, 11))):
            generic = kernel_k(n, named_locus("generic", n, custom_l=l_val), r_val).to_json_obj()
            custom = kernel_k(n, named_locus("custom", n, custom_l=l_val), r_val).to_json_obj()
            assert generic.pop("locus") == "generic" and custom.pop("locus") == "custom"
            assert generic == custom

    def test_the_generic_locus_has_no_point(self):
        with pytest.raises(ValueError):
            rep_at(4, GENERIC, rat(2))

    @pytest.mark.parametrize("n, locus, seed", [(4, "generic", 3), (5, "l=r", 11),
                                                (4, "custom", 7)])
    def test_sampled_det_is_the_cli_det_at_its_seed(self, n, locus, seed, capsys):
        args = ["det", "--n", str(n), "--locus", locus, "--mode", "sampled", "--seed", str(seed)]
        custom_l = None
        if locus == "custom":
            custom_l = rat(5)
            args += ["--l", "5/1"]
        point = named_locus(locus, n, custom_l=custom_l)
        verdict = det_on_locus(n, point, "sampled", seed=seed)
        # the draws are those of one random.Random(seed), handed to the sampler
        assert verdict == reducibility._det_sampled(n, point, random.Random(seed))
        assert cli.main(args) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj.pop("command") == "det" and obj.pop("seed") == seed
        obj.pop("expected")
        assert obj == verdict.to_json_obj()

    def test_sampled_det_points_at_a_seed(self):
        verdict = det_on_locus(5, named_locus("l=r", 5), "sampled", seed=11)
        assert [(p["l"], p["r"]) for p in verdict.proof["points"]] == [
            ("-34/35", "-34/35"), ("-7403/9624", "-7403/9624"), ("778/2097", "778/2097")]
