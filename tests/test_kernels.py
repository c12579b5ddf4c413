"""Dense polynomial kernels: packing, Z[x] and GF(p)[x] semantics, clearing Q[x] into Z[x]."""

import random

import pytest

from lkwb import kernels
from lkwb.kernels import Rat

import oracles


def random_poly(rng, deg, bits=48):
    p = [rng.getrandbits(bits) - (1 << (bits - 1)) for _ in range(deg)]
    p.append(rng.getrandbits(bits) | 1)
    return p


def test_selected_backend_exposed():
    assert kernels.BACKEND == "pure"


class TestPacking:
    def test_round_trip(self):
        rng = random.Random(1)
        for _ in range(200):
            a, b = rng.randint(-70000, 70000), rng.randint(-70000, 70000)
            assert kernels.unpack_exp(kernels.pack_exp(a, b)) == (a, b)

    def test_additive(self):
        assert kernels.pack_exp(2, 3) + kernels.pack_exp(-5, 7) == kernels.pack_exp(-3, 10)


class TestPureSemantics:
    def test_poly_mul_divexact(self):
        rng = random.Random(2)
        for _ in range(30):
            a = random_poly(rng, rng.randint(0, 8))
            b = random_poly(rng, rng.randint(0, 8))
            p = kernels.poly_mul_int(a, b)
            assert kernels.poly_divexact_int(p, a) == b
            assert kernels.poly_sub(p, kernels.poly_mul_int(b, a)) == []
        assert kernels.poly_mul_int([], [1, 2]) == []
        assert kernels.poly_divexact_int([], [3]) == []

    def test_divexact_rejects_inexact(self):
        with pytest.raises(ValueError):
            kernels.poly_divexact_int([1, 0, 1], [1, 1])

    def test_gcd(self):
        # both inputs nonzero: content gcd times primitive gcd
        assert kernels.poly_gcd_int([6, 6], [4, 4]) == [2, 2]
        assert kernels.poly_gcd_int([6, 6], [6, 6]) == [6, 6]
        # one input zero: the primitive part of the other
        assert kernels.poly_gcd_int([], [6, 6]) == [1, 1]
        assert kernels.poly_gcd_int([-6, -6], []) == [1, 1]
        assert kernels.poly_gcd_int([], []) == []
        rng = random.Random(3)
        for _ in range(30):
            a = random_poly(rng, rng.randint(0, 5), bits=16)
            b = random_poly(rng, rng.randint(0, 5), bits=16)
            g = random_poly(rng, rng.randint(0, 3), bits=8)
            ag = kernels.poly_mul_int(a, g)
            bg = kernels.poly_mul_int(b, g)
            got = kernels.poly_gcd_int(ag, bg)
            # the gcd divides both inputs (exact division succeeds) ...
            kernels.poly_divexact_int(ag, got)
            kernels.poly_divexact_int(bg, got)
            # ... and is divisible by the primitive part of the planted g
            cont = kernels.poly_content_int(g)
            gp = [c // cont for c in g]
            if gp[-1] < 0:
                gp = [-c for c in gp]
            kernels.poly_divexact_int(got, gp)

    def test_bareiss_det_against_expansion(self):
        rng = random.Random(4)
        for n in (1, 2, 3, 4):
            for _ in range(10):
                m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
                assert kernels.bareiss_det_int(m) == _det_expansion(m)

    def test_bareiss_polyint_matches_int_evaluation(self):
        rng = random.Random(5)
        for _ in range(10):
            m = [[random_poly(rng, rng.randint(0, 3), bits=10) for _ in range(3)] for _ in range(3)]
            d = oracles.bareiss_det_polyint(m)
            for x in (2, -1, 5):
                mx = [[kernels.poly_eval_int(e, x) for e in row] for row in m]
                assert kernels.poly_eval_int(d, x) == kernels.bareiss_det_int(mx)


def _det_expansion(m):
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j]:
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            total += (-1) ** j * m[0][j] * _det_expansion(minor)
    return total


def _trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


class TestAgainstSympy:
    """Z[x] and GF(p)[x] helpers against sympy's Poly, on Hypothesis inputs."""

    @pytest.fixture
    def env(self):
        hyp = pytest.importorskip("hypothesis")
        sympy = pytest.importorskip("sympy")
        st = hyp.strategies
        x = sympy.Symbol("x")
        rats = st.builds(lambda n, d: Rat(n) / d, st.integers(-20, 20), st.integers(1, 6))
        qpolys = st.lists(rats, max_size=6).map(_trim)
        settings = hyp.settings(max_examples=80, deadline=None, derandomize=True)

        def to_sympy(coeffs, **kw):
            terms = [sympy.Rational(int(c.numerator), int(c.denominator)) for c in reversed(coeffs)]
            return sympy.Poly(terms or [0], x, **kw)

        def from_sympy(poly):
            return _trim(Rat(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs()))

        return hyp, st, qpolys, settings, to_sympy, from_sympy

    def test_pseudo_divmod_sub_deriv(self, env):
        hyp, st, _, settings, to_sympy, from_sympy = env
        zpolys = st.lists(st.integers(-30, 30), max_size=7).map(_trim)

        @settings
        @hyp.given(zpolys, zpolys.filter(bool))
        def check(a, b):
            sa, sb = to_sympy(a, domain="ZZ"), to_sympy(b, domain="ZZ")
            assert kernels.poly_sub(a, b) == from_sympy(sa.sub(sb))
            assert kernels.poly_deriv(a) == from_sympy(sa.diff())
            s, q, r = kernels.poly_pseudo_divmod(a, b)
            scaled = [s * c for c in a]
            assert kernels.poly_sub(kernels.poly_sub(scaled, kernels.poly_mul_int(q, b)), r) == []
            assert len(r) < len(b)
            # s = lc(b)^k, with k no larger than prem's exponent
            full = max(len(a) - len(b) + 1, 0)
            k, power = 0, 1
            while power != s:
                assert k < full
                k, power = k + 1, power * b[-1]
            assert [b[-1] ** (full - k) * c for c in r] == from_sympy(sa.prem(sb))

        check()

    def test_qpoly_to_int_round_trip(self, env):
        hyp, st, qpolys, settings, to_sympy, from_sympy = env

        @settings
        @hyp.given(qpolys, qpolys)
        def check(a, g):
            poly = to_sympy(a, domain="QQ") * to_sympy(g, domain="QQ")
            coeffs = from_sympy(poly)
            scale, ints = kernels.qpoly_to_int(coeffs)
            assert [scale * c for c in ints] == coeffs
            assert all(type(c) is int for c in ints)
            if coeffs:
                want = poly.clear_denoms(convert=True)[1].primitive()[1]
                assert ints == [int(c) for c in from_sympy(want)]
                assert scale > 0
            else:
                assert ints == []

        check()

    def test_yun_squarefree_against_sqf_list(self, env):
        hyp, st, _, settings, to_sympy, from_sympy = env
        from lkwb.reducibility import _yun_squarefree

        factors = st.lists(st.integers(-6, 6), min_size=2, max_size=4).map(_trim).filter(
            lambda f: len(f) > 1 and kernels.poly_content_int(f) == 1)

        @settings
        @hyp.given(st.lists(st.tuples(factors, st.integers(1, 3)), min_size=1, max_size=3))
        def check(parts):
            p = [1]
            for f, m in parts:
                for _ in range(m):
                    p = kernels.poly_mul_int(p, f)
            if p[-1] < 0:
                p = [-c for c in p]
            _, want = to_sympy([Rat(c) for c in p], domain="ZZ").sqf_list()
            assert _yun_squarefree(p) == [([int(c) for c in from_sympy(f)], m) for f, m in want]

        check()

    def test_poly_gcd_int_nonzero_inputs(self, env):
        hyp, st, _, settings, to_sympy, from_sympy = env
        zpolys = st.lists(st.integers(-30, 30), min_size=1, max_size=5).map(_trim).filter(bool)

        @settings
        @hyp.given(zpolys, zpolys, zpolys)
        def check(a, b, g):
            a, b = kernels.poly_mul_int(a, g), kernels.poly_mul_int(b, g)
            want = from_sympy(to_sympy(a, domain="ZZ").gcd(to_sympy(b, domain="ZZ")))
            if want[-1] < 0:
                want = [-c for c in want]
            assert kernels.poly_gcd_int(a, b) == want

        check()

    def test_modp_helpers(self, env):
        hyp, st, _, settings, to_sympy, from_sympy = env

        @st.composite
        def cases(draw):
            p = draw(st.sampled_from([2, 3, 5, 7, 13, 10007]))
            polys = st.lists(st.integers(0, p - 1), max_size=7).map(_trim)
            mod = draw(polys.filter(bool))
            return p, draw(polys), draw(polys), mod

        @settings
        @hyp.given(cases())
        def check(case):
            p, a, b, mod = case

            def sym(c):
                return to_sympy([Rat(v) for v in c], modulus=p)

            def back(poly):
                return _trim(int(c) % p for c in from_sympy(poly))

            assert kernels.modp_poly_rem(a, mod, p) == back(sym(a).rem(sym(mod)))
            if a and b:
                assert kernels.modp_poly_mulmod(a, b, mod, p) == back((sym(a) * sym(b)).rem(sym(mod)))
            got = kernels.modp_poly_gcd(a, b, p)
            want = back(sym(a).gcd(sym(b)))
            if got:
                inv = pow(got[-1], -1, p)
                got = [c * inv % p for c in got]
            assert got == want

        check()


    def test_modp_poly_mul(self, env):
        # inputs in Z, not reduced mod p, whose product may vanish at the top mod p
        hyp, st, _, settings, to_sympy, from_sympy = env

        @st.composite
        def cases(draw):
            p = draw(st.sampled_from([2, 3, 5, 7, 13, 10007]))
            polys = st.lists(st.integers(-2 * p, 2 * p), max_size=6).map(_trim)
            return p, draw(polys), draw(polys)

        @settings
        @hyp.given(cases())
        def check(case):
            p, a, b = case
            want = to_sympy([Rat(c) for c in a], modulus=p) * to_sympy([Rat(c) for c in b], modulus=p)
            assert kernels.modp_poly_mul(a, b, p) == _trim(int(c) % p for c in from_sympy(want))

        check()
        assert kernels.modp_poly_mul([2], [3], 3) == []
        assert kernels.modp_poly_mul([1, 2], [0, 5], 5) == []


class TestModpReconstruction:
    """Newton interpolation and rational reconstruction over GF(p)."""

    P = (1 << 61) - 1

    @pytest.fixture
    def fractions(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        coeffs = st.integers(0, self.P - 1)

        @st.composite
        def draw(draw):
            a = _trim(draw(st.lists(coeffs, max_size=6)))
            b = _trim(draw(st.lists(coeffs, max_size=6)) + [1])
            if not a:
                b = [1]
            # deg a + deg b <= points - 2, at the first grid points 2, -2, 3, -3, ...;
            # recovery is certain when 2 (deg a + deg b) < points, and beyond that
            # could fail only if another quotient were at least as large as the pair's
            count = len(a) + len(b) + draw(st.integers(0, 2))
            xs = [s * (2 + i // 2) for i, s in zip(range(max(count, 1)), [1, -1] * 8)]
            return a, b, xs

        settings = hyp.settings(max_examples=150, deadline=None, derandomize=True)
        return hyp, draw(), settings

    def test_interpolation_through_the_points(self):
        p = self.P
        rng = random.Random(5)
        for count in range(1, 12):
            xs = rng.sample(range(-50, 50), count)
            ys = [rng.randrange(p) for _ in xs]
            u = kernels.modp_interpolate(xs, ys, p)
            assert len(u) <= count
            assert [kernels.modp_poly_eval(u, x, p) for x in xs] == ys

    def test_reconstruction_round_trip(self, fractions):
        hyp, cases, settings = fractions
        p = self.P

        @settings
        @hyp.given(cases)
        def check(case):
            a, b, xs = case
            hyp.assume(all(kernels.modp_poly_eval(b, x, p) for x in xs))
            ys = [kernels.modp_poly_eval(a, x, p) * pow(kernels.modp_poly_eval(b, x, p), -1, p)
                  for x in xs]
            u = kernels.modp_interpolate(xs, ys, p)
            mod = [1]
            for x in xs:
                mod = kernels.modp_poly_mul(mod, [-x % p, 1], p)
            assert kernels.modp_ratrecon(u, mod, p) == (a, b)

        check()

    def test_reconstruction_refuses_a_shared_factor(self):
        # at r = 1, ..., 6 the values 0, 1, 1/2, ..., 1/5: the largest quotient,
        # of degree 3, comes after (r - 1) / (r - 1)^2, whose denominator
        # vanishes at 1
        p = 101
        xs = range(1, 7)
        mod = [1]
        for x in xs:
            mod = kernels.modp_poly_mul(mod, [-x % p, 1], p)
        u = kernels.modp_interpolate(xs, [0] + [pow(x - 1, -1, p) for x in xs[1:]], p)
        assert kernels.modp_ratrecon(u, mod, p) is None
        # 1 / (r + 1) at the same points is found
        u = kernels.modp_interpolate(xs, [pow(x + 1, -1, p) for x in xs], p)
        assert kernels.modp_ratrecon(u, mod, p) == ([1], [1, 1])

    def test_reconstruction_needs_a_confirming_point(self):
        # mod = (r - 1)(r - 2): u = r - 1 fits two values with no point to spare,
        # so its only quotient has degree 1; a zero u is 0 / 1
        p = 101
        mod = kernels.modp_poly_mul([p - 1, 1], [p - 2, 1], p)
        assert kernels.modp_ratrecon([], mod, p) == ([], [1])
        assert kernels.modp_ratrecon([p - 1, 1], mod, p) is None


class TestRatreconInt:
    """Wang's rational reconstruction of one residue mod p."""

    def test_every_residue_mod_a_small_prime(self):
        # bound isqrt(101 // 2) = 7: each fraction within it is found from its
        # residue, and every answer is within it, in lowest terms, and agrees mod p
        p, bound = 101, 7
        fractions = {Rat(a, b) for a in range(-bound, bound + 1) for b in range(1, bound + 1)}
        for x in fractions:
            assert kernels.ratrecon_int(x.numerator * pow(x.denominator, -1, p) % p, p) == x
        for u in range(p):
            x = kernels.ratrecon_int(u, p)
            if x is not None:
                assert abs(x.numerator) <= bound and x.denominator <= bound
                assert (x.numerator - x.denominator * u) % p == 0
        assert sum(kernels.ratrecon_int(u, p) is None for u in range(p)) == p - len(fractions)

    def test_round_trip_mod_a_mersenne_prime(self):
        p = (1 << 61) - 1
        bound = (1 << 30) - 1  # isqrt(p // 2)
        rng = random.Random(9)
        for _ in range(200):
            x = Rat(rng.randint(-bound, bound), rng.randint(1, bound))
            assert kernels.ratrecon_int(x.numerator * pow(x.denominator, -1, p) % p, p) == x
        assert kernels.ratrecon_int(bound, p) == bound
        # 1 / 2^31 is past the bound, and no fraction within it fits
        assert kernels.ratrecon_int(pow(1 << 31, -1, p), p) is None


class TestModpRoot:
    """A root in GF(p) by Cantor-Zassenhaus, or None."""

    def test_cyclotomic_moduli_split_mod_the_closure_prime(self):
        from lkwb.scalars import CYCLOTOMIC_MODULI

        p = (1 << 61) - 31
        assert p % 120 == 1
        for f in CYCLOTOMIC_MODULI.values():
            z = kernels.modp_poly_root(list(f), p)
            assert z is not None and kernels.modp_poly_eval(list(f), z, p) == 0

    def test_roots_of_random_products_of_linear_factors(self):
        rng = random.Random(7)
        for p in (101, 10007, (1 << 61) - 1):
            for _ in range(20):
                roots = [rng.randrange(p) for _ in range(rng.randint(1, 6))]
                f = [1]
                for z in roots:
                    f = kernels.modp_poly_mul(f, [-z % p, 1], p)
                # an irreducible quadratic factor adds no root
                f = kernels.modp_poly_mul(f, [1, 0, 1], p) if p % 4 == 3 else f
                assert kernels.modp_poly_root(f, p) in roots

    def test_none_without_a_root(self):
        # x^2 + 1 is irreducible mod 7, and x^2 - 2 mod 5
        assert kernels.modp_poly_root([1, 0, 1], 7) is None
        assert kernels.modp_poly_root([-2, 0, 1], 5) is None
        assert kernels.modp_poly_root([1, 0, 1], 13) in (5, 8)
