"""Scalar arithmetic: rationals, Laurent rational functions, quotient rings."""

import random
import time
from fractions import Fraction
from math import gcd, lcm

import pytest

from lkwb.errors import (
    DenominatorInL,
    DivisionByZero,
    ExponentOverflow,
    FieldMismatch,
    PoleAtSpecialization,
    ZeroDivisorEncountered,
)
from lkwb.scalars import (
    CYCLOTOMIC_MODULI,
    QLR,
    QQ,
    QR,
    LaurentPoly,
    NumberField,
    RatFunc,
    cyclotomic_field,
    m_of_r,
    parse_rat,
    poly_x_to_text,
    rat,
    scalar_to_text,
)
from lkwb.lkrep import substituted_rep

import oracles

L = RatFunc.var_l()
R = RatFunc.var_r()
ONE = RatFunc.one()


class TestFieldArith:
    def test_rational_add(self):
        assert rat(1, 2) + rat(1, 3) == rat(5, 6)

    def test_monomial_cancellation(self):
        assert L * R ** -1 * R == L

    def test_inverse_cancellation(self):
        assert ONE / (R * R - 1) * (R * R - 1) == ONE
        assert (L - R) / (R + 2) * (R + 2) == L - R
        assert ONE / (L * (R - 1)) * L * (R - 1) == ONE

    def test_denominator_in_l_raises(self):
        # a value of Q(l,r) is a Laurent polynomial in l over Q(r)
        with pytest.raises(DenominatorInL):
            ONE / (L - R)
        with pytest.raises(DenominatorInL):
            RatFunc(LaurentPoly.one(), LaurentPoly.var_l() + 1)
        with pytest.raises(DenominatorInL):
            (L + 1) ** -1
        with pytest.raises(DenominatorInL):
            (L + R).num.gcd((L - R).num)
        assert (L - R) / (L * R) == (L - R) * L ** -1 * R ** -1

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            rat(1) / rat(0)
        with pytest.raises(DivisionByZero):
            ONE / (L - L)

    def test_field_mismatch(self):
        f = cyclotomic_field("phi12")
        g = cyclotomic_field("phi20")
        with pytest.raises(FieldMismatch):
            f.gen() * g.gen()


class TestMOfR:
    def test_rational_point(self):
        assert m_of_r(rat(2)) == rat(-3, 2)

    def test_symbolic_satisfies_quadratic(self):
        m = m_of_r(R)
        assert not (R * R + m * R - 1)

    def test_zero_raises(self):
        with pytest.raises(DivisionByZero):
            m_of_r(rat(0))

    def test_algebraic_point_against_division_oracle(self):
        # independent oracle: extended-Euclid inverse of x modulo x^4 - x^2 + 1
        modulus = [Fraction(1), 0, Fraction(-1), 0, Fraction(1)]
        inv_x = oracles.ext_euclid_inverse([Fraction(0), Fraction(1)], modulus)
        m_oracle = [a - b for a, b in oracles.zip_pad(inv_x, [Fraction(0), Fraction(1)])]
        m_oracle = oracles.poly_mod_reduce(m_oracle, modulus)
        field = cyclotomic_field("phi12")
        x = field.gen()
        m = m_of_r(x)
        assert list(m.coeffs) == [rat(int(c.numerator), int(c.denominator))
                                  for c in m_oracle + [Fraction(0)] * (4 - len(m_oracle))]
        # frozen oracle value: m = -x^3
        assert m == -(x ** 3)
        # and the defining quadratic holds
        assert x * x + m * x - 1 == field.zero()
        assert x ** 6 == field.from_int(-1)


class TestSpecialize:
    def test_m_at_three_halves(self):
        assert m_of_r(R).evaluate(rat(1), rat(3, 2)) == rat(-5, 6)

    def test_parameter_dictionary_product(self):
        t = R ** 3 / L
        assert (L * t).evaluate(rat(5), rat(7)) == rat(343)

    def test_power_difference_nonzero(self):
        assert (R ** 6 - 1).evaluate(rat(1), rat(2)) == 63

    def test_pole(self):
        with pytest.raises(PoleAtSpecialization):
            (ONE / (R - 2)).evaluate(rat(1), rat(2))


class TestExactnessProperties:
    # field laws on 200 random triples per ground-field mode
    def _check_triples(self, sample, count=200, seed=5, invertible=bool):
        rng = random.Random(seed)
        for _ in range(count):
            a, b, c = sample(rng), sample(rng), sample(rng)
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            if invertible(a):
                assert a * (1 / a if not hasattr(a, "inverse") else a.inverse()) == 1

    def test_rationals(self):
        self._check_triples(lambda rng: QQ.random(rng))

    def test_function_field_bivariate(self):
        # Laurent polynomials in l over Q(r); the units are l^k times Q(r)^*
        self._check_triples(lambda rng: QLR.random(rng) / QR.random(rng), count=200,
                            invertible=lambda a: a and _one_power_of_l(a.num))

    def test_function_field_univariate(self):
        self._check_triples(lambda rng: QR.random(rng), count=200)

    def test_number_field(self):
        field = cyclotomic_field("phi12")
        self._check_triples(lambda rng: field.random(rng), count=200)


def _one_power_of_l(p):
    amin, amax, _, _ = p.exp_range()
    return amin == amax


class TestCyclotomic:
    def test_phi12_semisimple_regime(self):
        field = cyclotomic_field("phi12")
        x = field.gen()
        assert x ** 6 + 1 == field.zero()
        for k in (1, 2, 3):
            assert x ** (2 * k) != field.one()

    def test_phi20_phi24_orders(self):
        f20 = cyclotomic_field("phi20")
        assert f20.gen() ** 10 == f20.from_int(-1)
        f24 = cyclotomic_field("phi24")
        assert f24.gen() ** 12 == f24.from_int(-1)

    def test_inverse_round_trip(self):
        field = cyclotomic_field("phi20")
        rng = random.Random(3)
        for _ in range(20):
            x = field.random(rng)
            if x:
                assert x * x.inverse() == field.one()

    def test_zero_divisor_reducible_modulus(self):
        # x^2 - 1 = (x - 1)(x + 1) is reducible; x - 1 is a zero divisor
        field = NumberField((-1, 0, 1))
        elem = field.element([-1, 1])
        assert elem * field.element([1, 1]) == field.zero()
        with pytest.raises(ZeroDivisorEncountered):
            elem.inverse()

    def test_modulus_must_be_monic_in_integers(self):
        for modulus in ((rat(1, 2), 0, 1), (rat(-1, 2), 0, 1), (-2, rat(1, 3), 0, 1),
                        (1, 0, 2), (1, 0, -1), (rat(3, 2), rat(1, 2)), (1,)):
            with pytest.raises(ValueError):
                NumberField(modulus)
        # integral Rat coefficients are integers
        assert NumberField((rat(-1), 0, rat(1))) == NumberField((-1, 0, 1))
        assert NumberField((rat(-1), 0, rat(1))).modulus == (-1, 0, 1)


# the quotient rings checked against the plain-Fraction reference: three
# cyclotomic moduli and one irreducible cubic
QUOTIENTS = {
    "phi12": cyclotomic_field("phi12"),
    "phi20": cyclotomic_field("phi20"),
    "phi24": cyclotomic_field("phi24"),
    "x^3 - x - 2": NumberField((-2, -1, 0, 1)),
}


def _fractions(x):
    return [Fraction(int(c.numerator), int(c.denominator)) for c in x.coeffs]


def _assert_canonical(x):
    field = x.field
    assert len(x.nums) == field.degree
    assert all(type(c) is int for c in x.nums) and type(x.den) is int
    assert x.den > 0
    assert gcd(x.den, *x.nums) == 1
    assert x.coeffs == tuple(rat(c, x.den) for c in x.nums)
    if not any(x.nums[1:]):  # a rational value equals its Rat, and hashes as it
        assert x == x.coeffs[0] and hash(x) == hash(x.coeffs[0])
    again = field.element(list(x.coeffs))
    assert again == x and hash(again) == hash(x) and again.to_text() == x.to_text()
    assert bool(x) == any(x.coeffs)


class TestQuotientRingAgainstReference:
    """+, -, *, inverse and ** in Q[x]/(f) against tests/oracles.py."""

    def _elements(self, hyp, d):
        st = hyp.strategies
        coeff = st.one_of(st.just(0), st.integers(-30, 30),
                          st.builds(rat, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 60)))
        return st.lists(coeff, min_size=0, max_size=d)

    @pytest.mark.parametrize("name", sorted(QUOTIENTS))
    def test_arithmetic_matches_reference(self, name):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        field = QUOTIENTS[name]
        modulus = [Fraction(int(c.numerator), int(c.denominator)) for c in field.modulus]
        elems = self._elements(hyp, field.degree)

        @hyp.settings(max_examples=60, deadline=None, derandomize=True)
        @hyp.given(elems, elems, st.integers(-3, 6))
        def check(ca, cb, e):
            a, b = field.element(ca), field.element(cb)
            fa, fb = _fractions(a), _fractions(b)
            for x in (a, b):
                _assert_canonical(x)
            cases = [
                (a + b, [p + q for p, q in zip(fa, fb)]),
                (a - b, [p - q for p, q in zip(fa, fb)]),
                (a * b, oracles.quotient_mul(fa, fb, modulus)),
                (-a, [-p for p in fa]),
            ]
            if b:
                cases.append((b.inverse(), oracles.quotient_inverse(fb, modulus)))
                cases.append((a / b, oracles.quotient_mul(fa, oracles.quotient_inverse(fb, modulus),
                                                          modulus)))
            if a or e >= 0:
                cases.append((a ** e, oracles.quotient_pow(fa, e, modulus)))
            for got, expect in cases:
                _assert_canonical(got)
                assert _fractions(got) == expect
                assert (got == a) == (_fractions(got) == fa)

        check()

    def test_equal_values_from_different_denominators(self):
        field = QUOTIENTS["phi20"]
        half = field.element([rat(1, 2), rat(3, 2)])
        assert (half + half).nums == (1, 3, 0, 0, 0, 0, 0, 0) and (half + half).den == 1
        assert half - half == field.zero() and (half - half).den == 1
        third = field.element([rat(1, 3)])
        assert (half * 6 - third * 3).nums == (2, 9, 0, 0, 0, 0, 0, 0)

    def test_integral_modulus_arithmetic_builds_no_fraction(self, monkeypatch):
        # +, -, *, inverse, / and negative ** of elements with integer or
        # fractional coefficients over an integral modulus stay in ints: no
        # Fraction is constructed
        field = QUOTIENTS["phi24"]
        rng = random.Random(17)
        xs = [field.random(rng) for _ in range(6)] + [field.gen() ** 5, field.one()]
        assert all(xs)
        created = []
        real_new = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            created.append(args)
            return real_new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting_new)
        results = [(a + b, a - b, a * b, -a, a / b) for a in xs for b in xs]
        inverses = [(a.inverse(), a ** -3) for a in xs]
        mixed = [(a * 6, 3 * a, a + 1, 1 - a, a == 1) for a in xs] + [field.from_int(-3)]
        monkeypatch.undo()
        assert len(results) == len(xs) ** 2
        assert created == []
        three = field.one() + field.one() + field.one()
        for a, (six_a, three_a, plus, minus, is_one) in zip(xs, mixed):
            assert six_a == a * (three + three) and three_a == a * three
            assert plus == a + field.one() and minus == field.one() - a
            assert is_one == (a == field.one())
        assert mixed[-1] == -three
        for a, (inv, cube) in zip(xs, inverses):
            assert a * inv == field.one() and cube * a ** 3 == field.one()

    def test_cubic_modulus(self):
        y = QUOTIENTS["x^3 - x - 2"].gen()
        assert y ** 3 == 2 + y
        assert (y ** 4).nums == (0, 2, 1) and (y ** 4).den == 1
        # (y^2 - 1) y = 2, so 1/y = (y^2 - 1)/2
        assert y.inverse().nums == (-1, 0, 1) and y.inverse().den == 2
        assert y * y.inverse() == 1
        _assert_canonical(y ** -4)


def _laurent_ref(p):
    """The plain-Fraction reference dict of a LaurentPoly."""
    return {key: Fraction(int(c.numerator), int(c.denominator)) for key, c in p.pairs()}


def _assert_laurent_canonical(p):
    # every coefficient is a nonzero int, and an integral Rat is taken as its int
    assert all(type(c) is int and c for c in p.terms.values())
    again = LaurentPoly.from_pairs(p.pairs())
    assert again == p and hash(again) == hash(p) and again.to_text() == p.to_text()
    as_rats = LaurentPoly.from_pairs((k, rat(c)) for k, c in p.pairs())
    assert as_rats.terms == p.terms and all(type(c) is int for c in as_rats.terms.values())


def _assert_ratfunc_canonical(f):
    _assert_laurent_canonical(f.num)
    _assert_laurent_canonical(f.den)
    assert f.den.is_univariate_r() and f.den.exp_range()[2] == 0
    assert f.den.leading_coeff() > 0 and gcd(f.den.content(), f.num.content()) == 1
    again = RatFunc(f.num * 3, f.den * 3)
    assert again == f and again.to_text() == f.to_text()


def _over_lcm(pairs):
    """(ints, d): pairs of rational coefficients as int numerators over d, the lcm of the denominators."""
    d = lcm(*(rat(c).denominator for _, c in pairs))
    return [(k, int(rat(c) * d)) for k, c in pairs], d


def _fraction(num_pairs, den_pairs=()):
    """num / den for pairs of rational coefficients, den 1 when it is zero, on int numerators."""
    (num, dn), (den, dd) = _over_lcm(num_pairs), _over_lcm(den_pairs)
    den = LaurentPoly.from_pairs(den)
    if not den:
        den, dd = LaurentPoly.one(), 1
    return RatFunc(LaurentPoly.from_pairs(num).scale(dd), den.scale(dn))


def _reference_laurent_text(p):
    """The text of a dict of Fraction coefficients, terms in descending (l, r) exponents."""
    chunks = []
    for (a, b), c in sorted(p.items(), reverse=True):
        parts = [v if e == 1 else f"{v}^{e}" for v, e in (("l", a), ("r", b)) if e]
        text = "*".join([str(abs(c))] * (abs(c) != 1 or not parts) + parts)
        chunks.append(("-" if c < 0 else "") + text if not chunks
                      else ("- " if c < 0 else "+ ") + text)
    return " ".join(chunks) or "0"


def _reference_text(sympy, num, den):
    """The text of num / den, dicts of Fraction coefficients with den in r alone.

    sympy cancels the fraction.  Its denominator, less the monomial it
    shares with every term, is c P with P in Z[r] of content 1 and a
    positive leading coefficient; the numerator over c and that monomial
    keeps Fraction coefficients.
    """
    sl, sr = sympy.symbols("l r")

    def expr(p):
        return sum((sympy.Rational(c.numerator, c.denominator) * sl ** a * sr ** b
                    for (a, b), c in p.items()), sympy.Integer(0))

    n, d = sympy.fraction(sympy.cancel(expr(num) / expr(den)))
    if n == 0:
        return "0"
    n, d = (sympy.Poly(x, sl, sr).terms() for x in (n, d))
    a0, b0 = (min(m[i] for m, _ in d) for i in (0, 1))
    assert all(a == a0 for (a, _), _ in d)
    coeffs = [Fraction(int(c.p), int(c.q)) for _, c in d]
    scale = lcm(*(c.denominator for c in coeffs))
    lead = max(d)[1]
    c = Fraction(gcd(*(int(v * scale) for v in coeffs)), scale) * (1 if lead > 0 else -1)
    num = {(a - a0, b - b0): Fraction(int(v.p), int(v.q)) / c for (a, b), v in n}
    den = {(0, b - b0): Fraction(int(v.p), int(v.q)) / c for (_, b), v in d}
    if den == {(0, 0): 1}:
        return _reference_laurent_text(num)
    return f"({_reference_laurent_text(num)})/({_reference_laurent_text(den)})"


def _same_fraction(f, num, den):
    """f == num / den, cross-multiplied in the reference arithmetic."""
    return (oracles.laurent_mul(_laurent_ref(f.num), den)
            == oracles.laurent_mul(num, _laurent_ref(f.den)))


class TestLaurentAgainstReference:
    """LaurentPoly and RatFunc arithmetic against the dict-of-Fraction reference."""

    def _pairs(self, hyp, univariate=False, max_size=5, span=(2, 4)):
        st = hyp.strategies
        coeff = st.one_of(st.just(0), st.integers(-30, 30), st.integers(-10 ** 20, 10 ** 20),
                          st.builds(rat, st.integers(-40, 40), st.sampled_from([1, 2, 3, 4, 6])))
        a = st.just(0) if univariate else st.integers(-span[0], span[0])
        return st.lists(st.tuples(st.tuples(a, st.integers(-span[1], span[1])), coeff),
                        max_size=max_size)

    def test_laurent_arithmetic_matches_reference(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        pairs = self._pairs(hyp)
        scalar = st.one_of(st.integers(-12, 12), st.builds(rat, st.integers(-12, 12), st.integers(1, 6)))
        mono = st.tuples(st.integers(-2, 2), st.integers(-4, 4),
                         st.sampled_from([1, -1, 2, -3, rat(1, 2), rat(-2, 3)]))

        @hyp.settings(max_examples=80, deadline=None, derandomize=True)
        @hyp.given(pairs, pairs, scalar, st.integers(0, 3), mono, st.integers(-3, 3))
        def check(pa, pb, c, e, m, me):
            # the ring Z[l^+-1, r^+-1] on the integer numerators of pa and pb
            (ia, _), (ib, _) = _over_lcm(pa), _over_lcm(pb)
            a, b = LaurentPoly.from_pairs(ia), LaurentPoly.from_pairs(ib)
            fa, fb = oracles.laurent(ia), oracles.laurent(ib)
            mono_poly = LaurentPoly.term(m[2].numerator, m[0], m[1])
            ic = rat(c).numerator
            fm = oracles.laurent([((m[0], m[1]), m[2].numerator)])
            sign = 1 if m[2] > 0 else -1
            unit = LaurentPoly.term(sign, m[0], m[1])
            fu = oracles.laurent([((m[0], m[1]), sign)])
            cases = [
                (a, fa),
                (a + b, oracles.laurent_add(fa, fb)),
                (a - b, oracles.laurent_add(fa, oracles.laurent_neg(fb))),
                (a * b, oracles.laurent_mul(fa, fb)),
                (-a, oracles.laurent_neg(fa)),
                (a ** e, oracles.laurent_pow(fa, e)),
                (unit ** me, oracles.laurent_pow(fu, me)),
                (a * mono_poly, oracles.laurent_mul(fa, fm)),
                (a.scale(ic), oracles.laurent_mul(fa, oracles.laurent([((0, 0), ic)]))),
                (a.divexact(unit), oracles.laurent_mul(fa, oracles.laurent_pow(fu, -1))),
            ]
            if b:
                cases.append(((a * b).divexact(b), fa))
            # a monomial divides exactly when its coefficient divides every coefficient
            quotient = oracles.laurent_mul(fa, oracles.laurent_pow(fm, -1))
            if all(v.denominator == 1 for v in quotient.values()):
                cases.append((a.divexact(mono_poly), quotient))
            else:
                with pytest.raises(ValueError):
                    a.divexact(mono_poly)
            for got, expect in cases:
                _assert_laurent_canonical(got)
                assert _laurent_ref(got) == expect
            # a fraction is not in the ring, and only a unit has an inverse there
            if rat(c).denominator != 1:
                with pytest.raises(ValueError):
                    a.scale(c)
            if abs(m[2].numerator) != 1:
                with pytest.raises(ValueError):
                    mono_poly ** -1
            content = a.content()
            assert type(content) is int and content == oracles.laurent_content(fa)
            point = (rat(3, 2), rat(-5, 7))
            assert a.evaluate(*point) == oracles.laurent_evaluate(fa, *point)

            # the field Q(l,r) on the values of pa and pb, rational coefficients
            # in the denominator
            fa, fb = oracles.laurent(pa), oracles.laurent(pb)
            fm = oracles.laurent([((m[0], m[1]), m[2])])
            a, b = _fraction(pa), _fraction(pb)
            mono = RatFunc.from_laurent(LaurentPoly.term(1, m[0], m[1])) * m[2]
            mul = oracles.laurent_mul
            cases = [
                (a, fa),
                (a + b, oracles.laurent_add(fa, fb)),
                (a - b, oracles.laurent_add(fa, oracles.laurent_neg(fb))),
                (a * b, mul(fa, fb)),
                (-a, oracles.laurent_neg(fa)),
                (a ** e, oracles.laurent_pow(fa, e)),
                (mono ** me, oracles.laurent_pow(fm, me)),
                (a * mono, mul(fa, fm)),
                (a * c, mul(fa, oracles.laurent([((0, 0), c)]))),
                (a / mono, mul(fa, oracles.laurent_pow(fm, -1))),
            ]
            if b and _one_power_of_l(b.num):
                cases.append(((a * b) / b, fa))
            for got, expect in cases:
                _assert_ratfunc_canonical(got)
                assert _same_fraction(got, expect, {(0, 0): Fraction(1)})
            assert a.evaluate(*point) == oracles.laurent_evaluate(fa, *point)

        check()

    def test_univariate_gcd_matches_reference(self):
        hyp = pytest.importorskip("hypothesis")
        pairs = self._pairs(hyp, univariate=True)
        extra = self._pairs(hyp, univariate=True, max_size=3)

        @hyp.settings(max_examples=60, deadline=None, derandomize=True)
        @hyp.given(pairs, pairs, extra)
        def check(pa, pb, pc):
            # a common factor c makes a nontrivial gcd likely
            common = LaurentPoly.from_pairs(_over_lcm(pc)[0]) or LaurentPoly.one()
            a, b = (LaurentPoly.from_pairs(_over_lcm(x)[0]) * common for x in (pa, pb))
            hyp.assume(a and b)
            got = a.gcd(b)
            _assert_laurent_canonical(got)
            assert _laurent_ref(got) == oracles.laurent_gcd_r(_laurent_ref(a), _laurent_ref(b))
            assert a.divexact(got) * got == a and b.divexact(got) * got == b

        check()

    @pytest.mark.parametrize("univariate", [True, False], ids=["Q(r)", "Q(l,r)"])
    def test_ratfunc_arithmetic_matches_reference(self, univariate):
        # numerators in l and r over Q(l,r), denominators in r alone
        hyp = pytest.importorskip("hypothesis")
        nums = self._pairs(hyp, univariate=univariate, max_size=4)
        dens = self._pairs(hyp, univariate=True, max_size=4)

        @hyp.settings(max_examples=50, deadline=None, derandomize=True)
        @hyp.given(nums, dens, nums, dens)
        def check(pa, pb, pc, pd):
            na, da = oracles.laurent(pa), oracles.laurent(pb) or {(0, 0): Fraction(1)}
            nb, db = oracles.laurent(pc), oracles.laurent(pd) or {(0, 0): Fraction(1)}
            f, g = _fraction(pa, pb), _fraction(pc, pd)
            mul = oracles.laurent_mul
            cases = [
                (f, na, da),
                (f + g, oracles.laurent_add(mul(na, db), mul(nb, da)), mul(da, db)),
                (f - g, oracles.laurent_add(mul(na, db), oracles.laurent_neg(mul(nb, da))),
                 mul(da, db)),
                (f * g, mul(na, nb), mul(da, db)),
            ]
            if g and _one_power_of_l(g.num):
                cases.append((f / g, mul(na, db), mul(da, nb)))
            elif f and g:
                with pytest.raises(DenominatorInL):
                    f / g
            for got, num, den in cases:
                _assert_ratfunc_canonical(got)
                assert _same_fraction(got, num, den)

        check()

    def test_gcd_and_lowest_terms_match_sympy(self):
        # numerators in Z[l^-1, l, r^-1, r] over denominators in Z[r]: the
        # numerator c (d l^-3 + a) and the denominator c d b share c, and the
        # l^-3 column shares d too, so every l-coefficient counts
        hyp = pytest.importorskip("hypothesis")
        sympy = pytest.importorskip("sympy")
        st = hyp.strategies
        coeff = st.one_of(st.integers(-9, 9), st.builds(rat, st.integers(-9, 9), st.sampled_from([2, 3])))

        def pairs(a):
            return st.lists(st.tuples(st.tuples(a, st.integers(-2, 2)), coeff), min_size=1, max_size=3)

        sl, sr = sympy.symbols("l r")

        def to_sympy(p):
            """p times the monomial that makes its minimum exponents 0, over Z."""
            amin, _, bmin, _ = p.exp_range()
            expr = sum(sympy.Rational(c.numerator, c.denominator)
                       * sl ** (a - amin) * sr ** (b - bmin) for (a, b), c in p.pairs())
            return sympy.Poly(expr, sl, sr, domain="QQ").clear_denoms(convert=True)[1]

        r_only = pairs(st.just(0))

        @hyp.settings(max_examples=80, deadline=None, derandomize=True)
        @hyp.given(pairs(st.integers(-2, 2)), r_only, r_only, r_only)
        def check(pa, pb, pc, pd):
            a, b, c, d = (LaurentPoly.from_pairs(_over_lcm(x)[0]) for x in (pa, pb, pc, pd))
            hyp.assume(a and b and c and d)
            ac, bc = (d.shift(-3, 0) + a) * c, d * b * c
            want = sympy.gcd(to_sympy(ac), to_sympy(bc)).primitive()[1]
            for g in (ac.gcd(bc), bc.gcd(ac)):
                assert g.is_univariate_r() and to_sympy(g) in (want, -want)
                assert ac.divexact(g) * g == ac and bc.divexact(g) * g == bc
            f = RatFunc(ac * 6, bc * 3)
            assert _same_fraction(f, _laurent_ref(ac * 2), _laurent_ref(bc))
            _, den = sympy.fraction(sympy.cancel(to_sympy(ac).as_expr() / to_sympy(bc).as_expr()))
            want = sympy.Poly(den, sl, sr).primitive()[1]
            assert to_sympy(f.den).primitive()[1] in (want, -want)
            amin, _, bmin, _ = f.den.exp_range()
            assert (amin, bmin) == (0, 0)
            assert all(type(v) is int for v in f.den.terms.values())
            _assert_ratfunc_canonical(f)  # coprime contents, positive leading coefficient
            with pytest.raises(DenominatorInL):
                RatFunc(bc, ac)

        check()


class TestLaurentIntegerCoefficients:
    """The int/Rat boundary of LaurentPoly coefficients and its failure paths."""

    def test_exponent_overflow_on_every_path(self):
        # the bound on |exponent| is 2^16; each input reaches just past it
        r = LaurentPoly.var_r()
        half = LaurentPoly.term(1, 0, 2 ** 15)
        with pytest.raises(ExponentOverflow):
            LaurentPoly.from_pairs([((0, 1), 1), ((0, -(2 ** 16 + 1)), 3)])
        with pytest.raises(ExponentOverflow):
            (half + r) * (half + 1) * r
        with pytest.raises(ExponentOverflow):
            half * half * r
        with pytest.raises(ExponentOverflow):
            (r + 1).shift(2 ** 16 + 1, 0)
        with pytest.raises(ExponentOverflow):
            (half + r) ** 3
        with pytest.raises(ExponentOverflow):
            LaurentPoly.term(-1, 0, 2 ** 15) ** -3
        # every path reaches the bound itself without raising
        assert (half + r) * (half + 1) == half * half + half * (r + 1) + r
        assert (r + 1).shift(2 ** 16, -2 ** 16).exp_range() == (2 ** 16, 2 ** 16, -2 ** 16, 1 - 2 ** 16)
        assert (half + r) ** 2 == half * half + 2 * half * r + r * r
        assert LaurentPoly.term(-1, 0, 2 ** 14) ** -4 == LaurentPoly.term(1, 0, -2 ** 16)

    def test_dense_r_reads_the_exponents_off_the_keys(self):
        # univariate in r up to the exponent bound on both sides, and any l
        # exponent, however small, refused
        rng = random.Random(31)
        bound = 2 ** 16
        for _ in range(200):
            exps = rng.sample(range(-bound, bound + 1), rng.randint(1, 4))
            exps += rng.choice(([], [bound], [-bound], [bound, -bound]))
            pairs, _ = _over_lcm([((0, e), rat(rng.randint(-9, 9) or 1, rng.randint(1, 4)))
                                  for e in exps])
            p = LaurentPoly.from_pairs(pairs)
            lo, coeffs = p.to_dense_r()
            assert coeffs[-1] and lo == min(b for (_, b), _ in pairs)
            assert LaurentPoly.from_pairs(
                [((0, lo + i), c) for i, c in enumerate(coeffs) if c]) == p
        assert LaurentPoly.from_pairs([]).to_dense_r() == (0, [])
        for a, b in ((1, 0), (-1, 0), (1, -bound), (-1, bound), (bound, bound), (-bound, -bound)):
            with pytest.raises(ValueError):
                LaurentPoly.from_pairs([((a, b), 1), ((0, 3), 2)]).to_dense_r()

    def test_division_by_an_integer_gives_fractions(self):
        # in the ring a division by an integer is exact or refused; the
        # fraction is a RatFunc over the integer
        r = LaurentPoly.var_r()
        with pytest.raises(ValueError):
            (r + 1).divexact(LaurentPoly.const(2))
        half = RatFunc.from_laurent(r + 1) / 2
        assert (half.num, half.den) == (r + 1, LaurentPoly.const(2))
        assert half == _fraction([((0, 1), rat(1, 2)), ((0, 0), rat(1, 2))])
        assert half.to_text() == "1/2*r + 1/2"
        assert half * 2 == r + 1 and (half * 2).den == 1
        _assert_ratfunc_canonical(half * 2)
        even = (r * 6 + 4).divexact(LaurentPoly.const(-2))
        assert even == -3 * r - 2
        assert all(type(c) is int for c in even.terms.values())
        with pytest.raises(ValueError):
            (r * 2 + 1).divexact(LaurentPoly.term(3, 0, 1))
        thirds = RatFunc.from_laurent(r * 2 + 1) / RatFunc.from_laurent(LaurentPoly.term(3, 0, 1))
        assert thirds.to_text() == "2/3 + 1/3*r^-1"
        assert RatFunc.from_const(rat(1, 2)) + rat(1, 2) == 1

    def test_integral_results_of_fractional_operands_are_ints(self):
        half = rat(1, 2)
        r, l = RatFunc.var_r(), RatFunc.var_l()
        p = _fraction([((1, 0), half), ((0, 1), half)])  # (l + r) / 2
        results = [
            _fraction([((0, 1), half), ((0, 1), half)]),
            p + p,
            p - _fraction([((1, 0), rat(-1, 2)), ((0, 1), rat(-1, 2))]),
            p * 2,
            p * (r * 2 + l * 2),
            p * 4,
            p / half,
            (r * half) ** -1,
            RatFunc.from_const(rat(6, 3)),
        ]
        for q in results:
            assert q and q.den == 1, q
            _assert_ratfunc_canonical(q)
        assert LaurentPoly.const(rat(6, 3)).terms == {0: 2}

    def test_a_fraction_is_refused(self):
        # a true fraction is not in the ring; an integral Rat is its int
        for make in (lambda: LaurentPoly.from_pairs([((0, 1), rat(1, 2))]),
                     lambda: LaurentPoly.const(rat(-2, 3)),
                     lambda: LaurentPoly.term(rat(1, 2), 1, 0),
                     lambda: LaurentPoly.var_r().scale(rat(3, 2)),
                     lambda: LaurentPoly.var_r() + rat(1, 2),
                     lambda: LaurentPoly.var_r() * rat(1, 2)):
            with pytest.raises(ValueError):
                make()
        assert LaurentPoly.from_pairs([((0, 1), rat(4, 2))]).terms == {1: 2}
        # equality with a fraction is False, with an integral Rat that of its int
        assert not LaurentPoly.one() == rat(1, 2) and LaurentPoly.one() != rat(1, 2)
        assert LaurentPoly.const(2) == rat(2) and LaurentPoly.zero() == 0

    def test_a_rational_constant_lives_in_the_denominator(self):
        half = RatFunc.from_const(rat(1, 2))
        assert (half.num, half.den) == (LaurentPoly.one(), LaurentPoly.const(2))
        assert half.to_text() == "1/2" and half.const_value() == rat(1, 2)
        third = RatFunc.from_const(rat(-4, 6))
        assert (third.num, third.den) == (LaurentPoly.const(-2), LaurentPoly.const(3))
        assert RatFunc.from_const(3).den == 1 and RatFunc.from_const(3).const_value() == 3

    def test_inexact_division_raises(self):
        r, l = LaurentPoly.var_r(), LaurentPoly.var_l()
        start = time.perf_counter()
        # the leading term of r + 1 sits a power of l below that of l + r,
        # where the quotient's terms once ran down in r without end
        for a, b in [(r ** 2 + 1, r + 1), (l + r, l - r), (l + r, r + 1),
                     (l * r + 1, l + r ** 3), (l ** 2 + r, l * r - 1)]:
            with pytest.raises(ValueError):
                a.divexact(b)
        assert time.perf_counter() - start < 1
        with pytest.raises(DivisionByZero):
            (r + 1).divexact(LaurentPoly.zero())

    def test_integral_arithmetic_builds_no_fraction(self, monkeypatch):
        rng = random.Random(23)
        polys = [LaurentPoly.from_pairs([((rng.randint(-2, 2), rng.randint(-4, 4)),
                                          rng.randint(-9, 9)) for _ in range(rng.randint(1, 6))])
                 for _ in range(6)]
        created = []
        real_new = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            created.append(args)
            return real_new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting_new)
        results = [(a + b, a - b, a * b) for a in polys for b in polys]
        rep = substituted_rep(5, -1, 3)
        monkeypatch.undo()
        assert len(results) == len(polys) ** 2 and rep.dim == 10
        assert created == []


class TestHashAgreesWithEquality:
    def test_a_rational_value_hashes_as_its_rational(self):
        # values that compare equal hash equally, so a set keeps one of them:
        # a constant Laurent polynomial and a rational element of Q[x]/(f)
        # against the int or Fraction they equal
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        fields = [cyclotomic_field(name) for name in ("phi12", "phi20", "phi24")]

        @hyp.settings(max_examples=100, deadline=None, derandomize=True)
        @hyp.given(st.one_of(st.integers(-10 ** 30, 10 ** 30),
                             st.fractions(max_denominator=10 ** 12)))
        @hyp.example(0)
        @hyp.example(3)
        @hyp.example(Fraction(-4))
        def check(c):
            values = [field.from_rat(c) for field in fields]
            if Fraction(c).denominator == 1:
                values.append(LaurentPoly.const(c))
            for x in values:
                assert x == c
                assert hash(x) == hash(c)
                assert len({x, c}) == 1

        check()


class TestNormalization:
    def test_denominator_positive_leading_and_content_one(self):
        f = (L - R) / (LaurentPoly.from_pairs([((0, 2), -2), ((0, 0), 2)]))
        # den = -2r^2 + 2 normalizes to 2r^2 - 2 with the sign moved to num;
        # its content 2 shares nothing with num's, and text reads it as 1/2
        assert f.den.leading_coeff() > 0
        assert f.num == R.num - L.num
        assert f.den == LaurentPoly.from_pairs([((0, 2), 2), ((0, 0), -2)])
        assert f.to_text() == "(-1/2*l + 1/2*r)/(r^2 - 1)"
        # a content that the numerator shares is divided out of both
        g = (L * 2 + R * 4) / (LaurentPoly.from_pairs([((0, 2), -6), ((0, 0), 6)]))
        assert (g.num.content(), g.den.content(), g.den.leading_coeff()) == (1, 3, 3)
        assert g.to_text() == "(-1/3*l - 2/3*r)/(r^2 - 1)"
        _assert_ratfunc_canonical(g)

    def test_gcd_reduction_univariate(self):
        f = (R ** 2 - 1) / (R - 1)
        assert f == R + 1
        assert f.den == LaurentPoly.one()

    def test_zero_test_via_cross_multiplication(self):
        a = (R ** 2 - 1) / (R + 1)
        b = R - 1
        assert a == b

    def test_bivariate_gcd_keeps_integer_content(self):
        l, r = LaurentPoly.var_l(), LaurentPoly.var_r()
        num, den = 6 * (l + r) * (r + 1), r ** 2 + 3 * r + 2
        assert num.gcd(den) == r + 1 and den.gcd(num) == r + 1
        assert RatFunc(num, den).to_text() == "(6*l + 6*r)/(r + 2)"

    def test_laurent_units_pulled_from_denominator(self):
        f = ONE / RatFunc.from_laurent(LaurentPoly.term(1, 0, -3))
        # 1 / r^-3 = r^3
        assert f == R ** 3


class TestExponentBound:
    def test_overflow_raises(self):
        assert (R ** 2 ** 16).num == LaurentPoly.term(1, 0, 2 ** 16)
        with pytest.raises(ExponentOverflow):
            _ = R ** (2 ** 16 + 1)
        with pytest.raises(ExponentOverflow):
            _ = R ** -(2 ** 16 + 1)
        with pytest.raises(ExponentOverflow):
            LaurentPoly.term(1, 2 ** 16 + 1, 0)


class TestSerialization:
    # the ground fields whose text must be injective: reports and the
    # M(n) hashes compare values by their text
    FIELDS = {"Q": QQ, "Q(r)": QR, "Q(l,r)": QLR,
              **{name: cyclotomic_field(name) for name in ("phi12", "phi20", "phi24")}}

    def test_rational_round_trip(self):
        for v in (rat(-22, 7), rat(5), rat(0), rat(10 ** 30, 7)):
            assert parse_rat(str(v)) == v

    @pytest.mark.parametrize("name", sorted(FIELDS))
    def test_text_is_injective(self, name):
        # x == y exactly when their texts agree, on pairs of small random
        # values and on equal values reached by different arithmetic
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        field = self.FIELDS[name]
        seen = set()

        @hyp.settings(max_examples=60, deadline=None, derandomize=True)
        @hyp.given(st.integers(0, 2 ** 32), st.integers(1, 3))
        def check(seed, bound):
            rng = random.Random(seed)
            a, b, c = (field.random(rng, bound) for _ in range(3))
            if field is QLR:
                # a Laurent polynomial in l over Q(r), and two units to divide by
                a = a / QR.random(rng, bound)
                b, c = (QR.random(rng, bound) / QR.random(rng, bound) * L ** rng.randint(-2, 2)
                        for _ in range(2))
            pairs = [(a, b), (a, -a), (a, a * 2), ((a + b) - b, a), (a - a, field.zero()),
                     (a * c + b * c, (a + b) * c), (a * b, b * a)]
            if b:
                pairs.append(((a * b) / b, a))
                if a and (field is not QLR or _one_power_of_l(a.num)):
                    pairs.append((a / b, b / a))
            if c:
                pairs.append(((a + b / c) - b / c, a))
            for x, y in pairs:
                same = x == y
                assert same == (scalar_to_text(x) == scalar_to_text(y))
                seen.add(same)

        check()
        assert seen == {True, False}

    @pytest.mark.parametrize("univariate", [True, False], ids=["Q(r)", "Q(l,r)"])
    def test_text_matches_the_fraction_reference(self, univariate):
        # values of rational coefficients, and their sums and products, write
        # the text of the dict-of-Fraction form: Rat numerator coefficients
        # over a denominator in Z[r] of content 1
        hyp = pytest.importorskip("hypothesis")
        sympy = pytest.importorskip("sympy")
        pairs = TestLaurentAgainstReference()._pairs
        nums = pairs(hyp, univariate=univariate, max_size=4)
        dens = pairs(hyp, univariate=True, max_size=4)
        one = {(0, 0): Fraction(1)}
        mul = oracles.laurent_mul

        @hyp.settings(max_examples=50, deadline=None, derandomize=True)
        @hyp.given(nums, dens, nums, dens)
        def check(pa, pb, pc, pd):
            na, da = oracles.laurent(pa), oracles.laurent(pb) or one
            nb, db = oracles.laurent(pc), oracles.laurent(pd) or one
            f, g = _fraction(pa, pb), _fraction(pc, pd)
            for got, num, den in ((f, na, da), (f * g, mul(na, nb), mul(da, db)),
                                  (f + g, oracles.laurent_add(mul(na, db), mul(nb, da)),
                                   mul(da, db))):
                assert scalar_to_text(got) == _reference_text(sympy, num, den)

        check()

    def test_term_format(self):
        p = _fraction([((2, -1), rat(3, 2)), ((0, 1), -1), ((0, 0), 5)])
        assert p.num.to_text() == "3*l^2*r^-1 - 2*r + 10" and p.den == 2
        assert p.to_text() == "3/2*l^2*r^-1 - r + 5"

    def test_algebraic_text(self):
        field = cyclotomic_field("phi12")
        z = field.element([rat(1, 2), -2, 0, rat(7, 3)])
        assert z.to_text() == "[1/2,-2,0,7/3]"
        assert (field.gen() ** 4).to_text() == "[-1,0,1,0]"

    def test_algebraic_too_many_coefficients_rejected(self):
        field = cyclotomic_field("phi12")  # products have at most 7 coefficients
        assert field.element([0, 0, 0, 0, 0, 0, 1]) == field.gen() ** 6
        with pytest.raises(ValueError):
            field.element([0, 0, 0, 0, 0, 0, 0, 1])

    def test_modulus_text(self):
        coeffs = CYCLOTOMIC_MODULI["phi12"]
        text = poly_x_to_text([rat(c) for c in coeffs])
        assert text == "x^4 - x^2 + 1"
        assert cyclotomic_field("phi12").tag == "mod: " + text

    def test_scalar_text_dispatch(self):
        assert scalar_to_text(rat(3, 4)) == "3/4"
        assert scalar_to_text(R ** 2 - 1) == "r^2 - 1"
