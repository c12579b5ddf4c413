"""The integer image of cleared rows: its norm bound, and the checks that run on it.

linalg.int_images maps cleared rows over Q(r) by r -> t and over
Q[x]/(f) by x -> t mod f(t), with t = 2^B derived from a bound
on the compared values.  The relation gate, annihilates, contains and
is_invariant compare images only.  Here the bound is probed at and beyond
its edge, and each check is compared with field arithmetic on the
independent oracles.
"""

import random
import sys
from fractions import Fraction
from itertools import product
from math import lcm

import pytest

from lkwb import linalg
from lkwb.linalg import (
    Matrix,
    SubspaceBasis,
    annihilates,
    clear_entries,
    int_images,
    is_invariant,
)
from lkwb.lkrep import (
    LKParams,
    LKRep,
    _holds,
    build_rep,
    substituted_rep,
    verify_relations,
)
from lkwb.scalars import QLR, QQ, QR, LaurentPoly, NumberField, RatFunc, cyclotomic_field, rat

import oracles

CYCLOTOMIC = [cyclotomic_field(name) for name in ("phi12", "phi20", "phi24")]
IMAGE_FIELDS = [QR, *CYCLOTOMIC]
IDS = ["Q(r)", "phi12", "phi20", "phi24"]


def gen(field):
    return field.r() if field == QR else field.gen()


def forced_base(monkeypatch, b):
    """Images at t = 2^b, however wide."""
    monkeypatch.setattr(linalg, "_image_base", lambda bound, norm_f: b)
    monkeypatch.setattr(linalg, "_images_pay", lambda b: True)


def scalars(field, rng):
    """draw(zeros): a random scalar, zero with probability zeros, and a nonzero one for zeros=None.

    Over Q(r) Laurent polynomials with 30-bit rational coefficients over a
    denominator r + c, c of 30 bits, one c for all the draws: an integer
    numerator over r + c times the lcm of the coefficient denominators;
    over Q[x]/(f) 30-bit numerators over one denominator of up to 10^9.
    """
    if field == QR:
        den = LaurentPoly.from_pairs([((0, 1), 1), ((0, 0), rng.randint(1, 2 ** 30))])

        def scalar():
            pairs = [((0, rng.randint(-3, 3)), Fraction(rng.randint(-2 ** 30, 2 ** 30),
                                                        rng.randint(1, 2 ** 30)))
                     for _ in range(rng.randint(1, 3))]
            lcd = lcm(*(c.denominator for _, c in pairs))
            return RatFunc(LaurentPoly.from_pairs(
                (k, c.numerator * (lcd // c.denominator)) for k, c in pairs), den.scale(lcd))
    else:
        def scalar():
            den = rng.randint(1, 10 ** 9)
            return field.element([Fraction(rng.randint(-2 ** 30, 2 ** 30), den)
                                  for _ in range(field.degree)])

    def draw(zeros=0.0):
        if zeros is not None and rng.random() < zeros:
            return field.zero()
        x = scalar()
        return x if x or zeros is not None else field.one()
    return draw


def perturbed(rep, name, k, i, j, extra):
    """rep with extra added to entry (i, j) of the k-th matrix of rep.<name>, nothing rebuilt."""
    mats = list(getattr(rep, name))
    rows = [list(row) for row in mats[k].rows]
    rows[i][j] = rows[i][j] + extra
    mats[k] = Matrix(rep.field, rows)
    parts = {"params": rep.params, "g": rep.g, "e": rep.e}
    parts[name] = tuple(mats)
    return LKRep(**parts)


def small_rep(field, n=3):
    """A rep at r the generator, at l = -r^3."""
    if field == QR:
        return substituted_rep(n, -1, 3)
    x = field.gen()
    return build_rep(LKParams(n, -(x ** 3), x, field))


def oracle_failures(rep):
    p = rep.params
    g, e = ([[list(row) for row in m.rows] for m in ms] for ms in (rep.g, rep.e))
    return oracles.relation_failures(p.n, p.l, p.r, g, e, [oracles.mat_mul(x, x) for x in g])


class TestBase:
    def test_identity_image_off_the_integral_fields(self):
        # Q and Q(l,r) keep the cleared rows as they are
        for field in (QQ, QLR):
            assert field.image_ring is None
            groups = [[[(0, field.one())]]]

            def bound(norms, scale_norms, gamma):
                raise AssertionError("no bound is needed for the identity image")

            images, scales, residue = int_images(field, groups, bound)
            assert images is groups and scales == [1] and residue is linalg._as_is

    @pytest.mark.parametrize("field", IMAGE_FIELDS, ids=IDS)
    def test_base_is_the_least_power_of_two_above_the_bound(self, field):
        norm_f = field.image_ring.norm_f
        for c in (1, 2, 5, 1000, 2 ** 40 + 3):
            b = linalg._image_base(c, norm_f)
            assert 2 ** b > 2 * c + norm_f >= 2 ** (b - 1)

    @pytest.mark.parametrize("field", IMAGE_FIELDS, ids=IDS)
    def test_zero_space(self, field):
        # no basis, so D = 1: a vector whose entries map to zero at a base
        # too small for them is still refused
        zero = field.zero()
        space = SubspaceBasis.from_vectors(field, 2, [])
        assert space.contains((zero, zero))
        for c in (1, 4, 8, 2 ** 20):
            assert not space.contains((gen(field) - c, zero))

    @pytest.mark.parametrize("field", IMAGE_FIELDS, ids=IDS)
    def test_no_operators_and_no_vectors(self, field):
        space = SubspaceBasis.coordinate(field, 2, [0])
        assert is_invariant(space, [])
        assert annihilates(Matrix(field, [[field.one(), field.zero()]]), [])

    def test_gamma(self):
        # the largest reduction of x^k, k < 2d - 1: x^4 = x^2 - 1 over phi12,
        # x^8 = x^6 - x^4 + x^2 - 1 over phi20 and x^8 = x^4 - 1 over phi24
        rings = [f.image_ring for f in (*CYCLOTOMIC, QR)]
        assert [(r.gamma, r.norm_f) for r in rings] == [(2, 3), (4, 5), (2, 3), (1, 0)]

    @pytest.mark.parametrize("field", CYCLOTOMIC, ids=IDS[1:])
    def test_minus_one_maps_to_minus_one(self, field):
        # images are not reduced mod f(t), so the gate's -1 shortcut applies
        ((((_, y),),),), _, _ = int_images(field, [[[(0, -field.one())]]],
                                         lambda norms, scale_norms, gamma: 1)
        assert y == -1


class TestWideImages:
    """Images are taken while t fits in one int digit; wider, the rows stay as they are."""

    DIGIT = sys.int_info.bits_per_digit

    @pytest.mark.parametrize("field", IMAGE_FIELDS, ids=IDS)
    def test_cutoff(self, field):
        groups = [linalg.clear_rows(field, [[(0, field.one()), (1, gen(field))]])[1]]
        norm_f = field.image_ring.norm_f
        widest = (2 ** self.DIGIT - 1 - norm_f) // 2
        assert linalg._image_base(widest, norm_f) == self.DIGIT
        images, scales, _ = int_images(field, groups, lambda norms, scale_norms, gamma: widest)
        assert all(type(x) is int for _, x in images[0][0]) and scales == [1]
        images, scales, residue = int_images(field, groups,
                                             lambda norms, scale_norms, gamma: widest + 1)
        assert images is groups and scales == [1] and residue is linalg._as_is

    @pytest.mark.parametrize("field", IMAGE_FIELDS, ids=IDS)
    def test_high_height_checks_in_the_field(self, field, monkeypatch):
        # l of 64-bit height: the gate's base is far past one digit, so its
        # rows stay in the field, with the oracles' verdicts
        seen = []
        derive = linalg._image_base
        monkeypatch.setattr(linalg, "_image_base",
                            lambda bound, norm_f: seen.append(derive(bound, norm_f)) or seen[-1])
        r = gen(field)
        l = Fraction(2 ** 64 + 13, 2 ** 63 + 5) * (r if field == QR else field.one())
        rep = build_rep(LKParams(3, l, r, field))
        mutant = perturbed(rep, "g", 1, 0, 1, r)
        assert verify_relations(rep).all_passed and oracle_failures(rep) == []
        assert list(verify_relations(mutant).failures) == oracle_failures(mutant) != []
        assert min(seen) > self.DIGIT


class TestOffByTheBase:
    """A check that is off by d = x - t0 (r - t0 over Q(r)), t0 = 2^B0.

    The ring map at t0 sends d to zero, so with the base forced to t0 the
    check accepts the wrong identity; the derived base bounds d itself and
    refuses it.
    """

    B0 = 20

    def delta(self, field):
        return gen(field) - 2 ** self.B0

    @pytest.mark.parametrize("field", IMAGE_FIELDS, ids=IDS)
    def test_annihilates(self, field, monkeypatch):
        m = Matrix(field, [[self.delta(field), field.zero()]])
        v = [(field.one(), field.one())]
        assert not annihilates(m, v)
        forced_base(monkeypatch, self.B0)
        assert annihilates(m, v)

    @pytest.mark.parametrize("field", IMAGE_FIELDS, ids=IDS)
    def test_contains(self, field, monkeypatch):
        space = SubspaceBasis.coordinate(field, 2, [0])
        v = (field.one(), self.delta(field))
        assert not space.contains(v)
        forced_base(monkeypatch, self.B0)
        assert space.contains(v)

    @pytest.mark.parametrize("field", IMAGE_FIELDS, ids=IDS)
    def test_is_invariant(self, field, monkeypatch):
        space = SubspaceBasis.coordinate(field, 2, [0])
        op = Matrix(field, [[field.one(), field.zero()], [self.delta(field), field.one()]])
        assert not is_invariant(space, [op])
        forced_base(monkeypatch, self.B0)
        assert is_invariant(space, [op])

    @pytest.mark.parametrize("field", IMAGE_FIELDS, ids=IDS)
    def test_gate(self, field, monkeypatch):
        rep = small_rep(field)
        mutant = perturbed(rep, "g", 1, 0, 2, self.delta(field))
        expect = oracle_failures(mutant)
        assert expect and list(verify_relations(mutant).failures) == expect
        forced_base(monkeypatch, self.B0)
        assert verify_relations(mutant).all_passed


class TestAtTheBound:
    """Nonzero values whose coefficients are as large as the bound allows."""

    @staticmethod
    def tight(field, b):
        # the largest C whose base is 2^b: 2C + ||f||_1 < 2^b <= 2C + ||f||_1 + 2
        norm_f = field.image_ring.norm_f
        c = (2 ** b - 1 - norm_f) // 2
        assert linalg._image_base(c, norm_f) == b
        return c

    @staticmethod
    def image_is_nonzero(field, value, c):
        ((((_, y),),),), _, residue = int_images(field, [[[(0, value)]]],
                                                 lambda norms, scale_norms, gamma: c)
        return any(x for _, x in residue([(0, y)]))

    @pytest.mark.parametrize("field", CYCLOTOMIC, ids=IDS[1:])
    def test_number_fields(self, field):
        rng = random.Random(5)
        for b in (6, 13):
            c = self.tight(field, b)
            d = field.degree
            levels = (-c, -1, 0, 1, c)
            if d == 4:
                patterns = list(product(levels, repeat=d))
            else:
                patterns = [tuple(rng.choice(levels + (c - 1, 1 - c)) for _ in range(d))
                            for _ in range(1500)]
            # the extremes: a leading +-1 over -+C below it, and C everywhere
            for e in range(d):
                patterns += [(c,) * e + (-1,) + (0,) * (d - e - 1),
                             (-c,) * e + (1,) + (0,) * (d - e - 1)]
            patterns.append((c,) * d)
            for nums in patterns:
                if any(nums):
                    assert self.image_is_nonzero(field, field.element(nums), c), nums

    def test_laurent(self):
        rng = random.Random(6)
        for b in (5, 17):
            c = self.tight(QR, b)
            for _ in range(1500):
                exps = rng.sample(range(-3, 4), rng.randint(1, 4))
                terms = [((0, e), rng.choice((-c, -1, 1, c))) for e in exps]
                value = LaurentPoly.from_pairs(terms)
                assert self.image_is_nonzero(QR, value, c), terms

    def test_one_past_the_bound_collides(self):
        # x - t has L1 norm t + 1: at the base of a bound below it, x maps to t
        for field in IMAGE_FIELDS:
            t = 2 ** 7
            value = (LaurentPoly.from_pairs([((0, 1), 1), ((0, 0), -t)]) if field == QR
                     else field.gen() - t)
            c = self.tight(field, 7)
            assert c < t and not self.image_is_nonzero(field, value, c)


class TestBoundCoversTheComparedValues:
    """The bound C that each check derives covers the values it compares.

    Over Q(r) the images are exact integers: at a base 64 bits above the
    derived one, each compared int is read back in balanced base t and its
    digits, the coefficients of the compared value, must lie within C.
    Over Q[x]/(f) the inputs are integral, so the cleared values are the
    field values themselves, whose coefficients field arithmetic gives.
    """

    @staticmethod
    def derived_bounds(monkeypatch, check):
        seen = []
        derive = linalg._image_base

        def spy(bound, norm_f):
            seen.append(bound)
            return derive(bound, norm_f)

        monkeypatch.setattr(linalg, "_image_base", spy)
        check()
        monkeypatch.setattr(linalg, "_image_base", derive)
        return seen

    @staticmethod
    def digits(x, b):
        t, out = 1 << b, []
        while x:
            d = x % t
            d = d - t if 2 * d > t else d
            out.append(d)
            x = (x - d) >> b
        return out

    def compared_laurent_coefficients(self, monkeypatch, check, bounds):
        b = linalg._image_base(max(bounds), 0) + 64
        rows = []

        def spy(row):
            rows.append(row)
            return [(j, x) for j, x in row if x]

        forced_base(monkeypatch, b)
        monkeypatch.setattr(linalg, "_nonzero", spy)
        check()
        assert rows
        return max(abs(d) for row in rows for _, x in row for d in self.digits(x, b))

    def checks(self, field, rng):
        draw = scalars(field, rng)
        zero, one = field.zero(), field.one()
        n = 4
        basis = [[one, zero, draw(), draw()], [zero, one, draw(), draw()]]
        space = SubspaceBasis.from_vectors(field, n, basis)
        v = [draw() * basis[0][j] + draw() * basis[1][j] for j in range(n)]
        op = Matrix(field, [[draw(0.3) for _ in range(n)] for _ in range(n)])
        m = Matrix(field, [[draw(0.3) for _ in range(n)] for _ in range(3)])
        w = tuple(draw() for _ in range(n))
        return [lambda: space.contains(tuple(v)), lambda: is_invariant(space, [op]),
                lambda: annihilates(m, [w])]

    def test_laurent_checks(self, monkeypatch):
        rng = random.Random(8)
        for _ in range(5):
            for check in self.checks(QR, rng):
                bounds = self.derived_bounds(monkeypatch, check)
                assert self.compared_laurent_coefficients(monkeypatch, check, bounds) <= bounds[0]
                monkeypatch.undo()

    @pytest.mark.parametrize("locus", [(1, 1), (-1, 3), (1, -3)])
    def test_laurent_gate(self, monkeypatch, locus):
        rep = substituted_rep(4, *locus)
        draw = scalars(QR, random.Random(9))
        for mutant in (rep, perturbed(rep, "e", 1, 2, 3, draw(None))):
            check = lambda: verify_relations(mutant)
            bounds = self.derived_bounds(monkeypatch, check)
            assert self.compared_laurent_coefficients(monkeypatch, check, bounds) <= bounds[0]
            monkeypatch.undo()

    @pytest.mark.parametrize("field", CYCLOTOMIC, ids=IDS[1:])
    def test_number_field_checks(self, field, monkeypatch):
        # integral entries: clear_rows and the integral scale leave them as
        # they are, and the RREF basis below is integral too
        rng = random.Random(10)
        zero, one = field.zero(), field.one()

        def draw():
            return field.element([rng.randint(-2 ** 30, 2 ** 30) for _ in range(field.degree)])

        def height(values):
            return max(max(map(abs, x.nums)) for x in values)

        n = 4
        basis = [[one, zero, draw(), draw()], [zero, one, draw(), draw()]]
        space = SubspaceBasis.from_vectors(field, n, basis)
        v = [draw() * basis[0][j] + draw() * basis[1][j] for j in range(n)]
        v[3] = v[3] + one
        op = [[draw() for _ in range(n)] for _ in range(n)]
        w = [draw() for _ in range(n)]

        def sides(y):
            # D y and sum_i y[p_i] c_i, D = 1
            return y + [y[0] * b0 + y[1] * b1 for b0, b1 in zip(*basis)]

        (bound,) = self.derived_bounds(monkeypatch, lambda: space.contains(tuple(v)))
        assert height(sides(v)) <= bound
        images = [[sum((a * b for a, b in zip(row, c)), zero) for row in op] for c in basis]
        (bound,) = self.derived_bounds(
            monkeypatch, lambda: is_invariant(space, [Matrix(field, op)]))
        assert height([x for y in images for x in sides(y)]) <= bound
        (bound,) = self.derived_bounds(monkeypatch, lambda: annihilates(Matrix(field, op), [w]))
        assert height([sum((a * b for a, b in zip(row, w)), zero) for row in op]) <= bound


class TestGateBoundTerms:
    """Each term of the gate's bound matters: the row r M = I on M = (1/S).

    Over Q[x]/(f) the cleared matrices have the scale s = S and the image
    1, so the sides map to t and to S, a word of length 0 padded by s^1.
    Without the factor (gamma ||s||_1)^(L - k) the bound would be
    gamma + 1, and S is the base that bound gives, where t = S wrongly
    makes r/S = 1 hold.  Over Q(r) the scale is a power of r, of norm 1,
    and S is the denominator that clears M: the row reads r (S M) = S I,
    the sides again map to t and to S, and the identity's coefficient S,
    through its norm, keeps the base above S.
    """

    @pytest.mark.parametrize("field", IMAGE_FIELDS, ids=IDS)
    def test_short_word_padded_by_the_scale(self, field):
        ring = field.image_ring
        big = 2 ** linalg._image_base(ring.gamma + 1, ring.norm_f)
        den, (entry,) = clear_entries(field, [field.one() / big])
        _, (r,) = clear_entries(field, [gen(field)])
        row = (1, [(0, (0,), r), (1, (), den)])
        assert list(_holds(field, [[(0, entry)]], [row], 1)) == [False]
        with pytest.MonkeyPatch.context() as mp:
            forced_base(mp, linalg._image_base(ring.gamma + 1, ring.norm_f))
            assert list(_holds(field, [[(0, entry)]], [row], 1)) == [True]


class TestGammaTerms:
    """The factor gamma of a product's bound, over Q[x]/(x^2 - 16x + 1), gamma = 17.

    x^2 = 16x - 1 there, so one product can grow a coefficient sixteenfold.
    Each check below compares sides that differ by +-(48x + 1), and
    48 * 64 + 1 = f(64); without gamma its bound would give the base
    2^6 = 64, where the wrong identity holds.
    """

    FIELD = NumberField((1, -16, 1))

    def base_without_gamma(self, c):
        b = linalg._image_base(c, self.FIELD.image_ring.norm_f)
        assert b == 6
        return b

    def test_annihilates(self, monkeypatch):
        # (x, 1) . (3x, 4) = 3x^2 + 4 = 48x + 1; nu(M) max ||v_j||_1 = 2 * 4
        field = self.FIELD
        m, v = Matrix(field, [[field.gen(), field.one()]]), [(3 * field.gen(), 4 * field.one())]
        assert not annihilates(m, v)
        forced_base(monkeypatch, self.base_without_gamma(2 * 4))
        assert annihilates(m, v)

    def test_contains(self, monkeypatch):
        # (x, -4) against the span of (1, 3x): -4 - x 3x = -(48x + 1);
        # Y sum_i ||c_i||_1 = 4 * (1 + 3)
        field = self.FIELD
        x, one = field.gen(), field.one()
        space = SubspaceBasis.from_vectors(field, 2, [[one, 3 * x]])
        assert not space.contains((x, -4 * one))
        forced_base(monkeypatch, self.base_without_gamma(4 * 4))
        assert space.contains((x, -4 * one))


class TestRepeatedGammaTerms:
    """The powers of gamma for a value that takes several products to form.

    A product of k + 1 factors in Z[x]/(f) can grow its L1 norm by gamma^k,
    and the images are reduced mod f(t) only at the comparison.  Each check
    below compares a wrong identity whose sides differ by d with d(t0) = 0
    at the base t0 = 2^b0 that its bound would give without the extra
    factors of gamma.
    """

    def test_gate_word_needs_gamma_to_its_length(self):
        # over Q[x]/(x^2 - 10), gamma = 10: the row M0^4 = (x - 28) M1^4 on the
        # 1 x 1 matrices M0 = (x) and M1 = (1) is wrong, since x^4 = 100 there.
        # Without gamma^k the bound is 1 + ||x - 28||_1 = 30, with base 2^7,
        # where x - 28 maps to 100 as well
        field = NumberField((-10, 0, 1))
        x, one = field.gen(), field.one()
        row = (4, [(0, (0,) * 4, one), (1, (1,) * 4, x - 28)])
        rows = [[(0, x)], [(0, one)]]
        assert linalg._image_base(30, field.image_ring.norm_f) == 7
        assert list(_holds(field, rows, [row], 1)) == [False]
        with pytest.MonkeyPatch.context() as mp:
            forced_base(mp, 7)
            assert list(_holds(field, rows, [row], 1)) == [True]

    def test_is_invariant_needs_gamma_inside_y(self, monkeypatch):
        # over Q[x]/(x^3 - 32), gamma = 32: g = ((0, x^2), (2x, 0)) maps
        # (1, x^2) to (32x, 2x), outside its span, where 32x (1, x^2) =
        # (32x, 1024).  Without the gamma inside Y, Y = 1 * 2 and the bound
        # is 32 * 2 * (1 + 1) = 128, with base 2^9, where 2x - 1024 maps to 0
        field = NumberField((-32, 0, 0, 1))
        x, one, zero = field.gen(), field.one(), field.zero()
        space = SubspaceBasis.from_vectors(field, 2, [[one, x * x]])
        op = Matrix(field, [[zero, x * x], [2 * x, zero]])
        assert linalg._image_base(128, field.image_ring.norm_f) == 9
        assert not is_invariant(space, [op])
        forced_base(monkeypatch, 9)
        assert is_invariant(space, [op])


def st_seed():
    hyp = pytest.importorskip("hypothesis")
    return hyp, hyp.strategies


@pytest.fixture(params=["derived", "always"])
def images(request, monkeypatch):
    """Images where _images_pay takes them, or at the derived base however wide."""
    if request.param == "always":
        monkeypatch.setattr(linalg, "_images_pay", lambda b: True)


@pytest.mark.usefixtures("images")
class TestAgainstFieldArithmetic:
    """Each check on images against the oracles' field arithmetic, with one-entry mutants.

    The 30-bit entries put the derived base past one digit, so each check
    runs twice: on the field's rows, as _images_pay chooses, and on images
    at that base.
    """

    def test_gate(self):
        hyp, st = st_seed()
        seen = set()

        @hyp.settings(max_examples=24, deadline=None, derandomize=True)
        @hyp.given(st.sampled_from(IMAGE_FIELDS), st.integers(3, 4), st.integers(0, 2 ** 32),
                   st.sampled_from(("none", "g", "e")))
        def check(field, n, seed, name):
            rng = random.Random(seed)
            r = gen(field)
            # l of 30-bit coefficients over Q(r), of denominators 10^9 over Q[x]/(f)
            draw = scalars(field, rng)
            if field == QR:
                l = r ** rng.randint(-3, 3) * Fraction(rng.randint(1, 2 ** 30),
                                                       rng.randint(1, 2 ** 30))
            else:
                l = draw(None)
            rep = build_rep(LKParams(n, l, r, field))
            if name != "none":
                k, i, j = rng.randrange(n - 1), rng.randrange(rep.dim), rng.randrange(rep.dim)
                rep = perturbed(rep, name, k, i, j, draw(None))
            expect = oracle_failures(rep)
            assert list(verify_relations(rep).failures) == expect
            seen.add(not expect)

        check()
        assert seen == {True, False}

    def test_annihilates(self):
        hyp, st = st_seed()
        seen = set()

        @hyp.settings(max_examples=40, deadline=None, derandomize=True)
        @hyp.given(st.sampled_from(IMAGE_FIELDS), st.integers(0, 2 ** 32),
                   st.sampled_from(("none", "m", "v")))
        def check(field, seed, mutant):
            rng = random.Random(seed)
            draw = scalars(field, rng)
            ncols, nrows = rng.randint(2, 4), rng.randint(1, 3)
            zero = field.zero()
            v = [draw(0.3) for _ in range(ncols - 1)] + [field.one()]
            rows = []
            for _ in range(nrows):
                row = [draw(0.3) for _ in range(ncols - 1)]
                row.append(-sum((a * b for a, b in zip(row, v)), zero))
                rows.append(row)
            if mutant == "m":
                rows[rng.randrange(nrows)][rng.randrange(ncols)] += draw(None)
            if mutant == "v":
                v[rng.randrange(ncols)] += draw(None)
            expect = not any(sum((a * b for a, b in zip(row, v)), zero) for row in rows)
            assert annihilates(Matrix(field, rows), [tuple(v)]) == expect
            seen.add(expect)

        check()
        assert seen == {True, False}

    def test_contains(self):
        hyp, st = st_seed()
        seen = set()

        @hyp.settings(max_examples=40, deadline=None, derandomize=True)
        @hyp.given(st.sampled_from(IMAGE_FIELDS), st.integers(0, 2 ** 32), st.booleans())
        def check(field, seed, mutant):
            rng = random.Random(seed)
            draw = scalars(field, rng)
            n = rng.randint(2, 4)
            zero = field.zero()
            rows = [[draw(0.3) for _ in range(n)]
                    for _ in range(rng.randint(1, n - 1))]
            space = SubspaceBasis.from_vectors(field, n, rows)
            v = [zero] * n
            for row in rows:
                c = draw()
                v = [x + c * y for x, y in zip(v, row)]
            if mutant:
                v[rng.randrange(n)] += draw(None)
            expect = not any(oracles.residue_by_reduction(space.vectors, space.pivots, v))
            assert space.contains(tuple(v)) == expect
            seen.add(expect)

        check()
        assert seen == {True, False}

    def test_is_invariant(self):
        # op = sum_i b_i a_i^T maps everything into the span of the basis b_i; a
        # mutant moves one entry of it, and a second op is random
        hyp, st = st_seed()
        seen = set()

        @hyp.settings(max_examples=40, deadline=None, derandomize=True)
        @hyp.given(st.sampled_from(IMAGE_FIELDS), st.integers(0, 2 ** 32),
                   st.sampled_from(("none", "op", "random")))
        def check(field, seed, mutant):
            rng = random.Random(seed)
            draw = scalars(field, rng)
            n = rng.randint(2, 4)
            zero = field.zero()
            rows = [[draw(0.3) for _ in range(n)]
                    for _ in range(rng.randint(1, n - 1))]
            space = SubspaceBasis.from_vectors(field, n, rows)
            weights = [[draw(0.3) for _ in range(n)] for _ in space.vectors]
            op = [[sum((b[i] * a[j] for b, a in zip(space.vectors, weights)), zero)
                   for j in range(n)] for i in range(n)]
            ops = [op]
            if mutant == "op":
                op[rng.randrange(n)][rng.randrange(n)] += draw(None)
            if mutant == "random":
                ops.append([[draw(0.3) for _ in range(n)]
                            for _ in range(n)])
            expect = oracles.invariant_by_reduction([list(v) for v in space.vectors],
                                                    space.pivots, ops, zero)
            assert is_invariant(space, [Matrix(field, rows) for rows in ops]) == expect
            seen.add(expect)

        check()
        assert seen == {True, False}


FIVE_FIELDS = [QQ, *IMAGE_FIELDS]
FIVE_IDS = ["Q", *IDS]


def any_scalars(field, rng):
    """scalars(field, rng), with 30-bit fractions over Q."""
    if field != QQ:
        return scalars(field, rng)

    def draw(zeros=0.0):
        if zeros is not None and rng.random() < zeros:
            return QQ.zero()
        return rat(rng.choice((-1, 1)) * rng.randint(1, 2 ** 30), rng.randint(1, 2 ** 30))
    return draw


class TestOneCheck:
    """contains_space, annihilates and is_invariant: each one call of SubspaceBasis._spans."""

    def test_contains_space(self):
        # W holds some basis vectors of U themselves, combinations of them and
        # at most one mutant; U may be the zero space
        hyp, st = st_seed()
        seen = set()

        @hyp.settings(max_examples=60, deadline=None, derandomize=True)
        @hyp.given(st.sampled_from(FIVE_FIELDS), st.integers(0, 2 ** 32), st.booleans())
        def check(field, seed, mutant):
            rng = random.Random(seed)
            draw = any_scalars(field, rng)
            n = rng.randint(1, 4)
            zero = field.zero()
            space = SubspaceBasis.from_vectors(
                field, n, [[draw(0.3) for _ in range(n)] for _ in range(rng.randint(0, n))])
            vectors = [b for b in space.vectors if rng.random() < 0.5]
            for _ in range(rng.randint(0, 2)):
                v = [zero] * n
                for b in space.vectors:
                    c = draw(0.2)
                    v = [x + c * y for x, y in zip(v, b)]
                vectors.append(tuple(v))
            if mutant:
                v = list(rng.choice(vectors)) if vectors else [zero] * n
                v[rng.randrange(n)] += draw(None)
                vectors.insert(rng.randint(0, len(vectors)), tuple(v))
            # only .vectors of W is read
            other = SubspaceBasis(field, n, tuple(vectors), (), _trusted=True)
            expect = all(not any(oracles.residue_by_reduction(space.vectors, space.pivots, v))
                         for v in vectors)
            assert space.contains_space(other) == expect
            assert expect == all(space.contains(v) for v in vectors)
            assert space.contains_space(space)
            seen.add(expect)

        check()
        assert seen == {True, False}

    def test_annihilates_on_a_non_square_matrix_with_a_zero_row(self):
        hyp, st = st_seed()
        seen = set()

        @hyp.settings(max_examples=60, deadline=None, derandomize=True)
        @hyp.given(st.sampled_from(FIVE_FIELDS), st.integers(0, 2 ** 32),
                   st.sampled_from(("none", "m", "v")))
        def check(field, seed, mutant):
            rng = random.Random(seed)
            draw = any_scalars(field, rng)
            ncols = rng.randint(2, 4)
            nrows = rng.choice([k for k in range(1, 6) if k != ncols])
            zero = field.zero()
            v = [draw(0.3) for _ in range(ncols - 1)] + [field.one()]
            rows = []
            for _ in range(nrows - 1):
                row = [draw(0.3) for _ in range(ncols - 1)]
                row.append(-sum((a * b for a, b in zip(row, v)), zero))
                rows.append(row)
            rows.insert(rng.randint(0, nrows - 1), [zero] * ncols)
            if mutant == "m":
                rows[rng.randrange(nrows)][rng.randrange(ncols)] += draw(None)
            if mutant == "v":
                v[rng.randrange(ncols)] += draw(None)
            expect = not any(sum((a * b for a, b in zip(row, v)), zero) for row in rows)
            m = Matrix(field, rows)
            assert (m.nrows, m.ncols) == (nrows, ncols)
            assert annihilates(m, [tuple(v)]) == expect
            assert annihilates(m, [(zero,) * ncols, tuple(v)]) == expect
            seen.add(expect)

        check()
        assert seen == {True, False}

    @pytest.mark.parametrize("field", FIVE_FIELDS, ids=FIVE_IDS)
    def test_one_int_images_call(self, field, monkeypatch):
        calls = []
        original = linalg.int_images

        def spied(field, groups, bound):
            calls.append([len(rows) for rows in groups])
            return original(field, groups, bound)

        monkeypatch.setattr(linalg, "int_images", spied)
        rng = random.Random(37)
        draw = any_scalars(field, rng)
        n = 4
        space = SubspaceBasis.from_vectors(field, n, [[draw() for _ in range(n)] for _ in range(2)])
        combos = [tuple(draw() * a + draw() * b for a, b in zip(*space.vectors)) for _ in range(3)]
        other = SubspaceBasis(field, n, (space.vectors[0], *combos), (), _trusted=True)
        ops = [Matrix(field, [[draw(0.3) for _ in range(n)] for _ in range(n)]) for _ in range(3)]
        m = Matrix(field, [[draw(0.3) for _ in range(n)] for _ in range(3)])
        ws = [tuple(draw() for _ in range(n)) for _ in range(3)]
        # the groups: [basis, vectors, *ops]; is_invariant's vectors are the
        # basis, and a basis vector itself is answered with no map
        for check, expect in ((lambda: space.contains_space(other), [[2, 3]]),
                              (lambda: space.contains(combos[0]), [[2, 1]]),
                              (lambda: is_invariant(space, ops), [[2, n, n, n]]),
                              (lambda: annihilates(m, ws), [[0, 3, 3]]),
                              (lambda: space.contains(space.vectors[1]), []),
                              (lambda: space.contains_space(space), [])):
            calls.clear()
            check()
            assert calls == expect
