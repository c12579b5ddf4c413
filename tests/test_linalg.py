"""Exact linear algebra: determinants, kernels, subspaces, certificates."""

import hashlib
import json
import random
import time
from fractions import Fraction
from math import isqrt

import pytest

from lkwb import linalg
from lkwb.errors import (
    AmbientMismatch,
    DenominatorInL,
    DimensionMismatch,
    DivisionByZero,
    FieldMismatch,
    NonSquare,
    SubmatrixNotFound,
    ZeroSeed,
)
from lkwb.linalg import (
    Matrix,
    SubspaceBasis,
    annihilates,
    charpoly,
    columns_mod_p,
    commutant_basis,
    det,
    find_invertible_submatrix,
    image_mod_p,
    inverse,
    is_invariant,
    kernel,
    nullspace_mod_p,
    operator_closure,
    rank,
    rank_mod_p,
    residue_prime,
    spin_mod_p,
    subspace_intersect,
)
from lkwb.lkrep import substituted_rep
from lkwb.reducibility import _kernel_at, build_m_matrix, catalog, dense_int_row, named_locus, rep_at
from lkwb.scalars import (QLR, QQ, QR, LaurentPoly, RatFunc, cyclotomic_field, parse_rat, rat,
                          scalar_to_text)

import oracles


def fractions(rows):
    """Rows of rationals as plain Fraction lists, for the oracles."""
    return [[Fraction(int(x.numerator), int(x.denominator)) for x in row] for row in rows]


def rand_matrix(field, rng, n, m=None):
    m = m or n
    return Matrix(field, [[field.random(rng) for _ in range(m)] for _ in range(n)])


class TestDet:
    def test_two_by_two(self):
        assert det(Matrix(QQ, [[1, 2], [3, 4]])) == -2

    def test_identity_six(self):
        assert det(Matrix.identity(QQ, 6)) == 1

    def test_non_square(self):
        with pytest.raises(NonSquare):
            det(Matrix.zeros(QQ, 2, 3))

    def test_multiplicative_over_each_field(self):
        rng = random.Random(77)
        for field in (QQ, QR, QLR):
            for _ in range(50):
                a = rand_matrix(field, rng, 3)
                b = rand_matrix(field, rng, 3)
                assert det(a * b) == det(a) * det(b)

    def test_against_naive_oracle_rationals(self):
        rng = random.Random(13)
        for _ in range(20):
            a = rand_matrix(QQ, rng, 4)
            expect = oracles.naive_det(oracles.to_fraction_rows(a))
            got = det(a)
            assert rat(int(expect.numerator), int(expect.denominator)) == got

    def test_function_field_with_denominators(self):
        L, R = RatFunc.var_l(), RatFunc.var_r()
        a = Matrix(QLR, [[1 / (R - 1), L], [R, (L * L) / (R + 2)]])
        assert det(a) == (L * L) / ((R - 1) * (R + 2)) - L * R

    def test_number_field(self):
        field = cyclotomic_field("phi12")
        x = field.gen()
        m = Matrix(field, [[x, field.one()], [field.zero(), x ** 3]])
        assert det(m) == x ** 4

    def test_bivariate_against_sympy(self):
        # entries in Z[l^-1, l, r^-1, r] over denominators in Z[r]; the Bareiss
        # elimination divides exactly in the Laurent ring and takes no gcd
        hyp = pytest.importorskip("hypothesis")
        sympy = pytest.importorskip("sympy")
        st = hyp.strategies
        sl, sr = sympy.symbols("l r")

        def poly(a):
            return st.builds(LaurentPoly.from_pairs, st.lists(
                st.tuples(st.tuples(a, st.integers(-2, 2)), st.integers(-5, 5)), max_size=3))

        entry = st.builds(RatFunc, poly(st.integers(-2, 2)),
                          poly(st.just(0)).filter(bool) | st.just(LaurentPoly.one()))

        def to_sympy(p):
            return sum((sympy.Rational(c.numerator, c.denominator) * sl ** a * sr ** b
                        for (a, b), c in p.pairs()), sympy.Integer(0))

        @hyp.settings(max_examples=40, deadline=None, derandomize=True)
        @hyp.given(st.integers(1, 3).flatmap(
            lambda n: st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)))
        def check(rows):
            d = det(Matrix(QLR, rows))
            want = sympy.Matrix([[to_sympy(x.num) / to_sympy(x.den) for x in row]
                                 for row in rows]).det(method="berkowitz")
            assert sympy.cancel(to_sympy(d.num) / to_sympy(d.den) - want) == 0

        check()

    @pytest.mark.parametrize("name", ["phi12", "phi24"])
    def test_number_field_against_charpoly_and_products(self, name):
        # det m = (-1)^n charpoly(m)(0), the charpoly by Faddeev-LeVerrier with
        # no elimination; and det(ab) = det(a) det(b), with singular factors too
        field = cyclotomic_field(name)
        rng = random.Random(53)
        for n in (1, 2, 4, 6):
            if n == 1:
                singular = Matrix.zeros(field, 1, 1)
            else:
                singular = rand_matrix(field, rng, n, n - 1) * rand_matrix(field, rng, n - 1, n)
            assert not det(singular)
            for a in (rand_matrix(field, rng, n), rand_matrix(field, rng, n), singular):
                b = rand_matrix(field, rng, n)
                constant = charpoly(a)[0]
                assert det(a) == (-constant if n % 2 else constant)
                assert det(a * b) == det(a) * det(b)

    @staticmethod
    def _cleared_oracle_det(m):
        """det of a Q(r) matrix from the Z[r] Bareiss oracle on its cleared rows.

        Row i of m is scale_i r^shift_i / den_i times an integer row, so
        det m is the oracle's determinant of the integer rows times the
        product of those row factors.
        """
        den, scale, shift, int_rows = LaurentPoly.one(), rat(1), 0, []
        for row in m.rows:
            row_den, polys = linalg.clear_denominators(row)
            row_scale, row_shift, ints = dense_int_row(polys)
            den, scale, shift = den * row_den, scale * row_scale, shift + row_shift
            int_rows.append(ints)
        d = oracles.bareiss_det_polyint(int_rows)
        num = LaurentPoly.from_pairs([((0, i + shift), scale * c) for i, c in enumerate(d)])
        return RatFunc(num, den)

    def test_univariate_against_bareiss_oracle(self):
        rng = random.Random(43)
        singular = 0
        for _ in range(40):
            n = rng.randint(1, 4)
            rows = [[QR.random(rng) / QR.random(rng) if rng.random() < 0.7 else QR.zero()
                     for _ in range(n)] for _ in range(n)]
            if n > 1 and rng.random() < 0.3:
                # a singular matrix: the last row is a Q(r) combination of the others
                mults = [QR.random(rng) / QR.random(rng) for _ in range(n - 1)]
                rows[-1] = [sum((c * row[j] for c, row in zip(mults, rows)), QR.zero())
                            for j in range(n)]
                singular += 1
            m = Matrix(QR, rows)
            d = det(m)
            assert d == self._cleared_oracle_det(m)
            assert bool(d) == (rank(m) == n)
        assert singular

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_m_matrix_at_l_r2_against_bareiss_oracle(self, n):
        m = build_m_matrix(substituted_rep(n, 1, 2)).matrix
        d = det(m)
        assert d and d == self._cleared_oracle_det(m)

    @pytest.mark.parametrize("field", [QQ, cyclotomic_field("phi12"), QR, QLR],
                             ids=lambda f: f.tag)
    def test_sign_of_permuted_triangular(self, field):
        # det(P T Q) = sign(P) sign(Q) times the diagonal product of a triangular T
        rng = random.Random(31)
        n = 5
        for _ in range(4):
            diag = []
            while len(diag) < n:
                x = field.random(rng)
                if x:
                    diag.append(x)
            rows = [[diag[i] if i == j else field.random(rng) if j > i else field.zero()
                     for j in range(n)] for i in range(n)]
            sigma = rng.sample(range(n), n)
            tau = rng.sample(range(n), n)
            permuted = Matrix(field, [[rows[sigma[i]][tau[j]] for j in range(n)] for i in range(n)])
            expect = diag[0]
            for x in diag[1:]:
                expect = expect * x
            if oracles._perm_sign(sigma) * oracles._perm_sign(tau) < 0:
                expect = -expect
            assert det(permuted) == expect


class TestRowClearing:
    def test_clear_denominators(self):
        L, R = RatFunc.var_l(), RatFunc.var_r()
        row = [1 / (R - 1), L / (R * R - 1), RatFunc.zero(), R]
        den, polys = linalg.clear_denominators(row)
        for x, p in zip(row, polys):
            assert RatFunc.from_laurent(p) == x * RatFunc.from_laurent(den)

    @pytest.mark.parametrize("field", [QQ, QR, QLR, cyclotomic_field("phi12")],
                             ids=["Q", "Q(r)", "Q(l,r)", "phi12"])
    def test_clear_entries_in_the_domain(self, field):
        # den * x is the cleared entry, an int over Q and a Laurent polynomial
        # over Q(r) and Q(l,r), whose denominators are in r; Q[x]/(f) is its
        # own domain
        rng = random.Random(81)
        entries = [field.random(rng) for _ in range(6)] + [field.zero()]
        if field in (QR, QLR):
            entries += [field.one() / (field.r() + 2), field.r() / QR.random(rng),
                        field.random(rng) / (field.r() ** 2 - 1)]
        den, cleared = linalg.clear_entries(field, entries)
        assert den and len(cleared) == len(entries)
        for x, c in zip(entries, cleared):
            if field is QQ:
                assert type(c) is int and c == x * den
            elif field in (QR, QLR):
                assert isinstance(c, LaurentPoly)
                assert RatFunc.from_laurent(c) == x * RatFunc.from_laurent(den)
            else:
                assert den == field.one() and c is x


class TestKernel:
    def test_zero_matrix(self):
        assert kernel(Matrix.zeros(QQ, 4, 4)).dim == 4

    def test_invertible(self):
        assert kernel(Matrix.identity(QQ, 6)).dim == 0

    def test_rank_nullity_random(self):
        rng = random.Random(5)
        for _ in range(20):
            a = rand_matrix(QQ, rng, 4, 6)
            assert rank(a) + kernel(a).dim == 6

    def test_vectors_annihilated(self):
        a = Matrix(QQ, [[1, 2, 3], [2, 4, 6], [0, 1, 1]])
        basis = kernel(a)
        assert basis.dim == 1
        for v in basis.vectors:
            assert oracles.mat_mul(fractions(a.rows), fractions([[x] for x in v])) == [[0]] * 3

    def test_kernel_dim_against_naive_oracle(self):
        rng = random.Random(8)
        for _ in range(20):
            a = rand_matrix(QQ, rng, 3, 5)
            assert kernel(a).dim == oracles.naive_kernel_dim(oracles.to_fraction_rows(a))


class TestLiftedKernel:
    """The kernel over Q lifted from GF(p) against the exact RREF kernel, _rref_kernel."""

    P = (1 << 61) - 1

    @staticmethod
    def assert_exact(m):
        basis = kernel(m)
        exact = linalg._rref_kernel(m)
        assert basis == exact
        assert basis.to_json_obj() == exact.to_json_obj()

    def test_random_low_rank_products(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        lifted = []
        big = st.integers(-10 ** 4, 10 ** 4)

        @hyp.settings(max_examples=60, deadline=None, derandomize=True)
        @hyp.given(st.data())
        def check(data):
            # a rank-k product: its RREF kernel entries are ratios of k x k minors,
            # past the 61-bit prime's reconstruction bound 2^30 once k = 3
            k = data.draw(st.integers(1, 3))
            nrows, ncols = data.draw(st.integers(k, 5)), data.draw(st.integers(k + 1, 6))
            a = [[rat(data.draw(big), data.draw(st.integers(1, 9))) for _ in range(k)]
                 for _ in range(nrows)]
            b = [[data.draw(big) for _ in range(ncols)] for _ in range(k)]
            m = Matrix(QQ, a) * Matrix(QQ, b)
            self.assert_exact(m)
            lifted.append(linalg._lifted_kernel(m) is not None)

        check()
        assert any(lifted) and not all(lifted)

    def test_prime_dividing_a_pivot_minor_falls_back(self):
        # rank 2 over Q but 1 mod p: the extra vector (1, -1, 0) mod p fails the check
        m = Matrix(QQ, [[1, 1, 0], [1, 1 + self.P, 0]])
        assert linalg._lifted_kernel(m) is None
        self.assert_exact(m)
        assert kernel(m).vectors == ((0, 0, 1),)

    def test_denominator_divisible_by_the_prime_falls_back(self):
        m = Matrix(QQ, [[rat(1, self.P), 1, 2], [2, 4, 8]])
        assert image_mod_p(m, self.P) is None
        assert linalg._lifted_kernel(m) is None
        self.assert_exact(m)

    def test_corrupted_reconstruction_is_refused(self, monkeypatch):
        from lkwb import kernels

        m = Matrix(QQ, [[1, 2, 3], [2, 4, 6], [0, 1, 1]])
        assert linalg._lifted_kernel(m).vectors == ((1, 1, -1),)
        original = kernels.ratrecon_int
        monkeypatch.setattr(kernels, "ratrecon_int", lambda u, p: original(u, p) + 1)
        # the prime lifts a wrong vector, so the exact RREF gives the basis
        assert linalg._lifted_kernel(m) is None
        self.assert_exact(m)
        assert kernel(m).vectors == ((1, 1, -1),)

    def test_full_rank_mod_p_proves_a_zero_kernel(self, monkeypatch):
        monkeypatch.setattr(linalg, "_rref_kernel", None)
        assert kernel(Matrix(QQ, [[1, 2], [3, rat(4, 5)]])).dim == 0


class Term:
    """A formal scalar whose value is the expression that built it.

    Products, sums and differences only record their operands, so two
    results are equal exactly when the same operations ran in the same
    order.  The name "0" is the zero.
    """

    __slots__ = ("expr",)

    def __init__(self, expr):
        self.expr = expr

    def __bool__(self):
        return self.expr != "0"

    def __mul__(self, other):
        return Term(f"({self.expr}*{other.expr})")

    def __add__(self, other):
        return Term(f"({self.expr}+{other.expr})")

    def __sub__(self, other):
        return Term(f"({self.expr}-{other.expr})")

    def __eq__(self, other):
        return isinstance(other, Term) and self.expr == other.expr

    __hash__ = None

    def __repr__(self):
        return self.expr


class TermField:
    """Ground field of Term: just enough for Matrix products."""

    tag = "terms"

    def zero(self):
        return Term("0")

    def one(self):
        return Term("1")

    def coerce(self, x):
        return x if isinstance(x, Term) else Term(str(x))


TERMS = TermField()


def sparse_rows(field, rng, nrows, ncols, density=0.4):
    """Random rows with about `density` nonzero entries; Q(r) entries get denominators."""
    zero = field.zero()

    def entry():
        if rng.random() >= density:
            return zero
        if field is QR:
            return field.random(rng) / field.random(rng)
        return field.random(rng)

    return [[entry() for _ in range(ncols)] for _ in range(nrows)]


def product_cases(field, rng):
    """Operand row lists (a, b): thin, random and all-zero shapes, zero rows and columns."""
    zero = field.zero()
    shapes = [(1, 4, 3), (3, 4, 1), (1, 1, 1), (1, 5, 1), (4, 1, 4)]
    shapes += [(rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)) for _ in range(8)]
    for n, k, m in shapes:
        a = sparse_rows(field, rng, n, k)
        b = sparse_rows(field, rng, k, m)
        if n > 1:
            a[rng.randrange(n)] = [zero] * k
        if m > 1:
            col = rng.randrange(m)
            for row in b:
                row[col] = zero
        yield a, b
    yield [[zero] * 3 for _ in range(2)], sparse_rows(field, rng, 3, 4, 0.6)
    yield sparse_rows(field, rng, 2, 3, 0.6), [[zero] * 4 for _ in range(3)]


PRODUCT_FIELDS = (QQ, cyclotomic_field("phi12"), QR)


class TestMatrixArithmetic:
    def test_product_equals_dense_oracle_over_q(self):
        rng = random.Random(71)
        for a, b in product_cases(QQ, rng):
            got = Matrix(QQ, a) * Matrix(QQ, b)
            assert fractions(got.rows) == oracles.mat_mul(fractions(a), fractions(b))

    def test_product_text_matches_ordered_oracle(self):
        rng = random.Random(72)
        for field in PRODUCT_FIELDS:
            for a, b in product_cases(field, rng):
                got = Matrix(field, a) * Matrix(field, b)
                expect = Matrix(field, oracles.ordered_mat_mul(a, b, field.zero()))
                assert got.to_text() == expect.to_text()
                assert got == expect

    def test_product_keeps_summation_order(self):
        # Term entries record how they were combined: ascending k, a * b
        # first, acc + a * b after, the zero where nothing was summed
        rng = random.Random(73)
        for n, k, m in ((1, 4, 3), (3, 4, 1), (5, 6, 4), (4, 4, 4)):
            a = [[Term(f"a{i}{t}") if rng.random() < 0.6 else Term("0") for t in range(k)]
                 for i in range(n)]
            b = [[Term(f"b{t}{j}") if rng.random() < 0.6 else Term("0") for j in range(m)]
                 for t in range(k)]
            got = Matrix(TERMS, a) * Matrix(TERMS, b)
            assert got.rows == tuple(tuple(r) for r in oracles.ordered_mat_mul(a, b, Term("0")))

    @pytest.mark.parametrize("field", [QQ, QR, cyclotomic_field("phi20")],
                             ids=["Q", "Q(r)", "phi20"])
    def test_cancelled_entries_against_dense_triple_loop(self, field):
        # entry (i, j) of a * b is made to cancel by solving for b[k][j] at
        # the last nonzero a[i][k]: it is the field zero in the dense rows and
        # absent from the (column, entry) pairs of _row_combination
        rng = random.Random(78)
        zero = field.zero()
        cancelled = 0
        for n, k, m in [(4, 5, 4), (3, 6, 5), (6, 4, 6)] * 3:
            a = sparse_rows(field, rng, n, k, 0.7)
            b = sparse_rows(field, rng, k, m, 0.6)
            targets = set()
            for i, row in enumerate(a):
                live = [t for t, x in enumerate(row) if x]
                j = rng.randrange(m)
                if len(live) < 2 or not any(b[t][j] for t in live[:-1]):
                    continue
                partial = sum((row[t] * b[t][j] for t in live[:-1]), zero)
                if partial:
                    b[live[-1]][j] = -partial / row[live[-1]]
                    targets.add((i, j))
            ma, mb = Matrix(field, a), Matrix(field, b)
            got = ma * mb
            expect = oracles.ordered_mat_mul(a, b, zero)
            # a later row's solve may have changed an earlier target's column
            targets = {(i, j) for i, j in targets if not expect[i][j]}
            assert got.rows == tuple(tuple(row) for row in expect)
            assert got.to_text() == Matrix(field, expect).to_text()
            for i, row in enumerate(a):
                pairs = linalg._row_combination(
                    [(t, x) for t, x in enumerate(row) if x], mb._row_nonzeros())
                assert pairs == [(j, x) for j, x in enumerate(expect[i]) if x]
                # None stands for a coefficient of one
                units = [(t, None) for t, x in enumerate(row) if x]
                ones = [(t, field.one()) for t, _ in units]
                assert (linalg._row_combination(units, mb._row_nonzeros())
                        == linalg._row_combination(ones, mb._row_nonzeros()))
                assert list(got._row_nonzeros()[i]) == pairs
            for i, j in targets:
                assert got.rows[i][j] == zero and not got.rows[i][j]
                assert all(c != j for c, _ in got._row_nonzeros()[i])
            cancelled += len(targets)
        assert cancelled >= 5

    def test_scale(self):
        rng = random.Random(75)
        for field in PRODUCT_FIELDS:
            m = Matrix(field, sparse_rows(field, rng, 4, 5, 0.5))
            assert m.scale(field.zero()) == Matrix.zeros(field, 4, 5)
            assert m.scale(field.zero()).to_text() == Matrix.zeros(field, 4, 5).to_text()
            assert m.scale(field.one()) == m
            assert m.scale(field.one()).to_text() == m.to_text()
            c = field.random(rng)
            while not c:
                c = field.random(rng)
            scaled = m.scale(c)
            assert scaled == Matrix(field, [[c * x for x in row] for row in m.rows])
            assert scaled.scale(field.one() / c) == m

    def test_add_sub_with_cancellation(self):
        rng = random.Random(76)
        for field in PRODUCT_FIELDS:
            a = sparse_rows(field, rng, 4, 5, 0.7)
            # b cancels a in some entries, adds to it in others, is zero elsewhere
            b = [[-x if rng.random() < 0.5 else (field.random(rng) if rng.random() < 0.5 else field.zero())
                  for x in row] for row in a]
            ma, mb = Matrix(field, a), Matrix(field, b)
            zeros = Matrix.zeros(field, 4, 5)
            for got, expect in ((ma + mb, [[x + y for x, y in zip(r, s)] for r, s in zip(a, b)]),
                                (ma + mb.scale(-1), [[x - y for x, y in zip(r, s)] for r, s in zip(a, b)])):
                assert got == Matrix(field, expect)
                assert got.to_text() == Matrix(field, expect).to_text()
            assert ma + ma.scale(-1) == zeros
            assert (ma + ma.scale(-1)).to_text() == zeros.to_text()
            assert ma + zeros == ma and (ma + zeros).to_text() == ma.to_text()
            assert ma + zeros.scale(-1) == ma and (ma + zeros.scale(-1)).to_text() == ma.to_text()

    def test_mismatches_still_raise(self):
        phi12 = cyclotomic_field("phi12")
        q, c = Matrix.identity(QQ, 2), Matrix.identity(phi12, 2)
        for op in (lambda: q * c, lambda: q + c, lambda: q + c.scale(-1)):
            with pytest.raises(FieldMismatch):
                op()
        a, b = Matrix.zeros(QQ, 2, 3), Matrix.zeros(QQ, 2, 2)
        for op in (lambda: a * b, lambda: a + b, lambda: a + b.scale(-1)):
            with pytest.raises(DimensionMismatch):
                op()

    def test_cache_filled_by_product_is_not_part_of_the_value(self):
        rng = random.Random(77)
        for field in PRODUCT_FIELDS:
            a = Matrix(field, sparse_rows(field, rng, 3, 4, 0.5))
            b = Matrix(field, sparse_rows(field, rng, 4, 2, 0.5))
            p = a * b
            annihilates(b, [sparse_rows(field, rng, 1, 2, 0.6)[0]])
            annihilates(p * Matrix(field, list(zip(*p.rows))), [(field.one(),) * 3])
            for m in (a, b, p):
                fresh = Matrix(field, m.rows)
                assert m == fresh and fresh == m
                assert m.to_text() == fresh.to_text()
                assert m.content_hash() == fresh.content_hash()
            assert a * b == Matrix(field, a.rows) * Matrix(field, b.rows)


class TestAnnihilates:
    """annihilates(m, vectors), M v = 0 on cleared rows, against a dense product."""

    @staticmethod
    def dense(a, v):
        zero = a.field.zero()
        return [sum((x * y for x, y in zip(row, v)), zero) for row in a.rows]

    @staticmethod
    def cases(field, rng, count):
        """(a, v): kernel vectors of sparse a, one-entry mutants of them, a random v."""
        zero, one = field.zero(), field.one()
        for _ in range(count):
            n, m = rng.randint(1, 4), rng.randint(2, 5)
            rows = sparse_rows(field, rng, n, m, 0.5)
            rows[rng.randrange(n)] = [zero] * m
            a = Matrix(field, rows)
            for v in oracle_null_vectors(field, rows, m):
                yield a, tuple(v)
                w = list(v)
                w[rng.randrange(m)] += one
                yield a, tuple(w)
            yield a, tuple(field.random(rng) if rng.random() < 0.6 else zero for _ in range(m))

    @pytest.mark.parametrize("field", PRODUCT_FIELDS, ids=["Q", "phi12", "Q(r)"])
    def test_against_dense_product(self, field):
        rng = random.Random(61)
        seen = set()
        for a, v in self.cases(field, rng, 12 if field is QR else 30):
            expect = not any(self.dense(a, v))
            assert annihilates(a, [v]) == expect
            assert annihilates(a, [v, v]) == expect
            assert annihilates(a, [(field.zero(),) * a.ncols])
            seen.add(expect)
        assert seen == {True, False}

    def test_zero_matrix(self):
        z = Matrix.zeros(QQ, 3, 4)
        assert annihilates(z, [(rat(1), rat(2), rat(-1), rat(1, 3))])
        assert annihilates(z, [])

    def test_one_failing_vector_fails_the_list(self):
        a = Matrix(QQ, [[1, 2, 3], [2, 4, 6], [0, 1, 1]])
        good, bad = (rat(1), rat(1), rat(-1)), (rat(1), rat(0), rat(0))
        assert annihilates(a, [good])
        assert not annihilates(a, [good, bad]) and not annihilates(a, [bad, good])

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            annihilates(Matrix.identity(QQ, 3), [(rat(1), rat(2))])
        with pytest.raises(DimensionMismatch):
            annihilates(Matrix.identity(QQ, 3), [(rat(0),) * 3, (rat(0),) * 4])

    def test_cache_is_not_part_of_the_value(self):
        rng = random.Random(63)
        for field in (QQ, cyclotomic_field("phi12")):
            a = rand_matrix(field, rng, 3)
            annihilates(a, [tuple(field.random(rng) for _ in range(3))])
            fresh = Matrix(field, a.rows)
            assert a == fresh and fresh == a
            assert a.to_text() == fresh.to_text()
            assert a.content_hash() == fresh.content_hash()


def big_scalar(field, rng):
    """A random scalar: 40-bit numerators and denominators over Q, true denominators over Q(r)."""
    if field == QQ:
        return rat(rng.randint(-10 ** 12, 10 ** 12), rng.randint(1, 10 ** 12))
    if field == QR:
        return field.random(rng) / field.random(rng)
    return field.random(rng)


# fields of the checks against the two-elimination kernel and the reduction residue
REFERENCE_FIELDS = [QQ, QR, cyclotomic_field("phi20")]


class TestExactKernel:
    """_rref_kernel, one RREF of m with its columns reversed, against two eliminations."""

    def test_against_two_eliminations(self):
        # over Q the entries are past the lift's reconstruction bound, so kernel
        # takes the exact path as well
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        lifts = []

        @hyp.settings(max_examples=60, deadline=None, derandomize=True)
        @hyp.given(st.sampled_from(REFERENCE_FIELDS), st.data())
        def check(field, data):
            rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
            size = 3 if field == QR else 5
            nrows, ncols = data.draw(st.integers(1, size)), data.draw(st.integers(1, size + 1))
            inner = data.draw(st.integers(0, min(nrows, ncols)))
            if inner:
                m = (Matrix(field, [[big_scalar(field, rng) for _ in range(inner)]
                                    for _ in range(nrows)])
                     * Matrix(field, [[big_scalar(field, rng) for _ in range(ncols)]
                                      for _ in range(inner)]))
            else:
                m = Matrix.zeros(field, nrows, ncols)
            rows, pivots = oracles.kernel_by_two_eliminations(
                [list(row) for row in m.rows], ncols, field.zero(), field.one())
            got = linalg._rref_kernel(m)
            assert got.vectors == tuple(rows) and got.pivots == tuple(pivots)
            assert texts(got.vectors) == texts(rows)
            assert kernel(m) == got
            if field == QQ and got.dim and any(x.denominator > 1 << 30 for v in rows for x in v):
                lifts.append(linalg._lifted_kernel(m) is not None)

        check()
        assert lifts and not any(lifts)

    @pytest.mark.parametrize("field", REFERENCE_FIELDS, ids=["Q", "Q(r)", "phi20"])
    def test_one_elimination(self, field, monkeypatch):
        rng = random.Random(65)
        calls = []
        rref = linalg._rref

        def counting(rows, f):
            calls.append(len(rows))
            return rref(rows, f)

        monkeypatch.setattr(linalg, "_rref", counting)
        m = rand_matrix(field, rng, 2, 3) * rand_matrix(field, rng, 3, 5)
        assert linalg._rref_kernel(m).dim == 3
        assert calls == [2]

    def test_one_elimination_for_m_n(self, monkeypatch):
        mn = build_m_matrix(rep_at(6, named_locus("l=-r3", 6), rat(37, 11))).matrix
        calls = []
        rref = linalg._rref
        monkeypatch.setattr(linalg, "_rref", lambda rows, f: calls.append(1) or rref(rows, f))
        assert linalg._rref_kernel(mn).dim == 10
        assert calls == [1]


class TestSubspaces:
    def test_intersection_idempotent(self):
        s = SubspaceBasis.from_vectors(QQ, 4, [(1, 2, 0, 0), (0, 0, 1, 5)])
        assert subspace_intersect(s, s) == s

    def test_complementary_coordinate_subspaces(self):
        a = SubspaceBasis.coordinate(QQ, 4, [0, 1])
        b = SubspaceBasis.coordinate(QQ, 4, [2, 3])
        assert subspace_intersect(a, b).dim == 0

    def test_dimension_formula(self):
        rng = random.Random(21)
        for _ in range(25):
            a = SubspaceBasis.from_vectors(QQ, 5, [[QQ.random(rng) for _ in range(5)] for _ in range(2)])
            b = SubspaceBasis.from_vectors(QQ, 5, [[QQ.random(rng) for _ in range(5)] for _ in range(3)])
            inter = subspace_intersect(a, b)
            total = SubspaceBasis.from_vectors(QQ, 5, a.vectors + b.vectors)
            assert inter.dim == a.dim + b.dim - total.dim

    def test_containment(self):
        s = SubspaceBasis.from_vectors(QQ, 3, [(1, 1, 0)])
        assert s.contains((2, 2, 0))
        assert not s.contains((1, 0, 0))

    def test_containment_refuses_a_vector_of_another_length(self):
        s = SubspaceBasis.from_vectors(QQ, 3, [(1, 2, 0), (0, 0, 1)])
        for v in ((1, 2, 0, 0), (1, 2), ()):
            with pytest.raises(AmbientMismatch):
                s.contains(v)
        with pytest.raises(AmbientMismatch):
            SubspaceBasis.zero(QQ, 3).contains((0, 0))

    def test_containment_against_the_reduction_oracle(self):
        # a combination of the basis, or of random rows, with one entry moved
        # or not; the pivot identity and the reduction residue must agree
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        seen = set()

        @hyp.settings(max_examples=80, deadline=None, derandomize=True)
        @hyp.given(st.sampled_from(REFERENCE_FIELDS), st.data())
        def check(field, data):
            rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
            n = data.draw(st.integers(1, 5))
            zero, one = field.zero(), field.one()
            rows = [[big_scalar(field, rng) if rng.random() < 0.7 else zero for _ in range(n)]
                    for _ in range(data.draw(st.integers(0, n)))]
            space = SubspaceBasis.from_vectors(field, n, rows)
            v = [zero] * n
            for row in rows:
                c = big_scalar(field, rng)
                v = [x + c * y for x, y in zip(v, row)]
            if data.draw(st.booleans()):
                j = data.draw(st.integers(0, n - 1))
                v[j] = v[j] + data.draw(st.sampled_from([one, big_scalar(field, rng)]))
            expect = not any(oracles.residue_by_reduction(space.vectors, space.pivots, v))
            assert space.contains(tuple(v)) == expect
            assert space.contains(tuple(v)) == expect
            assert space == SubspaceBasis.from_vectors(field, n, rows)
            if space.dim:
                assert space.contains(space.vectors[-1])
                assert space.contains(tuple(list(space.vectors[-1])))
            seen.add(expect)

        check()
        assert seen == {True, False}


class TestClosureInvariance:
    def test_eigenvector_already_closed(self):
        op = Matrix(QQ, [[2, 0], [0, 3]])
        assert operator_closure([(1, 0)], [op]).dim == 1

    def test_irreducible_action_fills_space(self):
        rot = Matrix(QQ, [[0, -1], [1, 0]])
        assert operator_closure([(1, 0)], [rot]).dim == 2

    def test_zero_seed(self):
        with pytest.raises(ZeroSeed):
            operator_closure([(0, 0)], [Matrix.identity(QQ, 2)])

    def test_closure_is_invariant_and_contains_seed(self):
        rng = random.Random(31)
        ops = [rand_matrix(QQ, rng, 4) for _ in range(2)]
        seed = tuple(QQ.random(rng) for _ in range(4))
        basis = operator_closure([seed], ops)
        assert is_invariant(basis, ops)
        assert basis.contains(seed)

    def test_shape_errors(self):
        eye = Matrix.identity(QQ, 2)
        with pytest.raises(DimensionMismatch):
            operator_closure([(1, 0)], [])
        with pytest.raises(DimensionMismatch):
            operator_closure([(1, 0)], [eye, Matrix.identity(QQ, 3)])
        with pytest.raises(DimensionMismatch):
            operator_closure([(1, 0)], [Matrix.zeros(QQ, 2, 3)])
        with pytest.raises(DimensionMismatch):
            operator_closure([(1, 0, 0)], [eye])

    def test_against_naive_closure_oracle(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        entries = st.sampled_from([rat(0), rat(0), rat(0), rat(1), rat(-1), rat(2), rat(1, 2),
                                   rat(-3, 5)])

        @st.composite
        def operator(draw, n):
            kind = draw(st.sampled_from(["random", "nilpotent", "rank one"]))
            if kind == "random":
                rows = [[draw(entries) for _ in range(n)] for _ in range(n)]
            elif kind == "nilpotent":
                # strictly upper triangular, then the basis permuted
                perm = draw(st.permutations(range(n)))
                upper = [[draw(entries) if j > i else rat(0) for j in range(n)] for i in range(n)]
                rows = [[upper[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
            else:
                u = [draw(entries) for _ in range(n)]
                w = [draw(entries) for _ in range(n)]
                rows = [[a * b for b in w] for a in u]
            return Matrix(QQ, rows)

        @st.composite
        def cases(draw):
            n = draw(st.integers(2, 5))
            ops = draw(st.lists(operator(n), min_size=1, max_size=3))
            seeds = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=1, max_size=3))
            hyp.assume(any(any(v) for v in seeds))
            return seeds, ops

        @hyp.settings(max_examples=150, deadline=None, derandomize=True)
        @hyp.given(cases())
        def check(case):
            seeds, ops = case
            got = operator_closure(seeds, ops)
            expect = oracles.naive_closure(fractions(seeds), [fractions(op.rows) for op in ops])
            assert fractions(got.vectors) == expect
            assert is_invariant(got, ops)

        check()

    def test_full_space_invariant(self):
        rot = Matrix(QQ, [[0, -1], [1, 0]])
        assert is_invariant(SubspaceBasis.coordinate(QQ, 2, [0, 1]), [rot])
        assert not is_invariant(SubspaceBasis.from_vectors(QQ, 2, [(1, 1)]), [rot])

    @staticmethod
    def scalar(field, rng):
        """A random scalar: large denominators over Q, true denominators over Q(r)."""
        if field == QQ:
            return rat(rng.randint(-10 ** 9, 10 ** 9), rng.randint(1, 10 ** 9))
        if field == QR:
            return field.random(rng) / field.random(rng)
        return field.random(rng)

    def test_pivot_identity_against_the_reduction_oracle(self):
        # ops = S T S^-1 with T block upper triangular leave the span of the first
        # d columns of S invariant; a mutant moves one entry of an op or of a
        # basis vector off its pivots, and both checks must then agree
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        fields = [QQ, QR, cyclotomic_field("phi20")]

        @hyp.settings(max_examples=60, deadline=None, derandomize=True)
        @hyp.given(st.sampled_from(fields), st.integers(2, 4), st.data())
        def check(field, n, data):
            rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
            d = data.draw(st.integers(0, n))
            one, zero = field.one(), field.zero()
            s = Matrix(field, [[one if i == j else field.random(rng) if j < i else zero
                                for j in range(n)] for i in range(n)])
            s_inv = inverse(s)
            ops = []
            for _ in range(data.draw(st.integers(1, 2))):
                t = Matrix(field, [[zero if i >= d > j else self.scalar(field, rng)
                                    for j in range(n)] for i in range(n)])
                ops.append(s * t * s_inv)
            space = SubspaceBasis.from_vectors(field, n, [[s.rows[i][j] for i in range(n)]
                                                          for j in range(d)])
            assert is_invariant(space, ops)
            mutant = data.draw(st.sampled_from(["none", "op", "basis"]))
            if mutant == "op":
                k, i, j = (data.draw(st.integers(0, x - 1)) for x in (len(ops), n, n))
                rows = [list(row) for row in ops[k].rows]
                rows[i][j] = rows[i][j] + one
                ops[k] = Matrix(field, rows)
            free = [j for j in range(n) if j not in space.pivots]
            if mutant == "basis" and d and free:
                i, j = data.draw(st.integers(0, d - 1)), data.draw(st.sampled_from(free))
                vectors = [list(v) for v in space.vectors]
                vectors[i][j] = vectors[i][j] + one
                space = SubspaceBasis(field, n, tuple(map(tuple, vectors)), space.pivots,
                                      _trusted=True)
            expect = oracles.invariant_by_reduction(
                [list(v) for v in space.vectors], space.pivots, [op.rows for op in ops], zero)
            assert is_invariant(space, ops) == expect

        check()

    @pytest.mark.parametrize("n, locus, r", [(5, "l=r", "101/7"), (4, "l=-r3", "37/11"),
                                             (5, "l=-r3", "phi20"), (4, "l=+r3-n", "Q(r)")])
    def test_mutants_of_the_kernel_are_refused(self, n, locus, r):
        loc = named_locus(locus, n)
        if r == "Q(r)":
            rep = substituted_rep(n, loc.eps, loc.k)
        else:
            r_val = cyclotomic_field(r).gen() if r.startswith("phi") else parse_rat(r)
            rep = rep_at(n, loc, r_val)
        space = kernel(build_m_matrix(rep).matrix)
        field, ops, one = rep.field, list(rep.g), rep.field.one()

        def oracle(space, ops):
            return oracles.invariant_by_reduction([list(v) for v in space.vectors],
                                                  space.pivots, [op.rows for op in ops],
                                                  field.zero())

        assert space.dim and is_invariant(space, ops) and oracle(space, ops)
        # one basis entry moved off the pivots
        free = next(j for j in range(space.ambient_dim) if j not in space.pivots)
        vectors = [list(v) for v in space.vectors]
        vectors[0][free] = vectors[0][free] + one
        moved = SubspaceBasis(field, space.ambient_dim, tuple(map(tuple, vectors)), space.pivots,
                              _trusted=True)
        assert not is_invariant(moved, ops) and not oracle(moved, ops)
        # one generator entry: g_1 + E_ij sends the last basis vector, 1 at
        # column j, to its old image plus the unit vector e_i outside the
        # space, and every other basis vector, 0 at column j, to its old image
        units = [tuple(one if k == i else field.zero() for k in range(space.ambient_dim))
                 for i in range(space.ambient_dim)]
        i = next(i for i, e_i in enumerate(units) if not space.contains(e_i))
        j = space.pivots[-1]
        rows = [list(row) for row in ops[0].rows]
        rows[i][j] = rows[i][j] + one
        broken = [Matrix(field, rows)] + ops[1:]
        assert not is_invariant(space, broken) and not oracle(space, broken)


def oracle_rref(rows):
    """Nonzero rows, as tuples, and pivots of the naive Gauss-Jordan RREF."""
    rref, pivots = oracles.naive_rref(rows)
    return [tuple(row) for row in rref[:len(pivots)]], pivots


def oracle_null_vectors(field, rows, ncols):
    """One null vector per free column of the oracle RREF, 1 there."""
    rref, pivots = oracle_rref(rows)
    vecs = []
    for f in range(ncols):
        if f not in pivots:
            v = [field.zero()] * ncols
            v[f] = field.one()
            for row, p in zip(rref, pivots):
                v[p] = -row[f]
            vecs.append(v)
    return vecs


def oracle_intersection(field, a, b):
    """RREF of a ∩ b from the null space of the columns (a | -b), recombined."""
    n = a.ambient_dim
    cols = list(a.vectors) + [[-x for x in w] for w in b.vectors]
    null = oracle_null_vectors(field, [[col[i] for col in cols] for i in range(n)], len(cols))
    vecs = []
    for coef in null:
        acc = [field.zero()] * n
        for c, u in zip(coef, a.vectors):
            for j, x in enumerate(u):
                acc[j] = acc[j] + c * x
        vecs.append(acc)
    return oracle_rref(vecs)


def texts(rows):
    return [[scalar_to_text(x) for x in row] for row in rows]


def elimination_cases(field, rng, count, size):
    """Rows of random products, tall or wide, every other one rank-deficient.

    Some gain a zero row or a repeated row.
    """
    for case in range(count):
        nrows, ncols = rng.randint(1, size), rng.randint(1, size)
        # odd cases go through an inner dimension below both sides, zero included
        inner = rng.randint(1, min(nrows, ncols)) - case % 2
        if inner:
            m = rand_matrix(field, rng, nrows, inner) * rand_matrix(field, rng, inner, ncols)
        else:
            m = Matrix.zeros(field, nrows, ncols)
        rows = list(m.rows)
        if rng.random() < 0.5:
            rows.insert(rng.randrange(len(rows) + 1), (field.zero(),) * ncols)
        if rng.random() < 0.5:
            rows.insert(rng.randrange(len(rows) + 1), rows[rng.randrange(len(rows))])
        yield rows


# (field, number of cases, largest dimension) of the shared-elimination checks
ELIMINATION_FIELDS = [
    pytest.param(QQ, 30, 6, id="Q"),
    pytest.param(cyclotomic_field("phi12"), 10, 4, id="phi12"),
    pytest.param(QR, 8, 3, id="Q(r)"),
]


class TestSharedEliminationAgainstOracles:
    """The semi-echelon engine against the naive Gauss-Jordan oracles, value and text."""

    @pytest.mark.parametrize("field,count,size", ELIMINATION_FIELDS)
    def test_span_rank_and_kernel(self, field, count, size):
        rng = random.Random(61)
        for rows in elimination_cases(field, rng, count, size):
            ncols = len(rows[0])
            expect, pivots = oracle_rref(rows)
            span = SubspaceBasis.from_vectors(field, ncols, rows)
            assert span.vectors == tuple(expect) and span.pivots == tuple(pivots)
            assert texts(span.vectors) == texts(expect)
            m = Matrix(field, rows)
            assert rank(m) == len(pivots)
            null, _ = oracle_rref(oracle_null_vectors(field, rows, ncols))
            ker = kernel(m)
            assert ker.vectors == tuple(null)
            assert texts(ker.vectors) == texts(null)

    @pytest.mark.parametrize("field,count,size", ELIMINATION_FIELDS)
    def test_inverse(self, field, count, size):
        rng = random.Random(62)
        one, zero = field.one(), field.zero()
        for case in range(count):
            # one size below the other checks, as an inverse eliminates n x 2n;
            # odd cases are singular, a product through n - 1
            n = rng.randint(1 + case % 2, size - 1)
            inner = n - case % 2
            m = rand_matrix(field, rng, n, inner) * rand_matrix(field, rng, inner, n)
            aug = [list(row) + [one if i == j else zero for j in range(n)]
                   for i, row in enumerate(m.rows)]
            rref, pivots = oracle_rref(aug)
            if pivots[:n] != list(range(n)):
                with pytest.raises(DivisionByZero):
                    inverse(m)
                continue
            expect = [row[n:] for row in rref]
            got = inverse(m)
            assert got.rows == tuple(expect)
            assert texts(got.rows) == texts(expect)

    @pytest.mark.parametrize("field,count,size", ELIMINATION_FIELDS)
    def test_intersection(self, field, count, size):
        rng = random.Random(63)
        for rows in elimination_cases(field, rng, count, size):
            ncols = len(rows[0])
            shared = [rows[rng.randrange(len(rows))] for _ in range(rng.randint(0, 2))]
            others = list(rand_matrix(field, rng, rng.randint(1, size), ncols).rows)
            a = SubspaceBasis.from_vectors(field, ncols, rows)
            b = SubspaceBasis.from_vectors(field, ncols, shared + others[:rng.randint(0, size)])
            for x, y in ((a, b), (b, a), (a, a), (a, SubspaceBasis.zero(field, ncols))):
                expect, pivots = oracle_intersection(field, x, y)
                got = subspace_intersect(x, y)
                assert got.vectors == tuple(expect) and got.pivots == tuple(pivots)
                assert texts(got.vectors) == texts(expect)
                total = SubspaceBasis.from_vectors(field, ncols, x.vectors + y.vectors)
                assert got.dim == x.dim + y.dim - total.dim

    @pytest.mark.parametrize("field,count,size", ELIMINATION_FIELDS)
    def test_closure(self, field, count, size):
        rng = random.Random(64)
        for seeds in elimination_cases(field, rng, count, size):
            if not any(any(v) for v in seeds):
                continue
            n = len(seeds[0])
            inner = rng.randint(1, n)
            ops = [rand_matrix(field, rng, n, inner) * rand_matrix(field, rng, inner, n),
                   Matrix(field, [[field.random(rng) if j > i else field.zero() for j in range(n)]
                                  for i in range(n)])]
            ops = ops[:rng.randint(1, 2)]
            expect = oracles.naive_closure([list(v) for v in seeds],
                                           [[list(row) for row in op.rows] for op in ops])
            got = operator_closure(seeds, ops)
            assert got.vectors == tuple(map(tuple, expect))
            assert texts(got.vectors) == texts(expect)


# sha256 of the K(n) basis and of the closures of its vectors, recorded before
# the field eliminations of linalg were merged into one semi-echelon engine
PINNED_KERNELS = [
    (6, "l=-r3", "phi24",
     "8ee38390cb1e513d10e47ac2dbb088116b10b370b7597f842521795d4210be64",
     "62f082ae5757fafa35efbc55f6d86005fbb8a25ed88969cbcf992fce57116faa"),
    (5, "l=r3-2n", "phi20",
     "6434ef13124797ee20cf87e47d7c3436f8d73efe006e248620d58cf9dcb3827d",
     "9d534548a6eda03b07a37208668a54a6ba324725d662e8d1c4b1140a7358256b"),
    (7, "l=r", "2",
     "3cb889fcb63d0b5d5f55136d827c911c2f829afe0e2a85e03eb43c81215c972f",
     "ce06f5db07ad7969223e45852445c10d7c4105c19cb6990b66736316598a5a0a"),
    (7, "l=+r3-n", "2",
     "ff3f642c0416150fb59b6686eb6d0d4125d8809513cee84687adecd353e8b781",
     "73745a3d6c2aba9a09c91df44dc5880a0d4f8e14dfbdfe317416b5be40b1f9ee"),
    (6, "l=-r3", "3/2",
     "39a4006b9e3640cc1db3ba95c747f9dfc4a3ad912647e70f38fa90d0d335d1b6",
     "2bd0932dd98d7d94673f0784c7cb06d680702d20ec35372cb77d6f193597e107"),
]


@pytest.mark.parametrize("n,locus,r,basis_hash,closures_hash", PINNED_KERNELS,
                         ids=[f"{n}-{locus}-{r.replace('/', '_')}"
                              for n, locus, r, _, _ in PINNED_KERNELS])
def test_pinned_kernel_bases_and_closures(n, locus, r, basis_hash, closures_hash):
    def sha(obj):
        return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()

    r_val = cyclotomic_field(r).gen() if r.startswith("phi") else Fraction(r)
    report, _, _, closures = _kernel_at(n, named_locus(locus, n), r_val)
    assert sha(report.basis.to_json_obj()) == basis_hash
    assert sha([c.to_json_obj() for c in closures]) == closures_hash


class TestSubmatrixCertificates:
    def test_identity(self):
        ri, ci = find_invertible_submatrix(Matrix.identity(QQ, 5), 5)
        assert ri == (0, 1, 2, 3, 4) and ci == (0, 1, 2, 3, 4)

    def test_rank_one_not_found(self):
        m = Matrix(QQ, [[1, 2], [2, 4]])
        with pytest.raises(SubmatrixNotFound):
            find_invertible_submatrix(m, 2)

    def test_returned_minor_is_invertible(self):
        rng = random.Random(17)
        for _ in range(10):
            m = rand_matrix(QQ, rng, 4, 6)
            s = rank(m)
            if s == 0:
                continue
            ri, ci = find_invertible_submatrix(m, s)
            assert det(m.submatrix(ri, ci)) != 0

    def test_function_field_path(self):
        R = RatFunc.var_r()
        m = Matrix(QR, [[R, 1, R ** 2], [R ** 2, R, R + 1], [R ** 3, R ** 2, 0]])
        s = rank(m)
        ri, ci = find_invertible_submatrix(m, s)
        assert det(m.submatrix(ri, ci)) != 0
        with pytest.raises(SubmatrixNotFound):
            find_invertible_submatrix(m, s + 1)

    def test_function_field_minors_have_nonzero_det(self):
        rng = random.Random(47)
        for _ in range(10):
            # B C with B 5 x s and C s x 4 has rank at most s; row i is then
            # divided by d_i, which keeps the rank
            s = rng.randint(1, 3)
            b = Matrix(QR, [[QR.random(rng) for _ in range(s)] for _ in range(5)])
            c = Matrix(QR, [[QR.random(rng) for _ in range(4)] for _ in range(s)])
            dens = [QR.random(rng) for _ in range(5)]
            m = Matrix(QR, [[x / d for x in row] for row, d in zip((b * c).rows, dens)])
            ri, ci = find_invertible_submatrix(m, rank(m))
            assert det(m.submatrix(ri, ci))
        # M(4) at l = r has a kernel of dimension 2
        m = build_m_matrix(substituted_rep(4, 1, 1)).matrix
        s = rank(m)
        assert s == m.nrows - 2
        ri, ci = find_invertible_submatrix(m, s)
        assert det(m.submatrix(ri, ci))
        with pytest.raises(SubmatrixNotFound):
            find_invertible_submatrix(m, s + 1)

    def test_bivariate_path(self):
        L, R = RatFunc.var_l(), RatFunc.var_r()
        top = [[L, R, 1, L * R, 0], [1, L + R, R, 0, L]]
        dependent = [L * a - R * b for a, b in zip(*top)]
        m = Matrix(QLR, top + [dependent, [1 / (R + 1), 0, L, 1, L / (R - 1)]])
        ri, ci = find_invertible_submatrix(m, 3)
        assert det(m.submatrix(ri, ci))
        with pytest.raises(SubmatrixNotFound):
            find_invertible_submatrix(m, 4)

    def test_bivariate_field_elimination_refused(self):
        # a 4 x 5 product of rank 2 over Q(l,r), whose field elimination once
        # ran a bivariate gcd for 117 s: its pivots involve l, so dividing by
        # one is refused at once
        rng = random.Random(23)
        m = rand_matrix(QLR, rng, 4, 2) * rand_matrix(QLR, rng, 2, 5)
        start = time.perf_counter()
        with pytest.raises(DenominatorInL):
            rank(m)
        assert time.perf_counter() - start < 1

    def test_bivariate_minor_checked_by_det(self):
        # the same product: the search and the det check of its minor both
        # eliminate fraction-free, so neither divides by a pivot in l
        rng = random.Random(23)
        m = rand_matrix(QLR, rng, 4, 2) * rand_matrix(QLR, rng, 2, 5)
        ri, ci = find_invertible_submatrix(m, 2)
        assert (ri, ci) == ((0, 1), (2, 4))
        assert det(m.submatrix(ri, ci))
        with pytest.raises(SubmatrixNotFound):
            find_invertible_submatrix(m, 3)

    def test_number_field_path(self):
        # B C with B 4 x 2 and C 2 x 5 has rank at most 2
        field = cyclotomic_field("phi12")
        rng = random.Random(23)
        for _ in range(3):
            m = rand_matrix(field, rng, 4, 2) * rand_matrix(field, rng, 2, 5)
            s = rank(m)
            ri, ci = find_invertible_submatrix(m, s)
            assert len(ri) == len(ci) == s == 2
            assert rank(m.submatrix(ri, ci)) == s
            with pytest.raises(SubmatrixNotFound):
                find_invertible_submatrix(m, s + 1)

    def test_size_exceeds_dimensions(self):
        with pytest.raises(DimensionMismatch):
            find_invertible_submatrix(Matrix.identity(QQ, 2), 3)


class TestCommutant:
    def test_identity_only(self):
        assert len(commutant_basis([Matrix.identity(QQ, 3)])) == 9

    def test_irreducible_pair_gives_scalars(self):
        ops = [Matrix(QQ, [[0, -1], [1, 0]]), Matrix(QQ, [[1, 1], [0, 1]])]
        basis = commutant_basis(ops)
        assert len(basis) == 1

    def test_contains_identity(self):
        rng = random.Random(23)
        ops = [rand_matrix(QQ, rng, 3) for _ in range(2)]
        basis = commutant_basis(ops)
        span = SubspaceBasis.from_vectors(QQ, 9, [tuple(x for row in b.rows for x in row) for b in basis])
        eye = tuple(x for row in Matrix.identity(QQ, 3).rows for x in row)
        assert span.contains(eye)

    def test_every_basis_element_commutes(self):
        rng = random.Random(29)
        ops = [rand_matrix(QQ, rng, 3) for _ in range(2)]
        for b in commutant_basis(ops):
            for op in ops:
                assert b * op == op * b

    @pytest.mark.parametrize("n", [4, 5])
    def test_lk_generators_scalar_at_every_catalog_locus(self, n):
        for locus in catalog(n):
            ops = list(rep_at(n, locus, rat(2)).g)
            assert commutant_basis(ops) == [Matrix.identity(QQ, ops[0].nrows)], locus.name

    def _count_dense_kernels(self, monkeypatch):
        calls = []
        dense_kernel = linalg.kernel

        def counted(m):
            calls.append(m)
            return dense_kernel(m)

        monkeypatch.setattr(linalg, "kernel", counted)
        return calls

    def test_scalar_commutant_with_no_one_row_operator_takes_the_exact_kernel(self, monkeypatch):
        calls = self._count_dense_kernels(monkeypatch)
        ops = [Matrix(QQ, [[0, -1], [1, 0]]), Matrix(QQ, [[1, rat(1, 3)], [0, 1]])]
        assert commutant_basis(ops) == [Matrix.identity(QQ, 2)] == self._dense_commutant(ops)
        assert len(calls) == 1

    def test_denominator_divisible_by_p_falls_back(self, monkeypatch):
        p = residue_prime(QQ)
        calls = self._count_dense_kernels(monkeypatch)
        ops = [Matrix(QQ, [[0, -1], [1, 0]]), Matrix(QQ, [[1, rat(1, p)], [0, 1]])]
        assert commutant_basis(ops) == [Matrix.identity(QQ, 2)]
        assert len(calls) == 1
        diag = [Matrix(QQ, [[1, 0], [0, rat(3, 2 * p)]])]
        assert commutant_basis(diag) == [Matrix(QQ, [[1, 0], [0, 0]]), Matrix(QQ, [[0, 0], [0, 1]])]

    def test_numerator_divisible_by_p_falls_back_to_exact_scalars(self, monkeypatch):
        # mod p the second operator is the identity, so only the rotation
        # constrains X there and the nullity mod p is 2; over Q it is 1
        p = residue_prime(QQ)
        calls = self._count_dense_kernels(monkeypatch)
        ops = [Matrix(QQ, [[0, -1], [1, 0]]), Matrix(QQ, [[1, p], [0, 1]])]
        assert commutant_basis(ops) == [Matrix.identity(QQ, 2)]
        assert len(calls) == 1

    @staticmethod
    def _system_nullity(ops):
        return len(TestCommutant._dense_commutant(ops))

    @staticmethod
    def _dense_commutant(ops):
        """The RREF kernel of the whole exact system A X - X A = 0, X row-major, as matrices.

        Entry (i, j) of A X - X A is sum_p A_ip X_pj - sum_q X_iq A_qj.
        """
        field, n = ops[0].field, ops[0].nrows
        rows = []
        for a in ops:
            for i in range(n):
                for j in range(n):
                    row = [field.zero()] * (n * n)
                    for p in range(n):
                        row[p * n + j] = row[p * n + j] + a.rows[i][p]
                        row[i * n + p] = row[i * n + p] - a.rows[p][j]
                    rows.append(row)
        return [Matrix(field, [v[i * n:(i + 1) * n] for i in range(n)])
                for v in kernel(Matrix(field, rows)).vectors]

    @pytest.mark.parametrize("name", ["phi12", "phi20", "phi24"])
    def test_number_field_scalars_exactly_when_system_nullity_is_one(self, name):
        field = cyclotomic_field(name)
        x = field.gen()
        rng = random.Random(name)
        cases = [list(rep_at(n, named_locus("custom", n, custom_l=rat(l)), x).g)
                 for n, l in ((3, 2), (4, 5))]
        cases += [list(rep_at(n, locus, x).g) for n in (3, 4) for locus in catalog(n)]
        cases.append([rand_matrix(field, rng, 3) for _ in range(2)])
        # block-diagonal control: X = diag(a, a, b) commutes with both operators
        one, zero = field.one(), field.zero()
        cases.append([Matrix(field, [[x, one, zero], [zero, x, zero], [zero, zero, one]]),
                      Matrix(field, [[one, zero, zero], [x, one, zero], [zero, zero, x * x]])])
        dense = [self._dense_commutant(ops) for ops in cases]
        nullities = [len(basis) for basis in dense]
        assert 1 in nullities and nullities[-1] == 2
        for ops, nullity, expected in zip(cases, nullities, dense):
            basis = commutant_basis(ops)
            assert basis == expected
            assert (basis == [Matrix.identity(field, ops[0].nrows)]) == (nullity == 1)

    def test_number_field_denominator_divisible_by_p_falls_back(self, monkeypatch):
        field = cyclotomic_field("phi24")
        p = residue_prime(field)
        x = field.gen()
        calls = self._count_dense_kernels(monkeypatch)
        ops = [Matrix(field, [[0, -1], [1, 0]]), Matrix(field, [[1, x * rat(1, p)], [0, 1]])]
        assert commutant_basis(ops) == [Matrix.identity(field, 2)]
        assert len(calls) == 1

    def _count_systems(self, monkeypatch):
        calls = []
        build = linalg._commutant_rows

        def counted(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(linalg, "_commutant_rows", counted)
        return calls

    def test_one_row_operator_spin_against_dense_commutant(self, monkeypatch):
        # a planted E = e_a w^T among random operators: wherever the spin of
        # e_a reaches n, [I] comes back before any system is built, and every
        # basis equals the dense exact one
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        entries = st.sampled_from([rat(0), rat(0), rat(0), rat(1), rat(-1), rat(2), rat(1, 2),
                                   rat(-3, 5)])
        systems = self._count_systems(monkeypatch)
        seen = set()

        @hyp.settings(max_examples=60, deadline=None, derandomize=True)
        @hyp.given(st.integers(1, 4), st.data())
        def check(n, data):
            ops = [Matrix(QQ, [[data.draw(entries) for _ in range(n)] for _ in range(n)])
                   for _ in range(data.draw(st.integers(0, 2)))]
            a = data.draw(st.integers(0, n - 1))
            w = [data.draw(entries) for _ in range(n)]
            hyp.assume(any(w))
            planted = Matrix(QQ, [w if i == a else [rat(0)] * n for i in range(n)])
            ops.insert(0, planted)  # the first operator with one nonzero row
            before = len(systems)
            basis = commutant_basis(ops)
            assert basis == self._dense_commutant(ops)
            spun = spin_mod_p({a: 1}, [columns_mod_p(op, residue_prime(QQ)) for op in ops],
                              residue_prime(QQ)) == n
            assert (len(systems) == before) == spun
            seen.add((spun, len(basis) == 1))

        check()
        assert seen == {(True, True), (False, True), (False, False)}

    def test_short_spin_falls_to_the_exact_kernel(self, monkeypatch):
        systems = self._count_systems(monkeypatch)
        calls = self._count_dense_kernels(monkeypatch)
        p = residue_prime(QQ)
        # E = e_0 e_1^T and diag(1, 2): the spin of e_0 is its line, yet
        # X = diag(x, y) with x = y, so the exact kernel gives the scalars
        line = [Matrix(QQ, [[0, 1], [0, 0]]), Matrix(QQ, [[1, 0], [0, 2]])]
        assert spin_mod_p({0: 1}, [columns_mod_p(op, p) for op in line], p) == 1
        assert commutant_basis(line) == [Matrix.identity(QQ, 2)]
        assert len(systems) == 1 and len(calls) == 1
        # block diagonal: the spin of e_0 stays in the first block, where the
        # commutant is diag(a, a, b), and the dense path gives its dimension 2
        blocks = [Matrix(QQ, [[1, 1, 0], [0, 0, 0], [0, 0, 0]]),
                  Matrix(QQ, [[0, 1, 0], [1, 0, 0], [0, 0, 2]])]
        assert spin_mod_p({0: 1}, [columns_mod_p(op, p) for op in blocks], p) == 2
        basis = commutant_basis(blocks)
        assert len(basis) == 2 == self._system_nullity(blocks)
        assert basis == self._dense_commutant(blocks)
        assert len(systems) == 2 and len(calls) == 2

    def test_one_row_operator_with_denominator_p_falls_back(self, monkeypatch):
        p = residue_prime(QQ)
        systems = self._count_systems(monkeypatch)
        calls = self._count_dense_kernels(monkeypatch)
        # the spin of e_0 under E and the cyclic shift is everything, but E
        # has no image mod p: no spin, one dense kernel
        shift = Matrix(QQ, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
        ops = [Matrix(QQ, [[1, rat(1, p), 0], [0, 0, 0], [0, 0, 0]]), shift]
        assert commutant_basis(ops) == [Matrix.identity(QQ, 3)]
        assert len(systems) == 1 and len(calls) == 1

    @pytest.mark.parametrize("r", ["2", "3/2", "37/11", "phi12", "phi20", "phi24"])
    def test_adding_e1_keeps_the_commutant_of_a_gated_rep(self, r, monkeypatch):
        # e_1 = (l/m)(g_1^2 + m g_1 - 1) on a rep that passes the gate; with
        # it the spin certifies, without it the exact kernel does
        r_val = cyclotomic_field(r).gen() if r.startswith("phi") else parse_rat(r)
        systems = self._count_systems(monkeypatch)
        for n in range(3, 7):
            if r == "phi12" and n == 6:  # r^12 = 1
                continue
            for locus in catalog(n):
                rep = rep_at(n, locus, r_val)
                with_e1 = commutant_basis([*rep.g, rep.e[0]])
                assert not systems
                assert with_e1 == commutant_basis(list(rep.g)) == [Matrix.identity(rep.field,
                                                                                   rep.dim)]
                systems.clear()

    def test_commutant_dim_against_sympy_nullspace(self):
        hyp = pytest.importorskip("hypothesis")
        sympy = pytest.importorskip("sympy")
        st = hyp.strategies
        entries = st.sampled_from([rat(0), rat(0), rat(1), rat(-1), rat(2), rat(1, 2), rat(-3, 5)])

        @st.composite
        def operators(draw):
            n = draw(st.integers(1, 3))
            count = draw(st.integers(1, 2))
            return [Matrix(QQ, [[draw(entries) for _ in range(n)] for _ in range(n)])
                    for _ in range(count)]

        @hyp.settings(max_examples=60, deadline=None, derandomize=True)
        @hyp.given(operators())
        def check(ops):
            n = ops[0].nrows
            eye = sympy.eye(n)
            blocks = []
            for op in ops:
                a = sympy.Matrix([[sympy.Rational(int(x.numerator), int(x.denominator))
                                   for x in row] for row in op.rows])
                # row-major vec(X A - A X) = (I (x) A^T - A (x) I) vec(X)
                blocks.append(sympy.kronecker_product(eye, a.T) - sympy.kronecker_product(a, eye))
            system = sympy.Matrix.vstack(*blocks)
            assert len(commutant_basis(ops)) == len(system.nullspace())

        check()


class TestRankModP:
    def test_against_rational_rank(self):
        rng = random.Random(31)
        for _ in range(20):
            m = Matrix(QQ, [[rng.randint(-3, 3) for _ in range(6)] for _ in range(5)])
            rows = [{j: int(x) for j, x in enumerate(row) if x} for row in m.rows]
            # a prime wider than one int digit and one below it
            for p in ((1 << 61) - 1, 1073740201):
                assert rank_mod_p(rows, p) == rank(m)

    def test_rank_drops_mod_small_prime(self):
        rows = [{0: 1, 1: 2}, {0: 3, 1: 1}]
        assert rank_mod_p(rows, 7) == 2
        assert rank_mod_p(rows, 5) == 1

    def test_no_rows(self):
        assert rank_mod_p([], 101) == 0


class TestWideEntriesModP:
    @pytest.mark.parametrize("p", [1073740201, (1 << 61) - 1])
    def test_wide_entries_give_the_results_of_their_residues(self, p):
        # the pivot step reduces an entry only where it reads it, so entries
        # up to p^3 in absolute value, nonzero multiples of p among them,
        # give the rank, nullspace and spin of the rows reduced mod p first
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        entries = st.builds(lambda a, k: a + k * p, st.sampled_from([0, 0, 0, 1, -1, 2]),
                            st.integers(-p * p, p * p))

        def reduced(row):
            return {j: y for j, x in row.items() if (y := x % p)}

        @st.composite
        def cases(draw):
            n = draw(st.integers(1, 5))
            vector = st.lists(entries, min_size=n, max_size=n).map(
                lambda xs: {j: x for j, x in enumerate(xs) if x})
            rows = draw(st.lists(vector, max_size=6))
            ops = draw(st.lists(st.lists(vector, min_size=n, max_size=n), min_size=1, max_size=2))
            return n, rows, draw(vector), ops

        @hyp.settings(max_examples=60, deadline=None, derandomize=True)
        @hyp.given(cases())
        def check(case):
            n, rows, seed, ops = case
            small = [reduced(row) for row in rows]
            assert rank_mod_p(rows, p) == rank_mod_p(small, p)
            assert nullspace_mod_p(rows, p, n) == nullspace_mod_p(small, p, n)
            columns = [[[(i, op[i][j]) for i in range(n) if j in op[i]] for j in range(n)]
                       for op in ops]
            small_columns = [[[(i, y) for i, x in col if (y := x % p)] for col in cols]
                             for cols in columns]
            assert (spin_mod_p(seed, columns, p)
                    == spin_mod_p(reduced(seed), small_columns, p))

        check()


class TestNullspaceModP:
    P = (1 << 61) - 1

    def test_against_rational_kernel(self):
        rng = random.Random(43)
        for _ in range(60):
            nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
            ints = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)]
            if nrows > 2 and rng.random() < 0.5:
                ints[-1] = [2 * a - b for a, b in zip(ints[0], ints[1])]
            m = Matrix(QQ, ints)
            rows = [{j: x for j, x in enumerate(row) if x} for row in ints]
            # entries in [-9, 9] and at most 6 x 6: every minor is below
            # 1.2e8 (Hadamard), so both primes see the rank over Q
            for p in (self.P, 1073740201):
                pivots, basis = nullspace_mod_p(rows, p, ncols)
                assert len(basis) == kernel(m).dim
                assert len(pivots) == rank(m)
                free = [j for j in range(ncols) if j not in pivots]
                for f, v in zip(free, basis):
                    assert len(v) == ncols
                    assert [v[j] for j in free] == [int(j == f) for j in free]
                    for row in ints:
                        assert sum(a * b for a, b in zip(row, v)) % p == 0

    def test_pivots_are_the_rref_pivots(self):
        # the semi-echelon meets column 1 before column 0 here
        rows = [{1: 1, 2: 1}, {0: 1, 1: 1}, {0: 1, 2: -1}]
        pivots, basis = nullspace_mod_p(rows, 101, 3)
        assert pivots == (0, 1)
        assert basis == [[1, 100, 1]]

    def test_kernel_grows_mod_a_small_prime(self):
        rows = [{0: 1, 1: 2}, {0: 3, 1: 1}]
        assert nullspace_mod_p(rows, 7, 2) == ((0, 1), [])
        assert nullspace_mod_p(rows, 5, 2) == ((0,), [[3, 1]])
        assert nullspace_mod_p([], 5, 2) == ((), [[1, 0], [0, 1]])


class TestCharpoly:
    def test_cayley_hamilton(self):
        rng = random.Random(41)
        for n in (2, 3, 4):
            a = rand_matrix(QQ, rng, n)
            coeffs = charpoly(a)
            acc = Matrix.zeros(QQ, n, n)
            power = Matrix.identity(QQ, n)
            for c in coeffs:
                acc = acc + power.scale(c)
                power = power * a
            assert acc == Matrix.zeros(QQ, n, n)

    def test_against_leibniz_oracle(self):
        rng = random.Random(43)
        for _ in range(10):
            a = rand_matrix(QQ, rng, 3)
            expect = oracles.leibniz_charpoly(oracles.to_fraction_rows(a))
            got = charpoly(a)
            assert [rat(int(c.numerator), int(c.denominator)) for c in expect] == list(got)


class TestSerialization:
    def test_text_is_header_then_entries(self):
        # a header line, then the text of one entry per line in row order
        rng = random.Random(55)
        field = cyclotomic_field("phi12")
        mats = [
            rand_matrix(QQ, rng, 3),
            rand_matrix(QLR, rng, 2),
            rand_matrix(QR, rng, 2),
            Matrix(field, [[field.random(rng) for _ in range(2)] for _ in range(2)]),
        ]
        for m in mats:
            head, *lines = m.to_text().splitlines()
            assert head == f"{m.nrows} {m.ncols} {m.field.tag}"
            assert lines == [scalar_to_text(x) for row in m.rows for x in row]

    def test_inverse(self):
        rng = random.Random(57)
        for field in (QQ, cyclotomic_field("phi12")):
            while True:
                m = rand_matrix(field, rng, 3)
                if det(m):
                    break
            assert inverse(m) * m == Matrix.identity(field, 3)


class TestImageModP:
    """The ring maps Q -> GF(p) and Q[x]/(f) -> GF(p), x -> a root of f, at the certificate prime."""

    FIELDS = [QQ] + [cyclotomic_field(name) for name in ("phi12", "phi20", "phi24")]

    def test_primes(self):
        # one prime below 2^30, 1 mod 120 so that phi12, phi20 and phi24 split
        p = residue_prime(QQ)
        assert p == 1073740201 < 1 << 30 and p % 120 == 1
        assert all(p % d for d in range(2, isqrt(p) + 1))
        assert all(residue_prime(cyclotomic_field(name)) == p
                   for name in ("phi12", "phi20", "phi24"))
        assert residue_prime(QR) is None and residue_prime(QLR) is None

    def test_ring_map(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        @hyp.settings(max_examples=100, deadline=None, derandomize=True)
        @hyp.given(st.sampled_from(self.FIELDS), st.integers(0, 2 ** 32))
        def check(field, seed):
            rng = random.Random(seed)
            a, b = field.random(rng), field.random(rng)
            p = residue_prime(field)
            ia, ib = image_mod_p(a, p), image_mod_p(b, p)
            assert image_mod_p(a * b, p) == ia * ib % p
            assert image_mod_p(a + b, p) == (ia + ib) % p
            assert image_mod_p(a - b, p) == (ia - ib) % p
            assert image_mod_p(field.one(), p) == 1 and image_mod_p(field.zero(), p) == 0
            if a:
                assert image_mod_p(field.one() / a, p) * ia % p == 1

        check()

    def test_matrix_rows_and_refusals(self):
        p = residue_prime(QQ)
        m = Matrix(QQ, [[rat(1, 2), 0], [0, rat(p)]])
        assert image_mod_p(m, p) == [{0: pow(2, -1, p)}, {}]
        # p divides a denominator: no image, for the matrix as for the entry
        assert image_mod_p(rat(1, p), p) is None
        assert image_mod_p(Matrix(QQ, [[1, rat(3, 2 * p)]]), p) is None
        # Q(r) has no map here
        assert image_mod_p(RatFunc.var_r(), p) is None
        assert image_mod_p(Matrix.identity(QR, 2), p) is None

    def test_no_image_without_a_root(self):
        from lkwb.scalars import NumberField

        # x^2 + 1 has no root mod p = 2^61 - 1, which is 3 mod 4
        field = NumberField((1, 0, 1))
        p = (1 << 61) - 1
        assert image_mod_p(field.gen(), p) is None
        assert image_mod_p(field.gen(), residue_prime(field)) is not None

    def test_spin_dimension_against_the_exact_closure(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        entries = st.sampled_from([rat(0), rat(0), rat(0), rat(1), rat(-1), rat(2), rat(1, 2),
                                   rat(-3, 5)])

        @st.composite
        def cases(draw):
            n = draw(st.integers(1, 5))
            ops = draw(st.lists(st.lists(st.lists(entries, min_size=n, max_size=n),
                                         min_size=n, max_size=n), min_size=1, max_size=3))
            seed = draw(st.lists(entries, min_size=n, max_size=n))
            hyp.assume(any(seed))
            return seed, [Matrix(QQ, rows) for rows in ops]

        @hyp.settings(max_examples=150, deadline=None, derandomize=True)
        @hyp.given(cases())
        def check(case):
            seed, ops = case
            p = residue_prime(QQ)
            columns = [columns_mod_p(op, p) for op in ops]
            (row,) = image_mod_p(Matrix(QQ, [seed]), p)
            assert spin_mod_p(row, columns, p) == operator_closure([seed], ops).dim

        check()

    def test_spin_stopped_at_a_dimension(self):
        # spin_mod_p(..., stop=s) is min(spin, s); columns_mod_p is the image of
        # the transpose, read off the sparse rows
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        entries = st.sampled_from([rat(0), rat(0), rat(0), rat(1), rat(-1), rat(2), rat(1, 2),
                                   rat(-3, 5)])

        @st.composite
        def cases(draw):
            n = draw(st.integers(1, 6))
            ops = draw(st.lists(st.lists(st.lists(entries, min_size=n, max_size=n),
                                         min_size=n, max_size=n), min_size=1, max_size=3))
            seed = draw(st.lists(entries, min_size=n, max_size=n))
            return seed, [Matrix(QQ, rows) for rows in ops]

        @hyp.settings(max_examples=150, deadline=None, derandomize=True)
        @hyp.given(cases())
        def check(case):
            seed, ops = case
            p = residue_prime(QQ)
            columns = [columns_mod_p(op, p) for op in ops]
            assert columns == [[sorted(col.items()) for col in
                                image_mod_p(Matrix(QQ, list(zip(*op.rows))), p)] for op in ops]
            (row,) = image_mod_p(Matrix(QQ, [seed]), p)
            full = spin_mod_p(row, columns, p)
            for stop in range(1, len(seed) + 2):
                assert spin_mod_p(row, columns, p, stop=stop) == min(full, stop)

        check()

    def test_spin_of_a_zero_residue(self):
        p = residue_prime(QQ)
        columns = [columns_mod_p(Matrix.identity(QQ, 2), p)]
        assert columns == [[[(0, 1)], [(1, 1)]]]
        assert spin_mod_p({0: p}, columns, p) == 0
        assert spin_mod_p({1: 3}, columns, p) == 1
