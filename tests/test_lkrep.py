"""Lawrence-Krammer construction: sigma action, dictionary, relations."""

import dataclasses
import random
import sys

import pytest

from fractions import Fraction

from lkwb import lkrep
from lkwb.errors import DenominatorInL, ParameterZero, RelationGateNotPassed, SemisimplicityViolation
from lkwb.linalg import Matrix, clear_entries, det, divide_entries, inverse, rank
from lkwb.lkrep import (
    LKParams,
    LKRep,
    _holds,
    build_rep,
    build_sigma,
    convention_report,
    pair_basis,
    param_map,
    rational_rep,
    rep_dim,
    semisimplicity_guard,
    substituted_rep,
    symbolic_rep,
    verify_relations,
)
from lkwb.reducibility import _inverse_rows, _rank1_factor, build_m_matrix, catalog, rep_at
from lkwb.scalars import NumberField, QLR, QQ, cyclotomic_field, rat

import oracles


class TestSigmaAction:
    def test_n3_case_iv(self):
        # sigma_1 x_{1,2} = tau q^2 x_{1,2}
        q, tau = rat(1, 4), rat(8, 5)
        mats = build_sigma(3, q, tau, QQ)
        basis = pair_basis(3)
        j = basis.index((1, 2))
        col = [mats[0].rows[i][j] for i in range(3)]
        assert col[j] == tau * q * q
        assert all(not col[i] for i in range(3) if i != j)

    def test_n4_case_v(self):
        # sigma_2 x_{1,4} = x_{1,4} + tau q (q-1)^2 x_{2,3}
        q, tau = rat(1, 4), rat(8, 5)
        mats = build_sigma(4, q, tau, QQ)
        basis = pair_basis(4)
        j = basis.index((1, 4))
        col = {basis[i]: mats[1].rows[i][j] for i in range(6) if mats[1].rows[i][j]}
        assert col == {(1, 4): rat(1), (2, 3): tau * q * (q - 1) ** 2}

    def test_braid_relation_symbolic_n4(self):
        rep = symbolic_rep(4)
        g = rep.g
        for i in range(2):
            assert g[i] * g[i + 1] * g[i] == g[i + 1] * g[i] * g[i + 1]

    def test_parameter_zero(self):
        with pytest.raises(ParameterZero):
            build_sigma(3, rat(0), rat(1), QQ)


class TestBuildRep:
    def test_dimensions(self):
        assert rational_rep(3, rat(5), rat(2)).dim == 3
        assert rational_rep(4, rat(5), rat(2)).dim == 6
        assert rep_dim(7) == 21

    def test_cubic_annihilation_against_matrix_poly_oracle(self):
        # (X - r)(X + 1/r)(X - 1/l) annihilates g_k; n = 4, r = 2, l = 5
        rep = rational_rep(4, rat(5), rat(2))
        r, l = Fraction(2), Fraction(5)
        # expand the cubic independently
        c = [Fraction(1)]
        for root in (r, Fraction(-1) / r, 1 / l):
            c = [a - root * b for a, b in oracles.zip_pad([Fraction(0)] + c, list(c) + [Fraction(0)])]
            while c and c[-1] == 0:
                c.pop()
        for gk in rep.g:
            rows = oracles.to_fraction_rows(gk)
            val = oracles.matrix_poly_eval(c, rows)
            assert all(x == 0 for row in val for x in row)

    def test_e_rank_one_via_naive_oracle(self):
        rng = random.Random(4)
        l = rat(rng.randint(2, 30), rng.randint(1, 7))
        r = rat(rng.randint(2, 9), 1)
        rep = rational_rep(4, l, r)
        for ek in rep.e:
            assert oracles.naive_rank(oracles.to_fraction_rows(ek)) == 1

    def test_inverses(self):
        rep = rational_rep(4, rat(7, 3), rat(3, 2))
        eye = Matrix.identity(QQ, rep.dim)
        for gk, gki in zip(rep.g, closed_form_inverses(rep)):
            assert gk * gki == eye

    def test_closed_form_inverses_match_elimination(self):
        # g + m(1 - e), formed by build_m_matrix's _inverse_rows on the gate's
        # rows, equals the Gauss-Jordan inverse, value and text
        phi20 = cyclotomic_field("phi20")
        reps = [rep_at(n, locus, rat(2)) for n in (4, 5) for locus in catalog(n)]
        reps += [rep_at(5, locus, phi20.gen()) for locus in catalog(5)]
        reps += [substituted_rep(4, locus.eps, locus.k) for locus in catalog(4)]
        reps.append(symbolic_rep(3))
        for rep in reps:
            eye = Matrix.identity(rep.field, rep.dim)
            for gk, gki in zip(rep.g, closed_form_inverses(rep)):
                dense = inverse(gk)
                assert gki == dense
                assert gki.to_text() == dense.to_text()
                assert gk * gki == eye

    def test_closed_form_build_matches_dense_formula(self):
        # the sparse closed forms against the dense formulas, value and text, and
        # each cached sparse view against the one the dense rows give
        phi20, phi24 = cyclotomic_field("phi20"), cyclotomic_field("phi24")
        reps = [rep_at(n, locus, rat(2)) for n in (4, 5) for locus in catalog(n)]
        reps += [substituted_rep(n, locus.eps, locus.k) for n in (4, 5) for locus in catalog(n)]
        reps += [symbolic_rep(3), symbolic_rep(4)]
        reps += [rep_at(5, locus, phi20.gen()) for locus in catalog(5)]
        reps += [rep_at(6, locus, phi24.gen()) for locus in catalog(6)]
        for rep in reps:
            p = rep.params
            eye = Matrix.identity(rep.field, rep.dim)
            g = tuple(s.scale(p.r) for s in build_sigma(p.n, p.q, p.tau, rep.field))
            e = tuple((gk * gk + gk.scale(p.m) + eye.scale(-1)).scale(p.l / p.m) for gk in g)
            for built, dense in ((rep.g, g), (rep.e, e)):
                for a, b in zip(built, dense):
                    assert a == b and a.to_text() == b.to_text()
                    view = [[(j, x) for j, x in enumerate(row) if x] for row in a.rows]
                    assert [list(row) for row in a._row_nonzeros()] == view
            zero = rep.field.zero()
            for ek in rep.e:
                a, w = _rank1_factor(ek._row_nonzeros())
                row = dict(w)
                assert tuple(tuple(row.get(j, zero) if i == a else zero for j in range(rep.dim))
                             for i in range(rep.dim)) == ek.rows
        # only a matrix with one nonzero row is factored, as every e_k has
        with pytest.raises(AssertionError):
            _rank1_factor(Matrix(QQ, [[0, 0], [2, 4], [1, 2]])._row_nonzeros())

    def test_no_matrix_product_and_no_stored_square(self, monkeypatch):
        # row a of g_k^2 comes from g_k's own rows, so the build multiplies
        # no matrices, and the rep keeps g and e only
        calls = []
        mul = Matrix.__mul__

        def spied(a, b):
            calls.append((a.nrows, b.ncols))
            return mul(a, b)

        monkeypatch.setattr(Matrix, "__mul__", spied)
        phi20 = cyclotomic_field("phi20").gen()
        for rep in (rational_rep(5, rat(5), rat(37, 11)), substituted_rep(5, 1, 1),
                    rep_at(5, catalog(5)[1], phi20), symbolic_rep(4)):
            assert calls == []
            assert len(rep.g) == len(rep.e) == rep.n - 1
        assert LKRep.__slots__ == ("params", "g", "e")

    @pytest.mark.parametrize("n", range(3, 9))
    def test_symbolic_denominators_are_one_or_r2_minus_1(self, n):
        # with q = r^-2 and tau = r^3/l every entry is a Laurent polynomial in
        # l, and the only true denominator comes from m = 1/r - r
        rep = symbolic_rep(n)
        mats = rep.g + rep.e + (build_m_matrix(rep).matrix,)
        dens = {x.den.to_text() for m in mats for row in m.rows for x in row if x}
        assert dens == {"1", "r^2 - 1"}

    def test_semisimplicity_violation(self):
        with pytest.raises(SemisimplicityViolation):
            rational_rep(3, rat(5), rat(1))
        field = NumberField((1, 0, 1))  # x^2 + 1: r^4 = 1
        with pytest.raises(SemisimplicityViolation):
            build_rep(LKParams(3, field.from_int(5), field.gen(), field))

    def test_parameter_zero(self):
        with pytest.raises(ParameterZero):
            rational_rep(4, rat(0), rat(2))


class TestRelations:
    def test_symbolic_n3_all_pass(self):
        report = verify_relations(symbolic_rep(3))
        assert report.all_passed, report.failures

    def test_far_e_product_n4(self):
        rep = rational_rep(4, rat(5), rat(2))
        assert rep.e[0] * rep.e[2] == Matrix.zeros(QQ, rep.dim, rep.dim)

    def test_delta_zero_at_l_inverse_r(self):
        # l = 1/r makes delta vanish; e_i is then nilpotent of rank 1
        rep = rational_rep(4, rat(1, 2), rat(2))
        assert not rep.params.delta()
        for ek in rep.e:
            assert ek * ek == Matrix.zeros(QQ, rep.dim, rep.dim)
            assert rank(ek) == 1

    def test_eigenvalue_dictionary(self):
        rep = rational_rep(4, rat(5), rat(2))
        eye = Matrix.identity(QQ, rep.dim)
        for gk in rep.g:
            prod = (det(gk + eye.scale(rat(-2)))
                    * det(gk + eye.scale(rat(1, 2)))
                    * det(gk + eye.scale(rat(-1, 5))))
            assert not prod

    def test_report_carries_the_checked_rows_outside_json_eq_and_repr(self):
        rep = rational_rep(4, rat(5), rat(37, 11))
        report = verify_relations(rep)
        den, g, e = report.cleared
        # D times the sparse rows of each g_i, then of each e_i
        for cleared, mats in ((g, rep.g), (e, rep.e)):
            assert cleared == [[[(j, den * x) for j, x in row] for row in m._row_nonzeros()]
                               for m in mats]
            assert all(isinstance(x, int) for m in cleared for row in m for _, x in row)
        bare = dataclasses.replace(report, cleared=None)
        assert bare == report and repr(bare) == repr(report)
        assert "cleared" not in repr(report)
        assert bare.to_json_obj() == report.to_json_obj()
        assert list(report.to_json_obj()) == [
            "n", "field", "braid", "far_commutation", "e_products", "e_definition",
            "cubic_annihilation", "e_square", "delta", "all_passed", "failures"]

    def test_relations_at_random_points_n6(self):
        rng = random.Random(12)
        for _ in range(2):
            l = rat(rng.randint(2, 50), rng.randint(1, 9))
            r = rat(rng.randint(2, 9), rng.randint(1, 3))
            if abs(r) == 1:
                continue
            report = verify_relations(rational_rep(6, l, r))
            assert report.all_passed, report.failures


def closed_form_inverses(rep):
    """Every g_k^-1 from _inverse_rows on the gate's rows, divided out in the field.

    The rows are S g_k^-1 with S = m_den D, D the gate's denominator and
    m = m_num / m_den.
    """
    field, N = rep.field, rep.dim
    den, g, e = verify_relations(rep).cleared
    m_den, (m_num,) = clear_entries(field, [rep.params.m])
    inverses = []
    for gk, ek in zip(g, e):
        a, w = _rank1_factor(ek)
        scaled = _inverse_rows(gk, a, w, den, m_den, m_num)
        dense = [[field.zero()] * N for _ in range(N)]
        for i, row in enumerate(scaled):
            cols = [j for j, _ in row]
            for j, x in zip(cols, divide_entries(field, m_den * den, [x for _, x in row])):
                dense[i][j] = x
        inverses.append(Matrix(field, dense))
    return tuple(inverses)


def rep_with_generator(rep, k, rows):
    """rep with g_k replaced by rows, and e rebuilt as build_rep does."""
    p = rep.params
    g = list(rep.g)
    g[k] = Matrix(rep.field, rows)
    eye = Matrix.identity(rep.field, rep.dim)
    e = tuple((gk * gk + gk.scale(p.m) + eye.scale(-1)).scale(p.l / p.m) for gk in g)
    return LKRep(p, tuple(g), e)


class TestGateMutation:
    """A broken generator must fail the gate, whether the change hits a zero or not."""

    @staticmethod
    def broken_reps(rep):
        k = 1
        rows = [list(row) for row in rep.g[k].rows]
        cells = [(i, j) for i in range(rep.dim) for j in range(rep.dim)]
        zi, zj = next((i, j) for i, j in cells if not rows[i][j])
        ni, nj = next((i, j) for i, j in cells if rows[i][j])
        was_zero = [list(row) for row in rows]
        was_zero[zi][zj] = rep.field.one()
        was_nonzero = [list(row) for row in rows]
        was_nonzero[ni][nj] = rows[ni][nj] + rows[ni][nj]
        return rep_with_generator(rep, k, was_zero), rep_with_generator(rep, k, was_nonzero)

    @pytest.mark.parametrize("build", [lambda: rational_rep(4, rat(5), rat(2)),
                                       lambda: substituted_rep(4, 1, 1)], ids=["Q", "Q(r)"])
    def test_broken_generator_fails_gate(self, build):
        rep = build()
        assert verify_relations(rep).all_passed
        for broken in self.broken_reps(rep):
            report = verify_relations(broken)
            assert not (report.braid and report.cubic_annihilation
                        and report.e_square), report.failures
            with pytest.raises(RelationGateNotPassed):
                build_m_matrix(broken)


def with_entry(m, i, j, x):
    rows = [list(row) for row in m.rows]
    rows[i][j] = x
    return Matrix(m.field, rows)


def replaced(rep, **fields):
    """rep with some of its fields swapped for others, nothing rebuilt."""
    parts = {"params": rep.params, "g": rep.g, "e": rep.e}
    parts.update(fields)
    return LKRep(**parts)


def swapped_far(rep):
    g = list(rep.g)
    g[0], g[2] = g[2], g[0]
    return replaced(rep, g=tuple(g))


def perturbed_g(rep):
    g = list(rep.g)
    g[1] = with_entry(g[1], 0, 0, g[1].rows[0][0] + rep.field.one())
    return replaced(rep, g=tuple(g))


def perturbed_e(rep):
    e = list(rep.e)
    e[1] = with_entry(e[1], 1, 1, e[1].rows[1][1] + rep.field.one())
    return replaced(rep, e=tuple(e))


def far_e(rep):
    e = list(rep.e)
    e[0] = e[0] + e[2]
    return replaced(rep, e=tuple(e))


def perturbed_last_row(rep):
    g = list(rep.g)
    last = rep.dim - 1
    g[3] = with_entry(g[3], last, 0, g[3].rows[last][0] + rep.field.one())
    return replaced(rep, g=tuple(g))


def wrong_delta(rep):
    p = rep.params
    return replaced(rep, params=LKParams(p.n, p.l + p.field.one(), p.r, p.field))


class TestGateMutantReports:
    """Each relation family broken on purpose, with the full report pinned.

    The reports were recorded from the gate that compared whole matrices,
    so they fix the booleans, delta and the order of the failure labels,
    and the labels are those of the whole-matrix oracle with g g as g^2.
    """

    FAMILIES = ("braid", "far_commutation", "e_products", "e_definition",
                "cubic_annihilation", "e_square")

    # mutant -> (families that fail, failure labels in report order)
    EXPECTED = {
        swapped_far: ({"braid", "far_commutation", "e_definition"},
                      ["braid(3,4)", "far(1,4)", "edef(1)", "edef(3)"]),
        perturbed_g: ({"braid", "e_definition", "cubic_annihilation"},
                      ["braid(1,2)", "braid(2,3)", "edef(2)", "cubic(2)"]),
        perturbed_e: ({"e_definition", "e_square"}, ["edef(2)", "esq(2)"]),
        far_e: ({"e_products", "e_definition"}, ["ee(1,3)", "ee(1,4)", "edef(1)"]),
        perturbed_last_row: ({"braid", "far_commutation", "e_definition"},
                             ["braid(3,4)", "far(1,4)", "far(2,4)", "edef(4)"]),
        wrong_delta: ({"e_definition", "cubic_annihilation", "e_square"},
                      [f"{rel}({i})" for rel in ("edef", "cubic", "esq") for i in range(1, 5)]),
    }

    # build -> (field, rep, delta text, delta text of wrong_delta, packed rows);
    # over Q the gate packs its rows at r = 2 and takes the row path at 37/11
    BUILDS = {
        "Q": ("Q", lambda: rational_rep(5, rat(5), rat(2)), "21/5", "44/9", True),
        "Q at r=37/11": ("Q", lambda: rational_rep(5, rat(5), rat(37, 11)), "667/260",
                         "21733/7488", False),
        "Q(r)": ("Q(r)", lambda: substituted_rep(5, 1, 1), "2",
                 "(2*r^3 + 3*r^2 - r - 1)/(r^3 + r^2 - r - 1)", False),
    }

    def expected(self, field_tag, delta, failing, failures):
        out = {"n": 5, "field": field_tag}
        out.update({family: family not in failing for family in self.FAMILIES})
        out.update({"delta": delta, "all_passed": False, "failures": failures})
        return out

    @staticmethod
    def verify(rep, packs, monkeypatch):
        """verify_relations(rep), asserting whether it compared packed rows."""
        widths = spy_pack_width(monkeypatch)
        report = verify_relations(rep)
        assert any(w is not None for w in widths) == packs
        return report

    @pytest.mark.parametrize("mutant", list(EXPECTED), ids=lambda m: m.__name__)
    @pytest.mark.parametrize("field_tag", sorted(BUILDS))
    def test_report_pinned(self, field_tag, mutant, monkeypatch):
        field, build, delta, wrong, packs = self.BUILDS[field_tag]
        expected = self.expected(field, wrong if mutant is wrong_delta else delta,
                                 *self.EXPECTED[mutant])
        assert self.verify(mutant(build()), packs, monkeypatch).to_json_obj() == expected

    @pytest.mark.parametrize("field_tag", sorted(BUILDS))
    def test_pins_are_the_oracle_labels(self, field_tag):
        build = self.BUILDS[field_tag][1]
        for mutant, (_, failures) in self.EXPECTED.items():
            assert oracle_failures(mutant(build())) == failures, mutant.__name__


def spy_pack_width(monkeypatch):
    """The list of every lkrep._pack_width result from now on, None for the row path."""
    widths = []
    width = lkrep._pack_width

    def spied(mats, checks):
        widths.append(width(mats, checks))
        return widths[-1]

    monkeypatch.setattr(lkrep, "_pack_width", spied)
    return widths


class TestPackedGate:
    """The gate on packed rows: where it packs, its width, and its verdicts."""

    def test_one_perturbed_entry_on_packed_rows(self, monkeypatch):
        # one-digit reps over Q, which the gate checks on packed rows, against
        # the whole-matrix oracle, unperturbed and with one entry moved
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        small = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 4))
        widths = spy_pack_width(monkeypatch)
        seen = set()

        @hyp.settings(max_examples=40, deadline=None, derandomize=True)
        @hyp.given(st.sampled_from((3, 4, 5)), small,
                   st.sampled_from((Fraction(2), Fraction(-3), Fraction(1, 2), Fraction(3, 2))),
                   st.data())
        def check(n, l, r, data):
            try:
                rep = rational_rep(n, l, r)
            except SemisimplicityViolation:
                hyp.reject()
            if data.draw(st.booleans()):
                name = data.draw(st.sampled_from(("g", "e")))
                k = data.draw(st.integers(0, n - 2))
                i, j = (data.draw(st.integers(0, rep.dim - 1)) for _ in range(2))
                extra = data.draw(small)
                rep = perturbed_by(name, k, i, j, lambda f: extra)(rep)
            failures = list(verify_relations(rep).failures)
            hyp.assume(widths[-1] is not None)
            assert failures == oracles.relation_failures(n, l, r, *fraction_mats(rep))
            seen.add(not failures)

        check()
        assert seen == {True, False}

    def test_width_one_bit_short_collides(self, monkeypatch):
        # M0 = (3 0; 0 0) against M1 = (-1 1; 0 0): each side is at most
        # C = 3, so 2^w > 6 gives w = 3.  Their row 0 differs by (4, -1),
        # which packs to 4 - 2^2 = 0 at w = 2
        rows = [[(0, 3)], [], [(0, -1), (1, 1)], []]
        check = (1, [(0, (0,), 1), (1, (1,), 1)])
        widths = spy_pack_width(monkeypatch)
        assert list(_holds(QQ, rows, [check], 2)) == [False]
        assert widths == [3]
        width = lkrep._pack_width
        monkeypatch.setattr(lkrep, "_pack_width", lambda mats, checks: width(mats, checks) - 1)
        assert list(_holds(QQ, rows, [check], 2)) == [True]

    @pytest.mark.parametrize("bits", [sys.int_info.bits_per_digit,
                                      sys.int_info.bits_per_digit + 1])
    def test_one_digit_images_pack(self, bits, monkeypatch):
        # M M = x M on the 1 x 1 matrix M = (x), x of the given bit length
        x = 2 ** (bits - 1) + 1
        widths = spy_pack_width(monkeypatch)
        for c, holds in ((x, True), (x + 1, False)):
            check = (2, [(0, (0, 0), 1), (1, (0,), c)])
            assert list(_holds(QQ, [[(0, x)]], [check], 1)) == [holds]
        packs = bits <= sys.int_info.bits_per_digit
        assert [w is not None for w in widths] == [packs, packs]



def perturbed_by(name, k, i, j, extra):
    """Mutant builder: entry (i, j) of the k-th matrix of rep.<name> plus extra(field)."""
    def mutant(rep):
        mats = list(getattr(rep, name))
        mats[k] = with_entry(mats[k], i, j, mats[k].rows[i][j] + extra(rep.field))
        return replaced(rep, **{name: tuple(mats)})
    return mutant


class TestGateClearedReports:
    """Mutants whose perturbed entry brings a new denominator into the gate.

    Over Q(r) the substituted reps have Laurent polynomial entries, so the
    entry with denominator r + 2 is the only one the gate has to clear; over
    Q(l,r) it joins the r^2 - 1 of e and delta.  The reports were recorded
    from the gate that multiplied field entries.
    """

    Q_R_DELTA = "2"
    Q_LR_DELTA = "(l*r + r^2 - 1 - l^-1*r)/(r^2 - 1)"

    @staticmethod
    def report(field_tag, delta, failing, failures):
        return TestGateMutantReports().expected(field_tag, delta, failing, failures)

    def test_q_r_denominator_r_plus_2(self):
        rep = substituted_rep(5, 1, 1)
        g_entry = perturbed_by("g", 1, 0, 0, lambda f: f.one() / (f.r() + 2))
        assert verify_relations(g_entry(rep)).to_json_obj() == self.report(
            "Q(r)", self.Q_R_DELTA, {"braid", "e_definition", "cubic_annihilation"},
            ["braid(1,2)", "braid(2,3)", "edef(2)", "cubic(2)"])
        e_entry = perturbed_by("e", 2, 3, 4, lambda f: f.r() / (f.r() + 2))
        assert verify_relations(e_entry(rep)).to_json_obj() == self.report(
            "Q(r)", self.Q_R_DELTA, {"e_products", "e_definition", "e_square"},
            ["ee(1,3)", "edef(3)", "esq(3)"])

    def test_q_lr_denominator_r_plus_2(self):
        rep = symbolic_rep(5)
        g_entry = perturbed_by("g", 1, 0, 0, lambda f: f.one() / (f.r() + 2))
        assert verify_relations(g_entry(rep)).to_json_obj() == self.report(
            "Q(l,r)", self.Q_LR_DELTA, {"braid", "e_definition", "cubic_annihilation"},
            ["braid(1,2)", "braid(2,3)", "edef(2)", "cubic(2)"])
        e_entry = perturbed_by("e", 2, 3, 4, lambda f: f.l() / (f.r() + 2))
        assert verify_relations(e_entry(rep)).to_json_obj() == self.report(
            "Q(l,r)", self.Q_LR_DELTA, {"e_products", "e_definition", "e_square"},
            ["ee(1,3)", "edef(3)", "esq(3)"])
        # a Q(l,r) value is a Laurent polynomial in l over Q(r)
        with pytest.raises(DenominatorInL):
            perturbed_by("g", 1, 0, 0, lambda f: f.one() / (f.l() + f.r()))(rep)


def oracle_failures(rep):
    """oracles.relation_failures on the rows of g and e, with g g as g^2."""
    p = rep.params
    g, e = ([[list(row) for row in m.rows] for m in mats] for mats in (rep.g, rep.e))
    return oracles.relation_failures(p.n, p.l, p.r, g, e, [oracles.mat_mul(x, x) for x in g])


class TestSquareIsChecked:
    """An e_k built from a g_k^2 that is not g_k g_k fails e_definition.

    The gate reads g_k^2 as the word g_k g_k, so no stored square stands
    between e_k and g_k: here g_k^2 is off by one in one entry of row a,
    the one row of e_k.
    """

    @pytest.mark.parametrize("build", [
        lambda: rational_rep(5, rat(5), rat(2)),
        lambda: rational_rep(5, rat(5), rat(37, 11)),
        lambda: substituted_rep(5, 1, 1),
        lambda: rep_at(5, catalog(5)[1], cyclotomic_field("phi20").gen()),
        lambda: symbolic_rep(5),
    ], ids=["Q", "Q at r=37/11", "Q(r)", "phi20", "Q(l,r)"])
    def test_e_from_a_wrong_square(self, build):
        rep = build()
        p, k = rep.params, 1
        a = pair_basis(p.n).index((k + 1, k + 2))
        gk = rep.g[k]
        eye = Matrix.identity(rep.field, rep.dim)

        def e_from(square):
            return (square + gk.scale(p.m) + eye.scale(-1)).scale(p.l / p.m)

        square = gk * gk
        assert e_from(square) == rep.e[k]
        e = list(rep.e)
        e[k] = e_from(with_entry(square, a, 0, square.rows[a][0] + rep.field.one()))
        mutant = replaced(rep, e=tuple(e))
        report = verify_relations(mutant)
        assert not report.e_definition and f"edef({k + 1})" in report.failures
        assert list(report.failures) == oracle_failures(mutant)
        with pytest.raises(RelationGateNotPassed):
            build_m_matrix(mutant)


def fraction_mats(rep):
    """g, e and g g of a rep over Q as Fraction row lists, for the oracle."""
    g, e = ([oracles.to_fraction_rows(m) for m in mats] for mats in (rep.g, rep.e))
    return g, e, [oracles.mat_mul(x, x) for x in g]


class TestGateAgainstWholeMatrixOracle:
    """verify_relations' failure labels equal those of oracles.relation_failures."""

    POINTS = ((Fraction(5, 11), Fraction(3, 7)), (Fraction(5), Fraction(2)),
              (Fraction(-7, 3), Fraction(2, 9)))

    def test_unperturbed_reps_pass(self):
        for l, r in self.POINTS:
            rep = rational_rep(5, l, r)
            assert oracles.relation_failures(5, l, r, *fraction_mats(rep)) == []
            assert verify_relations(rep).failures == ()

    def test_one_perturbed_entry(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        nonzero = st.builds(Fraction, st.integers(-12, 12).filter(bool), st.integers(1, 12))
        points = st.one_of(st.sampled_from(self.POINTS), st.tuples(nonzero, nonzero))

        @hyp.settings(max_examples=40, deadline=None, derandomize=True)
        @hyp.given(st.sampled_from((4, 5)), points, st.data())
        def check(n, point, data):
            l, r = point
            try:
                rep = rational_rep(n, l, r)
            except SemisimplicityViolation:
                hyp.reject()
            name = data.draw(st.sampled_from(("g", "e")))
            k = data.draw(st.integers(0, n - 2))
            i = data.draw(st.integers(0, rep.dim - 1))
            j = data.draw(st.integers(0, rep.dim - 1))
            extra = data.draw(nonzero)
            mutant = perturbed_by(name, k, i, j, lambda f: extra)(rep)
            expect = oracles.relation_failures(n, l, r, *fraction_mats(mutant))
            assert list(verify_relations(mutant).failures) == expect

        check()


class TestParamMap:
    def test_locus_images(self):
        # the catalog loci land on the resume list {1/q, -1, 1/q^n, (1/sqrt q)^n, -(1/sqrt q)^n}
        from lkwb.scalars import QLR

        l, r = QLR.l(), QLR.r()
        n = 5
        q = r ** -2
        cases = [
            (r, q ** -1),
            (-(r ** 3), QLR.from_int(-1)),
            (r ** (3 - 2 * n), q ** -n),
            (r ** (3 - n), r ** n),
            (-(r ** (3 - n)), -(r ** n)),
        ]
        for l_val, t_expected in cases:
            out = param_map("lr_to_qt", l=l_val, r=r)
            assert out["t"] == t_expected
            assert out["q"] == q

    def test_round_trip(self):
        rng = random.Random(19)
        for _ in range(20):
            l = rat(rng.randint(1, 40), rng.randint(1, 9)) * (1 if rng.random() < 0.5 else -1)
            r = rat(rng.randint(2, 9), rng.randint(1, 5))
            fwd = param_map("lr_to_qt", l=l, r=r)
            back = param_map("qt_to_lr", q=fwd["q"], t=fwd["t"], r=r)
            assert back["choices"][0] == (l, r)
            assert back["choices"][1] == (-l, -r)

    def test_bad_square_root(self):
        with pytest.raises(ValueError):
            param_map("qt_to_lr", q=rat(1, 4), t=rat(1), r=rat(3))


def coordinate_inclusion_preserved(rep, k):
    """Entrywise check that g_1..g_{k-1} and their inverses preserve V^(k).

    V^(k) is the span of the pairs x_{s,t} with t <= k, the coordinate copy
    of the k-strand representation inside the n-strand one.
    """
    basis = pair_basis(rep.n)
    inside = [j for j, (_, t) in enumerate(basis) if t <= k]
    outside = [i for i, (_, t) in enumerate(basis) if t > k]
    for gk in list(rep.g[: k - 1]) + [inverse(gk) for gk in rep.g[: k - 1]]:
        for j in inside:
            for i in outside:
                if gk.rows[i][j]:
                    return False
    return True


class TestGuardsAndStructure:
    def test_guard_rational(self):
        assert semisimplicity_guard(rat(2), 8)
        assert not semisimplicity_guard(rat(1), 3)
        assert not semisimplicity_guard(rat(-1), 3)

    def test_guard_cyclotomic(self):
        f12 = cyclotomic_field("phi12")
        assert semisimplicity_guard(f12.gen(), 3)
        f4 = NumberField((1, 0, 1))
        assert not semisimplicity_guard(f4.gen(), 3)

    def test_lower_inclusion_entrywise(self):
        for n in range(3, 8):
            rep = substituted_rep(n, 1, 1) if n >= 4 else substituted_rep(3, -1, 3)
            assert coordinate_inclusion_preserved(rep, n - 1)

    def test_convention_report(self):
        rep = rational_rep(4, rat(5), rat(2))
        conv = convention_report(rep)
        assert conv["rescale_factor"] == "r"
        assert conv["q"] == "1/4"
        assert conv["tau"] == "8/5"
