"""Exact linear algebra over any workbench ground field.

Matrices keep dense rows.  Products walk a cached sparse view of those
rows, and scaling and sums skip zero entries.

There are three eliminations.  Over the field, one semi-echelon basis
and a back substitution give every reduced row echelon form: rank,
inverses, subspace spans and intersections, operator closure, and
kernels over every field but Q.  Fraction-free pivoting over Z, the
Laurent ring or Q[x]/(f) gives determinants and invertible-submatrix
certificates, and rows cleared into those domains check subspace
invariance.  One sparse pivot step over GF(p) gives one-sided rank
bounds: spin dimensions, among them the scalar-commutant certificate,
modular kernels and the substituted det's point solves; a kernel over Q
is taken mod p too and lifted by rational reconstruction, with the exact
RREF as its fallback.  One exact check, SubspaceBasis._spans, decides
M v = 0 (annihilates), v in U, W in U and g U in U (is_invariant) on rows
cleared into the domain and mapped into the integers by int_images.
Matrices and bases are immutable values; all operations are pure
functions, so independent jobs can run concurrently without shared state.
"""

from __future__ import annotations

import hashlib
import sys
from functools import lru_cache
from itertools import combinations, count
from math import lcm, prod
from operator import floordiv, mul, sub, truediv

from . import kernels
from .errors import (
    AmbientMismatch,
    DimensionMismatch,
    DivisionByZero,
    FieldMismatch,
    NonSquare,
    SubmatrixNotFound,
    ZeroSeed,
)
from .scalars import (
    FunctionField,
    LaurentPoly,
    NumberField,
    QQ,
    Rat,
    RatFunc,
    is_rat,
    scalar_to_text,
)


class Matrix:
    """Immutable matrix with entries in one ground field.

    Rows are dense tuples, which define equality, text and the content
    hash.  Products run on a cached sparse view of the rows.
    """

    # _nonzeros caches the per-row (column, entry) lists of the nonzero
    # entries, the sparse view that __mul__ walks; it is
    # derived from rows, or kept from the product that made them, and takes
    # no part in equality or serialization
    __slots__ = ("field", "nrows", "ncols", "rows", "_nonzeros")

    def __init__(self, field, rows, *, _trusted=False):
        if _trusted:
            self.rows = rows
        else:
            self.rows = tuple(tuple(field.coerce(x) for x in row) for row in rows)
        self.field = field
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        self._nonzeros = None
        for row in self.rows:
            if len(row) != self.ncols:
                raise DimensionMismatch("ragged rows")

    @classmethod
    def identity(cls, field, n):
        one, zero = field.one(), field.zero()
        return cls(field, tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n)),
                   _trusted=True)

    @classmethod
    def from_nonzeros(cls, field, nonzeros, ncols):
        """The matrix whose rows have the given sorted nonzero (column, entry) pairs.

        The pairs become its cached sparse view.
        """
        zero = field.zero()
        out = cls(field, tuple(tuple(_dense(row, ncols, zero)) for row in nonzeros), _trusted=True)
        out._nonzeros = nonzeros
        return out

    @classmethod
    def zeros(cls, field, nrows, ncols):
        zero = field.zero()
        return cls(field, tuple((zero,) * ncols for _ in range(nrows)), _trusted=True)

    def _check_same_field(self, other):
        if self.field != other.field:
            raise FieldMismatch(f"matrix fields differ: {self.field.tag} vs {other.field.tag}")

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.field == other.field and self.nrows == other.nrows
                and self.ncols == other.ncols
                and all(a == b for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb)))

    def __add__(self, other):
        self._check_same_field(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatch("matrix shapes differ")
        return Matrix(self.field,
                      tuple(tuple(a + b if b else a for a, b in zip(ra, rb))
                            for ra, rb in zip(self.rows, other.rows)),
                      _trusted=True)

    def __mul__(self, other):
        """Gustavson's row-by-row product on the cached row nonzeros.

        Output row i is _row_combination of the rows of other at the
        nonzero a_ik, in ascending k: entry (i, j) sums a_ik * b_kj as
        a * b then acc + a * b, and one with no such k, or whose sum
        cancels, is the field zero.  The pairs become the product's cached
        row nonzeros.
        """
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_same_field(other)
        if self.ncols != other.nrows:
            raise DimensionMismatch("inner dimensions differ")
        brows = other._row_nonzeros()
        return Matrix.from_nonzeros(
            self.field, tuple(_row_combination(arow, brows) for arow in self._row_nonzeros()),
            other.ncols)

    def scale(self, c):
        c = self.field.coerce(c)
        return Matrix(self.field, tuple(tuple(c * a if a else a for a in row) for row in self.rows),
                      _trusted=True)

    def _row_nonzeros(self):
        """Per-row (column, entry) lists of the nonzero entries, built once."""
        nonzeros = self._nonzeros
        if nonzeros is None:
            nonzeros = self._nonzeros = tuple(
                tuple((j, a) for j, a in enumerate(row) if a) for row in self.rows)
        return nonzeros

    def is_square(self):
        return self.nrows == self.ncols

    def submatrix(self, row_idx, col_idx):
        return Matrix(self.field,
                      tuple(tuple(self.rows[i][j] for j in col_idx) for i in row_idx),
                      _trusted=True)

    # -- serialization -------------------------------------------------------

    def to_text(self):
        lines = [f"{self.nrows} {self.ncols} {self.field.tag}"]
        for row in self.rows:
            for x in row:
                lines.append(scalar_to_text(x))
        return "\n".join(lines) + "\n"

    def content_hash(self):
        return hashlib.sha256(self.to_text().encode()).hexdigest()

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.field.tag})"


def _row_combination(pairs, rows):
    """Sorted nonzero (column, entry) pairs of the row sum x * rows[i] over the (i, x) pairs.

    rows[i] is a list of (column, entry) pairs.  Each entry sums x * y
    over the pairs whose row has a nonzero y in its column, in the order
    of the pairs, as x * y then acc + x * y; x = None stands for one and
    adds y with no product.  A column whose sum cancels is left out, like
    one that no row reaches.  This is the one sparse row loop:
    Matrix.__mul__ densifies its pairs, the relation gate carries them
    through each word, operator_closure spins with it, and pair_chains
    and the pivot identity of SubspaceBasis push vectors through cleared
    rows and columns with it.
    """
    acc = {}
    for i, x in pairs:
        for j, y in rows[i]:
            if x is not None:
                y = x * y
            s = acc.get(j)
            acc[j] = y if s is None else s + y
    return [(j, s) for j, s in sorted(acc.items()) if s]


# ---------------------------------------------------------------------------
# Semi-echelon elimination and echelon forms
# ---------------------------------------------------------------------------


def _reduce(v, echelon):
    """The list v, reduced in place to zero at the pivot of every echelon row.

    Each row is (pivot, nonzero (column, entry) pairs), 1 at its pivot and
    0 at the pivots of all earlier rows, so one pass in row order suffices.
    """
    for p, nonzeros in echelon:
        c = v[p]
        if c:
            for j, b in nonzeros:
                v[j] = v[j] - c * b
    return v


def _absorb(echelon, v, one):
    """Append the residue of the list v against echelon, made 1 at its pivot.

    The pivot is the first nonzero entry of the residue; a zero residue
    leaves echelon as it is.
    """
    p = next((j for j, x in enumerate(_reduce(v, echelon)) if x), None)
    if p is None:
        return
    x = v[p]
    if x != one:
        inv = one / x
        v = [y * inv if y else y for y in v]
    echelon.append((p, tuple((j, y) for j, y in enumerate(v) if y)))


def _dense(nonzeros, ncols, zero):
    """The row of length ncols with the given nonzero (column, entry) pairs."""
    v = [zero] * ncols
    for j, y in nonzeros:
        v[j] = y
    return v


def _back_substitute(echelon, ncols, zero):
    """(rows, pivots) of the reduced row echelon form of semi-echelon rows.

    From the last row to the first, each row is reduced against the rows
    already done, which are zero at the pivots of this row and of every
    row before it; sorting the rows by pivot then gives the canonical RREF.
    """
    done = []
    rows = {}
    for p, nonzeros in reversed(echelon):
        v = _reduce(_dense(nonzeros, ncols, zero), done)
        done.append((p, tuple((j, y) for j, y in enumerate(v) if y)))
        rows[p] = tuple(v)
    pivots = sorted(rows)
    return [rows[p] for p in pivots], pivots


def _rref(rows, field):
    """Reduced row echelon form; returns (rows, pivot_columns).

    Every row is absorbed into one semi-echelon basis, which a back
    substitution turns into the RREF.
    """
    ncols = len(rows[0]) if rows else 0
    one = field.one()
    echelon = []
    for row in rows:
        if len(echelon) == ncols:
            break
        _absorb(echelon, list(row), one)
    return _back_substitute(echelon, ncols, field.zero())


def rank(m):
    _, pivots = _rref(m.rows, m.field)
    return len(pivots)


def inverse(m):
    if not m.is_square():
        raise NonSquare("inverse of a non-square matrix")
    n = m.nrows
    one, zero = m.field.one(), m.field.zero()
    aug = [list(row) + [one if i == j else zero for j in range(n)] for i, row in enumerate(m.rows)]
    rows, pivots = _rref(aug, m.field)
    if pivots[:n] != list(range(n)):
        raise DivisionByZero("matrix is singular")
    return Matrix(m.field, tuple(tuple(row[n:]) for row in rows), _trusted=True)


# ---------------------------------------------------------------------------
# Fraction-free elimination: determinants and invertible minors
# ---------------------------------------------------------------------------


def clear_denominators(row):
    """(den, polys): a row of RatFunc entries times den, a common multiple of their denominators.

    den is the lcm of the denominators' primitive parts times the product
    of their integer contents, since the gcd that folds each one in is
    primitive: the lcm itself unless two contents share a factor.
    """
    den = LaurentPoly.one()
    for x in row:
        if x and not x.den.is_one():
            g = den.gcd(x.den)
            den = den.divexact(g) * x.den
    if den.is_one():  # every denominator is 1
        return den, [x.num for x in row]
    return den, [x.num * den.divexact(x.den) if x else LaurentPoly.zero() for x in row]


def clear_entries(field, entries):
    """(den, cleared): the entries times den, a nonzero common denominator.

    The cleared entries lie in the integral domain that the fraction-free
    elimination runs over: Z for Q, den the lcm of the denominators; the
    Laurent ring for Q(r) and Q(l,r), through clear_denominators; any
    other field, such as Q[x]/(f), is its own domain, with den its one and
    the entries as they are.
    """
    if field == QQ:
        den = lcm(*(x.denominator for x in entries))
        return den, [x.numerator * (den // x.denominator) for x in entries]
    if isinstance(field, FunctionField):
        return clear_denominators(entries)
    return field.one(), list(entries)


def clear_rows(field, rows):
    """(den, cleared): sparse (column, entry) rows times den, their clear_entries denominator."""
    den, entries = clear_entries(field, [x for row in rows for _, x in row])
    it = iter(entries)
    return den, [[(j, next(it)) for j, _ in row] for row in rows]


def _image_base(bound, norm_f):
    """B of the base t = 2^B of the integer image: the least with t > 2 bound + ||f||_1."""
    return (2 * bound + norm_f).bit_length()


def _images_pay(b):
    """True iff images at t = 2^b are taken: t fits in one digit of a Python int.

    Then the image of a value with d coefficients has at most d digits, and
    a product of two images takes at most the d^2 digit products that the
    field's product takes on one-digit coefficients, in one call, with no
    reduction or gcd.  A wider t has no such guarantee: B grows with the
    height of the entries, and the images then lose to the field's own
    arithmetic (at a rational l of 64 bits over phi20, B is near 590).
    """
    return b <= sys.int_info.bits_per_digit


def _as_is(row):
    """The rows themselves, whose pairs are nonzero, compared over Q or the domain."""
    return row


def _nonzero(row):
    return [(j, x) for j, x in row if x]


def _residues(modulus):
    """The canonical residues mod modulus of a sparse int row, zeros left out."""
    def residue(row):
        return [(j, y) for j, x in row if (y := x % modulus)]
    return residue


def int_images(field, groups, bound):
    """(images, scales, residue): groups of cleared rows under one ring map into Z or Z/N.

    Each group is a list of sparse rows over the field's integral domain
    (clear_rows).  The field's image_ring (scalars.LaurentImage over Q(r),
    scalars.ModularImage over Q[x]/(f)) scales each group by one nonzero
    s into Z[r] or Z[x]/(f): r^shift, the least that leaves no negative
    exponent, over Q(r), and the lcm of the denominators over Q[x]/(f).
    bound(norms, scale_norms,
    gamma) gets norms[g][i][k], the L1 norm of s times entry k of row i of
    group g, scale_norms[g], the L1 norm of that group's s, and gamma, with
    ||a b||_1 <= gamma ||a||_1 ||b||_1 in the ring, and returns C, a bound
    on the coefficients of every difference the caller compares.  The map
    is r -> t into Z, or x -> t into Z/N for N = f(t), with t = 2^B >
    2C + ||f||_1 (_image_base).  A nonzero value d whose coefficients lie
    within C maps to a nonzero image: over Z[r] its lowest nonzero
    coefficient is not divisible by t; over Z[x]/(f), of degree e < deg f,
    |d(t)| >= t^e - C (t^e - 1)/(t - 1) > 0 and |d(t)| < 2C t^(deg f - 1)
    < f(t).  So two values are equal exactly when their images are; images
    are s times the entry mapped, scales[g] is the image of s, and
    residue(row) gives the canonical images of a sparse row, zeros left
    out, for the comparison.  The images are only compared, never decoded.
    Over Q and Q(l,r), and wherever t would be wider than _images_pay
    allows, the images are the rows themselves, every scale is 1 and
    residue is the row itself: its pairs are nonzero already (clear_rows,
    _row_combination).
    """
    ring = field.image_ring
    if ring is not None:
        scales = [ring.scale([x for row in rows for _, x in row]) for rows in groups]
        norms = [[[ring.norm(x, s) for _, x in row] for row in rows]
                 for rows, s in zip(groups, scales)]
        b = _image_base(bound(norms, [ring.scale_norm(s) for s in scales], ring.gamma),
                        ring.norm_f)
        if _images_pay(b):
            modulus = ring.modulus(b)
            return ([[[(j, ring.at(x, s, b)) for j, x in row] for row in rows]
                     for rows, s in zip(groups, scales)],
                    [ring.scale_at(s, b) for s in scales],
                    _nonzero if modulus is None else _residues(modulus))
    return groups, [1] * len(groups), _as_is


def divide_entries(field, den, entries):
    """clear_entries undone: the domain entries over den, each in the field's normal form.

    Any field other than Q, Q(r) and Q(l,r) is its own domain, with den one.
    """
    if field == QQ:
        if den == 1:  # an int alone takes Fraction's path with no gcd
            return [Rat(x) for x in entries]
        return [Rat(x, den) for x in entries]
    if isinstance(field, FunctionField):
        if den == 1:
            return [RatFunc.from_laurent(x) for x in entries]
        return [RatFunc(x, den) for x in entries]
    return list(entries)


def sparse_columns(rows, ncols):
    """The columns of sparse rows as (row, entry) pairs: _row_combination on them is M v."""
    cols = [[] for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, x in row:
            cols[j].append((i, x))
    return cols


def _fraction_free(work, s, ring):
    """s steps of Bareiss elimination with full pivoting, in place on work.

    ring is (mul, sub, divexact, cost) of an integral domain with a falsy
    zero.  Each step takes the least-cost nonzero entry, the first in
    row-major order on a tie, among the rows and columns not yet chosen,
    and sets every other such entry to (a_pq a_ij - a_iq a_pj) / d for the
    pivot a_pq and the previous pivot d (no division at the first step).
    By Sylvester's identity (Bareiss 1968) that entry is a minor of work,
    so the division is exact, and the k-th pivot is the minor on the first
    k chosen rows and columns in pivot order.  Returns (rows, cols,
    last_pivot), the indices in pivot order, or None when the rank is
    below s.
    """
    mul, sub, divexact, cost = ring
    rows_left = list(range(len(work)))
    cols_left = list(range(len(work[0])))
    rows, cols = [], []
    prev = None
    for step in range(s):
        best = best_cost = None
        for i in rows_left:
            wi = work[i]
            for j in cols_left:
                x = wi[j]
                if x:
                    c = cost(x)
                    if best_cost is None or c < best_cost:
                        best, best_cost = (i, j), c
        if best is None:
            return None
        bi, bj = best
        rows.append(bi)
        cols.append(bj)
        rows_left.remove(bi)
        cols_left.remove(bj)
        pivot = work[bi][bj]
        if step == s - 1:
            break
        prow = work[bi]
        for i in rows_left:
            wi = work[i]
            head = wi[bj]
            for j in cols_left:
                a = wi[j]
                t = mul(pivot, a) if a else a
                if head and prow[j]:
                    t = sub(t, mul(head, prow[j]))
                wi[j] = divexact(t, prev) if t and prev is not None else t
        prev = pivot
    return rows, cols, pivot


def _domain(m):
    """(work, ring, finish): m as rows over the integral domain that eliminates it.

    Row i of work is row i of m through clear_entries, so it is the row
    times a nonzero scalar and the same minors are invertible; ring is as
    in _fraction_free, and finish(pivot, odd) turns the last pivot of a
    full elimination into det m, negated when odd, by dividing out the
    product of the row denominators.  The rings: Z; the Laurent ring, with
    the term count as the pivot cost; any other field, such as Q[x]/(f),
    divides in the field.
    """
    field = m.field
    cleared = [clear_entries(field, row) for row in m.rows]
    work = [row for _, row in cleared]
    dens = [den for den, _ in cleared]
    if field == QQ:
        return work, (mul, sub, floordiv, abs), lambda d, odd: Rat(-d if odd else d, prod(dens))
    if isinstance(field, FunctionField):
        ring = (mul, sub, LaurentPoly.divexact, lambda e: len(e.terms))
        return work, ring, lambda d, odd: RatFunc(-d if odd else d,
                                                  prod(dens, start=LaurentPoly.one()))
    return work, (mul, sub, truediv, lambda x: 0), lambda d, odd: -d if odd else d


def det(m):
    """Exact determinant: the last pivot of a full fraction-free elimination.

    The rows and columns in pivot order permute m to a matrix whose
    determinant is that pivot; the parity of the two permutations gives
    the sign.
    """
    if not m.is_square():
        raise NonSquare("determinant of a non-square matrix")
    if m.nrows == 0:
        return m.field.one()
    work, ring, finish = _domain(m)
    found = _fraction_free(work, m.nrows, ring)
    if found is None:
        return m.field.zero()
    rows, cols, pivot = found
    inversions = sum(a > b for perm in (rows, cols) for a, b in combinations(perm, 2))
    return finish(pivot, inversions % 2 == 1)


def find_invertible_submatrix(m, s):
    """Row/column index sets, ascending, whose s x s minor is invertible.

    The rows and columns of s fraction-free pivoting steps; raises
    SubmatrixNotFound when rank(m) < s.  The minor is verified exactly by
    det on the submatrix alone, which, like the search, divides by no
    pivot, so over Q(l,r) it needs no division by a value that involves l.
    """
    if s > min(m.nrows, m.ncols):
        raise DimensionMismatch("requested size exceeds matrix dimensions")
    if s == 0:
        return (), ()
    work, ring, _ = _domain(m)
    found = _fraction_free(work, s, ring)
    if found is None:
        raise SubmatrixNotFound(f"no invertible {s}x{s} submatrix (rank < {s})")
    rows_idx = tuple(sorted(found[0]))
    cols_idx = tuple(sorted(found[1]))
    if not det(m.submatrix(rows_idx, cols_idx)):
        raise AssertionError("fraction-free pivoting found a singular minor; this is a bug")
    return rows_idx, cols_idx


# ---------------------------------------------------------------------------
# Subspaces
# ---------------------------------------------------------------------------


class SubspaceBasis:
    """Echelonized basis (reduced row echelon form) of a subspace.

    The RREF representation is canonical, so equality of values is equality
    of subspaces.
    """

    # _cleared: (D, rows), the vectors times their clear_rows denominator D
    # as sparse rows over the field's integral domain, built on first use
    __slots__ = ("field", "ambient_dim", "vectors", "pivots", "_cleared")

    def __init__(self, field, ambient_dim, vectors, pivots, *, _trusted=False):
        if not _trusted:
            raise TypeError("use SubspaceBasis.from_vectors")
        self.field = field
        self.ambient_dim = ambient_dim
        self.vectors = vectors
        self.pivots = pivots
        self._cleared = None

    @classmethod
    def from_vectors(cls, field, ambient_dim, vectors):
        vecs = [tuple(field.coerce(x) for x in v) for v in vectors]
        for v in vecs:
            if len(v) != ambient_dim:
                raise AmbientMismatch("vector length differs from ambient dimension")
        rows, pivots = _rref(vecs, field)
        return cls(field, ambient_dim, tuple(rows), tuple(pivots), _trusted=True)

    @classmethod
    def zero(cls, field, ambient_dim):
        return cls(field, ambient_dim, (), (), _trusted=True)

    @classmethod
    def coordinate(cls, field, ambient_dim, indices):
        """Span of the unit vectors at the given coordinate indices."""
        one, zero = field.one(), field.zero()
        vecs = tuple(tuple(one if j == i else zero for j in range(ambient_dim)) for i in sorted(indices))
        return cls(field, ambient_dim, vecs, tuple(sorted(indices)), _trusted=True)

    @property
    def dim(self):
        return len(self.vectors)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, SubspaceBasis):
            return NotImplemented
        return (self.field == other.field and self.ambient_dim == other.ambient_dim
                and self.pivots == other.pivots
                and all(a == b for va, vb in zip(self.vectors, other.vectors) for a, b in zip(va, vb)))

    def _cleared_rows(self):
        """(D, c): the basis vectors b_i cleared to c_i = D b_i (clear_rows), built once."""
        if self._cleared is None:
            self._cleared = clear_rows(self.field, [[(j, b) for j, b in enumerate(v) if b]
                                                    for v in self.vectors])
        return self._cleared

    def _spans(self, ops, vectors, ncols):
        """True iff op v, or v itself with no ops, lies in the span for every op and vector v.

        Vectors and ops are sparse rows cleared into the field's integral
        domain (clear_rows), which has no zero divisors; ops have ncols
        columns.  The RREF basis b_i is the identity on its pivots p_i, so w
        lies in the span exactly when, for c_i = D b_i (_cleared_rows) and y
        a nonzero multiple of w, D y = sum_i y[p_i] c_i.  One int_images call
        on [cleared basis, vectors, *ops] gives the sides, the basis imaged
        once when it is the vectors.  Y, the largest entry L1 norm of the
        vectors, times gamma nu with ops, nu their largest row L1 norm,
        bounds the entries of y.  c_i is D at p_i and zero at the other
        pivots, so the sides agree at the pivots and elsewhere differ by at
        most gamma Y (||D||_1 + sum_i ||c_i[j]||_1) <= C = gamma Y sum_i ||c_i||_1.
        On the zero space the difference is y itself, C = Y, and an op may
        be cleared row by row, as a row times a nonzero domain element is
        zero exactly when the row is; elsewhere an op is cleared whole, so
        that y is a nonzero multiple of op v.  No vectors map nothing.
        """
        if not vectors:
            return True
        _, basis = self._cleared_rows()
        groups = [basis, *ops] if vectors is basis else [basis, vectors, *ops]
        first_op = len(groups) - len(ops)

        def bound(norms, scale_norms, gamma):
            y = max((max(row, default=0) for row in norms[first_op - 1]), default=0)
            if ops:
                y *= gamma * max((sum(row) for rows in norms[first_op:] for row in rows),
                                 default=0)
            return gamma * y * sum(map(sum, norms[0])) if basis else y

        images, _, residue = int_images(self.field, groups, bound)
        basis, vectors = images[0], images[first_op - 1]
        columns = (sparse_columns(rows, ncols) for rows in images[first_op:])
        ys = (_row_combination(v, cols) for cols in columns for v in vectors) if ops else vectors
        den = dict(basis[0])[self.pivots[0]] if basis else 1
        for y in ys:
            at = dict(y)
            spanned = _row_combination(
                ((i, at[p]) for i, p in enumerate(self.pivots) if p in at), basis)
            if residue(spanned) != residue(y if den == 1 else [(j, den * x) for j, x in y]):
                return False
        return True

    def contains(self, v):
        """True iff v lies in the subspace (_contains_all)."""
        return self._contains_all([v])

    def contains_space(self, other):
        """True iff the subspace other lies in this one (_contains_all)."""
        return self._contains_all(other.vectors)

    def _contains_all(self, vectors):
        """True iff all vectors lie in the subspace: basis vectors at once, the rest by _spans."""
        for v in vectors:
            if len(v) != self.ambient_dim:
                raise AmbientMismatch("vector length differs from ambient dimension")
        field = self.field
        rest = [[field.coerce(x) if x else x for x in v] for v in vectors
                if not any(v is b for b in self.vectors)]
        return self._spans([], _cleared_each(field, rest), self.ambient_dim)

    def to_json_obj(self):
        return {
            "ambient_dim": self.ambient_dim,
            "dim": self.dim,
            "pivots": list(self.pivots),
            "vectors": [[scalar_to_text(x) for x in v] for v in self.vectors],
        }

    def __repr__(self):
        return f"SubspaceBasis(dim {self.dim} in ambient {self.ambient_dim} over {self.field.tag})"


def kernel(m):
    """Echelonized basis of the right null space of m; M v = 0 is verified.

    Both paths read it off one RREF of m with its columns reversed, whose
    null vector at a free column c is 1 there, 0 at the other free columns
    and -R[i][c] at the pivot, left of c, of each RREF row R[i].  Reversed
    back, the vector of the free column f is 1 at f, 0 at the other free
    columns and nonzero only right of f: in ascending f these vectors are
    the kernel's RREF, which is unique.  Over Q, _lifted_kernel takes that
    RREF mod p and lifts it; otherwise, or when the lift fails,
    _rref_kernel takes it over the field.
    """
    if m.field == QQ:
        basis = _lifted_kernel(m)
        if basis is not None:
            return basis
    return _rref_kernel(m)


def _rref_kernel(m):
    """The kernel from the exact RREF of m with its columns reversed, verified by annihilates."""
    n = m.ncols
    rows, pivots = _rref([row[::-1] for row in m.rows], m.field)
    one, zero = m.field.one(), m.field.zero()
    free = sorted(set(range(n)) - set(pivots))
    vectors = []
    for c in reversed(free):
        v = [zero] * n
        v[c] = one
        for row, p in zip(rows, pivots):
            x = row[c]
            if x:
                v[p] = -x
        vectors.append(tuple(reversed(v)))
    if not annihilates(m, vectors):
        raise AssertionError("kernel verification failed")
    return SubspaceBasis(m.field, n, tuple(vectors), tuple(n - 1 - c for c in reversed(free)),
                         _trusted=True)


def _cleared_each(field, vectors):
    """The vectors as sparse rows, each cleared on its own (clear_rows)."""
    return [clear_rows(field, [[(j, x) for j, x in enumerate(v) if x]])[1][0] for v in vectors]


def annihilates(m, vectors):
    """True iff M v = 0 for every vector v; DimensionMismatch for a length other than ncols.

    SubspaceBasis._spans on the zero space of M's codomain.  Each row of M
    and each v is cleared on its own (clear_rows): a row times a nonzero
    element of the field's integral domain is zero exactly when the row
    is, so this holds for the zero target only.
    """
    n = m.ncols
    for v in vectors:
        if len(v) != n:
            raise DimensionMismatch("vector length differs from column count")
    field = m.field
    rows = [clear_rows(field, [row])[1][0] for row in m._row_nonzeros()]
    return SubspaceBasis.zero(field, m.nrows)._spans([rows], _cleared_each(field, vectors), n)


def subspace_intersect(a, b):
    """a ∩ b by Zassenhaus: the RREF of the rows (u, u), u in a, and (w, 0), w in b.

    A row (u + w, u) of their span is zero in its first half exactly when
    u = -w lies in both, so the RREF rows with a pivot in the second half
    carry there the RREF of a ∩ b.
    """
    if a.ambient_dim != b.ambient_dim:
        raise AmbientMismatch("ambient dimensions differ")
    if a.field != b.field:
        raise FieldMismatch("subspaces over different fields")
    n = a.ambient_dim
    zeros = (a.field.zero(),) * n
    rows, pivots = _rref([u + u for u in a.vectors] + [w + zeros for w in b.vectors], a.field)
    k = sum(p < n for p in pivots)
    return SubspaceBasis(a.field, n, tuple(row[n:] for row in rows[k:]),
                         tuple(p - n for p in pivots[k:]), _trusted=True)


def operator_closure(seed_vectors, ops):
    """Smallest subspace containing the seeds and stable under every op.

    The spin of the MeatAxe (Parker 1984; Holt & Rees 1994).  A
    semi-echelon basis, each row 1 at its pivot and 0 at the pivots of all
    earlier rows, starts from the seeds; every row is spun once, in the
    order the rows were found, and the residue of each image op.v against
    the rows so far, when nonzero, is normalized and appended.  The rows
    lie in the closure, span the seeds and are mapped into their own span
    by every op, so they span the closure for any operators, invertible or
    not.  Each image is _row_combination of the row's nonzeros on the op's
    sparse_columns.  The spin stops once the rows fill the space; a back
    substitution on the rows gives the canonical RREF.
    """
    if not ops:
        raise DimensionMismatch("no operators given")
    n = ops[0].ncols
    field = ops[0].field
    for op in ops:
        if not op.is_square() or op.ncols != n:
            raise DimensionMismatch("operators must be square of equal size")
    seeds = [tuple(field.coerce(x) for x in v) for v in seed_vectors]
    for v in seeds:
        if len(v) != n:
            raise DimensionMismatch("seed length differs from operator size")
    if not any(any(v) for v in seeds):
        raise ZeroSeed("all seed vectors are zero")
    one, zero = field.one(), field.zero()
    columns = [sparse_columns(op._row_nonzeros(), n) for op in ops]
    echelon = []
    for v in seeds:
        if len(echelon) < n:
            _absorb(echelon, list(v), one)
    spun = 0
    while spun < len(echelon) < n:
        v = echelon[spun][1]
        spun += 1
        for cols in columns:
            _absorb(echelon, _dense(_row_combination(v, cols), n, zero), one)
            if len(echelon) == n:
                break
    rows, pivots = _back_substitute(echelon, n, zero)
    return SubspaceBasis(field, n, tuple(rows), tuple(pivots), _trusted=True)


def is_invariant(space, ops):
    """True iff op.v lies in the space for every op and basis vector v.

    SubspaceBasis._spans on the cleared basis c_j = D b_j as its vectors and
    each op g cleared whole: (D_g g) c_j = D D_g g b_j, a multiple of g b_j.
    """
    n = space.ambient_dim
    for op in ops:
        if op.ncols != n:
            raise DimensionMismatch("operator size differs from ambient dimension")
    _, basis = space._cleared_rows()
    return space._spans([clear_rows(space.field, op._row_nonzeros())[1] for op in ops], basis, n)


# Exponents e, ascending, of the proven Mersenne primes 2^e - 1 from 2^61 - 1
# on: the moduli of the determinant zero test above a coefficient bound
MERSENNE_EXPONENTS = (61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423)

# A prime below 2^30, so each residue is one 30-bit digit of a Python int,
# and 1 mod 120, so phi12, phi20 and phi24 split into linear factors mod p
_CERTIFICATE_PRIME = 1073740201


def residue_prime(field):
    """The prime p of the one-sided certificates over the field, or None.

    Reduction mod p is a ring map from the scalars whose denominators p
    does not divide, so at any such prime a rank or a spin dimension mod p
    is at most the one over the field; a drop at p only sends the case to
    the exact path.  _lifted_kernel takes its own, larger prime, which its
    reconstruction bound needs.
    """
    if field == QQ or isinstance(field, NumberField):
        return _CERTIFICATE_PRIME
    return None


@lru_cache(maxsize=None)
def _root_powers(field, p):
    """(1, z, ..., z^(d-1)) mod p for a root z of the modulus f of field, or None.

    f is monic in Z[x], so x -> z is a ring map from the elements of
    Q[x]/(f) whose denominators p does not divide exactly when
    f(z) = 0 mod p, which is checked here.
    """
    f = field.modulus
    z = kernels.modp_poly_root(f, p)
    if z is None or kernels.modp_poly_eval(f, z, p):
        return None
    return tuple(pow(z, i, p) for i in range(field.degree))


def image_mod_p(x, p):
    """The residue in GF(p) of a scalar of Q or of Q[x]/(f), or those of a Matrix.

    A Matrix gives one {column: residue} dict of its nonzero residues per
    row, the sparse rows that rank_mod_p takes.  None when there is no
    image: p divides a denominator, f has no root mod p (found once per
    field), or the field is neither Q nor Q[x]/(f).
    """
    field = QQ if is_rat(x) else getattr(x, "field", None)
    if field == QQ:
        powers = ()
    elif isinstance(field, NumberField):
        powers = _root_powers(field, p)
        if powers is None:
            return None
    else:
        return None
    if not isinstance(x, Matrix):
        return _residue(x, p, powers)
    rows = []
    for nonzeros in x._row_nonzeros():
        row = {}
        for j, a in nonzeros:
            y = _residue(a, p, powers)
            if y is None:
                return None
            if y:
                row[j] = y
        rows.append(row)
    return rows


def _residue(x, p, powers):
    """x mod p, or None when p divides its denominator; powers are () over Q."""
    if powers:
        num, den = sum(map(mul, x.nums, powers)), x.den
    else:
        num, den = x.numerator, x.denominator
    if den % p == 0:
        return None
    return num * pow(den, -1, p) % p


def _pivot_mod_p(pivots, row, p):
    """Reduce a sparse integer row against the pivot rows over GF(p).

    The row's columns are scanned in order from its first entry.  A nonzero
    residue at a column with no pivot row is made 1 there, becomes the
    pivot row of that column and is returned; a zero residue returns None.
    An entry of the row is reduced only where it is read, so it grows by
    less than p^2 a step; the pivot rows are reduced.
    """
    r = dict(row)
    if not r:
        return None
    for c in count(min(r)):
        if c in r:
            x = r[c] % p
            if x:
                prow = pivots.get(c)
                if prow is None:
                    inv = pow(x, -1, p)
                    prow = pivots[c] = {k: y for k, v in r.items() if (y := v * inv % p)}
                    return prow
                for k, v in prow.items():
                    r[k] = r.get(k, 0) - x * v
            r.pop(c, None)
            if not r:
                return None


def _semi_echelon_mod_p(rows, p):
    """Pivot rows {leading column: row} over GF(p) of sparse integer rows.

    Semi-echelon elimination on the leading column of each row, so only
    the entries a row actually has are touched: each pivot row is 1 at its
    leading column and has no other entry left of it.
    """
    pivots = {}
    for row in rows:
        _pivot_mod_p(pivots, row, p)
    return pivots


def columns_mod_p(m, p):
    """The columns of m mod p as (row, residue) pairs (sparse_columns), or None."""
    rows = image_mod_p(m, p)
    if rows is None:
        return None
    return sparse_columns([row.items() for row in rows], m.ncols)


def spin_mod_p(seed, columns, p, stop=None):
    """Dimension over GF(p) of the closure of seed under the operators, at most stop.

    seed is a {column: residue} dict and each operator is given by its
    columns_mod_p, a list of its columns as (row, residue) pairs.  The spin of
    operator_closure: every pivot row v is spun once, in the order found,
    and each image op.v is reduced by the pivot step of
    _semi_echelon_mod_p.  The spin ends as soon as the dimension reaches
    stop, when given, so it returns min(dimension, stop).
    """
    n = len(columns[0])
    cap = n if stop is None else min(stop, n)
    pivots = {}
    found = [_pivot_mod_p(pivots, seed, p)]
    if found[0] is None:
        return 0
    spun = 0
    while spun < len(found) < cap:
        v = found[spun]
        spun += 1
        for cols in columns:
            image = {}
            for j, x in v.items():
                for i, a in cols[j]:
                    image[i] = image.get(i, 0) + x * a
            prow = _pivot_mod_p(pivots, image, p)
            if prow is not None:
                found.append(prow)
                if len(found) == cap:
                    break
    return min(len(found), cap)


def rank_mod_p(rows, p):
    """Rank over GF(p) of sparse integer rows, each a {column: value} dict."""
    return len(_semi_echelon_mod_p(rows, p))


def nullspace_mod_p(rows, p, ncols):
    """(pivot columns, kernel basis) over GF(p) of sparse integer rows.

    The pivot columns, ascending, are those of the reduced row echelon
    form.  There is one basis vector per free column, in ascending order of
    the free column; each is a dense list of residues, 1 at its own free
    column and 0 at the other free columns.
    """
    return _back_substitute_mod_p(_semi_echelon_mod_p(rows, p), p, ncols)


def _back_substitute_mod_p(pivots, p, ncols):
    """nullspace_mod_p's (pivot columns, kernel basis) from its pivot rows,
    cleared in place of every later pivot column, right to left: the RREF."""
    order = sorted(pivots)
    for c in reversed(order):
        r = pivots[c]
        for k in [k for k in r if k != c and k in pivots]:
            f = r.pop(k)
            for j, v in pivots[k].items():
                if j != k:
                    x = (r.get(j, 0) - f * v) % p
                    if x:
                        r[j] = x
                    else:
                        del r[j]
    basis = []
    for f in range(ncols):
        if f not in pivots:
            v = [0] * ncols
            v[f] = 1
            for c in order:
                x = pivots[c].get(f)
                if x:
                    v[c] = p - x
            basis.append(v)
    return tuple(order), basis


def _lifted_kernel(m):
    """The RREF basis of the kernel of m over Q from a kernel over GF(p), or None.

    Dixon's method at one prime (Numer. Math. 40, 1982), p = 2^61 - 1, large
    enough that kernels.ratrecon_int, which recovers fractions a/b with
    |a|, b <= sqrt(p/2), lifts the kernels at small points:
    nullspace_mod_p of the image of m with its columns reversed gives the
    RREF that kernel describes, over GF(p); each residue is lifted by
    kernels.ratrecon_int, and annihilates must hold for the lifted vectors.
    None when p divides a denominator, a reconstruction fails or the check
    fails.

    Exact: rank mod p <= rank over Q, so the nullity k over Q is at most
    the count of vectors mod p.  The lifted vectors lie in the kernel and
    are independent, carrying the identity on their free columns, so they
    span it and are its RREF.  An empty basis mod p proves k = 0 outright.
    """
    p = (1 << MERSENNE_EXPONENTS[0]) - 1
    image = image_mod_p(m, p)
    if image is None:
        return None
    n = m.ncols
    last = n - 1
    pivots, basis = nullspace_mod_p([{last - j: x for j, x in row.items()} for row in image],
                                    p, n)
    if not basis:
        return SubspaceBasis.zero(QQ, n)
    vectors = [_lift(v, p) for v in reversed(basis)]
    if None in vectors:
        return None
    if not annihilates(m, vectors):
        return None
    pivots = set(pivots)
    free = tuple(sorted(last - c for c in range(n) if c not in pivots))
    return SubspaceBasis(QQ, n, tuple(vectors), free, _trusted=True)


def _lift(v, p):
    """The residues of v lifted to Q by ratrecon_int, in reverse order, or None."""
    zero = QQ.zero()
    out = []
    for x in reversed(v):
        y = kernels.ratrecon_int(x, p) if x else zero
        if y is None:
            return None
        out.append(y)
    return tuple(out)


def _commutant_rows(ops):
    """Sparse rows of the system A X - X A = 0 over the field, X flattened row-major.

    Entry (i, j) of A X - X A is sum_p A_ip X_pj - sum_q X_iq A_qj; each row
    is a {column: entry} dict of its nonzero entries, and zero rows are
    left out.
    """
    n = ops[0].nrows
    zero = ops[0].field.zero()
    rows = []
    for op in ops:
        a = op._row_nonzeros()
        cols = sparse_columns(a, n)
        for i in range(n):
            for j in range(n):
                row = {}
                for p, x in a[i]:
                    row[p * n + j] = row.get(p * n + j, zero) + x
                for q, x in cols[j]:
                    row[i * n + q] = row.get(i * n + q, zero) - x
                row = {k: x for k, x in row.items() if x}
                if row:
                    rows.append(row)
    return rows


def commutant_basis(ops):
    """Basis of {X : X A = A X for all A in ops}; always contains the identity.

    One spin comes first.  If some E in ops has exactly one nonzero row a,
    E = e_a w^T with w nonzero, then X E = E X applied to a u with
    w^T u != 0 gives X e_a = c e_a, so X = c on the spin of e_a under ops,
    and X = c 1 when that spin is the whole space.  Wherever residue_prime
    gives a prime p, over Q and Q[x]/(f), reduction mod p is a ring map
    from the scalars whose denominators p does not divide, so a spin mod p
    is at most the exact one: spin_mod_p of e_a reaching n proves that the
    commutant is the scalars, and the basis is [I].  A caller holding a rep
    that passed the relation gate may add its e_1 to the g_i: the gate's
    e_definition checks e_1 = (l/m)(g_1 g_1 + m g_1 - 1) on g_1 itself, a
    polynomial in g_1, so every X commuting with the g_i commutes with e_1
    and the commutant is the same.

    Every other case (no operator with one nonzero row, a spin short of n,
    or no image mod p) is decided by kernel on the (len(ops) n^2) x n^2
    system A X - X A = 0, whose echelonized basis is the basis returned.
    """
    if not ops:
        raise DimensionMismatch("no operators given")
    n = ops[0].nrows
    field = ops[0].field
    for op in ops:
        if not op.is_square() or op.nrows != n:
            raise DimensionMismatch("operators must be square of equal size")
    for op in ops:
        support = [i for i, row in enumerate(op._row_nonzeros()) if row]
        if len(support) == 1:
            p = residue_prime(field)
            columns = [columns_mod_p(a, p) for a in ops]
            if None not in columns and spin_mod_p({support[0]: 1}, columns, p) == n:
                return [Matrix.identity(field, n)]
            break
    zero = field.zero()
    dense = [tuple(_dense(row.items(), n * n, zero)) for row in _commutant_rows(ops)]
    big = Matrix(field, tuple(dense), _trusted=True) if dense else Matrix.zeros(field, 1, n * n)
    mats = []
    for v in kernel(big).vectors:
        mats.append(Matrix(field, tuple(tuple(v[i * n + j] for j in range(n)) for i in range(n)),
                           _trusted=True))
    return mats


def charpoly(m):
    """Characteristic polynomial det(xI - m), ascending coefficients, monic.

    Faddeev-LeVerrier recursion; exact in characteristic zero.
    """
    if not m.is_square():
        raise NonSquare("charpoly of a non-square matrix")
    n = m.nrows
    field = m.field
    coeffs = [field.zero()] * (n + 1)
    coeffs[n] = field.one()
    mk = Matrix.identity(field, n)
    for k in range(1, n + 1):
        mk = m * mk
        tr = mk.rows[0][0]
        for i in range(1, n):
            tr = tr + mk.rows[i][i]
        c = -(tr / field.from_int(k))
        coeffs[n - k] = c
        if k < n:
            mk = mk + Matrix.identity(field, n).scale(c)
    return coeffs
