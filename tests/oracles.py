"""Independent reference oracles for the test suite.

Deliberately naive: plain fractions.Fraction or int arithmetic,
first-nonzero pivoting, no pivot heuristics, no shared code with the main
implementation.  These stay independent of the paths they check.
"""

from fractions import Fraction
from itertools import permutations, zip_longest
from math import gcd, lcm


def to_fraction_rows(matrix):
    """Convert a lkwb Matrix over Q into plain Fraction rows."""
    return [[Fraction(int(x.numerator), int(x.denominator)) for x in row]
            for row in matrix.rows]


def naive_rref(rows):
    """Textbook Gauss-Jordan with first-nonzero pivot; returns (rows, pivots)."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def naive_closure(seeds, ops):
    """Smallest subspace containing the seeds and stable under the ops.

    Fraction seed vectors and operator rows.  Every generation applies each
    op to every basis row and re-echelonizes everything with naive_rref,
    until the dimension stops growing.  Returns the nonzero RREF rows.
    """
    def span(vectors):
        rows, pivots = naive_rref(vectors)
        return rows[:len(pivots)]

    basis = span(seeds)
    while True:
        images = [[sum(a * x for a, x in zip(row, v)) for row in op] for op in ops for v in basis]
        grown = span(basis + images)
        if len(grown) == len(basis):
            return basis
        basis = grown


def naive_rank(rows):
    return len(naive_rref(rows)[1])


def naive_kernel_dim(rows):
    ncols = len(rows[0]) if rows else 0
    return ncols - naive_rank(rows)


def naive_det(rows):
    """Determinant by elimination over Fraction, first-nonzero pivot."""
    m = [list(r) for r in rows]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        pivot_row = None
        for i in range(k, n):
            if m[i][k] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            if m[i][k] != 0:
                f = m[i][k] / m[k][k]
                m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return det


def poly_divmod(num, den):
    """Long division in Q[x] on Fraction coefficient lists (ascending)."""
    num = [Fraction(c) for c in num]
    den = [Fraction(c) for c in den]
    while den and den[-1] == 0:
        den.pop()
    q = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    r = list(num)
    while len(r) >= len(den) and any(r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) < len(den):
            break
        coef = r[-1] / den[-1]
        deg = len(r) - len(den)
        q[deg] = coef
        for i, c in enumerate(den):
            r[deg + i] -= coef * c
    while r and r[-1] == 0:
        r.pop()
    return q, r


def poly_mod_reduce(poly, modulus):
    """poly mod modulus in Q[x]."""
    _, r = poly_divmod(poly, modulus)
    return r


def ext_euclid_inverse(poly, modulus):
    """Inverse of poly in Q[x]/(modulus) by the extended Euclid algorithm."""
    r0, s0 = [Fraction(c) for c in modulus], []
    r1, s1 = [Fraction(c) for c in poly], [Fraction(1)]
    while any(r1):
        q, r = poly_divmod(r0, r1)
        qs1 = poly_mul(q, s1)
        s = [a - b for a, b in zip_pad(s0, qs1)]
        while s and s[-1] == 0:
            s.pop()
        r0, s0, r1, s1 = r1, s1, r, s
    assert len(r0) == 1, "not invertible"
    inv = [c / r0[0] for c in s0]
    return poly_mod_reduce(inv, modulus)


def quotient_mul(a, b, modulus):
    """a * b in Q[x]/(modulus) on Fraction coefficient lists of length deg modulus.

    The schoolbook product in Q[x], then its remainder by long division.
    """
    return _pad(poly_mod_reduce(poly_mul(a, b), modulus), len(modulus) - 1)


def quotient_inverse(a, modulus):
    """Inverse of a nonzero a in Q[x]/(modulus), padded to deg modulus."""
    a = [Fraction(c) for c in a]
    while a and a[-1] == 0:
        a.pop()
    return _pad(ext_euclid_inverse(a, modulus), len(modulus) - 1)


def quotient_pow(a, e, modulus):
    """a ** e in Q[x]/(modulus) by e repeated products (a inverted for e < 0)."""
    if e < 0:
        a, e = quotient_inverse(a, modulus), -e
    out = _pad([Fraction(1)], len(modulus) - 1)
    for _ in range(e):
        out = quotient_mul(out, a, modulus)
    return out


def _pad(poly, d):
    return [Fraction(c) for c in poly] + [Fraction(0)] * (d - len(poly))


def poly_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def bareiss_det_polyint(rows):
    """Determinant over Z[x] of dense integer coefficient lists, as one.

    Bareiss elimination with first-nonzero pivoting on int coefficient
    lists: each update is divided by the previous pivot by long division,
    which must leave no remainder.  The zero polynomial is [].
    """

    def trim(a):
        while a and not a[-1]:
            a.pop()
        return a

    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1) if a and b else []
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    def divexact(a, b):
        a = trim(list(a))
        q = [0] * max(len(a) - len(b) + 1, 0)
        while a:
            assert len(a) >= len(b) and a[-1] % b[-1] == 0, "inexact Bareiss division"
            c, shift = a[-1] // b[-1], len(a) - len(b)
            q[shift] = c
            for i, y in enumerate(b):
                a[shift + i] -= c * y
            trim(a)
        return q

    m = [[trim(list(e)) for e in row] for row in rows]
    n = len(m)
    sign, prev = 1, [1]
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if m[i][k]), None)
        if pivot_row is None:
            return []
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                t = [a - b for a, b in zip_longest(mul(m[k][k], m[i][j]), mul(m[i][k], m[k][j]),
                                                   fillvalue=0)]
                m[i][j] = divexact(t, prev)
        prev = m[k][k]
    return [sign * c for c in prev]


# Laurent polynomials in l and r: dicts from exponent pairs (a, b), for the
# monomial l^a r^b, to nonzero Fractions.


def laurent(pairs):
    """The Laurent polynomial sum c l^a r^b over ((a, b), c) pairs."""
    out = {}
    for key, c in pairs:
        out[key] = out.get(key, Fraction(0)) + Fraction(c)
    return {k: c for k, c in out.items() if c != 0}


def laurent_add(p, q):
    return laurent(list(p.items()) + list(q.items()))


def laurent_neg(p):
    return {k: -c for k, c in p.items()}


def laurent_mul(p, q):
    return laurent(((a1 + a2, b1 + b2), c1 * c2)
                   for (a1, b1), c1 in p.items() for (a2, b2), c2 in q.items())


def laurent_pow(p, e):
    """p ** e by e repeated products; for e < 0, p must be a monomial."""
    if e < 0:
        ((a, b), c), = p.items()
        return {(a * e, b * e): c ** e}
    out = {(0, 0): Fraction(1)}
    for _ in range(e):
        out = laurent_mul(out, p)
    return out


def laurent_content(p):
    """The positive rational c with p / c integral of content 1 (0 for p = 0)."""
    if not p:
        return Fraction(0)
    den = lcm(*(c.denominator for c in p.values()))
    return Fraction(gcd(*(int(c * den) for c in p.values())), den)


def laurent_substitute_l(p, eps, k):
    """p with l replaced by eps * r^k."""
    return laurent(((0, b + k * a), c * Fraction(eps) ** a) for (a, b), c in p.items())


def laurent_evaluate(p, l_val, r_val):
    return sum((c * Fraction(l_val) ** a * Fraction(r_val) ** b for (a, b), c in p.items()),
               Fraction(0))


def laurent_gcd_r(p, q):
    """gcd of two nonzero Laurent polynomials in r alone.

    The powers of r are units, so each side is shifted to a polynomial
    with a nonzero constant term; Euclid in Q[r] by poly_divmod, then the
    result is scaled to content 1 with a positive leading coefficient.
    """
    def dense(p):
        lo = min(b for _, b in p)
        hi = max(b for _, b in p)
        return [p.get((0, lo + i), Fraction(0)) for i in range(hi - lo + 1)]

    f, g = dense(p), dense(q)
    while g:
        _, rem = poly_divmod(f, g)
        f, g = g, rem
    c = laurent_content({(0, i): x for i, x in enumerate(f) if x != 0})
    if f[-1] < 0:
        c = -c
    return {(0, i): x / c for i, x in enumerate(f) if x != 0}


def zip_pad(a, b):
    n = max(len(a), len(b))
    return zip(a + [Fraction(0)] * (n - len(a)), b + [Fraction(0)] * (n - len(b)))


def leibniz_charpoly(rows):
    """Characteristic polynomial of a Fraction matrix by the Leibniz sum.

    det(xI - A) expanded over all permutations; exponential, for tiny n.
    """
    n = len(rows)
    total = {}  # degree -> Fraction
    for perm in permutations(range(n)):
        sign = _perm_sign(perm)
        # product over i of (x*delta - A[i][perm[i]])
        prod = {0: Fraction(sign)}
        for i in range(n):
            term = {}
            a = rows[i][perm[i]]
            for d, c in prod.items():
                if perm[i] == i:
                    term[d + 1] = term.get(d + 1, Fraction(0)) + c
                if a != 0:
                    term[d] = term.get(d, Fraction(0)) - c * a
            prod = term
        for d, c in prod.items():
            total[d] = total.get(d, Fraction(0)) + c
    deg = max(total) if total else 0
    return [total.get(d, Fraction(0)) for d in range(deg + 1)]


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def matrix_poly_eval(coeffs, rows):
    """Evaluate a polynomial (Fraction coeffs, ascending) at a Fraction matrix."""
    n = len(rows)
    eye = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    acc = [[Fraction(0)] * n for _ in range(n)]
    power = eye
    for c in coeffs:
        if c != 0:
            acc = [[acc[i][j] + c * power[i][j] for j in range(n)] for i in range(n)]
        power = mat_mul(power, rows)
    return acc


def mat_mul(a, b):
    n = len(a)
    m = len(b[0])
    k = len(b)
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)] for i in range(n)]


def ordered_mat_mul(a, b, zero):
    """Product of two row lists of field elements by the textbook triple loop.

    Entry (i, j) sums a[i][k] * b[k][j] over ascending k, skipping pairs
    with a zero factor, as x * y for the first term and acc + x * y after
    it; an entry with no such pair is `zero`.  Returns a list of rows.
    """
    ncols = len(b[0]) if b else 0
    out = []
    for row in a:
        orow = []
        for j in range(ncols):
            acc = None
            for k, x in enumerate(row):
                y = b[k][j]
                if x and y:
                    acc = x * y if acc is None else acc + x * y
            orow.append(zero if acc is None else acc)
        out.append(orow)
    return out


def relation_failures(n, l, r, g, e, g_sq):
    """Failure labels of the Lawrence-Krammer relation table, whole matrices at a time.

    g, e and g_sq are lists of n - 1 square Fraction row lists, l and r
    Fractions.  Every relation is checked by forming both sides as whole
    matrices with mat_mul and comparing them entry by entry, in the label
    order of the workbench's relation report: braid, far commutation,
    e_i e_j = 0, e_i = (l/m)(g_i^2 + m g_i - 1) with g_sq as g_i^2, the
    cubic (X - r)(X + 1/r)(X - 1/l) with g_sq g as X^3 and g_sq as X^2,
    then e_i^2 = delta e_i.
    """
    dim = len(g[0])
    eye = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]

    def comb(*terms):
        return [[sum((c * m[i][j] for c, m in terms), Fraction(0)) for j in range(dim)]
                for i in range(dim)]

    m = 1 / r - r
    roots = (r, -1 / r, 1 / l)
    s1 = sum(roots)
    s2 = roots[0] * roots[1] + roots[0] * roots[2] + roots[1] * roots[2]
    s3 = roots[0] * roots[1] * roots[2]
    delta = (1 / l - l) / m + 1
    zero = [[Fraction(0)] * dim for _ in range(dim)]
    gens = range(n - 1)
    far = [(i, j) for i in gens for j in range(i + 2, n - 1)]
    checks = [
        *((f"braid({i + 1},{i + 2})", mat_mul(mat_mul(g[i], g[i + 1]), g[i]),
           mat_mul(mat_mul(g[i + 1], g[i]), g[i + 1])) for i in range(n - 2)),
        *((f"far({i + 1},{j + 1})", mat_mul(g[i], g[j]), mat_mul(g[j], g[i])) for i, j in far),
        *((f"ee({i + 1},{j + 1})", mat_mul(e[i], e[j]), zero) for i, j in far),
        *((f"edef({i + 1})", e[i], comb((l / m, g_sq[i]), (l, g[i]), (-l / m, eye)))
          for i in gens),
        *((f"cubic({i + 1})", comb((1, mat_mul(g_sq[i], g[i])), (-s1, g_sq[i]), (s2, g[i]),
                                   (-s3, eye)), zero) for i in gens),
        *((f"esq({i + 1})", mat_mul(e[i], e[i]), comb((delta, e[i]))) for i in gens),
    ]
    return [label for label, a, b in checks if a != b]


def m_matrix_by_field_loop(g, g_inv, e, zero, one):
    """M(n) summed in the field: each e_i and its conjugate chains, one outer product at a time.

    g, g_inv and e are lists of n - 1 square row lists of field elements,
    and zero and one the field's.  e_i is the outer product of the unit
    vector u at its one nonzero row and that row w; for j = i+2..n, u is
    pushed through g_inv[j-2] and w through g[j-2] by textbook
    matrix-vector products, and every outer(u, w) is added entry by entry
    into one matrix of field elements.
    """
    dim = len(e[0])
    total = [[zero] * dim for _ in range(dim)]

    def apply(m, v):
        out = []
        for row in m:
            acc = zero
            for x, y in zip(row, v):
                if x and y:
                    acc = acc + x * y
            out.append(acc)
        return out

    def add_outer(u, w):
        for a, x in enumerate(u):
            if x:
                for b, y in enumerate(w):
                    if y:
                        total[a][b] = total[a][b] + x * y

    for i in range(1, len(e) + 1):
        (a,) = [k for k, row in enumerate(e[i - 1]) if any(row)]
        u = [one if k == a else zero for k in range(dim)]
        w = list(e[i - 1][a])
        add_outer(u, w)
        for j in range(i + 2, len(e) + 2):
            u = apply(g_inv[j - 2], u)
            w = apply([list(col) for col in zip(*g[j - 2])], w)
            add_outer(u, w)
    return total


def invariant_by_reduction(basis, pivots, ops, zero):
    """True iff op v lies in the span of an RREF basis for every op and basis vector v.

    basis holds the RREF rows, lists of field elements 1 at their pivot
    columns and 0 at every other pivot; ops are square row lists and zero
    is the field's.  Each
    image op v, a textbook matrix-vector product, is reduced against the
    rows in order, w - w[p] b for the row b of pivot p, and must reduce to
    zero.
    """
    for op in ops:
        for v in basis:
            w = []
            for row in op:
                acc = zero
                for x, y in zip(row, v):
                    if x and y:
                        acc = acc + x * y
                w.append(acc)
            for p, b in zip(pivots, basis):
                c = w[p]
                if c:
                    w = [x - c * y for x, y in zip(w, b)]
            if any(w):
                return False
    return True


def kernel_by_two_eliminations(rows, ncols, zero, one):
    """(rows, pivots) of the RREF of the right null space, by two eliminations.

    The exact kernel as lkwb once took it: one null vector per free column
    f of naive_rref(rows), 1 at f and -R[i][f] at the pivot of each RREF
    row R[i], and a second naive_rref of those vectors.  rows are lists of
    field elements and zero and one the field's.
    """
    rref, pivots = naive_rref(rows)
    vectors = []
    for f in range(ncols):
        if f not in pivots:
            v = [zero] * ncols
            v[f] = one
            for row, p in zip(rref, pivots):
                if row[f] != 0:
                    v[p] = -row[f]
            vectors.append(v)
    basis, basis_pivots = naive_rref(vectors)
    return [tuple(v) for v in basis[:len(basis_pivots)]], basis_pivots


def residue_by_reduction(basis, pivots, v):
    """The residue of v modulo the span of an RREF basis.

    basis holds the RREF rows, 1 at their pivot columns and 0 at every
    other pivot; v is reduced against the rows in order, w - w[p] b for the
    row b of pivot p.  v lies in the span exactly when the residue is zero.
    """
    w = list(v)
    for p, b in zip(pivots, basis):
        c = w[p]
        if c:
            w = [x - c * y for x, y in zip(w, b)]
    return w


def annihilates_modp(rows, w, p):
    """True iff sum_j rows[i][j] w[j] is the zero polynomial mod p for every row i.

    rows[i][j] and w[j] are dense int coefficient lists; schoolbook
    products, summed per row and degree, reduced mod p at the end.
    """
    for row in rows:
        acc = {}
        for e, c in zip(row, w):
            for i, x in enumerate(e):
                for j, y in enumerate(c):
                    acc[i + j] = acc.get(i + j, 0) + x * y
        if any(v % p for v in acc.values()):
            return False
    return True
