"""Lawrence-Krammer representation of the BMW algebra over a chosen field.

The braid-generator action is built on the pair basis x_{s,t}
(1 <= s < t <= n), rescaled by r so that the generator eigenvalues are
{r, -1/r, 1/l}, with the parameter dictionary q = 1/r^2 and tau = r^3/l.
The defining relations are one table of identities between sums of words
in g and e.  Each identity is multiplied through by a nonzero scalar
that puts every entry and coefficient in the field's integral domain (Z
for Q, the Laurent ring for Q(r) and Q(l,r), the field for Q[x]/(f)),
then checked on the integer images of those sparse integral rows
(linalg.int_images), on whole packed sides over Q where the entries fit
one digit and row by row elsewhere; pair_chains in the reducibility
module refuses representations that fail that gate and reads the rows
it checked, one row list per matrix (RelationReport.cleared).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, fields
from math import prod

from .errors import ParameterZero, SemisimplicityViolation
from .linalg import (
    Matrix,
    _images_pay,
    _row_combination,
    clear_entries,
    clear_rows,
    int_images,
)
from .scalars import QLR, QQ, QR, Rat, m_of_r, scalar_to_text


def pair_basis(n):
    """Index pairs (s, t), 1 <= s < t <= n, in lexicographic order."""
    return tuple((s, t) for s in range(1, n + 1) for t in range(s + 1, n + 1))


def pair_index_map(n):
    return {p: i for i, p in enumerate(pair_basis(n))}


def rep_dim(n):
    return n * (n - 1) // 2


def semisimplicity_guard(r_val, n):
    """True iff r^(2k) != 1 for every k in 1..n (Hecke semisimplicity)."""
    if isinstance(r_val, int):
        r_val = Rat(r_val)
    if not r_val:
        raise ParameterZero("r = 0")
    p = r_val * r_val
    acc = p
    for _ in range(n):
        if acc == 1:
            return False
        acc = acc * p
    return True


class LKParams:
    """Strand count and the (l, r) parameters with their derived values.

    Derived: m = 1/r - r, q = 1/r^2, tau = r^3/l.  Construction enforces
    l, r, m nonzero and the semisimplicity guard.
    """

    __slots__ = ("n", "l", "r", "field", "m", "q", "tau")

    def __init__(self, n, l, r, field):
        if n < 3:
            raise ValueError("n must be at least 3")
        l = field.coerce(l)
        r = field.coerce(r)
        if not l or not r:
            raise ParameterZero("l and r must be nonzero")
        if not semisimplicity_guard(r, n):
            raise SemisimplicityViolation(f"r^(2k) = 1 for some k <= {n}")
        self.n = n
        self.l = l
        self.r = r
        self.field = field
        self.m = m_of_r(r)
        self.q = r ** -2
        self.tau = r ** 3 / l

    def delta(self):
        """e_i^2 = delta * e_i; delta = (1/l - l)/m + 1."""
        one = self.field.one()
        return (one / self.l - self.l) / self.m + one

    def __repr__(self):
        return f"LKParams(n={self.n}, field={self.field.tag})"


class LKRep:
    """The representation: g_k and e_k; pair_chains forms g_k^-1 where it reads it."""

    __slots__ = ("params", "g", "e")

    def __init__(self, params, g, e):
        self.params = params
        self.g = g
        self.e = e

    @property
    def field(self):
        return self.params.field

    @property
    def n(self):
        return self.params.n

    @property
    def dim(self):
        return rep_dim(self.params.n)

    def __repr__(self):
        return f"LKRep(n={self.n}, dim={self.dim}, field={self.field.tag})"


def build_sigma(n, q, tau, field, scale=None):
    """Matrices of the braid generators sigma_k on the pair basis, times scale.

    Case-wise action on x_{s,t}; transcription fidelity is enforced by the
    relation gate, which rejects any build violating the braid/BMW laws.
    Each distinct constant of the case table is formed once, scale (one by
    default) folded in, so an entry takes no product of its own.  Each
    matrix keeps the nonzeros of its columns as its sparse rows.
    """
    if not q or not tau:
        raise ParameterZero("q and tau must be nonzero")
    basis = pair_basis(n)
    idx = {p: i for i, p in enumerate(basis)}
    N = len(basis)
    one = field.one()
    c = one if scale is None else scale
    qm1 = q - one
    one_minus_q, cq = c * (one - q), c * q
    # tq[e] = scale tau q^e, times q - 1 once in lin and twice in sq
    tq = [c * tau]
    for _ in range(n):
        tq.append(tq[-1] * q)
    lin = [x * qm1 for x in tq]
    sq = [x * qm1 for x in lin]

    mats = []
    for k in range(1, n):
        cols = [{} for _ in range(N)]
        for j, (s, t) in enumerate(basis):
            col = cols[j]

            def add(pair, x):
                i = idx[pair]
                col[i] = col[i] + x if i in col else x

            if k < s - 1 or k > t:
                add((s, t), c)
            elif k == s - 1:
                add((s - 1, t), c)
                add((s, t), one_minus_q)
            elif k == s and s < t - 1:
                add((s, s + 1), lin[1])
                add((s + 1, t), cq)
            elif k == s and s == t - 1:
                add((s, t), tq[2])
            elif s < k < t - 1:
                add((s, t), c)
                add((k, k + 1), sq[k - s])
            elif s < k and k == t - 1:
                add((s, t - 1), c)
                add((t - 1, t), lin[t - s])
            elif k == t:
                add((s, t), one_minus_q)
                add((s, t + 1), cq)
            else:  # unreachable: the cases cover 1 <= k <= n-1  # pragma: no cover
                raise AssertionError((k, s, t))
        nonzeros = tuple([] for _ in range(N))
        for j, col in enumerate(cols):
            for i, x in col.items():
                if x:
                    nonzeros[i].append((j, x))
        mats.append(Matrix.from_nonzeros(field, nonzeros, N))
    return tuple(mats)


def build_rep(params):
    """Build g_k = r * sigma_k and e_k = (l/m)(g_k^2 + m g_k - 1).

    The rescale factor r is forced: matching the sigma eigenvalues
    {1, -q, tau q^2} to the BMW eigenvalues {r, -1/r, 1/l} requires the
    scalar r once q = 1/r^2 and tau = r^3/l.

    Every matrix is built on its sparse rows, which it keeps as its cached
    row nonzeros: g_k is r sigma_k as build_sigma forms it, r folded into
    its constants.  e_k has rank 1, with one nonzero row, at the pair
    a = (k, k+1), so only row a of g_k^2 + m g_k - 1 is formed, row a of
    g_k^2 as row a of g_k through g_k's own rows.  The relation gate
    checks the e_k definition on every row of the word g_k g_k, which
    refuses any other nonzero row of g_k^2 + m g_k - 1.
    """
    field = params.field
    m = params.m
    one = field.one()
    coef = params.l / m
    N = rep_dim(params.n)
    index = pair_index_map(params.n)
    g = build_sigma(params.n, params.q, params.tau, field, scale=params.r)
    e = []
    for k, gk in enumerate(g, start=1):
        rows = gk._row_nonzeros()
        a = index[(k, k + 1)]
        sq = _row_combination(rows[a], rows)
        # the one nonzero row of e_k: (l/m) times row a of g_k^2 + m g_k - 1
        erow = [(j, coef * y) for j, y in _row_combination(
            ((0, None), (1, m), (2, -one)), (sq, rows[a], ((a, one),)))]
        e.append(Matrix.from_nonzeros(field, tuple(erow if i == a else [] for i in range(N)), N))
    return LKRep(params, g, tuple(e))


# ---------------------------------------------------------------------------
# Relation verification
# ---------------------------------------------------------------------------


class Report:
    """A report whose JSON keys are its dataclass fields, in declaration order.

    Tuples become lists and nested reports their objects; a field declared
    with metadata={"json": False} stays out of the JSON.
    """

    def to_json_obj(self):
        return {f.name: _json_value(getattr(self, f.name))
                for f in fields(self) if f.metadata.get("json", True)}


def _json_value(v):
    if isinstance(v, tuple):
        return [_json_value(x) for x in v]
    return v.to_json_obj() if isinstance(v, Report) else v


@dataclass(frozen=True)
class RelationReport(Report):
    """Per-family verdicts; cleared is (D, D g, D e), out of the JSON, == and repr.

    D g and D e hold one list of sparse rows per matrix of g and of e.
    """

    n: int
    field: str
    braid: bool
    far_commutation: bool
    e_products: bool
    e_definition: bool
    cubic_annihilation: bool
    e_square: bool
    delta: str
    all_passed: bool
    failures: tuple
    cleared: tuple = dc_field(compare=False, repr=False, metadata={"json": False})


def verify_relations(rep):
    """Check the six defining relation families and report per-family results.

    (a) braid relations, (b) far commutation, (c) e_i e_j = 0 for
    |i-j| >= 2, (d) the e_i definition identity, (e) cubic annihilation
    (X-r)(X+1/r)(X-1/l), (f) e_i^2 = delta e_i.  Each instance is a row of
    one table: family, failure label and two sides, each a list of
    (coefficient, word) terms, a word being matrices multiplied left to
    right and () the identity; a matrix is named by its index in g + e,
    and g_i^2 is the word g_i g_i.

    The rows are checked on cleared entries.  linalg.clear_entries gives
    one common denominator D of every entry of g and e over the
    field's integral domain (Z for Q, the Laurent ring for Q(r) and
    Q(l,r), where D = 1 on every substituted rep, the field itself for
    Q[x]/(f)), and the words run on the matrices times D.  _scaled
    multiplies each row through by the nonzero K D^L that makes every
    coefficient lie in that domain, so the products and sums stay there;
    the scaled identity holds exactly when the row does, since the domain
    has no zero divisors.  _holds compares the sides on int_images.  The
    report carries D and the cleared rows as RelationReport.cleared,
    (D, D g, D e), each of D g and D e one list of dim rows per matrix.
    """
    p = rep.params
    field = p.field
    one = field.one()
    # cubic (X - r)(X + 1/r)(X - 1/l) expanded via elementary symmetric sums
    r_inv, l_inv = one / p.r, one / p.l
    s1 = p.r - r_inv + l_inv
    s2 = -one + p.r * l_inv - r_inv * l_inv
    delta = p.delta()
    mats = (*rep.g, *rep.e)
    gens = range(p.n - 1)
    g, e = gens, range(len(gens), 2 * len(gens))
    far = [(i, j) for i in gens for j in range(i + 2, p.n - 1)]
    table = [
        *(("braid", f"braid({i + 1},{i + 2})", [(one, (g[i], g[i + 1], g[i]))],
           [(one, (g[i + 1], g[i], g[i + 1]))]) for i in range(p.n - 2)),
        *(("far_commutation", f"far({i + 1},{j + 1})", [(one, (g[i], g[j]))],
           [(one, (g[j], g[i]))]) for i, j in far),
        *(("e_products", f"ee({i + 1},{j + 1})", [(one, (e[i], e[j]))], []) for i, j in far),
        # e_i = (l/m)(g_i^2 + m g_i - 1) multiplied through by m/l: over Q(r)
        # and Q(l,r), m/l has no denominator to reduce against and l/m has
        *(("e_definition", f"edef({i + 1})", [(p.m / p.l, (e[i],))],
           [(one, (g[i], g[i])), (p.m, (g[i],)), (-one, ())]) for i in gens),
        *(("cubic_annihilation", f"cubic({i + 1})", [(one, (g[i], g[i], g[i]))],
           [(s1, (g[i], g[i])), (-s2, (g[i],)), (-l_inv, ())]) for i in gens),
        *(("e_square", f"esq({i + 1})", [(one, (e[i], e[i]))], [(delta, (e[i],))]) for i in gens),
    ]
    den, rows = clear_rows(field, [row for m in mats for row in m._row_nonzeros()])
    scaled = [_scaled(lhs, rhs, den, field) for _, _, lhs, rhs in table]
    passed = dict.fromkeys(("braid", "far_commutation", "e_products", "e_definition",
                            "cubic_annihilation", "e_square"), True)
    failures = []
    for (family, label, _, _), ok in zip(table, _holds(field, rows, scaled, rep.dim)):
        if not ok:
            passed[family] = False
            failures.append(label)
    per_matrix = [rows[k:k + rep.dim] for k in range(0, len(rows), rep.dim)]
    return RelationReport(n=p.n, field=field.tag, delta=scalar_to_text(delta),
                          all_passed=all(passed.values()), failures=tuple(failures),
                          cleared=(den, per_matrix[:len(gens)], per_matrix[len(gens):]),
                          **passed)


def _scaled(lhs, rhs, den, field):
    """(L, terms): the sides of lhs = rhs times K D^L, on words of matrices times D.

    L is the longest word of the row: a word of length k on the cleared
    matrices is D^k times the word, so its coefficient c becomes
    c D^(L-k), and K is the common denominator of those, which leaves
    every coefficient in the domain.  terms lists (side, word, c), side 0
    or 1, for every nonzero c.
    """
    longest = max(len(word) for _, word in lhs + rhs)
    terms = [(side, word, c if len(word) == longest else c * den ** (longest - len(word)))
             for side, ts in enumerate((lhs, rhs)) for c, word in ts]
    _, coeffs = clear_entries(field, [c for _, _, c in terms])
    return longest, [(side, word, c) for (side, word, _), c in zip(terms, coeffs) if c]


def _holds(field, rows, scaled, dim):
    """For each scaled row, True iff its sides agree, compared on int_images.

    The images come from one linalg.int_images call on three kinds of
    groups: the rows of the cleared matrices, dim rows each, with one
    scale s; the rows of the identity; and the coefficients of each row.
    A term c w of a row whose longest word has length L then has the
    coefficient image(c) image(s)^(L - k), so every term carries the same
    s^L.  Its value has an L1 norm of at most ||c||_1 (gamma ||s||_1)^(L-k)
    gamma^k prod nu(M) over the k matrices M of w, nu(M) the largest row L1
    norm of M, and C bounds the sum of those over both sides of any row.
    A coefficient of one adds its word with no product, and a term with
    coefficient -1 moves to the other side as such a term.

    Over Q, where the images are the integer rows themselves, and where
    every matrix entry fits one digit (_images_pay of its bit length), whole
    sides are compared on packed rows.  Row i of a matrix X packs to
    sum_j X_ij 2^(w j); the packed rows of a word M_1 ... M_k are
    M_1(M_2(...(M_k X))) on the packed identity, each step a sparse product
    on dim integers, and a side is the sum of its terms.  No entry of a side exceeds the
    largest sum of |c| prod nu(M) over one side of a row (gamma = 1, and the
    identity's image is 1), so an entry of the difference of two sides is
    below 2^w (_pack_width) and a packed row, read as balanced base-2^w
    digits, is zero only when every entry is.

    Elsewhere (Q(r), whose images run to hundreds of bits, Q(l,r), Q[x]/(f),
    and entries over Q past one digit, where packing was measured to lose)
    row i of a word is row i of its first matrix carried through the rest by
    linalg._row_combination, the one sparse row loop, and a side combines
    its word rows the same way; the empty word gives row i of the identity.
    Both sides give sorted nonzero (column, image) pairs, and a row holds
    exactly when their residues are equal.  A row that is empty in the first
    matrix of every word is empty on both sides and is skipped, and the
    check of a table row stops at the first row where the sides differ.
    """
    _, (unit,) = clear_entries(field, [field.one()])

    def bound(norms, scale_norms, gamma):
        rows, _, *coeffs = norms
        s = scale_norms[0]
        nu = [max((sum(r) for r in rows[k:k + dim]), default=0) for k in range(0, len(rows), dim)]
        return max(sum(c * (gamma * s) ** (longest - len(w)) * gamma ** len(w)
                       * prod(nu[m] for m in w) for c, (_, w, _) in zip(cs, terms))
                   for ((cs,), (longest, terms)) in zip(coeffs, scaled))

    (rows, eye, *coeffs), (scale, *_), residue = int_images(
        field, [rows, [[(i, unit)] for i in range(dim)],
                *([[(k, c) for k, (_, _, c) in enumerate(terms)]] for _, terms in scaled)], bound)
    mats = [rows[k:k + dim] for k in range(0, len(rows), dim)]
    checks = []
    for (longest, terms), (cs,) in zip(scaled, coeffs):
        sides = ([], [])
        for (s, word, _), (_, c) in zip(terms, cs):
            if scale != 1:
                c = c * scale ** (longest - len(word))
            if c == -1:
                s, c = 1 - s, None
            elif c == 1:
                c = None
            sides[s].append((c, word))
        checks.append(sides)

    width = _pack_width(mats, checks) if field == QQ else None
    if width is not None:
        packed = {(): [sum(x << width * j for j, x in row) for row in eye]}

        def word_rows(word):
            vec = packed.get(word)
            if vec is None:
                rest = word_rows(word[1:])
                vec = packed[word] = []
                for row in mats[word[0]]:
                    acc = 0
                    for j, x in row:
                        acc += x * rest[j]
                    vec.append(acc)
            return vec

        def packed_side(terms):
            if len(terms) == 1 and terms[0][0] is None:
                return word_rows(terms[0][1])
            acc = [0] * dim
            for c, word in terms:
                acc = [a + (x if c is None else c * x) for a, x in zip(acc, word_rows(word))]
            return acc

        for lhs, rhs in checks:
            yield packed_side(lhs) == packed_side(rhs)
        return

    def side(terms, i):
        rows = []
        for _, word in terms:
            row = mats[word[0]][i] if word else eye[i]
            for m in word[1:]:
                row = _row_combination(row, mats[m])
            rows.append(row)
        if len(terms) == 1 and terms[0][0] is None:
            return rows[0]
        return _row_combination(enumerate(c for c, _ in terms), rows)

    filled = [[i for i, row in enumerate(m) if row] for m in mats]
    for lhs, rhs in checks:
        words = [word for _, word in lhs + rhs]
        live = sorted({i for w in words for i in filled[w[0]]}) if all(words) else range(dim)
        yield all(residue(side(lhs, i)) == residue(side(rhs, i)) for i in live)


def _pack_width(mats, checks):
    """w with 2^w > 2C, or None when an entry of mats is past one digit (_images_pay).

    mats are lists of integer sparse rows and each side of a check a list
    of (c, word) terms, c None for one; C is the largest sum of
    |c| prod nu(M) over the terms of one side, nu(M) the largest row L1
    norm of M, so the two sides of a check differ by at most 2C < 2^w in
    any entry.
    """
    nu = []
    for m in mats:
        most = top = 0
        for row in m:
            norm = 0
            for _, x in row:
                x = abs(x)
                norm += x
                if x > top:
                    top = x
            most = max(most, norm)
        if not _images_pay(top.bit_length()):
            return None
        nu.append(most)
    c = max((sum((1 if c is None else abs(c)) * prod(nu[m] for m in word) for c, word in side)
             for sides in checks for side in sides), default=0)
    return (2 * c).bit_length()


# ---------------------------------------------------------------------------
# Parameter dictionary
# ---------------------------------------------------------------------------


def param_map(direction, *, l=None, r=None, q=None, t=None):
    """Exact conversion between (l, r) and the braid-group (q, t) parameters.

    lr_to_qt: q = 1/r^2, t = r^3/l.
    qt_to_lr: requires the chosen square root r of 1/q; both sign choices
    are reported, first the one matching the given r.
    """
    if direction == "lr_to_qt":
        if l is None or r is None or not l or not r:
            raise ParameterZero("l and r must be given and nonzero")
        return {"q": r ** -2, "t": r ** 3 / l}
    if direction == "qt_to_lr":
        if q is None or t is None or not q or not t:
            raise ParameterZero("q and t must be given and nonzero")
        if r is None or not r:
            raise ParameterZero("qt_to_lr requires a chosen square root r of 1/q")
        if r * r * q != 1:
            raise ValueError("r is not a square root of 1/q")
        l_pos = r ** 3 / t
        return {"choices": ((l_pos, r), (-l_pos, -r))}
    raise ValueError(f"unknown direction {direction!r}")


def convention_report(rep):
    """Echo of the parameter dictionary for auditability."""
    p = rep.params
    return {
        "field": p.field.tag,
        "n": p.n,
        "q": scalar_to_text(p.q),
        "tau": scalar_to_text(p.tau),
        "m": scalar_to_text(p.m),
        "rescale_factor": "r",
        "delta": scalar_to_text(p.delta()),
    }


# ---------------------------------------------------------------------------
# Convenience builders
# ---------------------------------------------------------------------------


def symbolic_rep(n):
    """Representation over Q(l,r) with symbolic parameters."""
    return build_rep(LKParams(n, QLR.l(), QLR.r(), QLR))


def substituted_rep(n, eps, k):
    """Representation over Q(r) with l = eps * r^k substituted."""
    r = QR.r()
    return build_rep(LKParams(n, (r ** k) * eps, r, QR))


def rational_rep(n, l, r):
    return build_rep(LKParams(n, l, r, QQ))
