"""Reducibility analysis of the Lawrence-Krammer representation.

Builds the test element M(n) (sum of the e_i and their braid conjugates),
computes its kernel K(n), decides irreducibility at given parameters,
locates invariant subspaces, and certifies the dimension/uniqueness table
at every reducibility locus.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property
from math import isqrt
from operator import mul

from . import kernels
from .errors import (
    DepthTooLarge,
    EmptyIntersection,
    InfeasibleMode,
    InvalidConfig,
    PoleAtSpecialization,
    RelationGateNotPassed,
    ZeroSeed,
)
from .linalg import (
    MERSENNE_EXPONENTS,
    Matrix,
    SubspaceBasis,
    _back_substitute_mod_p,
    _pivot_mod_p,
    _row_combination,
    annihilates,
    charpoly,
    clear_denominators,
    clear_entries,
    columns_mod_p,
    commutant_basis,
    det,
    divide_entries,
    is_invariant,
    image_mod_p,
    kernel,
    nullspace_mod_p,
    operator_closure,
    rank_mod_p,
    residue_prime,
    sparse_columns,
    spin_mod_p,
    subspace_intersect,
)
from .lkrep import (
    LKParams,
    Report,
    build_rep,
    pair_basis,
    pair_index_map,
    rep_dim,
    substituted_rep,
    symbolic_rep,
    verify_relations,
)
from .scalars import (
    QQ,
    QR,
    Rat,
    field_of,
    rat,
    scalar_to_text,
)

# ---------------------------------------------------------------------------
# Loci
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Locus:
    """A reducibility locus l = eps * r^k, or the generic/custom cases."""

    name: str
    eps: int = 0
    k: int = 0
    custom_l: object = None

    @property
    def is_generic(self):
        return self.name == "generic"

    @property
    def is_custom(self):
        return self.name == "custom"

    def l_value(self, r_val):
        """The value of l at this locus for a concrete r."""
        if self.is_custom:
            return self.custom_l
        if self.is_generic:
            raise ValueError("generic locus has no l value")
        v = r_val ** self.k
        return v if self.eps == 1 else -v

    def substitute(self, rf):
        """Apply l -> eps * r^k to a rational function."""
        return rf.substitute_l(self.eps, self.k)


GENERIC = Locus("generic")

# The paper's table, one row per reducibility locus in catalog order:
# l = eps * r^k(n), the least invariant dimension d(n), and whether d(n)
# comes from the classification literature or is measured here.  A locus
# exists for the n with d(n) > 0, so l=r from n = 4 on.
CATALOG = {
    "l=r": (1, lambda n: 1, lambda n: n * (n - 3) // 2, "literature"),
    "l=-r3": (-1, lambda n: 3, lambda n: (n - 1) * (n - 2) // 2, "literature"),
    "l=r3-2n": (1, lambda n: 3 - 2 * n, lambda n: 1, "measured"),
    "l=+r3-n": (1, lambda n: 3 - n, lambda n: n - 1, "measured"),
    "l=-r3-n": (-1, lambda n: 3 - n, lambda n: n - 1, "measured"),
}

# the inductive reducibility loci, where persistent_vector_check runs
PERSISTENT_LOCI = ("l=r", "l=-r3")


def named_locus(name, n, custom_l=None):
    """Locus by CLI name; the exponents depend on n."""
    if name == "generic":
        return GENERIC
    if name == "custom":
        if custom_l is None:
            raise ValueError("custom locus requires an l value")
        return Locus("custom", custom_l=custom_l)
    if name not in CATALOG:
        raise ValueError(f"unknown locus name {name!r}")
    if n < 3:
        raise ValueError("n must be at least 3")
    eps, k, dim, _ = CATALOG[name]
    if dim(n) < 1:
        # d(n) grows with n: only l=r misses a strand count, n = 3
        raise ValueError(f"{name} is a locus only for n >= {n + 1}")
    return Locus(name, eps, k(n))


def catalog(n):
    """The reducibility loci for strand count n, in table order.

    For n >= 4 the five named loci; for n = 3, where d(3) = 0 at l=r, the
    four-element catalog {-r^3, 1/r^3, 1, -1}.
    """
    if n < 3:
        raise ValueError("n must be at least 3")
    return tuple(named_locus(name, n) for name, (_, _, dim, _) in CATALOG.items() if dim(n) > 0)


def expected_spectrum(n, locus, r_val=None):
    """Expected kernel dimension and invariant-subspace data at a locus.

    Read off CATALOG: min_dim is d(n) and, off the exceptional points, k
    is d(n) too.  The kernel dimension at a one-dimensional locus is
    always measured by this workbench.  At an exceptional point
    (exceptional_layering) l=-r3 and l=r3-2n both get the entry of l=-r3
    plus the line S^(n).  Returns None for generic/custom loci.
    """
    if locus.is_generic or locus.is_custom:
        return None
    layered = exceptional_layering(n, locus, r_val)
    _, _, dim, source = CATALOG["l=-r3" if layered else locus.name]
    d = dim(n)
    return {"min_dim": d, "k": d + layered, "k_source": "measured" if d == 1 else source,
            # where d(n) = 1 the line is a second one-dimensional subspace
            "count": 1 + (layered and d == 1)}


def exceptional_layering(n, locus, r_val):
    """True at the exceptional points r^(2n) = -1 of l=-r3 and l=r3-2n.

    There r^(3-2n) = -r^3, so the two loci coincide (n = 3's r^6 = -1 is
    the first case), and K(n) is the line S^(n) plus the
    (n-1)(n-2)/2-dimensional subspace of l=-r3.  The closure of one
    kernel vector may be all of K(n): minimal dimensions are recorded,
    not checked against the table.
    """
    return (locus.name in ("l=-r3", "l=r3-2n") and r_val is not None
            and r_val ** (2 * n) == -1)


# ---------------------------------------------------------------------------
# The test element M(n)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MnMatrix:
    """The matrix of the test element acting on the pair basis."""

    matrix: Matrix


def _rank1_factor(rows):
    """(a, row): the index and pairs of the one nonzero sparse row; AssertionError otherwise.

    Every e_k of build_rep has one nonzero row, that of the pair (k, k+1),
    so e_k = outer(u, w) for the unit vector u at row a and the row w.
    """
    live = [i for i, row in enumerate(rows) if row]
    if len(live) != 1:
        raise AssertionError(f"expected one nonzero row, found {len(live)}")
    a, = live
    return a, rows[a]


def _inverse_rows(g, a, e_row, den, m_den, m_num):
    """Sparse rows of S g^-1, S = m_den D, from the rows of D g and row a of D e.

    g^-1 = g + m(1 - e) with m = m_num / m_den, so S g^-1 is m_den (D g),
    plus m_num D on the diagonal, less m_num (D e)_a on row a, e's one row.
    """
    diagonal = m_num * den
    # m_den is one over Q(r), Q(l,r) and Q[x]/(f), where a product by it costs
    scale = None if m_den == 1 else m_den
    rows = [_row_combination(((0, scale), (1, None)), (row, ((i, diagonal),)))
            for i, row in enumerate(g)]
    rows[a] = _row_combination(((0, None), (1, -m_num)), (rows[a], e_row))
    return rows


@dataclass(frozen=True)
class PairChains:
    """The pair chains that M(n) is summed from: M(n) = Uᵀ·C·W.

    chains holds ((i, j), k, u, w) for each pair i < j, in build order:
    the summand e_ij of the chain of length k = j - i - 1 is
    outer(u, w) / (D (S D)^k) (pair_chains).  So M(n) = Uᵀ C W, with
    rows u_ij of U, rows w_ij of W and C the diagonal of the nonzero
    1 / (D (S D)^k).  u_ij lies on the pairs (i', j) with i <= i' < j and
    is nonzero at (i, j), so U is block triangular with a nonzero
    diagonal, hence invertible, and K(n) = ker M(n) = ker W.  w checks
    that support exactly on every row before it forms W, and matrix sums
    M(n); each is formed on its first read.
    """

    field: object
    n: int
    den: object  # D (S D)^K, the one denominator of the sum
    scales: tuple  # the factor (S D)^(K-k) of a chain of length k
    chains: tuple

    @cached_property
    def w(self):
        """W, whose rows are the w_ij, once every u_ij is checked; AssertionError otherwise.

        A row of W is its w_ij in the field's integral domain, read as a
        field element: a nonzero multiple of the true row has the same
        kernel, and the RREF of the kernel is unique.
        """
        index = pair_index_map(self.n)
        rows = []
        for (i, j), _, u, w in self.chains:
            block = {index[(h, j)] for h in range(i, j)}
            if not dict(u).get(index[(i, j)]) or any(a not in block for a, _ in u):
                raise AssertionError(f"u of the pair ({i}, {j}) leaves its block "
                                     "or vanishes at its own pair")
            cols = [b for b, _ in w]
            rows.append(list(zip(cols, divide_entries(self.field, 1, [y for _, y in w]))))
        return Matrix.from_nonzeros(self.field, tuple(rows), rep_dim(self.n))

    @cached_property
    def matrix(self):
        """M(n): each outer(u, w) scaled by (S D)^(K-k), summed, and divided by D (S D)^K."""
        total = [{} for _ in range(rep_dim(self.n))]
        for _, k, u, w in self.chains:
            scale = self.scales[k]
            if scale != 1:
                u = [(a, x * scale) for a, x in u]
            for a, x in u:
                row = total[a]
                for b, y in w:
                    t = row.get(b)
                    row[b] = x * y if t is None else t + x * y
        nonzeros = []
        for row in total:
            cols = sorted(b for b, x in row.items() if x)
            nonzeros.append(list(zip(cols, divide_entries(self.field, self.den,
                                                          [row[b] for b in cols]))))
        return Matrix.from_nonzeros(self.field, tuple(nonzeros), len(total))


def pair_chains(rep):
    """The PairChains of a rep: the relation gate once, then every chain pushed.

    The summand for (i, j) with j = i+1 is e_i itself; conjugate chains are
    built incrementally.  Each e_i = outer(u, w) has rank 1: u is the unit
    vector at its one nonzero row, that of the pair (i, i+1), and w is that
    row (_rank1_factor).  Vectors are pushed instead of multiplying
    matrices: u through g^-1 and w through g, both on sparse rows.

    The inputs are the rows the gate checked, D g and D e of
    RelationReport.cleared, in the field's integral domain (Z for Q, the
    Laurent ring for Q(r) and Q(l,r), Q[x]/(f) itself).  g^-1 is the closed
    form g + m(1 - e), as S g^-1 with S = m_den D (_inverse_rows).  The e
    definition gives m g e = l (g^3 + m g^2 - g), the cubic reduces that
    to g^2 + m g - 1, and so g (g + m(1 - e)) = 1.  The gate checks both
    identities on every row, on the words g g and g g g of g itself.

    The summand of a chain of length k is outer(u_k, w_k) / (D (S D)^k).
    PairChains.matrix scales it by (S D)^(K-k), K = n - 2 the longest
    chain, adds it to one sum in the domain and divides that by
    D (S D)^K once per entry at the end (divide_entries), which puts each
    entry in its canonical form.
    """
    gate = verify_relations(rep)
    if not gate.all_passed:
        raise RelationGateNotPassed(f"relation gate failed: {gate.failures}")
    n = rep.n
    N = rep.dim
    fieldobj = rep.field
    den, g, e = gate.cleared
    factors = [_rank1_factor(ek) for ek in e]
    del gate, e
    m_den, (m_num,) = clear_entries(fieldobj, [rep.params.m])
    # S g_k^-1 for k = 2..n-1: a chain is conjugated by g_{j-1} for j >= 3 only
    inv_cols = [sparse_columns(_inverse_rows(gk, a, w, den, m_den, m_num), N)
                for gk, (a, w) in zip(g[1:], factors[1:])]
    _, (unit,) = clear_entries(fieldobj, [fieldobj.one()])
    step = m_den * den * den
    longest = n - 2
    chains = []
    for i in range(1, n):
        a, w = factors[i - 1]
        u = [(a, unit)]
        chains.append(((i, i + 1), 0, u, w))
        for k, j in enumerate(range(i + 2, n + 1), start=1):
            u = _row_combination(u, inv_cols[j - 3])
            w = _row_combination(w, g[j - 2])
            chains.append(((i, j), k, u, w))
    return PairChains(field=fieldobj, n=n, den=den * step ** longest,
                      scales=tuple(step ** (longest - k) for k in range(longest + 1)),
                      chains=tuple(chains))


def build_m_matrix(rep):
    """Matrix of sum(e_i) + sum of conjugates g_{j-1}^-1..e_i..g_{j-1}.

    The sum of outer(u_ij, w_ij) over the pair chains (pair_chains).
    Only what reads M(n) itself builds it: the det verdicts, whose degree
    and coefficient bounds are properties of M.  A kernel reads W
    (PairChains.w), and certify's m_matrix_sha256 reads the M of the
    chains its kernel came from.
    """
    return MnMatrix(matrix=pair_chains(rep).matrix)


# ---------------------------------------------------------------------------
# Determinant verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DetVerdict(Report):
    n: int
    locus: str
    verdict: str  # "identically_zero" | "nonzero"
    method: str  # "symbolic" | "substituted-univariate" | "sampled"
    probabilistic: bool
    witness: dict = dc_field(default_factory=dict)
    proof: dict = dc_field(default_factory=dict)


_SYMBOLIC_MAX_N = 5
_SUBSTITUTED_MAX_N = 7
_SAMPLE_BOUND = 10 ** 4
# evaluation points of a sampled determinant verdict
_DET_SAMPLES = 3


def det_on_locus(n, locus, mode, rng=None):
    """Decide whether det M(n) vanishes on a locus (or generically).

    symbolic: exact, n <= 5, over Q(l,r) (for a named locus the symbolic
    matrix is substituted entrywise before the univariate decision).
    substituted: exact, n <= 7, builds univariate entries directly.
    sampled: probabilistic zero verdicts from random evaluation points
    (flagged); a nonzero witness is exact.  The exact modes substitute l
    as a power of r, so they refuse a custom locus, whose l is a number.
    """
    if mode in ("symbolic", "substituted") and locus.is_custom:
        raise InfeasibleMode(f"{mode} mode needs a catalog locus, where l is a power of r; "
                             "use --mode sampled for a custom l")
    if mode == "symbolic":
        if n > _SYMBOLIC_MAX_N:
            raise InfeasibleMode(f"symbolic mode supports n <= {_SYMBOLIC_MAX_N}")
        return _det_symbolic(n, locus)
    if mode == "substituted":
        if n > _SUBSTITUTED_MAX_N:
            raise InfeasibleMode(f"substituted mode supports n <= {_SUBSTITUTED_MAX_N}")
        if locus.is_generic:
            raise InfeasibleMode("substituted mode needs a locus substitution for l")
        rep = substituted_rep(n, locus.eps, locus.k)
        mn = build_m_matrix(rep)
        return _univariate_zero_verdict(mn.matrix, n, locus, "substituted-univariate")
    if mode == "sampled":
        if rng is None:
            raise ValueError("sampled mode requires an rng")
        return _det_sampled(n, locus, rng)
    raise ValueError(f"unknown mode {mode!r}")


def _det_symbolic(n, locus):
    rep = symbolic_rep(n)
    mn = build_m_matrix(rep)
    if locus.is_generic:
        if n <= 4:
            d = det(mn.matrix)
            if not d:
                return DetVerdict(n, "generic", "identically_zero", "symbolic", False,
                                  proof={"technique": "bareiss"})
            wit = _nonzero_point_witness_bivariate(d)
            return DetVerdict(n, "generic", "nonzero", "symbolic", False, witness=wit,
                              proof={"technique": "bareiss"})
        return _bivariate_grid_verdict(mn.matrix, n)
    # substitute the symbolic matrix entrywise, then decide the univariate det
    sub_rows = tuple(tuple(locus.substitute(x) for x in row) for row in mn.matrix.rows)
    sub = Matrix(QR, sub_rows, _trusted=True)
    return _univariate_zero_verdict(sub, n, locus, "symbolic")


def _nonzero_point_witness_bivariate(d):
    for rv in (2, 3, 5, 7):
        for lv in (5, 7, 3, 11, 13):
            try:
                val = d.evaluate(rat(lv), rat(rv))
            except PoleAtSpecialization:
                continue
            if val:
                return {"l": str(lv), "r": str(rv), "det": format(str(val))}
    return {}


def dense_int_row(polys):
    """(scale, shift, ints): a row of univariate-in-r LaurentPolys over Z[r].

    Entry j equals scale * r^shift * ints[j], with ints[j] a dense integer
    polynomial, one scale, the row's integer content, and one shift for the
    whole row, and the integer row of content 1.  A zero row gives scale 0
    and all ints [].
    """
    dense = [p.to_dense_r() for p in polys]
    # one primitive integer list for the coefficients of the whole row, in
    # order; no entry ends in a zero, so neither does the list
    scale, ints = kernels.qpoly_to_int([c for _, coeffs in dense for c in coeffs])
    shift = min((lo for lo, coeffs in dense if coeffs), default=0)
    ints_row, end = [], 0
    for lo, coeffs in dense:
        start, end = end, end + len(coeffs)
        ints_row.append([0] * (lo - shift) + ints[start:end] if coeffs else [])
    return scale, shift, ints_row


def _univariate_zero_verdict(matrix, n, locus, method):
    """Exact zero decision for the determinant of a univariate matrix.

    Clearing the denominators of each row, and the rational content and
    power of r the row shares, gives an integer matrix A(r) whose
    determinant D(r) is det M times a nonzero rational function.  D has
    degree at most degree_bound, the sum of the row degrees, and every
    coefficient at most B = _coefficient_bound(A) in absolute value.  The
    test runs modulo p = 2^e - 1, the smallest prime with e in
    MERSENNE_EXPONENTS and p > B.

    At the points t = 2, -2, 3, -3, ... the test decides whether
    D(t) = 0 mod p.  Reduction mod p is a ring map, so it commutes with
    evaluation and with the determinant; the points are distinct mod p
    because p >= 2^61 - 1.  A point is proved singular in one of two ways:

    * by a kernel witness: a w in GF(p)[r]^N for which A(r) w(r) = 0 has
      been checked exactly, as an identity of polynomials mod p
      (_kernel_witness).  Then A(t) w(t) = (A w)(t) = 0 mod p, so where
      w(t) != 0 mod p the matrix A(t) mod p has a nonzero kernel vector and
      D(t) = 0 mod p;
    * otherwise, when there is no witness or it vanishes at t, by
      rank_mod_p on the entries of A(t) reduced mod p.

    The witness is sought only when the first point is singular, from the
    kernel vectors mod p of at most half the degree_bound + 1 points, and
    only the exact identity makes it one: a guess from too few points
    fails the check and is never used.  When D != 0 no w passes, so a
    nonzero matrix goes through the ranks as before.

    * Zero: only when each of the degree_bound + 1 points is proved
      singular, by the witness or by its rank.  Then D mod p has
      degree at most degree_bound and more roots than that, so it is the
      zero polynomial.  Every coefficient c of D is then divisible by p,
      and |c| <= B < p forces c = 0: D, and with it det M, is zero.
    * Nonzero: rank mod p <= rank over Q, so full rank mod p at t is an
      exact witness that D(t) != 0, and then D is not the zero
      polynomial.  The witness speaks about det M itself only where no
      entry denominator vanishes, so the search goes on until such a
      point turns up; D mod p != 0 has at most degree_bound roots, and the
      denominators finitely many, so it ends.
    """
    cleared = [clear_denominators(row) for row in matrix.rows]
    dense = [dense_int_row(polys) for _, polys in cleared]
    name = locus.name if locus else "generic"
    if not all(scale for scale, _, _ in dense):
        return DetVerdict(n, name, "identically_zero", method, False,
                          proof={"technique": "zero-row"})
    int_rows = [ints for _, _, ints in dense]
    degree_bound = sum(max((len(e) - 1) for e in row if e) for row in int_rows)
    bound = _coefficient_bound(int_rows)
    exponent = next((e for e in MERSENNE_EXPONENTS if (1 << e) - 1 > bound), None)
    if exponent is None:
        raise InfeasibleMode(f"determinant coefficient bound of {bound.bit_length()} bits "
                             f"exceeds the largest modulus 2^{MERSENNE_EXPONENTS[-1]}-1")
    p = (1 << exponent) - 1
    modular = {"modulus": f"2^{exponent}-1", "coefficient_bound_bits": bound.bit_length()}
    # a row's lcm vanishes exactly where one of its entry denominators does
    dens = {tuple(den.to_dense_int_r()) for den in {den for den, _ in cleared}
            if not den.is_const()}
    width = max(len(e) for row in int_rows for e in row)
    witness = _kernel_witness(int_rows, width, p, degree_bound)
    # w(t) != 0 as soon as one coordinate is: the shortest are tried first
    witness = witness and sorted(filter(None, witness), key=len)
    nonzero = False
    for checked, pt in enumerate(_grid_points(degree_bound + 1 + sum(len(d) - 1 for d in dens))):
        if checked > degree_bound and not nonzero:
            break
        # A(t) w(t) = (A w)(t) = 0 mod p, so w(t) != 0 mod p makes A(t) singular
        if witness and any(kernels.modp_poly_eval(c, pt, p) for c in witness):
            continue
        if rank_mod_p(_rows_at(int_rows, width, pt, p), p) < len(int_rows):
            continue
        nonzero = True
        # a witness about det M(n) itself: no denominator may vanish at the point
        if all(kernels.poly_eval_int(d, pt) for d in dens):
            return DetVerdict(
                n, name, "nonzero", method, False,
                witness={"r": str(pt), "note": "cleared determinant nonzero at r"},
                proof={"technique": "evaluation", "degree_bound": degree_bound, **modular},
            )
    if nonzero:  # pragma: no cover - the docstring shows the search ends
        raise AssertionError("point search failed")
    return DetVerdict(
        n, name, "identically_zero", method, False,
        proof={"technique": "evaluation", "degree_bound": degree_bound,
               "points_checked": degree_bound + 1, "all_zero": True, **modular},
    )


_WITNESS_START_POINTS = 4
# the probe of _kernel_witness weighs coordinate j of v by _PROBE_BASE^(j+1) mod p
_PROBE_BASE = 3


def _kernel_witness(int_rows, width, p, degree_bound):
    """A nonzero w in GF(p)[r]^N with A(r) w(r) = 0 exactly, or None.

    Let f be the first free column of A(r) over GF(p)(r): the columns left
    of f are independent and column f is a combination of them, so one
    kernel vector v(r) is 1 at f and 0 right of it.  At a point t the first
    free column f_t of A(t) mod p is at most f, since a minor that is
    nonzero at t is nonzero as a polynomial; where f_t = f, the kernel
    vector of the columns 0..f of A(t) that is 1 at f is unique, and it is
    v(t).

    A full nullspace_mod_p at the first grid point gives f_t there; every
    later point is solved on the columns 0..f only
    (_leading_kernel_vector), and the largest first free column wins:

    * a point with f_t < f is skipped;
    * a point with columns 0..f independent gets a full nullspace_mod_p,
      and the search restarts at its f_t with no points kept;
    * where A(t) is invertible mod p no w exists, and the search gives up
      (None) at once.

    At every count of kept points from 4 on, one probe, a fixed
    combination of the coordinates of v, is reconstructed as a fraction
    a / b.  Only when that fraction is the one of the count before, once
    per fraction, is w = b v built (_interpolate_kernel_vector): b, the
    probe's denominator, is then taken as a common denominator of v.  The
    search takes at most the largest 4 * 2^j points with
    4 * 2^j <= (degree_bound + 1) / 2, none when 4 is already above that.
    w, padded with zeros right of f, is accepted only when it is nonzero
    and A(r) w(r) = 0 holds as an identity in GF(p)[r] (_annihilates).  Nothing rests on the search being
    right: a w that passes the identity check is a kernel vector.
    """
    ncols = len(int_rows)
    limit = (degree_bound + 1) // 2
    cap = _WITNESS_START_POINTS
    if cap > limit:
        return None
    while 2 * cap <= limit:
        cap *= 2
    f = None
    for pt in _grid_points(cap):
        if f is not None:
            f_t, v = _leading_kernel_vector(int_rows, width, pt, p, f)
            if f_t < f:
                continue
        if f is None or f_t > f:
            pivots, basis = nullspace_mod_p(_rows_at(int_rows, width, pt, p), p, ncols)
            if not basis:
                return None
            f = min(set(range(ncols)).difference(pivots))
            v = basis[0][:f + 1]
            weights = [pow(_PROBE_BASE, j + 1, p) for j in range(f + 1)]
            good, modulus, last, tried = [], [1], None, None
        good.append((pt, v))
        modulus = kernels.modp_poly_mul(modulus, [-pt % p, 1], p)
        if len(good) < _WITNESS_START_POINTS:
            continue
        probe = kernels.modp_interpolate([t for t, _ in good],
                                         [sum(map(mul, weights, u)) for _, u in good], p)
        rec = kernels.modp_ratrecon(probe, modulus, p)
        if rec is not None and rec == last and rec != tried:
            tried = rec
            w = _interpolate_kernel_vector(good, f + 1, p, rec[1])
            if any(w):
                w += [[] for _ in range(ncols - f - 1)]
                if _annihilates(int_rows, w, p):
                    return w
        last = rec
    return None


def _leading_kernel_vector(int_rows, width, pt, p, f):
    """(f_t, v) from the columns 0..f of A(pt) mod p alone.

    f_t is the first free column of those columns, f + 1 when they are
    independent.  v is the kernel vector of length f + 1 that is 1 at f
    when f_t = f, else None.  The rows are reduced in order by the pivot
    step of nullspace_mod_p.  Once the columns 0..f-1 all have a pivot row,
    v comes from its back substitution, and each later row is only checked
    against it.
    """
    pivots = {}
    rows = _rows_at(int_rows, width, pt, p, f + 1)
    for row in rows:
        _pivot_mod_p(pivots, row, p)
        if len(pivots) == f + 1:
            return f + 1, None
        if len(pivots) == f and f not in pivots:
            break
    else:
        return next(c for c in range(f + 1) if c not in pivots), None
    v = _back_substitute_mod_p(pivots, p, f + 1)[1][0]
    for row in rows:
        if sum(x * v[j] for j, x in row.items()) % p:
            return f + 1, None
    return f, v


def _interpolate_kernel_vector(good, ncols, p, b):
    """b v from the values v(t) at distinct points t, given as (t, v(t)) pairs.

    b is the denominator of the probe's fraction, and coordinate j of b v
    is the interpolant of the values b(t) v_j(t).  Where b is not a common
    denominator of v, or b v has too high a degree for the points, the
    result is no kernel vector and fails the identity check.
    """
    xs = [t for t, _ in good]
    b_at = [kernels.modp_poly_eval(b, t, p) for t in xs]
    return [kernels.modp_interpolate(xs, [bt * v[j] for bt, (_, v) in zip(b_at, good)], p)
            for j in range(ncols)]


def _annihilates(int_rows, w, p):
    """True when A(r) w(r) = 0 holds as an identity in GF(p)[r]^N.

    Checked in Z by Kronecker substitution r = X = 2^W, over all N rows and
    the columns j where w_j != 0; the others add nothing.  Each coefficient
    of s_i = sum_j a_ij w_j, with the a_ij integer polynomials and the w_j
    coefficients in [0, p), is a sum of at most N min(len a, len w) products
    a c, so its absolute value is at most
    bound = N * min(len a, len w) * max|a| * (p - 1) < 2^(W-1), W a multiple
    of 8.  The coefficients of s_i are then the balanced base-X digits of the
    integer s_i(X) = sum_j a_ij(X) w_j(X), one product per entry, and
    A w = 0 in GF(p)[r] exactly when p divides every one of them.
    """
    cols = [j for j, c in enumerate(w) if c]
    rows = [[row[j] for j in cols] for row in int_rows]
    alen = max((len(e) for row in rows for e in row), default=0)
    if not alen:
        return True
    wlen = max(len(w[j]) for j in cols)
    amax = max(abs(c) for row in rows for e in row for c in e)
    nbytes = (len(int_rows) * min(alen, wlen) * amax * (p - 1)).bit_length() // 8 + 1
    shift = 8 * nbytes
    half = 1 << (shift - 1)
    packed = kernels.poly_eval_pow2
    at_x = [packed(w[j], shift) for j in cols]
    length = alen + wlen - 1
    offset = packed([half] * length, shift)
    for row in rows:
        s = sum(packed(e, shift) * x for e, x in zip(row, at_x) if e)
        if not s:
            continue
        digits = (s + offset).to_bytes(length * nbytes, "little")
        for k in range(0, len(digits), nbytes):
            if (int.from_bytes(digits[k:k + nbytes], "little") - half) % p:
                return False
    return True


def _coefficient_bound(int_rows):
    """Integer B >= |c| for every coefficient c of the determinant of int_rows.

    B = isqrt(prod_i sum_j |a_ij|_1^2) over the dense integer polynomials
    a_ij.  On |x| = 1 each |a_ij(x)| is at most the l1 norm |a_ij|_1, so by
    Hadamard's inequality |det A(x)| <= sqrt(prod_i sum_j |a_ij|_1^2), and by
    Cauchy's estimate on the unit circle no coefficient of det A exceeds
    that maximum; the coefficients are integers, so the integer square
    root bounds them as well.
    """
    b2 = 1
    for row in int_rows:
        b2 *= sum(sum(map(abs, e)) ** 2 for e in row)
    return isqrt(b2)


def _rows_at(int_rows, width, pt, p, ncols=None):
    """Sparse rows {column: value} of the integer matrix at pt, correct mod p.

    Yielded one at a time, cut to the first ncols columns when given.  The
    powers of pt are reduced mod p and the pivot step reduces the values;
    width is the largest number of coefficients of an entry.
    """
    powers = [1]
    for _ in range(width - 1):
        powers.append(powers[-1] * pt % p)
    for row in int_rows:
        yield {j: sum(map(mul, e, powers)) for j, e in enumerate(row[:ncols]) if e}


def _bivariate_grid_verdict(matrix, n):
    """Exact symbolic zero decision via a degree-bounded evaluation grid."""
    poly_rows = [clear_denominators(row)[1] for row in matrix.rows]
    dl = 0
    dr = 0
    for row in poly_rows:
        row_dl = row_dr = 0
        for p in row:
            if p:
                amin, amax, bmin, bmax = p.exp_range()
                row_dl = max(row_dl, amax - amin)
                row_dr = max(row_dr, bmax - bmin)
        dl += row_dl
        dr += row_dr
    l_points = _grid_points(dl + 1)
    r_points = _grid_points(dr + 1)
    for rv in r_points:
        rv_q = Rat(rv)
        for lv in l_points:
            lv_q = Rat(lv)
            rows = [[p.evaluate(lv_q, rv_q) for p in row] for row in poly_rows]
            d = det(Matrix(QQ, rows))
            if d:
                return DetVerdict(n, "generic", "nonzero", "symbolic", False,
                                  witness={"l": str(lv), "r": str(rv)},
                                  proof={"technique": "grid", "degree_bounds": [dl, dr]})
    return DetVerdict(n, "generic", "identically_zero", "symbolic", False,
                      proof={"technique": "grid", "degree_bounds": [dl, dr],
                             "points": [dl + 1, dr + 1], "all_zero": True})


def _grid_points(count):
    pts = []
    x = 2
    while len(pts) < count:
        pts.append(x)
        if len(pts) < count:
            pts.append(-x)
        x += 1
    return pts


def random_rational(rng, bound=_SAMPLE_BOUND):
    """Random rational with numerator/denominator bounded by `bound`."""
    num = rng.randint(1, bound) * (1 if rng.random() < 0.5 else -1)
    den = rng.randint(1, bound)
    return rat(num, den)


def _random_l_off_catalog(n, r_val, rng, bound=_SAMPLE_BOUND):
    """A random nonzero rational l that no catalog locus takes at r_val; hits are redrawn."""
    catalog_values = [loc.l_value(r_val) for loc in catalog(n)]
    while True:
        l_val = random_rational(rng, bound)
        if l_val and all(l_val != v for v in catalog_values):
            return l_val


def _det_sampled(n, locus, rng):
    tested = []
    for _ in range(_DET_SAMPLES):
        while True:
            r_val = random_rational(rng)
            if r_val and abs(r_val) != 1:
                break
        if locus.is_generic:
            l_val = _random_l_off_catalog(n, r_val, rng)
        else:
            l_val = locus.l_value(r_val)
        rep = build_rep(LKParams(n, l_val, r_val, QQ))
        mn = build_m_matrix(rep)
        d = det(mn.matrix)
        tested.append({"l": scalar_to_text(l_val), "r": scalar_to_text(r_val), "zero": not d})
        if d:
            return DetVerdict(n, locus.name, "nonzero", "sampled", False,
                              witness={"l": scalar_to_text(l_val), "r": scalar_to_text(r_val)},
                              proof={"points": tested})
    return DetVerdict(n, locus.name, "identically_zero", "sampled", True,
                      proof={"points": tested, "note": "probabilistic: zero at all sampled points"})


# ---------------------------------------------------------------------------
# Kernels, invariant subspaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelReport(Report):
    n: int
    locus: str
    l: str
    r: str
    field: str
    k: int
    basis: SubspaceBasis = dc_field(metadata={"json": False})
    invariant: bool
    minimal_dims: tuple
    unique_minimal: bool


def rep_at(n, locus, r_val, l_val=None):
    """Representation at a concrete point: l from the locus (or explicit)."""
    if locus is not None and not locus.is_generic:
        l_val = locus.l_value(r_val)
    if l_val is None:
        raise ValueError("generic locus requires an explicit l value")
    return build_rep(LKParams(n, l_val, r_val, field_of(r_val)))


def _kernel_at(n, locus, r_val, l_val=None, with_closures=True):
    """Workhorse for kernel_k; also returns the rep and its PairChains for reuse.

    K(n) = ker W, read off the chain rows once U is checked
    (PairChains.w), so M(n) is not summed here; the chains' matrix sums it
    on its first read.
    """
    rep = rep_at(n, locus, r_val, l_val)
    chains = pair_chains(rep)
    basis = kernel(chains.w)
    invariant = is_invariant(basis, rep.g) if basis.dim else False
    minimal_dims = ()
    unique = True
    closures = []
    if with_closures and basis.dim:
        closures = _certified_closures(rep, basis.vectors, [basis] if invariant else [])
        minimal_dims = tuple(sorted({c.dim for c in closures}))
        unique = all(c == closures[0] for c in closures[1:])
    report = KernelReport(
        n=n,
        locus=locus.name if locus else "custom",
        l=scalar_to_text(rep.params.l),
        r=scalar_to_text(rep.params.r),
        field=rep.field.tag,
        k=basis.dim,
        basis=basis,
        invariant=invariant,
        minimal_dims=minimal_dims,
        unique_minimal=unique,
    )
    return report, rep, chains, closures


def kernel_k(n, locus, r_val, l_val=None, with_closures=True):
    """K(n) = ker M(n) at a concrete point, with the invariance verdict."""
    report, _, _, _ = _kernel_at(n, locus, r_val, l_val, with_closures)
    return report


def _certified_closures(rep, vectors, known):
    """minimal_invariant of each nonzero vector, spun exactly only when needed.

    known lists subspaces that are exactly invariant under rep.g.  The
    closure of v lies in every invariant U that contains v, and its
    dimension is at least the spin dimension of v mod p: residues
    independent over GF(p) lift to independent vectors when p divides no
    denominator (image_mod_p).  So when a known U contains v exactly and
    has that dimension, the closure of v is U.  The spin stops at the
    largest dimension among the known subspaces: a v whose spin goes past
    it lies in none of them.  SubspaceBasis.contains answers at once for a
    vector of U's own basis.  Otherwise the exact spin decides, and its
    closure is known from then on.
    """
    p = residue_prime(rep.field)
    columns = [columns_mod_p(g, p) for g in rep.g]
    seeds = image_mod_p(Matrix(rep.field, tuple(vectors), _trusted=True), p)
    if seeds is None or None in columns:
        seeds = [None] * len(vectors)
    known = list(known)
    closures = []
    for v, seed in zip(vectors, seeds):
        cl = None
        if seed is not None and known:
            d = spin_mod_p(seed, columns, p, stop=max(u.dim for u in known))
            cl = next((u for u in known if u.dim == d and u.contains(v)), None)
        if cl is None:
            cl = minimal_invariant(rep, v)
            known.append(cl)
        closures.append(cl)
    return closures


def minimal_invariant(rep, seed):
    """Smallest subspace containing the seed and invariant under the braid group.

    Spun under the generators g_i alone.  A finite-dimensional subspace W
    with g(W) contained in W for an invertible g has g(W) = W, as g is
    injective, so g^-1(W) = W too: the closure under {g_i} is already
    closed under {g_i^-1} and equals the closure under both.
    """
    if not any(seed):
        raise ZeroSeed("seed vector is zero")
    return operator_closure([seed], rep.g)


def one_dim_subspaces(rep):
    """Common eigenlines of the g_i with constant eigenvalue r or -1/r."""
    fieldobj = rep.field
    out = []
    r_val = rep.params.r
    one = fieldobj.one()
    for lam, lam_name in ((r_val, "r"), (-(one / r_val), "-1/r")):
        # the rows of g_k - lam I: lam comes off the diagonal entry of each row
        stacked = [row[:i] + (row[i] - lam,) + row[i + 1:]
                   for gk in rep.g for i, row in enumerate(gk.rows)]
        ker = kernel(Matrix(fieldobj, tuple(stacked), _trusted=True))
        if ker.dim:
            out.append({"lambda": lam_name, "lambda_value": scalar_to_text(lam), "space": ker})
    return out


def coordinate_subspace(n, k, fieldobj):
    """V^(k) inside V^(n): the span of pairs (s, t) with t <= k."""
    idx = [i for i, (_, t) in enumerate(pair_basis(n)) if t <= k]
    return SubspaceBasis.coordinate(fieldobj, rep_dim(n), idx)


def lower_intersection(report, depth):
    """K(n) intersected with V^(n-depth) (coordinate inclusion)."""
    if depth not in (1, 2):
        raise DepthTooLarge("depth must be 1 or 2")
    n = report.n
    if n - depth < 3:
        raise DepthTooLarge(f"n - depth = {n - depth} < 3")
    coord = coordinate_subspace(n, n - depth, report.basis.field)
    return subspace_intersect(report.basis, coord)


def embed_pair_vector(v, n_from, n_to, fieldobj):
    """Coordinate inclusion V^(n_from) -> V^(n_to) on the pair basis."""
    if n_to < n_from:
        raise ValueError("target strand count must not be smaller")
    idx_to = pair_index_map(n_to)
    out = [fieldobj.zero()] * rep_dim(n_to)
    for pair, val in zip(pair_basis(n_from), v):
        out[idx_to[pair]] = val
    return tuple(out)


def embed_subspace(space, n_from, n_to):
    """Embed a subspace of V^(n_from) into V^(n_to); re-echelonized."""
    vecs = [embed_pair_vector(v, n_from, n_to, space.field) for v in space.vectors]
    return SubspaceBasis.from_vectors(space.field, rep_dim(n_to), vecs)


@dataclass(frozen=True)
class PersistenceReport(Report):
    locus: str
    r: str
    base_n: int
    checked: tuple  # (n, annihilated) pairs
    verified: bool

    def to_json_obj(self):
        # checked stays (n, annihilated) pairs in Python; the JSON names them
        return {**super().to_json_obj(),
                "checked": [{"n": n, "annihilated": ok} for n, ok in self.checked]}


def persistent_vector_check(locus, n_max, r_val):
    """A nonzero vector of K(5) ∩ V^(4) stays in ker M(n) for 6 <= n <= n_max.

    Locus must be l=r or l=-r3 (the inductive reducibility loci).  M(n) v
    = 0 is checked as W v = 0, since ker M(n) = ker W (PairChains).
    """
    if locus.name not in PERSISTENT_LOCI:
        raise ValueError("persistence is checked at l=r and l=-r3 only")
    if n_max < 6:
        raise ValueError("n_max must be at least 6")
    report, rep5, _, _ = _kernel_at(5, locus, r_val, with_closures=False)
    inter = lower_intersection(report, 1)
    if inter.dim == 0:
        raise EmptyIntersection("K(5) ∩ V^(4) is zero; construction fault")
    v5 = inter.vectors[0]
    checked = []
    for n in range(6, n_max + 1):
        rep = rep_at(n, locus, r_val)
        v = embed_pair_vector(v5, 5, n, rep.field)
        checked.append((n, annihilates(pair_chains(rep).w, [v])))
    return PersistenceReport(
        locus=locus.name,
        r=report.r,
        base_n=5,
        checked=tuple(checked),
        verified=all(ok for _, ok in checked),
    )


# ---------------------------------------------------------------------------
# Indecomposability probe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbeReport:
    verdict: str  # "indecomposable_evidence" | "decomposable_witness" | "inconclusive"
    commutant_dim: int
    trials: int
    probabilistic: bool
    notes: tuple = ()
    witness: dict = dc_field(default_factory=dict)


def indecomposability_probe(rep, trials, rng):
    """Decide whether V splits as a direct sum from the commutant of the g_i (probe_operators).

    rep has passed the relation gate, so e_1 joins the operators with the
    commutant unchanged and certifies it from one spin (commutant_basis).
    """
    return probe_operators([*rep.g, rep.e[0]], trials, rng)


def probe_operators(ops, trials, rng):
    """Exact indecomposability decision over Q from the commutant C = End(V) of the ops.

    V is indecomposable exactly when C is local.  No sample is drawn and no
    verdict is probabilistic: trials is echoed in the report, rng is not
    read.  With d = dim C and n = dim V:

    1. d = 1: C is the scalars, and V is indecomposable.
    2. Fitting split: for a basis element b of C and a rational eigenvalue
       c of b (_rational_roots of charpoly(b)), y = b - c gives
       V = ker y^n + im y^n, both parts invariant.  A proper part is
       checked, not assumed from commutation: the dims add to n, the parts
       meet in 0 and is_invariant holds on both.  They are the witness,
       and a part failing the check leaves the verdict inconclusive.
    3. In characteristic 0 the radical J of C is the null space of the
       trace form [tr(b_i b_j)] (Dickson; Cohen, Ivanyos & Wales 1997);
       q = d - dim J.
    4. If C/J is commutative (every b_i b_j - b_j b_i lies in J), the
       elements x = sum_i j^i b_i, j = 1, .., d + 1, are tried.  When
       1, x, .., x^q have exactly one dependency modulo J and it uses x^q,
       it is the minimal polynomial mu of x mod J, and C/J = Q[x]/(mu).  If
       q = 1, or mu is irreducible mod a prime of _PROBE_PRIMES that does
       not divide its leading coefficient, and so irreducible over Q, C/J
       is a field: C is local and V is indecomposable.
    5. Otherwise the verdict is inconclusive, with the reason in notes.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    comm = commutant_basis(ops)
    d = len(comm)
    n = ops[0].nrows
    if ops[0].field != QQ:
        return ProbeReport("inconclusive", d, 0, False, notes=("the probe is implemented over Q only",))
    if d == 1:
        return ProbeReport("indecomposable_evidence", d, trials, False, notes=("C is the scalars",))
    one = Matrix.identity(QQ, n)
    for b in comm:
        for c in _rational_roots(kernels.qpoly_to_int(charpoly(b))[1]):
            y = b + one.scale(-c)
            power = y
            for _ in range(n - 1):
                power = power * y
            low = kernel(power)
            if 0 < low.dim < n:
                high = SubspaceBasis.from_vectors(QQ, n, zip(*power.rows))
                if (low.dim + high.dim == n and subspace_intersect(low, high).dim == 0
                        and is_invariant(low, ops) and is_invariant(high, ops)):
                    return ProbeReport("decomposable_witness", d, trials, False,
                                       notes=("Fitting split",),
                                       witness={"split_dims": [low.dim, high.dim],
                                                "parts": (low, high)})
                return ProbeReport("inconclusive", d, trials, False,
                                   notes=("a Fitting split failed its check",))

    def flat(m):
        return [x for row in m.rows for x in row]

    flats = [flat(b) for b in comm]
    transposed = [[x for col in zip(*b.rows) for x in col] for b in comm]
    form = Matrix(QQ, [[sum(map(mul, u, v)) for v in transposed] for u in flats])
    radical = SubspaceBasis.from_vectors(
        QQ, n * n, [[sum(c * u[t] for c, u in zip(v, flats) if c) for t in range(n * n)]
                    for v in kernel(form).vectors])
    q = d - radical.dim
    if not radical._contains_all([[s - t for s, t in zip(flat(a * b), flat(b * a))]
                                  for i, a in enumerate(comm) for b in comm[i + 1:]]):
        return ProbeReport("inconclusive", d, trials, False, notes=("C/J is noncommutative",))
    for j in range(1, d + 2):
        x = comm[0]
        for i, b in enumerate(comm[1:], 1):
            x = x + b.scale(j ** i)
        powers = [one]
        for _ in range(q):
            powers.append(powers[-1] * x)
        relations = kernel(Matrix(QQ, list(zip(*map(flat, powers), *radical.vectors))))
        if relations.dim != 1 or not relations.vectors[0][q]:
            continue
        mu = kernels.qpoly_to_int(relations.vectors[0][:q + 1])[1]
        prime = next((p for p in _PROBE_PRIMES if mu[-1] % p and _irreducible_mod_p(mu, p)), None)
        if q == 1 or prime:
            return ProbeReport("indecomposable_evidence", d, trials, False,
                               notes=(f"C is local: C/J is a field of degree {q}",),
                               witness={"radical_dim": radical.dim, "minimal_polynomial": mu,
                                        "prime": prime})
    return ProbeReport("inconclusive", d, trials, False, notes=("no generator of C/J was found",))


# the largest divisor of the end coefficients that _rational_roots tries
_ROOT_DIVISOR_CAP = 10 ** 4


def _rational_roots(p):
    """Rational roots of an integer polynomial (divisor search bounded by _ROOT_DIVISOR_CAP)."""
    if not p:
        return []
    roots = []
    if p[0] == 0:
        roots.append(Rat(0))
        while p and p[0] == 0:
            p = p[1:]
    a0, an = abs(p[0]), abs(p[-1])
    p_divs = [d for d in range(1, min(a0, _ROOT_DIVISOR_CAP) + 1) if a0 % d == 0]
    q_divs = [d for d in range(1, min(an, _ROOT_DIVISOR_CAP) + 1) if an % d == 0]
    seen = set()
    for q in q_divs:
        for pd in p_divs:
            for sign in (1, -1):
                cand = rat(sign * pd, q)
                if cand in seen:
                    continue
                seen.add(cand)
                acc = Rat(0)
                for c in reversed(p):
                    acc = acc * cand + c
                if not acc:
                    roots.append(cand)
    return roots


_PROBE_PRIMES = (10007, 10009, 10037, 10039, 10061, 10067)


def _irreducible_mod_p(f, p):
    """True when f is irreducible over GF(p); p does not divide its leading coefficient.

    Ben-Or's test (FOCS 1981): a reducible f of degree d has an irreducible
    factor of some degree i <= d/2, which divides x^(p^i) - x, so f is
    irreducible exactly when gcd(x^(p^i) - x, f) = 1 for every i <= d/2.
    """
    f = [c % p for c in f]
    x = h = [0, 1]
    for _ in range((len(f) - 1) // 2):
        h = kernels.modp_poly_powmod(h, p, f, p)
        if len(kernels.modp_poly_gcd(f, kernels.modp_poly_sub(h, x, p), p)) > 1:
            return False
    return True


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LocusRecord(Report):
    locus: str
    l: str
    det_verdict: str  # "zero" | "nonzero"
    method: str
    k: int
    expected_k: int
    k_source: str
    minimal_dims: tuple
    expected_min_dim: int
    unique: bool
    invariant: bool
    one_dim_count: int
    expected_count: int
    indecomposable: str  # probe verdict or "skipped"
    probabilistic: bool
    match: bool
    mismatches: tuple
    witnesses: dict


@dataclass(frozen=True)
class GenericRecord(Report):
    locus: str  # "generic"
    l: str
    det_verdict: str
    method: str
    k: int
    commutant_dim: int
    match: bool
    mismatches: tuple


@dataclass(frozen=True)
class CertificationReport(Report):
    n: int
    r: dict  # {"value", "field"}
    seed: object
    all_match: bool
    loci: tuple  # the LocusRecords, then the GenericRecord

    @property
    def records(self):
        return self.loci[:-1]

    @property
    def generic(self):
        return self.loci[-1]


# Largest n at which certify runs the indecomposability probe and the
# generic commutant, and the trial count the probe echoes
_PROBE_MAX_N = 5
_PROBE_TRIALS = 10


def certify(n, r_val, *, seed=0, jobs=1):
    """Certify the dimension/uniqueness table at every catalog locus.

    Per locus: point determinant, k(n), invariance of K(n), minimal
    invariant subspace dimensions (closure from every kernel vector),
    one-dimensional subspace count where expected, and (for n up to
    _PROBE_MAX_N) the indecomposability probe.  A generic record at a
    random l off the loci follows the catalog loci.  A failing comparison
    is a first-class result recorded in the report, not a crash.

    Only the generic record draws from the seed (its l), and the locus
    records draw nothing, so output is byte-identical regardless of jobs;
    records merge sorted by locus name.  At most one worker process runs
    per locus.
    """
    import random as _random

    if jobs < 1:
        raise InvalidConfig(f"jobs must be at least 1, got {jobs}")
    if isinstance(r_val, int):
        r_val = Rat(r_val)
    fieldobj = field_of(r_val)
    tasks = [(n, locus, r_val) for locus in catalog(n)]
    workers = min(jobs, len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as ex:
            records = list(ex.map(_certify_locus_task, tasks))
    else:
        records = [_certify_locus_task(t) for t in tasks]
    records.sort(key=lambda rec: rec.locus)
    generic = _certify_generic(n, r_val, _random.Random(f"{seed}|generic"))
    return CertificationReport(
        n=n,
        r={"value": scalar_to_text(fieldobj.coerce(r_val)), "field": fieldobj.tag},
        seed=seed,
        all_match=all(rec.match for rec in records) and generic.match,
        loci=(*records, generic),
    )


def _certify_locus_task(args):
    return _certify_locus(*args)


def _certify_locus(n, locus, r_val):
    expected = expected_spectrum(n, locus, r_val)
    report, rep, chains, closures = _kernel_at(n, locus, r_val)
    # over a field det M = 0 exactly when K(n) = ker W is nonzero: M = Uᵀ C W
    # with U and C invertible, U checked on every row and each kernel
    # vector by W v = 0
    det_vanishes = report.k > 0
    exceptional = exceptional_layering(n, locus, r_val)
    mismatches = []
    if not det_vanishes:
        mismatches.append("determinant does not vanish at the locus")
    if report.k != expected["k"]:
        mismatches.append(f"k={report.k}, expected {expected['k']} ({expected['k_source']})")
    if report.k and not report.invariant:
        mismatches.append("kernel is not invariant under the generators")
    one_dim_count = 0
    if expected["min_dim"] == 1 or expected["count"] == 2:
        one_dim_count = sum(entry["space"].dim for entry in one_dim_subspaces(rep))
        if one_dim_count != expected["count"]:
            mismatches.append(f"one-dim count {one_dim_count}, expected {expected['count']}")
    if exceptional:
        # dimension layering at exceptional points is recorded, not asserted,
        # beyond k and the subspace counts
        unique = report.unique_minimal
    else:
        unique = report.unique_minimal and report.minimal_dims == (expected["min_dim"],)
        if report.minimal_dims != (expected["min_dim"],):
            mismatches.append(
                f"minimal dims {report.minimal_dims}, expected ({expected['min_dim']},)")
        if not report.unique_minimal:
            mismatches.append("kernel vectors generated different minimal subspaces")
    # containment: every closure lies inside K(n), which holds without a
    # check for a closure certified to be K(n) itself
    for cl in closures:
        if cl is not report.basis and not report.basis.contains_space(cl):
            mismatches.append("a minimal invariant subspace escapes K(n)")
            break
    probe_verdict = "skipped"
    probabilistic = False
    if n <= _PROBE_MAX_N and rep.field == QQ:
        probe = indecomposability_probe(rep, _PROBE_TRIALS, None)
        probe_verdict = probe.verdict
        probabilistic = probe.probabilistic
        if probe.verdict == "decomposable_witness":
            mismatches.append("probe found a direct-sum decomposition")
    witnesses = {"m_matrix_sha256": chains.matrix.content_hash()}
    if mismatches:
        witnesses["kernel_basis"] = report.basis.to_json_obj()
    return LocusRecord(
        locus=locus.name,
        l=report.l,
        det_verdict="zero" if det_vanishes else "nonzero",
        method="specialized-point",
        k=report.k,
        expected_k=expected["k"],
        k_source=expected["k_source"],
        minimal_dims=report.minimal_dims,
        expected_min_dim=expected["min_dim"],
        unique=unique,
        invariant=report.invariant,
        one_dim_count=one_dim_count,
        expected_count=expected["count"],
        indecomposable=probe_verdict,
        probabilistic=probabilistic,
        match=not mismatches,
        mismatches=tuple(mismatches),
        witnesses=witnesses,
    )


def _certify_generic(n, r_val, rng):
    l_val = _random_l_off_catalog(n, r_val, rng, 50)
    report, rep, _, _ = _kernel_at(n, None, r_val, l_val, with_closures=False)
    k = report.k
    det_vanishes = k > 0
    mismatches = []
    if det_vanishes:
        mismatches.append("determinant vanishes at a non-locus point")
    if k != 0:
        mismatches.append(f"kernel dimension {k} at a non-locus point")
    cdim = -1
    if n <= _PROBE_MAX_N and rep.field == QQ:
        # the gate passed in _kernel_at: e_1 leaves the commutant as it is
        cdim = len(commutant_basis([*rep.g, rep.e[0]]))
        if cdim != 1:
            mismatches.append(f"commutant dimension {cdim} at a non-locus point")
    return GenericRecord(
        locus="generic",
        l=report.l,
        det_verdict="zero" if det_vanishes else "nonzero",
        method="specialized-point",
        k=k,
        commutant_dim=cdim,
        match=not mismatches,
        mismatches=tuple(mismatches),
    )


# ---------------------------------------------------------------------------
# Locus scan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanReport(Report):
    n: int
    r: str
    seed: object
    all_match: bool
    rows: tuple


# random non-locus rows of a scan
_SCAN_RANDOM_ROWS = 5


def scan(n, r_val, rng, seed=None):
    """Sweep the catalog loci plus random non-locus l values at a fixed r.

    Catalog rows must be reducible (det zero, k > 0), random rows
    irreducible; random draws that hit a catalog value exactly are redrawn.
    """
    if isinstance(r_val, int):
        r_val = Rat(r_val)
    # the kernels draw nothing from rng: the random rows' l values are its only draws
    draws = [_random_l_off_catalog(n, r_val, rng, 50) for _ in range(_SCAN_RANDOM_ROWS)]
    rows = []
    for locus, l_val in [*((loc, None) for loc in catalog(n)), *((None, l) for l in draws)]:
        report, _, _, _ = _kernel_at(n, locus, r_val, l_val, with_closures=False)
        reducible = report.k > 0
        rows.append({
            "locus": locus.name if locus else "random",
            "l": report.l,
            "k": report.k,
            "reducible": reducible,
            "expected_reducible": locus is not None,
            "match": reducible == (locus is not None),
        })
    return ScanReport(n=n, r=scalar_to_text(QQ.coerce(r_val)), seed=seed,
                      all_match=all(row["match"] for row in rows), rows=tuple(rows))
