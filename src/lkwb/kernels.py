"""Exact kernels shared by the scalar types and the linear algebra.

Conventions, in one place:

* ``Rat`` is the exact rational type, fractions.Fraction.
* "terms" dicts map packed exponent keys (int) to nonzero int
  coefficients (a LaurentPoly's, in Z[l^±1, r^±1]).  Packing is
  key = a*PACK + b for the monomial l^a r^b, so key addition is exponent
  addition.
* A dense polynomial is a list of coefficients in ascending order
  (index = degree) with no trailing zeros; [] is the zero polynomial.
  ``poly_*`` functions work over Z with int coefficients and ``modp_*``
  over GF(p) with ints in [0, p).  Q[x] work runs on primitive integer
  polynomials (pseudo-division, Gauss's lemma); ``qpoly_to_int`` clears
  Rat coefficients into one at the edges.
"""

from fractions import Fraction as Rat
from math import gcd, isqrt, lcm

# the name of this kernel implementation, recorded with benchmark results
BACKEND = "pure"

# Key packing stride for (a, b) exponent pairs.  |b| stays far below
# PACK/2 under the Laurent exponent bound 2^16, so packed addition never
# carries.
PACK = 1 << 34
_HALF = PACK >> 1


def pack_exp(a, b):
    return a * PACK + b


def unpack_exp(key):
    b = ((key + _HALF) % PACK) - _HALF
    return (key - b) // PACK, b


def terms_mul(a, b):
    """Convolution of two packed-key term dicts."""
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = k1 + k2
            v = out.get(k)
            if v is None:
                out[k] = c1 * c2
            else:
                v = v + c1 * c2
                if v:
                    out[k] = v
                else:
                    del out[k]
    return out


def terms_add(a, b):
    out = dict(a)
    for k, c in b.items():
        v = out.get(k)
        if v is None:
            out[k] = c
        else:
            v = v + c
            if v:
                out[k] = v
            else:
                del out[k]
    return out


# ---------------------------------------------------------------------------
# Z[x]
# ---------------------------------------------------------------------------


def poly_sub(a, b):
    """a - b for dense integer polynomials."""
    n = min(len(a), len(b))
    out = [x - y for x, y in zip(a, b)] + list(a[n:]) + [-y for y in b[n:]]
    while out and not out[-1]:
        out.pop()
    return out


def poly_mul_int(a, b):
    """Product of dense integer polynomials."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    while out and not out[-1]:
        out.pop()
    return out


def poly_divexact_int(a, b):
    """Exact quotient a // b in Z[x]; raises ValueError if inexact.

    b divides a in Z[x] exactly when pseudo-division takes every quotient
    coefficient without scaling (s = 1) and leaves no remainder.
    """
    s, q, r = poly_pseudo_divmod(a, b)
    if s != 1 or r:
        raise ValueError("inexact polynomial division")
    return q


def poly_pseudo_divmod(a, b):
    """(s, q, r) with s*a = q*b + r in Z[x], deg r < deg b, s a power of lc(b).

    Each quotient coefficient is taken exactly when lc(b) divides the
    leading coefficient of the running remainder; only otherwise is the
    remainder (and the quotient so far) scaled by lc(b) first.  So s is
    lc(b)^k with k at most deg a - deg b + 1, and 1 when b is monic.
    """
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    lead = b[-1]
    db = len(b) - 1
    s = 1
    q = [0] * max(len(r) - db, 0)
    while len(r) > db:
        c = r[-1]
        qc, rem = divmod(c, lead)
        if rem:
            s *= lead
            r = [lead * x for x in r]
            q = [lead * x for x in q]
            qc = c
        shift = len(r) - 1 - db
        q[shift] = qc
        for j in range(db):
            r[shift + j] -= qc * b[j]
        r.pop()
        while r and not r[-1]:
            r.pop()
    return s, q, r


def poly_eval_int(c, x):
    """Horner evaluation of a dense integer polynomial at integer x."""
    acc = 0
    for coef in reversed(c):
        acc = acc * x + coef
    return acc


def poly_eval_pow2(c, b):
    """c(2^b) by Horner's rule on shifts: the Kronecker packing of c at base 2^b."""
    acc = 0
    for coef in reversed(c):
        acc = (acc << b) + coef
    return acc


def poly_content_int(a):
    g = 0
    for c in a:
        if c:
            g = gcd(g, c if c > 0 else -c)
            if g == 1:
                return 1
    return g


def poly_gcd_int(a, b):
    """gcd in Z[x] via a primitive pseudo-remainder sequence.

    With one input zero the result is the primitive part of the other.
    With both nonzero it is the gcd in Z[x]: the gcd of the two contents
    times the primitive gcd, so poly_gcd_int([6, 6], [4, 4]) == [2, 2].
    The leading coefficient is positive; [] if both inputs are zero.
    """
    a = list(a)
    b = list(b)
    if not a and not b:
        return []
    if not a or not b:
        c = a or b
        cc = poly_content_int(c)
        c = [x // cc for x in c]
        return c if c[-1] > 0 else [-x for x in c]
    ca, cb = poly_content_int(a), poly_content_int(b)
    a = [c // ca for c in a]
    b = [c // cb for c in b]
    cg = gcd(ca, cb)
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = poly_pseudo_divmod(a, b)[2]
        cr = poly_content_int(r)
        if cr > 1:
            r = [c // cr for c in r]
        a, b = b, r
    if a[-1] < 0:
        a = [-c for c in a]
    if cg > 1:
        a = [c * cg for c in a]
    return a


def bareiss_det_int(rows):
    """Determinant of a square integer matrix by fraction-free elimination.

    The determinant verdicts no longer call it (they take ranks mod p); it
    stays as an exact reference for tests.
    """
    n = len(rows)
    if n == 0:
        return 1
    a = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        piv = None
        for i in range(k, n):
            if a[i][k]:
                piv = i
                break
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        pivot = a[k][k]
        row_k = a[k]
        for i in range(k + 1, n):
            row_i = a[i]
            head = row_i[k]
            if head:
                for j in range(k + 1, n):
                    row_i[j] = (pivot * row_i[j] - head * row_k[j]) // prev
                row_i[k] = 0
            else:
                # the Bareiss update still rescales rows with a zero head
                for j in range(k + 1, n):
                    if row_i[j]:
                        row_i[j] = (pivot * row_i[j]) // prev
        prev = pivot
    return sign * a[n - 1][n - 1]


# ---------------------------------------------------------------------------
# Q[x]
# ---------------------------------------------------------------------------


def qpoly_to_int(coeffs):
    """(scale, ints) with coeffs = scale * ints and ints primitive in Z[x].

    scale is an int when it is integral, a Rat otherwise.
    """
    den_lcm = 1
    for c in coeffs:
        den_lcm = lcm(den_lcm, c.denominator)
    ints = [c.numerator * (den_lcm // c.denominator) for c in coeffs]
    while ints and not ints[-1]:
        ints.pop()
    cont = poly_content_int(ints)
    if cont > 1:
        ints = [v // cont for v in ints]
    return (Rat(cont, den_lcm) if den_lcm != 1 else cont), ints


# ---------------------------------------------------------------------------
# GF(p)[x]
# ---------------------------------------------------------------------------


def modp_poly_divmod(a, b, p):
    """(quotient, remainder) of a by a nonzero b over GF(p)."""
    a = list(a)
    db = len(b) - 1
    inv_lead = pow(b[-1], -1, p)
    quot = [0] * max(len(a) - db, 0)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if c:
            f = c * inv_lead % p
            quot[i - db] = f
            for j in range(db + 1):
                a[i - db + j] = (a[i - db + j] - f * b[j]) % p
    while a and not a[-1]:
        a.pop()
    return quot, a


def modp_poly_rem(a, mod, p):
    return modp_poly_divmod(a, mod, p)[1]


def modp_poly_mul(a, b, p):
    out = [c % p for c in poly_mul_int(a, b)]
    while out and not out[-1]:
        out.pop()
    return out


def modp_poly_sub(a, b, p):
    out = [x % p for x in poly_sub(a, b)]
    while out and not out[-1]:
        out.pop()
    return out


def modp_poly_mulmod(a, b, mod, p):
    return modp_poly_rem(modp_poly_mul(a, b, p), mod, p)


def modp_poly_powmod(base, e, mod, p):
    """base^e mod mod over GF(p), by repeated squaring."""
    result = [1]
    base = modp_poly_rem(base, mod, p)
    while e:
        if e & 1:
            result = modp_poly_mulmod(result, base, mod, p)
        e >>= 1
        if e:
            base = modp_poly_mulmod(base, base, mod, p)
    return result


def modp_poly_root(f, p):
    """A root in GF(p) of the integer polynomial f, or None when none is found.

    Cantor-Zassenhaus: g = gcd(x^p - x, f) is the product of the distinct
    linear factors of f mod p, and gcd((x + a)^((p - 1)/2) - 1, g) splits g
    for about half of the shifts a.  g becomes the smaller factor each time,
    over the shifts a = 0, 1, ..., 63 in turn.  p is an odd prime that does
    not divide the leading coefficient of f.
    """
    f = [c % p for c in f]
    g = modp_poly_gcd(f, modp_poly_sub(modp_poly_powmod([0, 1], p, f, p), [0, 1], p), p)
    for a in range(64):
        if len(g) <= 2:
            break
        h = modp_poly_gcd(g, modp_poly_sub(modp_poly_powmod([a, 1], (p - 1) // 2, g, p), [1], p), p)
        if 2 <= len(h) < len(g):
            g = min(h, modp_poly_divmod(g, h, p)[0], key=len)
    if len(g) != 2:
        return None
    return -g[0] * pow(g[1], -1, p) % p


def modp_poly_eval(a, x, p):
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % p
    return acc


def modp_poly_gcd(a, b, p):
    while b:
        a, b = b, modp_poly_rem(a, b, p)
    return a


def modp_interpolate(xs, ys, p):
    """The polynomial of degree < len(xs) through the points (xs[i], ys[i]) over GF(p).

    Newton's divided differences; the xs must be distinct mod p.
    """
    c = [y % p for y in ys]
    inverses = {}
    for k in range(1, len(xs)):
        for i in range(len(xs) - 1, k - 1, -1):
            d = (xs[i] - xs[i - k]) % p
            inv = inverses.get(d)
            if inv is None:
                inv = inverses[d] = pow(d, -1, p)
            c[i] = (c[i] - c[i - 1]) * inv % p
    poly = []
    for x, ci in zip(reversed(xs), reversed(c)):
        # poly <- poly * (r - x) + ci
        shifted = [ci] + poly
        for j, a in enumerate(poly):
            shifted[j] -= x * a
        poly = [v % p for v in shifted]
    while poly and not poly[-1]:
        poly.pop()
    return poly


def ratrecon_int(u, p):
    """The fraction a/b = u mod p with |a|, b <= isqrt(p // 2) and gcd(a, b) = 1, or None.

    Wang's rational reconstruction (Wang, Guy & Davenport, SIGSAM Bull. 16,
    1982): the half-extended Euclidean algorithm on (p, u) keeps
    r_i = t_i u mod p and stops at the first remainder within the bound;
    that pair is the only candidate, since two fractions within the bound
    that agree mod p are equal.
    """
    bound = isqrt(p // 2)
    r0, r1 = p, u % p
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 < 0:
        r1, t1 = -r1, -t1
    if t1 > bound or gcd(r1, t1) != 1:
        return None
    return Rat(r1, t1)


def modp_ratrecon(u, mod, p):
    """(a, b) with a = b u mod mod, deg a + deg b <= deg mod - 2, b monic, or None.

    Maximal-quotient rational reconstruction (Monagan, ISSAC 2004): each
    remainder r_i of the extended Euclidean algorithm on (mod, u) comes
    with a t_i such that r_i = t_i u mod mod and
    deg r_i + deg t_i = deg mod - deg q_i, q_i being the next quotient
    (von zur Gathen & Gerhard, Modern Computer Algebra, Theorem 5.16).
    The pair (r_i, t_i) of the quotient of largest degree is returned when
    that degree is at least 2, so one value more than the fit needs agrees
    with it.  None when no quotient reaches 2, or when b shares a factor
    with mod.  A zero u gives ([], [1]).
    """
    if not u:
        return [], [1]
    r0, r1 = list(mod), list(u)
    quotients = []
    top, best = 1, None
    while r1:
        q, r = modp_poly_divmod(r0, r1, p)
        if len(q) - 1 > top:
            top, best = len(q) - 1, (len(quotients), r1)
        quotients.append(q)
        r0, r1 = r1, r
    if best is None:
        return None
    # t_i of the chosen remainder from the quotients before it, computed
    # only for it: t_0 = 0, t_1 = 1, t_(j+1) = t_(j-1) - q_(j-1) t_j
    i, a = best
    t0, b = [], [1]
    for q in quotients[:i]:
        t0, b = b, modp_poly_sub(t0, modp_poly_mul(q, b, p), p)
    if len(modp_poly_gcd(mod, b, p)) > 1:
        return None
    inv = pow(b[-1], -1, p)
    return [c * inv % p for c in a], [c * inv % p for c in b]
