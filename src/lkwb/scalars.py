"""Exact scalar arithmetic for every ground field the workbench uses.

Four kinds of scalars, one per ground field:

* arbitrary-precision rationals (``Rat``, which is fractions.Fraction),
* bivariate Laurent polynomials in l and r over Z (``LaurentPoly``, int
  coefficients only) and their fractions (``RatFunc``, always in lowest
  terms) -- the field Q(l,r), kept as Laurent polynomials in l over
  Q(r): a denominator is a polynomial in r alone, so the one gcd is a
  fold over Z[r], and a rational constant lives in the denominator, so
  that arithmetic builds no rationals,
* the same restricted to r only -- the field Q(r),
* elements of quotient rings Q[x]/(f), f monic in Z[x], for algebraic
  values of r (``AlgebraicNumber`` over a ``NumberField``), each kept as
  an integer coefficient vector over one positive denominator, in lowest
  terms, so that arithmetic in Z[x]/(f) builds no rationals.

Every value has exactly one representation, so equality is structural.
All values are immutable after construction and safe to share between
workers.  Its text (``scalar_to_text``) is canonical too: distinct
values have distinct text.  Only rationals are read back from
text (``parse_rat``, for the command line).
"""

from __future__ import annotations

import re
from math import gcd, lcm
from operator import add, sub

from . import kernels
from .kernels import Rat
from .errors import (
    DenominatorInL,
    DivisionByZero,
    ExponentOverflow,
    FieldMismatch,
    PoleAtSpecialization,
    ZeroDivisorEncountered,
)

# the name of the rational type, recorded with benchmark results
RAT_BACKEND = "fractions"

_RAT_TYPES = (Rat, int)

# bound on |exponent| of l and r in a Laurent polynomial
_EXP_BOUND = 1 << 16


def rat(p, q=1):
    """Exact rational p/q."""
    if q == 0:
        raise DivisionByZero("rational with zero denominator")
    return Rat(p) / q if q != 1 else Rat(p)


def is_rat(x):
    return isinstance(x, _RAT_TYPES)


def format_rat(x):
    return str(x)


_RAT_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")


def parse_rat(s):
    m = _RAT_RE.match(s.strip())
    if not m:
        raise ValueError(f"not a rational: {s!r}")
    p = int(m.group(1))
    q = int(m.group(2)) if m.group(2) else 1
    return rat(p, q)


# ---------------------------------------------------------------------------
# Laurent polynomials in l, r
# ---------------------------------------------------------------------------

_pack = kernels.pack_exp
_unpack = kernels.unpack_exp
_HALF_PACK = kernels.PACK >> 1


def _as_int(c):
    """c as an int Laurent coefficient: c is an int or an integral Rat.

    A true fraction is not in Z[l^±1, r^±1] and raises ValueError; its
    place is a RatFunc denominator.
    """
    if type(c) is int:
        return c
    if c.denominator != 1:
        raise ValueError(f"Laurent coefficient {c} is not an integer")
    return c.numerator


def _quotient(a, b):
    """a / b for ints when b divides a; ValueError otherwise."""
    q, rem = divmod(a, b)
    if rem:
        raise ValueError("inexact Laurent division")
    return q


class LaurentPoly:
    """Laurent polynomial in l and r with integer coefficients: Z[l^±1, r^±1].

    Terms are stored as a dict from packed exponent keys to nonzero int
    coefficients; equality is structural.  The constructors take an int or
    an integral Rat and refuse a true fraction with ValueError, and so do
    + and * with a fraction: a rational constant lives in a RatFunc
    denominator.  Exponents are bounded by 2^16 in absolute value and
    overflow raises ExponentOverflow.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = terms or {}

    @classmethod
    def from_pairs(cls, pairs):
        """Build from an iterable of ((a, b), coeff) exponent pairs."""
        bound = _EXP_BOUND
        terms = {}
        for (a, b), c in pairs:
            if abs(a) > bound or abs(b) > bound:
                raise ExponentOverflow(f"exponent ({a},{b}) exceeds bound {bound}")
            c = _as_int(c)
            if not c:
                continue
            k = _pack(a, b)
            v = terms.get(k)
            if v is None:
                terms[k] = c
            else:
                v += c
                if v:
                    terms[k] = v
                else:
                    del terms[k]
        return cls(terms)

    @classmethod
    def const(cls, c):
        c = _as_int(c)
        return cls({0: c} if c else {})

    @classmethod
    def term(cls, c, a, b):
        return cls.from_pairs([((a, b), c)])

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def one(cls):
        return cls({0: 1})

    @classmethod
    def var_l(cls):
        return cls({_pack(1, 0): 1})

    @classmethod
    def var_r(cls):
        return cls({_pack(0, 1): 1})

    def pairs(self):
        """Iterate ((a, b), coeff) in lexicographically descending order."""
        for k in sorted(self.terms, reverse=True):
            yield _unpack(k), self.terms[k]

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, LaurentPoly):
            return self.terms == other.terms
        if is_rat(other):
            return self.terms == ({0: other} if other else {})
        return NotImplemented

    def __hash__(self):
        terms = self.terms
        if terms.keys() <= {0}:  # a constant equals its int, so it hashes as that int
            return hash(terms.get(0, 0))
        return hash(tuple(sorted(terms.items())))

    def __neg__(self):
        return LaurentPoly({k: -c for k, c in self.terms.items()})

    def _coerce(self, other):
        if isinstance(other, LaurentPoly):
            return other
        if is_rat(other):
            return LaurentPoly.const(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return LaurentPoly(kernels.terms_add(self.terms, o.terms))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = LaurentPoly(kernels.terms_mul(self.terms, o.terms))
        out._check_bound()
        return out

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            # only the units +-l^a r^b have inverses in the ring
            if len(self.terms) == 1:
                ((k, c),) = self.terms.items()
                if c in (1, -1):
                    out = LaurentPoly({k * n: c if n & 1 else 1})
                    out._check_bound()
                    return out
            raise ValueError("negative power of a Laurent polynomial that is not a unit")
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def _check_bound(self):
        bound = _EXP_BOUND
        # a key l^a r^b with a != 0 has |key| > bound, and with a = 0 it is b
        if max(map(abs, self.terms), default=0) <= bound:
            return
        for k in self.terms:
            a, b = _unpack(k)
            if abs(a) > bound or abs(b) > bound:
                raise ExponentOverflow(f"exponent ({a},{b}) exceeds bound {bound}")

    # -- structure ---------------------------------------------------------

    def is_const(self):
        return not self.terms or (len(self.terms) == 1 and 0 in self.terms)

    def is_one(self):
        return self.terms == {0: 1}

    def const_value(self):
        if not self.terms:
            return 0
        if len(self.terms) == 1 and 0 in self.terms:
            return self.terms[0]
        raise ValueError("not a constant")

    def exp_range(self):
        """(amin, amax, bmin, bmax) over all terms; zero poly gives zeros."""
        if not self.terms:
            return (0, 0, 0, 0)
        amin = amax = bmin = bmax = None
        for k in self.terms:
            a, b = _unpack(k)
            if amin is None:
                amin = amax = a
                bmin = bmax = b
            else:
                if a < amin:
                    amin = a
                elif a > amax:
                    amax = a
                if b < bmin:
                    bmin = b
                elif b > bmax:
                    bmax = b
        return (amin, amax, bmin, bmax)

    def is_univariate_r(self):
        """Whether self is a Laurent polynomial in r alone.

        A key is a * PACK + b with |b| < PACK / 2, so the keys of a
        polynomial in r alone are its exponents, and any other key lies
        outside (-PACK / 2, PACK / 2).
        """
        terms = self.terms
        return not terms or (-_HALF_PACK < min(terms) and max(terms) < _HALF_PACK)

    def leading_coeff(self):
        return self.terms[max(self.terms)]

    def content(self):
        """Positive gcd of the coefficients (0 for the zero poly)."""
        return gcd(*self.terms.values())

    def scale(self, c):
        c = _as_int(c)
        if not c:
            return LaurentPoly.zero()
        return LaurentPoly({k: v * c for k, v in self.terms.items()})

    def shift(self, da, db):
        """Multiply by the monomial l^da * r^db."""
        if not self.terms:
            return self
        k0 = _pack(da, db)
        out = LaurentPoly({k + k0: c for k, c in self.terms.items()})
        out._check_bound()
        return out

    def divexact(self, other):
        """Exact division in Z[l^±1, r^±1]; ValueError when inexact."""
        if not other.terms:
            raise DivisionByZero("division by zero polynomial")
        if not self.terms:
            return LaurentPoly.zero()
        oterms = other.terms
        if len(oterms) == 1:  # a monomial: one int division per term
            ((k0, c0),) = oterms.items()
            return LaurentPoly({k - k0: _quotient(c, c0) for k, c in self.terms.items()})
        rem = dict(self.terms)
        quot = {}
        lead_k = max(oterms)
        lead_c = oterms[lead_k]
        # the exponents of l and of r in an exact quotient run from the min
        # of self's minus the min of other's to the max minus the max
        alo, ahi, blo, bhi = (x - y for x, y in zip(self.exp_range(), other.exp_range()))
        while rem:
            rk = max(rem)
            qk = rk - lead_k
            a, b = _unpack(qk)
            if not (alo <= a <= ahi and blo <= b <= bhi):
                raise ValueError("inexact Laurent division")
            qc = _quotient(rem[rk], lead_c)
            quot[qk] = qc
            for k, c in oterms.items():
                kk = qk + k
                v = rem.get(kk)
                nv = (v if v is not None else 0) - qc * c
                if nv:
                    rem[kk] = nv
                elif v is not None:
                    del rem[kk]
        return LaurentPoly(quot)

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, l_val, r_val):
        """Exact evaluation; the result lives in the arithmetic of the inputs."""
        acc = None
        lp = _PowCache(l_val)
        rp = _PowCache(r_val)
        for key, c in self.terms.items():
            a, b = _unpack(key)
            v = c * lp[a] * rp[b] if a else c * rp[b]
            acc = v if acc is None else acc + v
        if acc is None:
            return Rat(0)
        return acc

    def to_dense_r(self):
        """(shift, coeffs): self = r^shift * sum coeffs[i] r^i, univariate only.

        The keys of a polynomial in r alone are its exponents.
        """
        if not self.is_univariate_r():
            raise ValueError("not univariate in r")
        terms = self.terms
        if not terms:
            return 0, []
        lo, hi = min(terms), max(terms)
        coeffs = [0] * (hi - lo + 1)
        for k, c in terms.items():
            coeffs[k - lo] = c
        return lo, coeffs

    def to_dense_int_r(self):
        """The primitive part of self as a dense polynomial in r, less its power of r.

        Univariate in r only; self is the content times r^shift times it.
        """
        return kernels.qpoly_to_int(self.to_dense_r()[1])[1]

    # -- gcd ----------------------------------------------------------------

    def gcd(self, other):
        """gcd of two nonzero Laurent polynomials, at least one in r alone.

        With q in Z[r], gcd(p, q) is the gcd in Z[r] of q and the
        coefficients of p as a Laurent polynomial in l: one fold of
        poly_gcd_int.  A gcd in the Laurent ring is unique up to a monomial
        and a rational factor; this one is in r alone, with integer
        coefficients of content 1, minimum exponent 0 and a positive
        leading coefficient.  Two inputs that both involve l raise
        DenominatorInL.
        """
        p, q = self, other
        if not q.is_univariate_r():
            if not p.is_univariate_r():
                raise DenominatorInL("gcd of two polynomials that involve l")
            p, q = q, p
        if p.is_univariate_r():
            cols = [p]
        else:
            by_l = {}
            for k, c in p.terms.items():
                a, b = _unpack(k)
                by_l.setdefault(a, {})[b] = c
            cols = map(LaurentPoly, by_l.values())
        g = q.to_dense_int_r()
        for col in cols:
            if g == [1]:
                break
            g = kernels.poly_gcd_int(g, col.to_dense_int_r())
        return LaurentPoly.from_pairs([((0, i), c) for i, c in enumerate(g)])

    # -- text ---------------------------------------------------------------

    def to_text(self):
        return laurent_to_text(self)

    def __repr__(self):
        return f"LaurentPoly({laurent_to_text(self)})"


class _PowCache:
    """Memoized integer powers of one value (supports negative exponents)."""

    def __init__(self, base):
        self.base = base
        self.cache = {}

    def __getitem__(self, e):
        c = self.cache.get(e)
        if c is None:
            c = self.base ** e
            self.cache[e] = c
        return c


# ---------------------------------------------------------------------------
# Rational functions
# ---------------------------------------------------------------------------

class RatFunc:
    """Quotient of a Laurent polynomial by a polynomial in r, in lowest terms.

    A value of Q(l,r) is kept as a Laurent polynomial in l over Q(r): with
    q = r^-2 and tau = r^3/l the representation needs no other, and its
    only true denominators come from m = 1/r - r.  Numerator and
    denominator have int coefficients (LaurentPoly), so a rational constant
    lives in the denominator: 1/2 is 1 over 2.  The denominator is a
    polynomial in r alone (minimum exponent zero) with a positive leading
    coefficient, and the two share no factor, their integer contents
    included.  That form is unique, so equality is structural.  A
    denominator that still involves l once its monomial factor is divided
    out raises DenominatorInL.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, *, _normalized=False):
        if den is None:
            den = LaurentPoly.one()
        if _normalized:
            self.num = num
            self.den = den
            return
        if not den:
            raise DivisionByZero("rational function with zero denominator")
        if not num:
            self.num = LaurentPoly.zero()
            self.den = LaurentPoly.one()
            return
        amin, amax, bmin, _ = den.exp_range()
        if amax != amin:
            raise DenominatorInL(f"denominator {laurent_to_text(den)} involves l")
        if amin or bmin:
            den = den.shift(-amin, -bmin)
            num = num.shift(-amin, -bmin)
        c = den.content()
        if den.leading_coeff() < 0:
            c = -c
        if c != 1:
            g = gcd(c, num.content())
            g = LaurentPoly.const(g if c > 0 else -g)
            den = den.divexact(g)
            num = num.divexact(g)
        if not den.is_const():
            g = num.gcd(den)
            if not g.is_const():
                num = num.divexact(g)
                den = den.divexact(g)
        self.num = num
        self.den = den

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_const(cls, c):
        return cls(LaurentPoly.const(c.numerator), LaurentPoly.const(c.denominator),
                   _normalized=True)

    @classmethod
    def zero(cls):
        return cls.from_const(0)

    @classmethod
    def one(cls):
        return cls.from_const(1)

    @classmethod
    def var_l(cls):
        return cls(LaurentPoly.var_l(), LaurentPoly.one(), _normalized=True)

    @classmethod
    def var_r(cls):
        return cls(LaurentPoly.var_r(), LaurentPoly.one(), _normalized=True)

    @classmethod
    def from_laurent(cls, p):
        return cls(p, LaurentPoly.one(), _normalized=True)

    # -- predicates -----------------------------------------------------------

    def __bool__(self):
        return bool(self.num.terms)

    def is_const(self):
        return self.num.is_const() and self.den.is_const()

    def const_value(self):
        return Rat(self.num.const_value(), self.den.const_value())

    def is_univariate_r(self):
        return self.num.is_univariate_r()  # the denominator always is

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.den == o.den and self.num == o.num

    __hash__ = None

    # -- arithmetic ------------------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, RatFunc):
            return other
        if is_rat(other):
            return RatFunc.from_const(other)
        if isinstance(other, LaurentPoly):
            return RatFunc.from_laurent(other)
        return None

    def __neg__(self):
        return RatFunc(-self.num, self.den, _normalized=True)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            return RatFunc(self.num + o.num, self.den)
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.den.is_one() and o.den.is_one():
            return RatFunc(self.num * o.num, self.den, _normalized=True)
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.num:
            raise DivisionByZero("division by zero rational function")
        return RatFunc(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n):
        if n < 0:
            if not self.num:
                raise DivisionByZero("negative power of zero")
            return RatFunc(self.den ** (-n), self.num ** (-n))
        return RatFunc(self.num ** n, self.den ** n)

    # -- evaluation -------------------------------------------------------------

    def evaluate(self, l_val, r_val):
        try:
            dv = self.den.evaluate(l_val, r_val)
            if not dv:
                raise PoleAtSpecialization("denominator vanishes at the specialization point")
            return self.num.evaluate(l_val, r_val) / dv
        except ZeroDivisionError:
            # negative Laurent exponent hit a zero base
            raise PoleAtSpecialization("negative exponent at a zero coordinate")

    def to_text(self):
        return ratfunc_to_text(self)

    def __repr__(self):
        return f"RatFunc({ratfunc_to_text(self)})"


# ---------------------------------------------------------------------------
# Algebraic ground fields Q[x]/(f)
# ---------------------------------------------------------------------------


class NumberField:
    """Quotient ring Q[x]/(f) for a monic modulus f in Z[x] of degree d.

    Irreducibility of f is the caller's contract; a reducible modulus
    surfaces as ZeroDivisorEncountered during inversion.  Products need f
    only through the reductions of x^d .. x^(2d-2) modulo f, kept as
    sparse rows of (index, int coefficient).  ``image_ring`` is the
    ModularImage of Z[x]/(f).
    """

    def __init__(self, modulus):
        coeffs = tuple(Rat(c) for c in modulus)
        if len(coeffs) < 2:
            raise ValueError("modulus must have degree >= 1")
        if coeffs[-1] != 1 or any(c.denominator != 1 for c in coeffs):
            raise ValueError("modulus must be monic with integer coefficients")
        self.modulus = tuple(c.numerator for c in coeffs)
        self.degree = len(coeffs) - 1
        d = self.degree
        # reductions of x^d .. x^(2d-2) modulo f
        red = [tuple(-c for c in self.modulus[:-1])]
        for _ in range(d - 2):
            prev = red[-1]
            shifted = [0] + list(prev[:-1])
            top = prev[-1]
            if top:
                base = red[0]
                shifted = [s + top * b for s, b in zip(shifted, base)]
            red.append(tuple(shifted))
        self._red = tuple(tuple((j, c) for j, c in enumerate(row) if c) for row in red)
        self.image_ring = ModularImage(self)

    @property
    def tag(self):
        return "mod: " + poly_x_to_text(self.modulus)

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.modulus == other.modulus

    def __hash__(self):
        return hash(("NumberField", self.modulus))

    def __repr__(self):
        return f"NumberField({self.tag})"

    def element(self, coeffs):
        """sum coeffs[i] x^i for at most 2d - 1 rational coefficients."""
        if len(coeffs) > 2 * self.degree - 1:
            raise ValueError(f"more than {2 * self.degree - 1} coefficients for {self.tag}")
        return AlgebraicNumber(self, self._reduce([Rat(c) for c in coeffs]))

    def _reduce(self, coeffs):
        """The d coefficients of sum coeffs[i] x^i mod f, for i < 2d - 1."""
        d = self.degree
        out = list(coeffs[:d])
        out.extend([0] * (d - len(out)))
        for row, c in zip(self._red, coeffs[d:]):
            if c:
                for j, rc in row:
                    out[j] += c * rc
        return out

    def gen(self):
        return self.element([0, 1])

    def zero(self):
        return AlgebraicNumber(self, (0,) * self.degree)

    def one(self):
        return AlgebraicNumber(self, (1,) + (0,) * (self.degree - 1))

    def from_int(self, i):
        return AlgebraicNumber(self, (i,) + (0,) * (self.degree - 1))

    def from_rat(self, c):
        return self.element([c])

    def coerce(self, x):
        if isinstance(x, AlgebraicNumber):
            if x.field != self:
                raise FieldMismatch(f"element of {x.field.tag} used in {self.tag}")
            return x
        if is_rat(x):
            return self.from_rat(x)
        raise FieldMismatch(f"cannot coerce {type(x).__name__} into {self.tag}")

    def random(self, rng, bound=9):
        return self.element([rat(rng.randint(-bound, bound), rng.randint(1, bound)) for _ in range(self.degree)])


class AlgebraicNumber:
    """Element sum(nums[i] x^i) / den of a NumberField, i < deg f.

    nums is a tuple of deg f ints and den a positive int with
    gcd(den, *nums) = 1, so each element has one representation (zero is
    all zeros over 1).  The constructor is the one normalization: it clears
    Rat entries of nums into den, then divides out the common factor.  A
    product is an integer convolution reduced by the field's table, a sum
    over equal denominators one tuple sum, and an inverse an extended
    Euclid over Z[x]; ``coeffs`` gives the Rat coefficients that text reads.
    """

    __slots__ = ("field", "nums", "den")

    def __init__(self, field, nums, den=1):
        try:
            g = gcd(den, *nums)
        except TypeError:  # a Rat entry: clear the denominators into den first
            lcd = lcm(*(c.denominator for c in nums))
            nums = [c.numerator * (lcd // c.denominator) for c in nums]
            den *= lcd
            g = gcd(den, *nums)
        if g != 1:
            nums = [c // g for c in nums]
            den //= g
        self.field = field
        self.nums = tuple(nums)
        self.den = den

    @property
    def coeffs(self):
        return tuple(Rat(c, self.den) for c in self.nums)

    def __bool__(self):
        return any(self.nums)

    def __eq__(self, other):
        if isinstance(other, AlgebraicNumber):
            return ((self.field is other.field or self.field == other.field)
                    and self.nums == other.nums and self.den == other.den)
        if is_rat(other):
            return self == self._coerce(other)
        return NotImplemented

    def __hash__(self):
        if not any(self.nums[1:]):  # a rational value equals its Rat, so it hashes as that Rat
            return hash(Rat(self.nums[0], self.den))
        return hash((self.field, self.nums, self.den))

    def _coerce(self, other):
        if isinstance(other, AlgebraicNumber):
            if other.field is not self.field and other.field != self.field:
                raise FieldMismatch("algebraic numbers from different fields")
            return other
        if type(other) is int:
            return self.field.from_int(other)
        if is_rat(other):
            return self.field.from_rat(other)
        return None

    def __neg__(self):
        return AlgebraicNumber(self.field, tuple(-c for c in self.nums), self.den)

    def _combine(self, other, op):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        da, db = self.den, o.den
        if da == db:
            return AlgebraicNumber(self.field, tuple(map(op, self.nums, o.nums)), da)
        return AlgebraicNumber(self.field, [op(a * db, b * da) for a, b in zip(self.nums, o.nums)], da * db)

    def __add__(self, other):
        return self._combine(other, add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, sub)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        field = self.field
        prod = [0] * (2 * field.degree - 1)
        for i, a in enumerate(self.nums):
            if a:
                for k, b in enumerate(o.nums, i):
                    if b:
                        prod[k] += a * b
        return AlgebraicNumber(field, field._reduce(prod), self.den * o.den)

    __rmul__ = __mul__

    def inverse(self):
        if not self:
            raise DivisionByZero("inverse of zero in quotient ring")
        # extended Euclid over Z[x] against the modulus f, keeping
        # s_i * nums = r_i (mod f) with the content of (r_i, s_i) divided out;
        # at a constant r_i = c, the inverse is den * s_i / c
        r0, r1 = list(self.field.modulus), list(self.nums)
        while not r1[-1]:
            r1.pop()
        s0, s1 = [], [1]
        while len(r1) > 1:
            scale, q, r = kernels.poly_pseudo_divmod(r0, r1)
            if not r:
                raise ZeroDivisorEncountered(
                    "element not invertible modulo the supplied modulus (modulus reducible?)"
                )
            s = kernels.poly_sub([scale * c for c in s0], kernels.poly_mul_int(q, s1))
            g = gcd(*r, *s)
            r0, r1 = r1, [c // g for c in r]
            s0, s1 = s1, [c // g for c in s]
        c = r1[0]
        if c < 0:
            c, s1 = -c, [-v for v in s1]
        nums = [self.den * v for v in s1]
        return AlgebraicNumber(self.field, nums + [0] * (self.field.degree - len(nums)), c)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def to_text(self):
        return algebraic_to_text(self)

    def __repr__(self):
        return f"AlgebraicNumber({algebraic_to_text(self)}, {self.field.tag})"


# ---------------------------------------------------------------------------
# Integer images by Kronecker substitution
# ---------------------------------------------------------------------------


class LaurentImage:
    """The integer image of Q(r)'s Laurent ring: Z[r] -> Z by r -> t = 2^b.

    A group of entries is scaled by r^s into Z[r], s >= 0 the least shift
    that leaves no negative exponent (a Q(r) term key is its r exponent):
    the scale is the shift s.  ||ab||_1 <= ||a||_1 ||b||_1 over Z[r], so
    gamma is 1, and there is no modulus.
    """

    gamma = 1
    norm_f = 0

    @staticmethod
    def scale(xs):
        return max(0, -min((min(x.terms) for x in xs if x.terms), default=0))

    @staticmethod
    def norm(x, shift):
        """||r^shift x||_1."""
        return sum(map(abs, x.terms.values()))

    @staticmethod
    def at(x, shift, b):
        """The image of r^shift x."""
        return sum(c << b * (e + shift) for e, c in x.terms.items())

    @staticmethod
    def scale_norm(shift):
        return 1

    @staticmethod
    def scale_at(shift, b):
        return 1 << b * shift

    @staticmethod
    def modulus(b):
        return None


class ModularImage:
    """The integer image of Q[x]/(f), f in Z[x]: Z[x]/(f) -> Z/N by x -> t = 2^b, N = f(t).

    A group of entries is scaled into Z[x]/(f) by the lcm of their
    denominators.  gamma, the largest L1 norm of x^k mod f for k < 2d - 1,
    gives ||ab mod f||_1 <= gamma ||a||_1 ||b||_1.  The image of a value
    is its coefficients at t, not reduced mod N, so that -1 maps to -1.
    """

    def __init__(self, field):
        self.f = field.modulus
        self.norm_f = sum(map(abs, self.f))
        self.gamma = max([1] + [sum(abs(c) for _, c in row) for row in field._red])

    @staticmethod
    def scale(xs):
        return lcm(*(x.den for x in xs))

    @staticmethod
    def norm(x, scale):
        """||scale x||_1."""
        return sum(map(abs, x.nums)) * (scale // x.den)

    @staticmethod
    def at(x, scale, b):
        """The image of scale x."""
        return kernels.poly_eval_pow2(x.nums, b) * (scale // x.den)

    @staticmethod
    def scale_norm(scale):
        return scale

    @staticmethod
    def scale_at(scale, b):
        return scale

    def modulus(self, b):
        return kernels.poly_eval_pow2(self.f, b)


# ---------------------------------------------------------------------------
# Ground-field objects
# ---------------------------------------------------------------------------


class RationalField:
    """The field Q; elements are Rat values.  Its integral domain Z needs no image ring."""

    tag = "Q"
    image_ring = None

    def zero(self):
        return Rat(0)

    def one(self):
        return Rat(1)

    def from_int(self, i):
        return Rat(i)

    def from_rat(self, c):
        return Rat(c)

    def coerce(self, x):
        if is_rat(x):
            return Rat(x)
        raise FieldMismatch(f"cannot coerce {type(x).__name__} into Q")

    def random(self, rng, bound=100):
        return rat(rng.randint(-bound, bound), rng.randint(1, bound))

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")

    def __repr__(self):
        return "QQ"


class FunctionField:
    """Q(l,r) or Q(r); elements are RatFunc values.  Q(r) has the LaurentImage ring."""

    def __init__(self, variables):
        if tuple(variables) not in (("l", "r"), ("r",)):
            raise ValueError("supported variable sets: (l, r) and (r,)")
        self.variables = tuple(variables)
        self.image_ring = LaurentImage() if self.variables == ("r",) else None

    @property
    def tag(self):
        return "Q(" + ",".join(self.variables) + ")"

    def zero(self):
        return RatFunc.zero()

    def one(self):
        return RatFunc.one()

    def from_int(self, i):
        return RatFunc.from_const(i)

    def from_rat(self, c):
        return RatFunc.from_const(c)

    def l(self):
        if "l" not in self.variables:
            raise FieldMismatch("l is not a variable of " + self.tag)
        return RatFunc.var_l()

    def r(self):
        return RatFunc.var_r()

    def coerce(self, x):
        if isinstance(x, RatFunc):
            out = x
        elif isinstance(x, LaurentPoly):
            out = RatFunc.from_laurent(x)
        elif is_rat(x):
            return RatFunc.from_const(x)
        else:
            raise FieldMismatch(f"cannot coerce {type(x).__name__} into {self.tag}")
        if "l" not in self.variables and not out.is_univariate_r():
            raise FieldMismatch("element involves l but the field is " + self.tag)
        return out

    def random(self, rng, bound=6):
        nterms = rng.randint(1, 3)
        pairs = []
        for _ in range(nterms):
            a = rng.randint(-2, 2) if "l" in self.variables else 0
            b = rng.randint(-3, 3)
            pairs.append(((a, b), rat(rng.randint(-bound, bound), rng.randint(1, 4))))
        den = lcm(*(c.denominator for _, c in pairs))
        num = LaurentPoly.from_pairs((k, c.numerator * (den // c.denominator)) for k, c in pairs)
        if not num:
            return RatFunc.one()
        return RatFunc(num, LaurentPoly.const(den))

    def __eq__(self, other):
        return isinstance(other, FunctionField) and self.variables == other.variables

    def __hash__(self):
        return hash(("FunctionField", self.variables))

    def __repr__(self):
        return self.tag


QQ = RationalField()
QLR = FunctionField(("l", "r"))
QR = FunctionField(("r",))

# Cyclotomic-style moduli used by the exceptional-point suite (ascending
# coefficients).  x is a primitive 12th / 20th / 24th root of unity.
CYCLOTOMIC_MODULI = {
    "phi12": (1, 0, -1, 0, 1),
    "phi20": (1, 0, -1, 0, 1, 0, -1, 0, 1),
    "phi24": (1, 0, 0, 0, -1, 0, 0, 0, 1),
}


def cyclotomic_field(name):
    try:
        coeffs = CYCLOTOMIC_MODULI[name]
    except KeyError:
        raise KeyError(f"unknown cyclotomic modulus {name!r}; known: {sorted(CYCLOTOMIC_MODULI)}")
    return NumberField(coeffs)


def field_of(x):
    """Ground field of a scalar (Q(r) is reported for univariate RatFuncs)."""
    if is_rat(x):
        return QQ
    if isinstance(x, RatFunc):
        return QR if x.is_univariate_r() else QLR
    if isinstance(x, LaurentPoly):
        return QR if x.is_univariate_r() else QLR
    if isinstance(x, AlgebraicNumber):
        return x.field
    raise FieldMismatch(f"not a scalar: {type(x).__name__}")


def m_of_r(r_val):
    """m = 1/r - r; satisfies r^2 + m*r - 1 = 0."""
    if not r_val:
        raise DivisionByZero("m_of_r at r = 0")
    return 1 / r_val - r_val


# ---------------------------------------------------------------------------
# Text output
# ---------------------------------------------------------------------------


def _term_text(c, parts):
    body = "*".join(parts)
    ac = abs(c)
    if not parts:
        return str(ac)
    if ac == 1:
        return body
    return f"{ac}*{body}"


def laurent_to_text(p, over=1):
    """The text of p, or of p / over for a positive int over."""
    if not p.terms:
        return "0"
    chunks = []
    for (a, b), c in p.pairs():
        if over != 1:
            c = Rat(c, over)
        parts = []
        if a:
            parts.append("l" if a == 1 else f"l^{a}")
        if b:
            parts.append("r" if b == 1 else f"r^{b}")
        text = _term_text(c, parts)
        if not chunks:
            chunks.append(("-" if c < 0 else "") + text)
        else:
            chunks.append(("- " if c < 0 else "+ ") + text)
    return " ".join(chunks)


def ratfunc_to_text(f):
    """num/den as num/c over den/c: den's integer content c goes into num's coefficients."""
    c = f.den.content()
    if f.den.is_const():
        return laurent_to_text(f.num, c)
    return f"({laurent_to_text(f.num, c)})/({laurent_to_text(f.den, c)})"


def algebraic_to_text(x):
    return "[" + ",".join(format_rat(c) for c in x.coeffs) + "]"


def poly_x_to_text(coeffs):
    """Canonical text of a univariate rational polynomial in x, ascending coeffs."""
    chunks = []
    for d in range(len(coeffs) - 1, -1, -1):
        c = coeffs[d]
        if not c:
            continue
        parts = []
        if d:
            parts.append("x" if d == 1 else f"x^{d}")
        text = _term_text(c, parts)
        if not chunks:
            chunks.append(("-" if c < 0 else "") + text)
        else:
            chunks.append(("- " if c < 0 else "+ ") + text)
    return " ".join(chunks) if chunks else "0"


def scalar_to_text(x):
    if is_rat(x):
        return format_rat(x)
    if isinstance(x, LaurentPoly):
        return laurent_to_text(x)
    if isinstance(x, RatFunc):
        return ratfunc_to_text(x)
    if isinstance(x, AlgebraicNumber):
        return algebraic_to_text(x)
    raise TypeError(f"not a scalar: {type(x).__name__}")
