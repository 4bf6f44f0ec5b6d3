"""Valued bases as their rings of integers, resultants and canonical text.

A base is either the rationals with a p-adic valuation, or a rational
function field F_q(t) with the place of a monic irreducible pi(t). It
is one object, its global ring of integers: ``IntegerRing`` (Z) or
``FunctionRing`` (F_q[t]), each a ``ValuedBase``. The engine computes
inside these rings: both are closed under everything it needs (division
by monic polynomials, resultants, reduction, canonical lifts), so no
fractions ever appear and every value is exact.

Ring elements are Python ints for Z and trimmed tuples of F_q elements
for F_q[t]. A polynomial in x over a ring is a trimmed tuple of ring
elements, constant term first; the zero polynomial is the empty tuple
and its degree is the MINUS_INF sentinel. Their arithmetic is ``ffpoly``'s,
with the ring passed as the coefficient domain. Valuations of zero are
the INF sentinel.

A quotient R/prime^m is reached through ``polys(m, top, length)``: the
ops of ``ffpoly._Polys`` (``pack``, ``unpack``, ``add``, ``sub``,
``mul``, ``product``, ``divmod`` by a monic divisor, ``zero``, ``one``) on
polynomials in x over R/prime^m of at most ``length`` coefficients. The
Hensel lift and the classical check use them, and so does Newton's
method in the screen, whose elements are polynomials of length 1. A
polynomial is one int where it can be, so that a sum, a difference or a
product is one int operation and one reduction pass: over Z/p^m while
p^top < 2^128 (``ffpoly._Packed``), and over F_p[t]/t^m at pi = t for
every prime field (``ffpoly._PackedSeries``). Elsewhere it is a tuple
over the element ring (``_QuotientTuples`` over ``IntegersModPrimePow``
or ``TruncatedFunctionRing``). The layout follows the precision ``top``
that a lift doubles m up to, so a polynomial keeps its int from one
precision to the next.
"""

import functools
import math
import operator
from itertools import count

from . import ffpoly
from .errors import InputError
from .fields import PrimeField, extension_field, irreducibles, is_prime, quotient_field
from .ffpoly import MINUS_INF

INF = math.inf


class ValuedBase:
    """A ground field with one fixed discrete rank-one place, as its ring of integers.

    Either (Q, p), an ``IntegerRing``, or (F_q(t), pi), a ``FunctionRing``:
    the engine computes in the global ring of integers, Z or F_q[t], and
    ``residue_field`` is the residue field of the place.
    """

    _places = None

    @staticmethod
    def rational(p):
        return IntegerRing(p)

    @staticmethod
    def function_field(p, e, pi_coeffs):
        """F_{p^e}(t) at the place of the monic irreducible pi.

        ``pi_coeffs`` is a polynomial in t over F_{p^e}, given as a
        trimmed tuple of field elements.
        """
        return FunctionRing(extension_field(p, e), pi_coeffs)

    def places(self):
        """Every place of the base's global field, in one fixed order.

        Over Q these are the primes; over F_q(t) the monic irreducibles
        of F_q[t] by degree, then in the order of ``fields.irreducibles``.
        Each place is built once per base, and later calls reuse it.
        """
        if self._places is None:
            if self.kind == "Q":
                fresh = (IntegerRing(ell) for ell in count(2) if is_prime(ell))
            else:
                fresh = (FunctionRing(self.field, pi) for d in count(1) for pi in irreducibles(self.field, d))
            self._places = ([], fresh)
        built, fresh = self._places
        for i in count():
            if i == len(built):
                built.append(next(fresh))
            yield built[i]


class IntegerRing(ValuedBase):
    """Q at the prime p, computed in Z."""

    kind = "Q"
    char = 0

    def __init__(self, p):
        if not is_prime(p):
            raise InputError(f"prime expected, got {p}")
        self.p = p
        self.zero = 0
        self.one = 1
        self.prime_element = p
        self.residue_field = PrimeField(p)
        self._quotients = {}
        self.add, self.sub, self.neg, self.mul, self.is_zero, self.elem_pow = (
            operator.add, operator.sub, operator.neg, operator.mul, operator.not_, pow
        )

    def exact_div(self, a, b):
        q, r = divmod(a, b)
        if r:
            raise ArithmeticError("division is not exact")
        return q

    def valuation(self, a):
        if a == 0:
            return INF
        a = abs(a)
        v = 0
        while a % self.p == 0:
            a //= self.p
            v += 1
        return v

    def polys(self, m, top, length):
        """Polynomials over Z/p^m, one int each while p^top < 2^128; built once per (m, top, length)."""
        key = (m, top, length)
        P = self._quotients.get(key)
        if P is None:
            # p^top has more than top (bits(p) - 1) bits, so the power is taken only if it may fit
            if top * (self.p.bit_length() - 1) < 128 and self.p ** top < 1 << 128:
                P = ffpoly._Packed(self.residue_field, length, m, top)
            else:
                P = _QuotientTuples(IntegersModPrimePow(self.p ** m))
            self._quotients[key] = P
        return P

    def reduce(self, a):
        return a % self.p

    def reduce_over_prime(self, a):
        """The residue of a / p, for a divisible by p."""
        return a // self.p % self.p

    def lift(self, c):
        return c

    def from_int(self, n):
        return n

    def describe(self):
        return f"Q at p = {self.p}"


class FunctionRing(ValuedBase):
    """F_q(t) at the place of the monic irreducible pi, computed in F_q[t]."""

    kind = "Fq"

    def __init__(self, field, pi):
        pi = ffpoly.trim(field, pi)
        d = ffpoly.deg(pi)
        if d is MINUS_INF or d < 1:
            raise InputError("pi must be a non-constant polynomial in t")
        if not ffpoly.is_monic(field, pi):
            raise InputError("pi must be monic")
        if not ffpoly.is_irreducible(field, pi):
            raise InputError("pi must be irreducible over the coefficient field")
        self.field = field
        self.p = self.char = field.p
        self.e = 1 if isinstance(field, PrimeField) else field.dim
        self.pi = pi
        self.pi_degree = d
        self._pi_is_t = pi == (field.zero, field.one)
        self.zero = ()
        self.one = (field.one,)
        self.prime_element = pi
        self._quotients = {}
        if d == 1:
            self.residue_field = field
            self._pi_root = field.neg(pi[0])
        else:
            self.residue_field = quotient_field(field, pi)
        self.add, self.sub, self.neg, self.mul, self.elem_pow = (
            functools.partial(op, field)
            for op in (ffpoly.add, ffpoly.sub, ffpoly.neg, ffpoly.mul, ffpoly.pow_)
        )
        self.is_zero = operator.not_

    def exact_div(self, a, b):
        q, r = ffpoly.divmod_(self.field, a, b)
        if r:
            raise ArithmeticError("division is not exact")
        return q

    def valuation(self, a):
        if not a:
            return INF
        if self._pi_is_t:
            v = 0
            while a[v] == self.field.zero:
                v += 1
            return v
        v = 0
        while True:
            q, r = ffpoly.divmod_(self.field, a, self.pi)
            if r:
                return v
            a = q
            v += 1

    def polys(self, m, top, length):
        """Polynomials over F_q[t]/pi^m, one int each at pi = t over F_p; built once per (m, top, length)."""
        key = (m, top, length)
        P = self._quotients.get(key)
        if P is None:
            if self._pi_is_t and isinstance(self.field, PrimeField):
                P = ffpoly._PackedSeries(self.field, length, m, top)
            else:
                P = _QuotientTuples(TruncatedFunctionRing(self, m))
            self._quotients[key] = P
        return P

    def reduce(self, a):
        if self.pi_degree == 1:
            return ffpoly.evaluate(self.field, a, self._pi_root)
        return self.residue_field.wrap(ffpoly.rem(self.field, a, self.pi))

    def reduce_over_prime(self, a):
        """The residue of a / pi, for a divisible by pi.

        At pi = t it is the coefficient of t; at pi = t - r, writing
        a = (t - r) b gives a' = b + (t - r) b', so it is a'(r); only a pi
        of degree >= 2 takes an exact division.
        """
        if self._pi_is_t:
            return a[1] if len(a) > 1 else self.field.zero
        if self.pi_degree == 1:
            return ffpoly.evaluate(self.field, ffpoly.derivative(self.field, a), self._pi_root)
        return self.reduce(self.exact_div(a, self.pi))

    def lift(self, c):
        if self.pi_degree == 1:
            return ffpoly.constant(self.field, c)
        return self.residue_field.unwrap(c)

    def from_int(self, n):
        return ffpoly.constant(self.field, self.field.from_int(n))

    def describe(self):
        return f"F_{self.field.q}(t) at pi = {element_to_text(self.pi, self)}"


class IntegersModPrimePow:
    """Z/p^m on the representatives 0 <= a < p^m, as ``ffpoly`` needs it."""

    def __init__(self, modulus):
        self.modulus = modulus
        self.zero = 0
        self.one = 1

    def add(self, a, b):
        return (a + b) % self.modulus

    def sub(self, a, b):
        return (a - b) % self.modulus

    def mul(self, a, b):
        return a * b % self.modulus

    def mod(self, a):
        return a % self.modulus


class TruncatedFunctionRing:
    """F_q[t]/pi^m on the representatives of t-degree below m * deg pi.

    A product is cut below t^m at pi = t, and reduced by pi^m, computed
    once here, at any other pi. Sums need no reduction.
    """

    def __init__(self, ring, m):
        self.field = ring.field
        self.zero = ()
        self.one = ring.one
        self.add, self.sub = ring.add, ring.sub
        self.length = m
        self.modulus = None if ring._pi_is_t else ffpoly.pow_(ring.field, ring.pi, m)

    def mul(self, a, b):
        return self.mod(ffpoly.mul(self.field, a, b))

    def mod(self, a):
        if self.modulus is None:
            return ffpoly.trim(self.field, a[: self.length])
        return ffpoly.rem(self.field, a, self.modulus)


class _QuotientTuples(ffpoly._Tuples):
    """Polynomials over a quotient R/prime^m as tuples of its elements."""

    def pack(self, P):
        """The image of a polynomial over R, or over R/prime^m at a higher precision."""
        return ffpoly.trim(self.field, [self.field.mod(c) for c in P])


# ---------------------------------------------------------------------------
# polynomials in x over a base ring


def poly_divmod_monic(f, phi, ring):
    """Euclidean division by a monic divisor; exact over the ring."""
    d = ffpoly.deg(phi)
    if d is MINUS_INF or d < 1 or not ffpoly.is_monic(ring, phi):
        raise InputError("divisor must be monic of degree >= 1")
    return ffpoly.divmod_(ring, f, phi)


def gauss_valuation(P, base):
    """Minimum coefficient valuation; INF for the zero polynomial."""
    v = INF
    for c in P:
        cv = base.valuation(c)
        if cv < v:
            v = cv
            if v == 0:
                break
    return v


def reduce_mod(P, base):
    """Coefficient-wise image of P in the residue field."""
    return ffpoly.trim(base.residue_field, [base.reduce(c) for c in P])


def lift_residue_poly(Pbar, base):
    """Canonical coefficient-wise lift of a residue polynomial."""
    return ffpoly.trim(base, [base.lift(c) for c in Pbar])


# ---------------------------------------------------------------------------
# resultants and discriminants (fraction-free)


def _prem(A, B, ring):
    """Pseudo-remainder: lc(B)^(deg A - deg B + 1) * A reduced by B."""
    dB = len(B) - 1
    lB = B[-1]
    if lB == ring.one:
        return ffpoly.rem(ring, A, B)
    R = A
    e = len(A) - len(B) + 1
    while R and len(R) - 1 >= dB:
        dR = len(R) - 1
        lead = R[-1]
        shifted = (ring.zero,) * (dR - dB) + B
        R = ffpoly.trim(
            ring, [ring.sub(ring.mul(lB, R[i]), ring.mul(lead, shifted[i])) for i in range(dR + 1)]
        )
        e -= 1
    if e > 0:
        s = ring.elem_pow(lB, e)
        R = tuple(ring.mul(c, s) for c in R)
    return R


def resultant(f, g, ring):
    """Resultant over the base ring via the subresultant remainder scheme.

    Fraction-free: all interior divisions are exact in the ring, so the
    intermediate coefficients stay determinant-sized instead of growing
    exponentially. Row convention: Res(f, g) = lc(g)^deg(f) * prod f(beta)
    over the roots beta of g, up to the usual (-1)^(deg f * deg g) swap.
    """
    if not f or not g:
        raise InputError("resultant of a zero polynomial")
    A, B = f, g
    s = 1
    if ffpoly.deg(A) < ffpoly.deg(B):
        A, B = B, A
        if (ffpoly.deg(A) * ffpoly.deg(B)) % 2 == 1:
            s = -s
    if ffpoly.deg(A) == 0:
        return ring.one
    gpart = ring.one
    h = ring.one
    while ffpoly.deg(B) > 0:
        dA, dB = ffpoly.deg(A), ffpoly.deg(B)
        delta = dA - dB
        if dA % 2 == 1 and dB % 2 == 1:
            s = -s
        R = _prem(A, B, ring)
        A = B
        if not R:
            return ring.zero
        div = ring.mul(gpart, ring.elem_pow(h, delta))
        B = tuple(ring.exact_div(c, div) for c in R)
        gpart = A[-1]
        if delta == 1:
            h = gpart
        elif delta > 1:
            h = ring.exact_div(ring.elem_pow(gpart, delta), ring.elem_pow(h, delta - 1))
    dA = ffpoly.deg(A)
    res = ring.exact_div(ring.elem_pow(B[0], dA), ring.elem_pow(h, dA - 1))
    return ring.neg(res) if s < 0 else res


def discriminant(f, ring):
    """Discriminant of monic f, as (-1)^(n(n-1)/2) Res(f, f').

    In positive characteristic the derivative can vanish identically;
    the discriminant is zero then.
    """
    n = ffpoly.deg(f)
    if n is MINUS_INF or n < 1 or not ffpoly.is_monic(ring, f):
        raise InputError("monic polynomial of degree >= 1 expected")
    fp = ffpoly.derivative(ring, f)
    if not fp:
        return ring.zero
    r = resultant(f, fp, ring)
    return ring.neg(r) if (n * (n - 1) // 2) % 2 == 1 else r


# ---------------------------------------------------------------------------
# canonical text form


def _terms(coeffs, var, text, zero):
    """A polynomial in ``var`` with coefficients rendered by ``text``, terms from the top.

    A coefficient 1 is left out (-1 leaves its sign), a sum is put in
    parentheses, a negative term is subtracted, and zero is "0".
    """
    out = []
    for i in range(len(coeffs) - 1, -1, -1):
        if coeffs[i] == zero:
            continue
        ct = text(coeffs[i])
        if i == 0:
            out.append(ct)
            continue
        power = var if i == 1 else f"{var}^{i}"
        if ct in ("1", "-1"):
            out.append(ct[:-1] + power)
        else:
            out.append(f"({ct})*{power}" if "+" in ct else f"{ct}*{power}")
    return " + ".join(out).replace("+ -", "- ") or "0"


def poly_to_text(P, base, var="x"):
    """Canonical, re-parseable text form of a polynomial over the base."""
    return _terms(P, var, lambda c: element_to_text(c, base), base.zero)


def element_to_text(a, base):
    """Canonical text of one ring element: an int, or a polynomial in t whose
    coefficients in F_q are polynomials in its generator u when e > 1."""
    if base.kind == "Q":
        return str(a)
    if base.e == 1:
        return _terms(a, "t", str, 0)
    return _terms(a, "t", lambda c: _terms(c, "u", str, 0), base.field.zero)
