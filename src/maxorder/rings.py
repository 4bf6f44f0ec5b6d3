"""Valued bases, their rings of integers, resultants and canonical text.

A base is either the rationals with a p-adic valuation, or a rational
function field F_q(t) with the place of a monic irreducible pi(t). The
engine computes inside the global rings Z and F_q[t]: both are closed
under everything it needs (division by monic polynomials, resultants,
reduction, canonical lifts), so no fractions ever appear and every value
is exact.

Ring elements are Python ints for Z and trimmed tuples of F_q elements
for F_q[t]. A polynomial in x over a ring is a trimmed tuple of ring
elements, constant term first; the zero polynomial is the empty tuple
and its degree is the MINUS_INF sentinel. Their arithmetic is ``ffpoly``'s,
with the ring passed as the coefficient domain. Valuations of zero are
the INF sentinel.
"""

import math

from . import ffpoly
from .errors import InputError
from .fields import PrimeField, extension_field, is_prime, quotient_field
from .ffpoly import MINUS_INF

INF = math.inf


class IntegerRing:
    """Z carrying the p-adic valuation data."""

    kind = "Q"

    def __init__(self, p):
        if not is_prime(p):
            raise InputError(f"prime expected, got {p}")
        self.p = p
        self.zero = 0
        self.one = 1
        self.prime_element = p
        self.residue_field = PrimeField(p)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def is_zero(self, a):
        return a == 0

    def elem_pow(self, a, n):
        return a ** n

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

    def truncated(self, m):
        return IntegersModPrimePow(self.p ** m)

    def reduce(self, a):
        return a % self.p

    def lift(self, c):
        return c

    def from_int(self, n):
        return n


class FunctionRing:
    """F_q[t] carrying the pi-adic valuation data."""

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
        self.p = field.p
        self.pi = pi
        self.pi_degree = d
        self._pi_is_t = pi == (field.zero, field.one)
        self.zero = ()
        self.one = (field.one,)
        self.prime_element = pi
        if d == 1:
            self.residue_field = field
            self._pi_root = field.neg(pi[0])
        else:
            self.residue_field = quotient_field(field, pi)

    def add(self, a, b):
        return ffpoly.add(self.field, a, b)

    def sub(self, a, b):
        return ffpoly.sub(self.field, a, b)

    def neg(self, a):
        return ffpoly.neg(self.field, a)

    def mul(self, a, b):
        return ffpoly.mul(self.field, a, b)

    def is_zero(self, a):
        return not a

    def elem_pow(self, a, n):
        return ffpoly.pow_(self.field, a, n)

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

    def truncated(self, m):
        return TruncatedFunctionRing(self, m)

    def reduce(self, a):
        if self.pi_degree == 1:
            return ffpoly.evaluate(self.field, a, self._pi_root)
        return self.residue_field.wrap(ffpoly.rem(self.field, a, self.pi))

    def lift(self, c):
        if self.pi_degree == 1:
            return ffpoly.constant(self.field, c)
        return self.residue_field.unwrap(c)

    def from_int(self, n):
        return ffpoly.constant(self.field, self.field.from_int(n))


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

    def neg(self, a):
        return -a % self.modulus

    def mul(self, a, b):
        return a * b % self.modulus

    def mod(self, a):
        return a % self.modulus


class TruncatedFunctionRing:
    """F_q[t]/pi^m on the representatives of t-degree below m * deg pi.

    A product keeps only its terms below t^m at pi = t, and is reduced by
    pi^m, computed once here, at any other pi. Sums need no reduction.
    """

    def __init__(self, ring, m):
        self.field = ring.field
        self.zero = ()
        self.one = ring.one
        self.add, self.sub, self.neg = ring.add, ring.sub, ring.neg
        self.length = m
        self.modulus = None if ring._pi_is_t else ffpoly.pow_(ring.field, ring.pi, m)

    def mul(self, a, b):
        field = self.field
        if self.modulus is not None:
            return ffpoly.rem(field, ffpoly.mul(field, a, b), self.modulus)
        n = min(len(a) + len(b) - 1, self.length)
        out = [field.zero] * n
        for i, ca in enumerate(a[:n]):
            if ca != field.zero:
                for j, cb in enumerate(b[: n - i]):
                    out[i + j] = field.add(out[i + j], field.mul(ca, cb))
        return ffpoly.trim(field, out)

    def mod(self, a):
        if self.modulus is not None:
            return ffpoly.rem(self.field, a, self.modulus)
        return ffpoly.trim(self.field, a[: self.length])


class ValuedBase:
    """A ground field with one fixed discrete rank-one place.

    Either (Q, p) or (F_q(t), pi). The least positive value of the value
    group, sigma, is always 1 for these bases. The attached ``ring`` is
    the global ring of integers the engine computes in, and
    ``residue_field`` is the residue field of the place.
    """

    sigma = 1

    def __init__(self, ring):
        self.ring = ring
        self.kind = ring.kind
        self.residue_field = ring.residue_field
        self.prime_element = ring.prime_element
        if ring.kind == "Q":
            self.prime, self.char = ring.p, 0
        else:
            self.coefficient_field = field = ring.field
            self.p = self.char = field.p
            self.e = 1 if isinstance(field, PrimeField) else field.dim

    @classmethod
    def rational(cls, p):
        return cls(IntegerRing(p))

    @classmethod
    def function_field(cls, p, e, pi_coeffs):
        """F_{p^e}(t) at the place of the monic irreducible pi.

        ``pi_coeffs`` is a polynomial in t over F_{p^e}, given as a
        trimmed tuple of field elements.
        """
        return cls(FunctionRing(extension_field(p, e), pi_coeffs))

    def describe(self):
        if self.kind == "Q":
            return f"Q at p = {self.prime}"
        return f"F_{self.coefficient_field.q}(t) at pi = {element_to_text(self.ring.pi, self)}"


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
        cv = base.ring.valuation(c)
        if cv < v:
            v = cv
            if v == 0:
                break
    return v


def reduce_mod(P, base):
    """Coefficient-wise image of P in the residue field."""
    return ffpoly.trim(base.residue_field, [base.ring.reduce(c) for c in P])


def lift_residue_poly(Pbar, base):
    """Canonical coefficient-wise lift of a residue polynomial."""
    return ffpoly.trim(base.ring, [base.ring.lift(c) for c in Pbar])


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


def _fq_elem_text(field, c):
    """An F_q element as a polynomial in the generator u (plain int at e=1)."""
    if isinstance(field, PrimeField):
        return str(c)
    terms = []
    for i in range(field.dim - 1, -1, -1):
        a = c[i]
        if a == field.base.zero:
            continue
        if i == 0:
            terms.append(str(a))
        elif a == field.base.one:
            terms.append("u" if i == 1 else f"u^{i}")
        else:
            terms.append(f"{a}*u" if i == 1 else f"{a}*u^{i}")
    return " + ".join(terms) if terms else "0"


def _tpoly_text(ring, a):
    """An F_q[t] element in the t/u grammar the parser accepts back."""
    if not a:
        return "0"
    field = ring.field
    terms = []
    for i in range(len(a) - 1, -1, -1):
        c = a[i]
        if c == field.zero:
            continue
        ct = _fq_elem_text(field, c)
        if i == 0:
            terms.append(ct)
            continue
        tpow = "t" if i == 1 else f"t^{i}"
        if c == field.one:
            terms.append(tpow)
        elif "+" in ct:
            terms.append(f"({ct})*{tpow}")
        else:
            terms.append(f"{ct}*{tpow}")
    return " + ".join(terms)


def poly_to_text(P, base, var="x"):
    """Canonical, re-parseable text form of a polynomial over the base."""
    if not P:
        return "0"
    ring = base.ring
    pieces = []
    for i in range(len(P) - 1, -1, -1):
        c = P[i]
        if ring.is_zero(c):
            continue
        if base.kind == "Q":
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if i == 0:
                body = str(mag)
            elif mag == 1:
                body = var if i == 1 else f"{var}^{i}"
            else:
                body = f"{mag}*{var}" if i == 1 else f"{mag}*{var}^{i}"
        else:
            sign = "+"
            ct = _tpoly_text(ring, c)
            if i == 0:
                body = ct
            else:
                xpow = var if i == 1 else f"{var}^{i}"
                if c == ring.one:
                    body = xpow
                elif "+" in ct:
                    body = f"({ct})*{xpow}"
                else:
                    body = f"{ct}*{xpow}"
        pieces.append((sign, body))
    first_sign, first_body = pieces[0]
    out = first_body if first_sign == "+" else f"-{first_body}"
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


def element_to_text(a, base):
    """Canonical text of one ring element (prime elements, remainders)."""
    if base.kind == "Q":
        return str(a)
    return _tpoly_text(base.ring, a)
