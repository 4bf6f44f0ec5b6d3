"""Finite fields: F_p and quotient extensions F[u]/(m).

Elements are immutable plain values. An element of F_p is an int in
[0, p); an element of a quotient extension is a tuple of base-field
elements of fixed length deg(m), lowest power first. Field objects are
stateless after construction and safe to share between threads: a
quotient field with at most TABLE_MAX_Q elements builds its log, antilog
and Zech tables once, in ``__init__``, and never changes them after.

Every field exposes the same small method surface (add, sub, neg, mul,
inv, pow, pth_root, index, element, from_int), so the polynomial code in
ffpoly never needs to know which concrete field it is working over. Its
``op_cost`` is the time of one operation in F_p operations, which the
expression parser uses to price its work.
"""

import math

from . import ffpoly
from .errors import InputError

TABLE_MAX_Q = 1 << 10  # F_1024 builds its tables in about 20 ms
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# the least odd composite that is a strong probable prime to all of _MR_BASES
_MR_EXACT_BELOW = 318665857834031151167461


def is_prime(n):
    """Miller-Rabin on the first 12 primes, exact below _MR_EXACT_BELOW.

    From that bound on, a strong Lucas test is required as well; with
    base 2 among the Miller-Rabin bases this is the Baillie-PSW test,
    which has no known counterexample.
    """
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _MR_EXACT_BELOW or _strong_lucas(n)


def _jacobi(a, n):
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas(n):
    """Strong Lucas probable-prime test for odd n > 3, Selfridge's parameters.

    D is the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1 and
    Q = (1 - D)/4. With n + 1 = d * 2^s, d odd, n passes when U_d = 0
    or V_(d 2^r) = 0 mod n for some 0 <= r < s.
    """
    if math.isqrt(n) ** 2 == n:
        return False  # no D with (D/n) = -1 exists
    D = 5
    while (j := _jacobi(D, n)) == 1:
        D = -D - 2 if D > 0 else -D + 2
    if j == 0:
        return abs(D) == n
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def half(x):
        return (x + n if x % 2 else x) // 2 % n

    U, V, Qk = 1, 1, Q  # U_1, V_1 and Q^1 for P = 1
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = half(U + V), half(D * U + V), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


class PrimeField:
    """The integers modulo a prime p; elements are ints in [0, p)."""

    op_cost = 1

    def __init__(self, p):
        if not is_prime(p):
            raise InputError(f"{p} is not prime")
        self.p = p
        self.q = p
        self.zero = 0
        self.one = 1 % p

    def __repr__(self):
        return f"GF({self.p})"

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def pow(self, a, n):
        return pow(a, n, self.p)

    def pth_root(self, a):
        return a

    def index(self, a):
        return a

    def element(self, i):
        return i % self.p

    def from_int(self, n):
        return n % self.p


class QuotientField:
    """A quotient F[u]/(m) of a polynomial ring over a finite field.

    The modulus must be monic irreducible of degree >= 2 over the base.
    Used both for F_{p^e} over F_p and for the residue fields of
    higher-degree places of F_q(t); the two uses nest cleanly.
    """

    def __init__(self, base, modulus):
        d = ffpoly.deg(modulus)
        if d is ffpoly.MINUS_INF or d < 2:
            raise ValueError("modulus must have degree >= 2")
        if not ffpoly.is_monic(base, modulus):
            raise ValueError("modulus must be monic")
        if not ffpoly.is_irreducible(base, modulus):
            raise ValueError("modulus must be irreducible")
        self.base = base
        self.modulus = modulus
        self.dim = d
        self.p = base.p
        self.q = base.q ** d
        # a product and a reduction of about d^2 base operations, and the calls
        # around them (timed from F_37^2 to F_2^16 against F_101)
        self.op_cost = base.op_cost * (d * d + 24)
        self.zero = (base.zero,) * d
        self.one = (base.one,) + (base.zero,) * (d - 1)

    def __repr__(self):
        return f"GF({self.q})"

    def wrap(self, poly):
        """Pad a trimmed polynomial over the base up to fixed length."""
        return tuple(poly) + (self.base.zero,) * (self.dim - len(poly))

    def unwrap(self, a):
        return ffpoly.trim(self.base, a)

    def add(self, a, b):
        return tuple(self.base.add(x, y) for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(self.base.sub(x, y) for x, y in zip(a, b))

    def neg(self, a):
        return tuple(self.base.neg(x) for x in a)

    def mul(self, a, b):
        prod = ffpoly.mul(self.base, self.unwrap(a), self.unwrap(b))
        return self.wrap(ffpoly.rem(self.base, prod, self.modulus))

    def inv(self, a):
        pa = self.unwrap(a)
        if not pa:
            raise ZeroDivisionError("inverse of zero")
        _, s, _ = ffpoly.egcd(self.base, pa, self.modulus)
        return self.wrap(s)

    def pow(self, a, n):
        return self.wrap(ffpoly.pow_mod(self.base, self.unwrap(a), n, self.modulus))

    def pth_root(self, a):
        return self.pow(a, self.q // self.p)

    def index(self, a):
        v = 0
        for c in reversed(a):
            v = v * self.base.q + self.base.index(c)
        return v

    def element(self, i):
        out = []
        for _ in range(self.dim):
            out.append(self.base.element(i % self.base.q))
            i //= self.base.q
        return tuple(out)

    def from_int(self, n):
        return self.wrap(ffpoly.constant(self.base, self.base.from_int(n)))


class TableField(QuotientField):
    """A QuotientField whose products and sums are table lookups.

    With g a generator of the multiplicative group and n = q - 1, ``_exp``
    lists g^0 .. g^(n-1) twice over, so a sum of two logs indexes it
    without reduction; ``_log`` maps every element to its log, and zero
    to None. The Zech table holds Z(k) = log(1 + g^k), or None where
    1 + g^k = 0, so that g^a + g^b = g^(a + Z(b - a)).
    """

    def __init__(self, base, modulus):
        super().__init__(base, modulus)
        self.op_cost = 1
        n = self.q - 1
        primes = ffpoly._prime_divisors(n)
        g = next(
            a for a in map(self.element, range(2, self.q))
            if all(QuotientField.pow(self, a, n // r) != self.one for r in primes)
        )
        exp = [self.one]
        for _ in range(n - 1):
            exp.append(QuotientField.mul(self, exp[-1], g))
        self._log = {a: k for k, a in enumerate(exp)}
        self._log[self.zero] = None
        self._exp = exp + exp
        self._zech = [self._log[QuotientField.add(self, self.one, a)] for a in exp]
        self._n = n
        self._neg_one = 0 if self.p == 2 else n // 2  # log(-1)

    def add(self, a, b):
        la, lb = self._log[a], self._log[b]
        if la is None or lb is None:
            return b if la is None else a
        z = self._zech[lb - la]  # a negative difference wraps round the table
        return self.zero if z is None else self._exp[la + z]

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def neg(self, a):
        la = self._log[a]
        return self.zero if la is None else self._exp[la + self._neg_one]

    def mul(self, a, b):
        la, lb = self._log[a], self._log[b]
        if la is None or lb is None:
            return self.zero
        return self._exp[la + lb]

    def inv(self, a):
        la = self._log[a]
        if la is None:
            raise ZeroDivisionError("inverse of zero")
        return self._exp[self._n - la]

    def pow(self, a, n):
        la = self._log[a]
        if la is None:
            return self.one if n == 0 else self.zero
        return self._exp[la * n % self._n]


def quotient_field(base, modulus):
    """F[u]/(m), on lookup tables when it has at most TABLE_MAX_Q elements."""
    small = base.q ** (len(modulus) - 1) <= TABLE_MAX_Q
    return (TableField if small else QuotientField)(base, modulus)


def irreducibles(field, d):
    """The monic irreducibles of degree d over the field, in canonical order.

    Candidates are ordered by the integer value of their non-leading
    coefficient vector in base q, constant term least significant.
    Deterministic, table-free.
    """
    for idx in range(field.q ** d):
        coeffs, i = [], idx
        for _ in range(d):
            coeffs.append(field.element(i % field.q))
            i //= field.q
        poly = tuple(coeffs) + (field.one,)
        if ffpoly.is_irreducible(field, poly):
            yield poly


def extension_field(p, e):
    """F_{p^e}, built on the first of ``irreducibles`` when e > 1."""
    if e < 1:
        raise InputError("extension degree must be >= 1")
    base = PrimeField(p)
    if e == 1:
        return base
    return quotient_field(base, next(irreducibles(base, e)))
