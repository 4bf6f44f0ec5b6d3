"""Dense univariate polynomial arithmetic over a finite field or a ring.

A polynomial is a trimmed tuple of coefficients, constant term first.
The empty tuple is the zero polynomial; its degree is the MINUS_INF
sentinel (a genuine minus infinity, never -1, so degree comparisons and
sums behave). The coefficient domain is passed explicitly as the first
argument of every routine, which lets the same code serve F_p, F_q, the
residue fields of function-field places, and the rings Z and F_q[t] of
``rings``. A ring has no ``inv``, so ``divmod_`` over a ring needs a
monic divisor; gcds, factorization and everything else that divides by
a leading coefficient need a field.

The factorization stack for monic inputs follows the classical
Cantor-Zassenhaus layout: squarefree decomposition (characteristic
aware, descending through p-th roots when the derivative vanishes),
distinct-degree splitting, and seeded equal-degree splitting with the
additive-trace variant in characteristic 2. Irreducibility testing is
Rabin's criterion.

Each stage, Euclid and Rabin's test are written once, against a domain
of polynomial ops (``_Polys``), in one of two representations. Over
Z/p^m, and so over a prime field F_p (m = 1), a polynomial is one
Kronecker-packed int (``_Packed``): a product is one int product, a
division reads one top slot per quotient digit, and one
multiply-shift-mask pass reduces every slot mod p^m at once; the slots
are wide enough that none carries into the next for any p, as its
docstring shows. ``factor_monic``, ``is_irreducible``, ``gcd``, ``egcd``
and ``pow_mod`` over F_p pack their inputs once and unpack the results
once, and the stages pass packed ints between them. Over other fields
they run on the tuples (``_Tuples``), and so does everything else, over
fields and rings alike. The Hensel lift, the classical check and the
screen's Newton lift take the same ops over the quotients R/prime^m,
from ``rings``; over F_p[t]/t^m they are ``_PackedSeries``, in blocks
of ``_Packed``'s slots, reduced by the same pass.
"""

import random

from . import fields  # fields imports this module too, and uses it only at call time

MINUS_INF = float("-inf")


def trim(field, coeffs):
    """Drop leading zeros; returns an immutable polynomial."""
    n = len(coeffs)
    z = field.zero
    while n and coeffs[n - 1] == z:
        n -= 1
    return tuple(coeffs[:n])


def deg(a):
    return len(a) - 1 if a else MINUS_INF


def constant(field, c):
    return () if c == field.zero else (c,)


def x_poly(field):
    return (field.zero, field.one)


def is_monic(field, a):
    return bool(a) and a[-1] == field.one


def add(field, a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = field.add(out[i], c)
    return trim(field, out)


def neg(field, a):
    return tuple(field.neg(c) for c in a)


def sub(field, a, b):
    out = list(a) + [field.zero] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = field.sub(out[i], c)
    return trim(field, out)


def scale(field, a, c):
    if c == field.zero:
        return ()
    return trim(field, [field.mul(x, c) for x in a])


def mul(field, a, b):
    if not a or not b:
        return ()
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == field.zero:
            continue
        for j, cb in enumerate(b):
            out[i + j] = field.add(out[i + j], field.mul(ca, cb))
    return trim(field, out)


def pow_(field, a, n):
    out = (field.one,)
    while n:
        if n & 1:
            out = mul(field, out, a)
        n >>= 1
        if n:
            a = mul(field, a, a)
    return out


def divmod_(field, a, b):
    """Quotient and remainder of a by nonzero b, which is monic over a ring."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db = len(b) - 1
    if len(a) <= db:
        return (), a
    inv_lc = None if b[-1] == field.one else field.inv(b[-1])
    r = list(a)
    q = [field.zero] * (len(a) - db)
    for i in range(len(a) - db - 1, -1, -1):
        c = r[i + db]
        if c == field.zero:
            continue
        if inv_lc is not None:
            c = field.mul(c, inv_lc)
        q[i] = c
        for j in range(db):
            r[i + j] = field.sub(r[i + j], field.mul(c, b[j]))
        r[i + db] = field.zero
    return trim(field, q), trim(field, r[:db])


def rem(field, a, b):
    return divmod_(field, a, b)[1]


def quo(field, a, b):
    q, r = divmod_(field, a, b)
    if r:
        raise ArithmeticError("polynomial quotient is not exact")
    return q


def gcd(field, a, b):
    """The monic gcd; 1 without a division when a or b is a nonzero constant."""
    if len(a) == 1 or len(b) == 1:
        return (field.one,)
    P = _polys(field, max(len(a), len(b)))
    return P.unpack(P.gcd(P.pack(a), P.pack(b)))


def egcd(field, a, b):
    """Extended gcd: monic g and s, t with s*a + t*b = g.

    The cofactors carry the usual minimal degree bounds, so they can be
    used directly as Bezout data for lifting.
    """
    P = _polys(field, max(len(a), len(b)))
    return tuple(map(P.unpack, P.egcd(P.pack(a), P.pack(b))))


def pow_mod(field, a, n, m):
    """a^n mod m, by square-and-multiply.

    Over a prime field the polynomials stay packed for the whole
    exponentiation (``_pow_mod_prime``): a square or a product is one
    int product, and its division by m is lazy, leaving every slot
    unreduced until one pass reduces the remainder. ``_Packed`` bounds
    every slot below 2 length p^2 for polynomials of at most length
    coefficients, so no slot carries for any p. Other fields and rings
    run the loop on tuples.
    """
    if isinstance(field, fields.PrimeField):
        P = _Packed(field, max(len(a), len(m)))
        return P.unpack(_pow_mod_prime(P, P.pack(a), n, P.pack(m)))
    out = rem(field, (field.one,), m)
    a = rem(field, a, m)
    while n:
        if n & 1:
            out = rem(field, mul(field, out, a), m)
        n >>= 1
        if n:
            a = rem(field, mul(field, a, a), m)
    return out


def _pow_mod_prime(P, a, n, m):
    """``pow_mod`` on the packed ints of ``_Packed`` P, over the bits of n from the top."""
    out = base = P.rem(a if n else P.one, m)
    for bit in bin(n)[3:]:
        out = P.mulmod(out, out, m)
        if bit == "1":
            out = P.mulmod(out, base, m)
    return out


class _Polys:
    """The polynomial ops that Euclid and the factorization stages use.

    A subclass fixes the representation (``pack`` maps a tuple into it,
    ``unpack`` back) and the primitive ops; gcd, egcd and exact division
    are written here once, for both.
    """

    def quo(self, a, b):
        q, r = self.divmod(a, b)
        if r:
            raise ArithmeticError("polynomial quotient is not exact")
        return q

    def monic(self, a):
        if a and self.lc(a) != self.field.one:
            return self.scale(a, self.field.inv(self.lc(a)))
        return a

    def gcd(self, a, b):
        while b:
            a, b = b, self.rem(a, b)
        return self.monic(a)

    def egcd(self, a, b):
        r0, s0, t0 = a, self.one, self.zero
        r1, s1, t1 = b, self.zero, self.one
        while r1:
            q, r = self.divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, self.sub(s0, self.mul(q, s1))
            t0, t1 = t1, self.sub(t0, self.mul(q, t1))
        if not r0:
            return self.zero, self.zero, self.zero
        l = self.lc(r0)
        if l == self.field.one:
            return r0, s0, t0
        li = self.field.inv(l)
        return self.scale(r0, li), self.scale(s0, li), self.scale(t0, li)

    def random_nonconstant(self, rng, max_deg):
        field = self.field
        while True:
            r = trim(field, [field.element(rng.randrange(field.q)) for _ in range(max_deg + 1)])
            if len(r) > 1:
                return self.pack(r)


class _Tuples(_Polys):
    """``_Polys`` on the trimmed tuples of this module, over any field or ring."""

    def __init__(self, field):
        self.field = field
        self.zero, self.one, self.x = (), (field.one,), x_poly(field)

    def pack(self, a):
        return a

    unpack = pack
    deg = staticmethod(deg)

    def lc(self, a):
        return a[-1]

    def add(self, a, b):
        return add(self.field, a, b)

    def sub(self, a, b):
        return sub(self.field, a, b)

    def mul(self, a, b):
        return mul(self.field, a, b)

    def scale(self, a, c):
        return scale(self.field, a, c)

    def divmod(self, a, b):
        return divmod_(self.field, a, b)

    def rem(self, a, b):
        return divmod_(self.field, a, b)[1]

    def mulmod(self, a, b, m):
        return rem(self.field, mul(self.field, a, b), m)

    def pow_mod(self, a, n, m):
        return pow_mod(self.field, a, n, m)

    def derivative(self, a):
        return derivative(self.field, a)

    def pth_root(self, a):
        return pth_root(self.field, a)

    def order(self, pair):
        return sort_key(self.field, pair[0])


class _Packed(_Polys):
    """Polynomials of at most ``length`` coefficients over Z/p^m, each packed into one int.

    F_p is m = 1. Slot i, the s bits from bit i s on, holds the x^i
    coefficient. Between ops every slot holds its representative in
    [0, p^m), so the degree is bit_length // s and the leading
    coefficient is the top slot. Within an op a slot holds some value
    congruent to it, and that value stays below 2 length p^(2 m):

    - A slot of a product sums at most length products of two
      representatives, so it is below length p^(2 m).
    - A division by b of degree e <= length, whose leading coefficient
      is a unit, reads one top slot per quotient digit c < p^m and adds
      c times the packed p^m - b_j, each at most p^m, to the e slots
      below it; the slots it has read are dropped at the end. A slot
      lies below at most e top slots, so a dividend that is a product
      stays below 2 length p^(2 m).
    - A sum is below 2 p^m, and a difference a - b is taken as
      a + p^m ONES - b, below 2 p^m and positive in every slot.

    The widths follow the precision ``top`` >= m that a lift doubles m
    up to, with b = bits(2 length p^(2 top)), so every slot stays below
    2^b at each m, no slot ever carries into the next, and an int
    packed at a higher precision is packed here too. One pass then
    reduces every slot mod p^m (Granlund-Montgomery 1994): with
    s = 2 b + 1, k = b + bits(p^m) and M = ceil(2^k / p^m) <= 2^(b + 1),
    a slot v < 2^b has v M < 2^s, and floor(v M / 2^k) = floor(v / p^m)
    because v (M p^m - 2^k) / (p^m 2^k) < 2^(b - k) < 1 / p^m. The
    result is x - p^m ((x M >> k) & Q), with Q the s - k low bits of
    every slot. A product has at most 2 length - 1 slots, so ONES, a 1
    at the start of each of 2 length slots, is
    (2^(2 length s) - 1) / (2^s - 1). The layout is built per instance
    from these closed forms, for any p, m and length.

    ``_PackedSeries`` runs F_p[t]/t^m on the layout of F_p (m = 1) of
    length n S: the x^i coefficient of a polynomial of at most n
    coefficients is block i, the S = 2 top - 1 slots from slot i S on,
    slot j its t^j coefficient, and a mask keeps the first m slots of
    each block. Two blocks of t-degree below m multiply into t-degree
    2 m - 2 < S, as m <= top, so no block of a product reaches the next.
    A slot of a product sums at most n m products of two residues, so it
    is below n m p^2. A division by a monic h of degree e < n takes the
    top block as the quotient digit and adds the digit times the reduced
    negation of h's lower blocks, below m p^2 in every slot, to the e
    blocks under it; a block lies under at most e digits. So every slot
    stays below 2 n m p^2 <= 2 n S p^2, the bound above for length n S.
    """

    def __init__(self, field, length, m=1, top=1):
        p, length = field.p, max(length, 1)  # the gcd of two zeros has no coefficient
        self.field = field
        self.modulus = n = p ** m
        b = (2 * length * p ** (2 * max(m, top))).bit_length()
        self._width = s = 2 * b + 1
        self._shift = k = b + n.bit_length()
        self._magic = -(-(1 << k) // n)
        ones = ((1 << 2 * length * s) - 1) // ((1 << s) - 1)
        self._quotient_mask = ((1 << s - k) - 1) * ones
        self._p_ones = n * ones
        self.zero, self.one, self.x = 0, 1, 1 << s

    # Pairs (packed factor, multiplicity) sort as they are: ints compare by bit length, so
    # by degree, then slot by slot from the top, which is sort_key's order for F_p.
    order = None

    def _reduce(self, x):
        return x - self.modulus * (x * self._magic >> self._shift & self._quotient_mask)

    def pack(self, a):
        """A tuple over Z, or an int packed at a higher precision, reduced mod p^m."""
        if isinstance(a, int):
            return self._reduce(a)
        s, n, x = self._width, self.modulus, 0
        for c in reversed(a):
            x = x << s | c % n
        return x

    def unpack(self, a):
        s = self._width
        mask = (1 << s) - 1
        return tuple([a >> i & mask for i in range(0, a.bit_length(), s)])

    def deg(self, a):
        return a.bit_length() // self._width if a else MINUS_INF

    def lc(self, a):
        return a >> a.bit_length() // self._width * self._width

    def add(self, a, b):
        return self._reduce(a + b)

    def sub(self, a, b):
        return self._reduce(a + self._p_ones - b)

    def mul(self, a, b):
        return self._reduce(a * b)

    scale = mul

    def divmod(self, a, b):
        return self._divide(a, b, True)

    def rem(self, a, b):
        return self._divide(a, b, False)

    def _divide(self, a, b, quotient):
        """a mod nonzero b, after the quotient if asked; a may be an unreduced product.

        Each quotient digit is the top slot over lc(b). The slots read
        are never cleared: each read masks one slot, and the slots from
        deg b up are dropped at the end.
        """
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        s, n = self._width, self.modulus
        ds = b.bit_length() // s * s
        low = (1 << ds) - 1
        inv = pow(b >> ds, -1, n)
        negb = (self._p_ones & low) - (b & low)
        mask = (1 << s) - 1
        q = 0
        for j in range(a.bit_length() // s * s - ds, -1, -s):
            c = (a >> j + ds & mask) * inv % n
            if c:
                if quotient:
                    q |= c << j
                a += c * negb << j
        a &= low
        r = a - n * (a * self._magic >> self._shift & self._quotient_mask)  # ``_reduce`` inline: one call fewer per Euclid step
        return (q, r) if quotient else r

    def mulmod(self, a, b, m):
        return self._divide(a * b, m, False)

    def pow_mod(self, a, n, m):
        return _pow_mod_prime(self, a, n, m)

    def derivative(self, a):
        s, n = self._width, self.modulus
        out = 0
        for i in range(a.bit_length() // s, 0, -1):
            out = out << s | (a >> i * s & (1 << s) - 1) * i % n
        return out

    def pth_root(self, a):
        s, p = self._width, self.field.p
        out = 0
        for i in range(a.bit_length() // s, -1, -1):
            c = a >> i * s & (1 << s) - 1
            if i % p == 0:
                out = out << s | c
            elif c:
                raise ArithmeticError("polynomial is not a p-th power")
        return out


class _PackedSeries(_Packed):
    """Polynomials of at most ``length`` coefficients over F_p[t]/t^m, in blocks of ``_Packed``'s slots.

    It has the ops of the Hensel lift, ``pack``, ``unpack``, ``add``, ``sub``,
    ``mul`` and division by a monic polynomial; ``_Packed`` proves the layout.
    The ops that read a slot as an x-coefficient are None, so they fail at once.
    """

    deg = lc = scale = derivative = pth_root = pow_mod = None

    def __init__(self, field, length, m, top):
        S = 2 * top - 1
        super().__init__(field, length * S)
        self._m, self.x = m, None  # 1 << s is t here, not x
        self._block = block = S * self._width
        self._digit_mask = (1 << m * self._width) - 1
        self._keep = self._digit_mask * sum(1 << i * block for i in range(2 * length))

    def pack(self, a):
        """A tuple of polynomials over F_p, or an int packed at a higher precision."""
        if isinstance(a, int):
            return a & self._keep
        s, w, m, x = self._width, self._block, self._m, 0
        for c in reversed(a):
            y = 0
            for u in reversed(c[:m]):
                y = y << s | u
            x = x << w | y
        return x

    def unpack(self, a):
        s, mask, slot = self._width, self._digit_mask, (1 << self._width) - 1
        blocks = [a >> i & mask for i in range(0, a.bit_length(), self._block)]
        return tuple([tuple([c >> j & slot for j in range(0, c.bit_length(), s)]) for c in blocks])

    def mul(self, a, b):
        return self._reduce(a * b & self._keep)

    def _divide(self, a, h, quotient):
        """a mod monic h, after the quotient if asked: the top block is the next quotient digit."""
        if not h:
            raise ZeroDivisionError("polynomial division by zero")
        w, mask = self._block, self._digit_mask
        ds = h.bit_length() // w * w
        low = (1 << ds) - 1
        negh = self.sub(0, h & low)  # reduced: p past slot m, times a digit, would reach the next block
        q = 0
        for j in range(a.bit_length() // w * w - ds, -1, -w):
            c = self._reduce(a >> j + ds & mask)
            if c:
                if quotient:
                    q |= c << j
                a += c * negh << j
        r = self._reduce(a & low & self._keep)
        return (q, r) if quotient else r


def _polys(field, length):
    """The ops for polynomials of at most ``length`` coefficients over the field: packed over F_p."""
    return _Packed(field, length) if isinstance(field, fields.PrimeField) else _Tuples(field)


def _domain(field):
    """A stage's ops: the domain it was handed, or the tuples over a field."""
    return field if isinstance(field, _Polys) else _Tuples(field)


def derivative(field, a):
    return trim(field, [field.mul(field.from_int(i), a[i]) for i in range(1, len(a))])


def evaluate(field, a, x0):
    acc = field.zero
    for c in reversed(a):
        acc = field.add(field.mul(acc, x0), c)
    return acc


def pth_root(field, a):
    """Inverse Frobenius on a polynomial with vanishing derivative."""
    p = field.p
    out = []
    for i, c in enumerate(a):
        if i % p == 0:
            out.append(field.pth_root(c))
        elif c != field.zero:
            raise ArithmeticError("polynomial is not a p-th power")
    return trim(field, out)


def squarefree_decomposition(field, f):
    """Pairwise-coprime squarefree parts of monic f with multiplicities.

    When the derivative vanishes the input is a p-th power (the field is
    perfect), and its p-th root is processed recursively with all
    multiplicities scaled by p. ``field`` is a field, on tuples, or the
    domain ``factor_monic`` passes, like every stage's.
    """
    P = _domain(field)
    c = P.gcd(f, P.derivative(f))
    if c == P.one:
        return ((f, 1),)
    out = []
    w = P.quo(f, c)
    i = 1
    while P.deg(w) > 0:
        y = P.gcd(w, c)
        part = P.quo(w, y)
        if P.deg(part) > 0:
            out.append((part, i))
        w, c = y, P.quo(c, y)
        i += 1
    if P.deg(c) > 0:
        for part, m in squarefree_decomposition(P, P.pth_root(c)):
            out.append((part, m * P.field.p))
    return tuple(out)


def distinct_degree_split(field, f):
    """Partition squarefree monic f into products of equal-degree factors."""
    P = _domain(field)
    out = []
    x = P.x
    h = P.rem(x, f)
    d = 0
    while 2 * (d + 1) <= P.deg(f):
        d += 1
        h = P.pow_mod(h, P.field.q, f)
        g = P.gcd(f, P.sub(h, x))
        if P.deg(g) > 0:
            out.append((g, d))
            f = P.quo(f, g)
            h = P.rem(h, f)
    if P.deg(f) > 0:
        out.append((f, P.deg(f)))
    return tuple(out)


def equal_degree_split(field, f, d, rng):
    """Split squarefree monic f whose irreducible factors all have degree d.

    Odd characteristic uses the classical (q^d - 1)/2 power map; in
    characteristic 2 the additive trace r + r^2 + ... + r^(2^(md-1))
    projects the factor algebra onto F_2 and its gcd with f splits.
    """
    P = _domain(field)
    n = P.deg(f)
    if n == d:
        return [f]
    q = P.field.q
    while True:
        r = P.random_nonconstant(rng, n - 1)
        g = P.gcd(f, r)
        if 0 < P.deg(g) < n:
            break
        if P.field.p == 2:
            m = q.bit_length() - 1
            acc = h = P.rem(r, f)
            for _ in range(m * d - 1):
                h = P.mulmod(h, h, f)
                acc = P.add(acc, h)
            g = P.gcd(f, acc)
        else:
            h = P.pow_mod(r, (q ** d - 1) // 2, f)
            g = P.gcd(f, P.sub(h, P.one))
        if 0 < P.deg(g) < n:
            break
    return equal_degree_split(P, g, d, rng) + equal_degree_split(P, P.quo(f, g), d, rng)


def sort_key(field, a):
    """Canonical total order: degree, then coefficients from the top down."""
    return (len(a), tuple(field.index(c) for c in reversed(a)))


def factor_monic(field, f, seed=0):
    """Factor monic f (degree >= 1) into monic irreducibles.

    Over a prime field f is packed once, every stage runs on packed
    ints, and the factors are unpacked once at the end. The equal-degree
    stage draws from a generator seeded with ``seed``, but the returned
    tuple of (factor, multiplicity) pairs is sorted canonically, so the
    output does not depend on the seed.
    """
    P = _polys(field, len(f))
    rng = None
    out = []
    for part, m in squarefree_decomposition(P, P.pack(f)):
        for prod, d in distinct_degree_split(P, part):
            if P.deg(prod) == d:  # one irreducible factor
                out.append((prod, m))
                continue
            rng = rng or random.Random(seed)  # built for the first class that must split
            for irr in equal_degree_split(P, prod, d, rng):
                out.append((irr, m))
    out.sort(key=P.order)
    return tuple((P.unpack(g), m) for g, m in out)


def _prime_divisors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_irreducible(field, f):
    """Rabin's irreducibility test for monic f."""
    n = deg(f)
    if n is MINUS_INF or n < 1:
        return False
    if n == 1:
        return True
    P = _polys(field, n + 1)
    f = P.pack(f)
    checkpoints = {n // r for r in _prime_divisors(n)}
    h = P.rem(P.x, f)
    for i in range(1, n + 1):
        h = P.pow_mod(h, P.field.q, f)
        if i in checkpoints and P.deg(P.gcd(f, P.sub(h, P.x))) != 0:
            return False
    return h == P.x
