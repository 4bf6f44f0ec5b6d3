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
"""

import random

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


def lc(a):
    """Leading coefficient of a nonzero polynomial."""
    return a[-1]


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


def make_monic(field, a):
    """Return (leading coefficient, monic associate)."""
    if not a:
        return field.zero, ()
    l = a[-1]
    if l == field.one:
        return l, a
    return l, scale(field, a, field.inv(l))


def gcd(field, a, b):
    while b:
        a, b = b, rem(field, a, b)
    return make_monic(field, a)[1]


def egcd(field, a, b):
    """Extended gcd: monic g and s, t with s*a + t*b = g.

    The cofactors carry the usual minimal degree bounds, so they can be
    used directly as Bezout data for lifting.
    """
    r0, s0, t0 = a, (field.one,), ()
    r1, s1, t1 = b, (), (field.one,)
    while r1:
        q, r = divmod_(field, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, sub(field, s0, mul(field, q, s1))
        t0, t1 = t1, sub(field, t0, mul(field, q, t1))
    if not r0:
        return (), (), ()
    l = r0[-1]
    if l == field.one:
        return r0, s0, t0
    li = field.inv(l)
    return scale(field, r0, li), scale(field, s0, li), scale(field, t0, li)


def pow_mod(field, a, n, m):
    out = rem(field, (field.one,), m)
    a = rem(field, a, m)
    while n:
        if n & 1:
            out = rem(field, mul(field, out, a), m)
        n >>= 1
        if n:
            a = rem(field, mul(field, a, a), m)
    return out


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
    multiplicities scaled by p.
    """
    out = []
    c = gcd(field, f, derivative(field, f))
    w = quo(field, f, c)
    i = 1
    while deg(w) > 0:
        y = gcd(field, w, c)
        part = quo(field, w, y)
        if deg(part) > 0:
            out.append((part, i))
        w, c = y, quo(field, c, y)
        i += 1
    if deg(c) > 0:
        for part, m in squarefree_decomposition(field, pth_root(field, c)):
            out.append((part, m * field.p))
    return tuple(out)


def distinct_degree_split(field, f):
    """Partition squarefree monic f into products of equal-degree factors."""
    out = []
    x = x_poly(field)
    h = rem(field, x, f)
    d = 0
    while 2 * (d + 1) <= deg(f):
        d += 1
        h = pow_mod(field, h, field.q, f)
        g = gcd(field, f, sub(field, h, x))
        if deg(g) > 0:
            out.append((g, d))
            f = quo(field, f, g)
            h = rem(field, h, f)
    if deg(f) > 0:
        out.append((f, deg(f)))
    return tuple(out)


def _random_nonconstant(field, rng, max_deg):
    while True:
        r = trim(field, [field.element(rng.randrange(field.q)) for _ in range(max_deg + 1)])
        if len(r) > 1:
            return r


def equal_degree_split(field, f, d, rng):
    """Split squarefree monic f whose irreducible factors all have degree d.

    Odd characteristic uses the classical (q^d - 1)/2 power map; in
    characteristic 2 the additive trace r + r^2 + ... + r^(2^(md-1))
    projects the factor algebra onto F_2 and its gcd with f splits.
    """
    n = deg(f)
    if n == d:
        return [f]
    q = field.q
    while True:
        r = _random_nonconstant(field, rng, n - 1)
        g = gcd(field, f, r)
        if 0 < deg(g) < n:
            break
        if field.p == 2:
            m = q.bit_length() - 1
            acc = h = rem(field, r, f)
            for _ in range(m * d - 1):
                h = rem(field, mul(field, h, h), f)
                acc = add(field, acc, h)
            g = gcd(field, f, acc)
        else:
            h = pow_mod(field, r, (q ** d - 1) // 2, f)
            g = gcd(field, f, sub(field, h, (field.one,)))
        if 0 < deg(g) < n:
            break
    return equal_degree_split(field, g, d, rng) + equal_degree_split(
        field, quo(field, f, g), d, rng)


def sort_key(field, a):
    """Canonical total order: degree, then coefficients from the top down."""
    return (len(a), tuple(field.index(c) for c in reversed(a)))


def factor_monic(field, f, seed=0):
    """Factor monic f (degree >= 1) into monic irreducibles.

    The equal-degree stage draws from a generator seeded with ``seed``,
    but the returned tuple of (factor, multiplicity) pairs is sorted
    canonically, so the output does not depend on the seed.
    """
    rng = random.Random(seed)
    out = []
    for part, m in squarefree_decomposition(field, f):
        for prod, d in distinct_degree_split(field, part):
            for irr in equal_degree_split(field, prod, d, rng):
                out.append((irr, m))
    out.sort(key=lambda fm: sort_key(field, fm[0]))
    return tuple(out)


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
    x = x_poly(field)
    checkpoints = {n // r for r in _prime_divisors(n)}
    h = rem(field, x, f)
    for i in range(1, n + 1):
        h = pow_mod(field, h, field.q, f)
        if i in checkpoints and deg(gcd(field, f, sub(field, h, x))) != 0:
            return False
    return h == x
