import random
from functools import partial

import pytest

from maxorder.errors import InputError
from maxorder.fields import (
    TABLE_MAX_Q,
    PrimeField,
    QuotientField,
    TableField,
    _strong_lucas,
    extension_field,
    irreducibles,
    is_prime,
)
from maxorder.rings import FunctionRing


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(2, 50):
        assert is_prime(n) == (n in primes)
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(-7)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)


def test_is_prime_beyond_the_miller_rabin_bound():
    # strong pseudoprimes to every one of the first 12 prime bases
    assert not is_prime(318665857834031151167461)  # 399165290221 * 798330580441
    assert not is_prime(3317044064679887385961981)  # 1287836182261 * 2575672364521
    assert not is_prime(3215031751)  # 151 * 751 * 28351, a base 2, 3, 5, 7 pseudoprime
    for p in (1287836182261, 2575672364521, 399165290221, 798330580441):
        assert is_prime(p)
    assert is_prime(2**89 - 1)
    assert is_prime(2**127 - 1)
    assert not is_prime((2**89 - 1) * (2**61 - 1))
    assert not is_prime((2**61 - 1) ** 2)


def test_strong_lucas_pseudoprimes_below_30000():
    def trial(n):
        return all(n % d for d in range(2, int(n**0.5) + 1))

    passed = [n for n in range(5, 30_000, 2) if not trial(n) and _strong_lucas(n)]
    # the strong Lucas pseudoprimes for Selfridge's parameters (OEIS A217255)
    assert passed == [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199]
    assert all(_strong_lucas(n) for n in range(5, 30_000, 2) if trial(n))


def test_prime_field_ops():
    F = PrimeField(7)
    assert F.add(3, 5) == 1
    assert F.sub(2, 5) == 4
    assert F.mul(3, 5) == 1
    assert F.neg(3) == 4
    assert F.inv(3) == 5
    assert F.pow(3, 6) == 1
    assert F.pth_root(4) == 4
    rng = random.Random(0)
    for _ in range(200):
        a = rng.randrange(1, 7)
        assert F.mul(a, F.inv(a)) == 1


def test_prime_field_rejects_composite():
    with pytest.raises(InputError):
        PrimeField(6)


def test_extension_field_moduli():
    # smallest moduli in the integer-value order, constant term least
    # significant: F_4 from u^2+u+1, F_8 from u^3+u+1, F_9 from u^2+1
    F4 = extension_field(2, 2)
    assert F4.modulus == (1, 1, 1)
    F8 = extension_field(2, 3)
    assert F8.modulus == (1, 1, 0, 1)
    F9 = extension_field(3, 2)
    assert F9.modulus == (1, 0, 1)


def test_quotient_field_axioms():
    for p, e in ((2, 2), (2, 3), (3, 2)):
        F = extension_field(p, e)
        q = p**e
        assert F.q == q
        elems = [F.element(i) for i in range(q)]
        assert len(set(elems)) == q
        for i, a in enumerate(elems):
            assert F.index(a) == i
        rng = random.Random(1)
        for _ in range(300):
            a = elems[rng.randrange(q)]
            b = elems[rng.randrange(q)]
            c = elems[rng.randrange(q)]
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        for a in elems:
            if a != F.zero:
                assert F.mul(a, F.inv(a)) == F.one
            # Frobenius inverse: pth_root(a)^p == a
            r = F.pth_root(a)
            assert F.pow(r, p) == a


def test_quotient_field_pow_matches_repeated_mul():
    F = extension_field(3, 2)
    a = F.element(5)
    acc = F.one
    for n in range(12):
        assert F.pow(a, n) == acc
        acc = F.mul(acc, a)


def test_from_int_embeds_prime_field():
    F = extension_field(2, 3)
    assert F.from_int(0) == F.zero
    assert F.from_int(1) == F.one
    assert F.from_int(2) == F.zero
    F9 = extension_field(3, 2)
    assert F9.add(F9.from_int(2), F9.from_int(2)) == F9.from_int(4)


def test_smallest_irreducible_is_irreducible():
    from maxorder import ffpoly

    for p, d in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)):
        F = PrimeField(p)
        m = next(irreducibles(F, d))
        assert ffpoly.is_monic(F, m)
        assert ffpoly.deg(m) == d
        assert ffpoly.is_irreducible(F, m)


def test_irreducibles_lists_each_once_in_order():
    from maxorder import ffpoly

    # the number of monic irreducibles of degree d over F_q, by Gauss's formula
    for p, d, count in ((2, 1, 2), (2, 2, 1), (2, 3, 2), (2, 4, 3), (3, 2, 3), (5, 3, 40), (2, 8, 30)):
        F = PrimeField(p)
        found = list(irreducibles(F, d))
        assert len(found) == count
        keys = [tuple(reversed(m)) for m in found]
        assert keys == sorted(keys) and len(set(keys)) == count
    assert list(irreducibles(PrimeField(2), 2)) == [(1, 1, 1)]


def test_extension_degree_validation():
    with pytest.raises(InputError):
        extension_field(2, 0)
    with pytest.raises(InputError):
        extension_field(4, 2)


def _residue_field_of_quadratic_place_over_f9():
    F9 = extension_field(3, 2)
    return FunctionRing(F9, next(irreducibles(F9, 2))).residue_field


@pytest.mark.parametrize(
    "make",
    [partial(extension_field, p, e) for p, e in
     ((2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (7, 2))]
    + [_residue_field_of_quadratic_place_over_f9],
    ids=["F4", "F8", "F9", "F16", "F25", "F27", "F49", "F81-over-F9"],
)
def test_table_arithmetic_matches_polynomial_arithmetic(make):
    # QuotientField's own methods, called on the table field, are the
    # polynomial-remainder reference
    F = make()
    assert isinstance(F, TableField)
    Q = QuotientField
    elems = [F.element(i) for i in range(F.q)]
    for a in elems:
        for b in elems:
            assert F.mul(a, b) == Q.mul(F, a, b)
            assert F.add(a, b) == Q.add(F, a, b)
            assert F.sub(a, b) == Q.sub(F, a, b)
        assert F.neg(a) == Q.neg(F, a)
        for n in (0, 1, F.q - 1, F.q, 10**6):
            assert F.pow(a, n) == Q.pow(F, a, n)
        r = F.pth_root(a)
        assert r == Q.pow(F, a, F.q // F.p)
        assert Q.pow(F, r, F.p) == a
        if a == F.zero:
            with pytest.raises(ZeroDivisionError):
                F.inv(a)
        else:
            assert F.inv(a) == Q.inv(F, a)


def test_large_quotient_field_builds_no_table():
    F = extension_field(2, 11)
    assert F.q == 2048 > TABLE_MAX_Q
    assert type(F) is QuotientField
    assert not hasattr(F, "_log")
    T = TableField(F.base, F.modulus)  # the same field on tables, built anyway
    rng = random.Random(0)
    for _ in range(500):
        a, b = F.element(rng.randrange(F.q)), F.element(rng.randrange(F.q))
        for op in ("mul", "add", "sub"):
            assert getattr(F, op)(a, b) == getattr(T, op)(a, b)
        assert F.pow(a, 12345) == T.pow(a, 12345)
        if a != F.zero:
            assert F.inv(a) == T.inv(a)
