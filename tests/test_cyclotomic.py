"""Ring laws and normal-form behavior of the cyclotomic integers."""

import random

import pytest

from qjordan import CycInt, cyc_matrix_rank

PRIMES = (2, 3, 5)


def random_element(rng, p, bound=30):
    return CycInt(p, tuple(rng.randint(-bound, bound) for _ in range(p - 1)))


def test_omega_squared_p3():
    w = CycInt.omega(3)
    assert (w * w).coeffs == (-1, -1)
    assert w * w == CycInt.monomial(3, 1, 2)


def test_sign_ring_p2():
    minus_one = CycInt.from_int(2, -1)
    assert minus_one * minus_one == CycInt.one(2)
    assert CycInt.omega(2, 1) == minus_one


def test_inverse_pair_p3():
    w = CycInt.omega(3)
    one_plus_w = CycInt.one(3) + w
    assert one_plus_w * (-w) == CycInt.one(3)
    assert (one_plus_w * (-w)).coeffs == (1, 0)


def test_ring_laws_randomized():
    rng = random.Random(20260810)
    for p in PRIMES:
        for _ in range(150):
            a = random_element(rng, p)
            b = random_element(rng, p)
            c = random_element(rng, p)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
            assert a - a == CycInt.zero(p)
            assert a * CycInt.one(p) == a
            assert a * CycInt.zero(p) == CycInt.zero(p)


def test_conjugation():
    for p in PRIMES:
        five = CycInt.from_int(p, 5)
        assert five.conj() == five
    w = CycInt.omega(3)
    assert w.conj().coeffs == (-1, -1)
    two_w_sq = CycInt(3, (-2, -2))  # 2 * w^2
    assert two_w_sq.conj().coeffs == (0, 2)

    rng = random.Random(7)
    for p in PRIMES:
        for _ in range(100):
            a = random_element(rng, p)
            b = random_element(rng, p)
            assert (a * b).conj() == a.conj() * b.conj()
            assert (a + b).conj() == a.conj() + b.conj()
            assert a.conj().conj() == a


def test_monomial_times_conjugate_is_square():
    for p in PRIMES:
        for m in range(-10, 11):
            for j in range(p):
                a = CycInt.monomial(p, m, j)
                assert (a * a.conj()).to_int() == m * m


def test_as_monomial():
    assert CycInt(3, (0, 3)).as_monomial() == (3, 1)
    assert CycInt(3, (-1, -1)).as_monomial() == (1, 2)
    assert CycInt(3, (1, 2)).as_monomial() is None
    assert CycInt.zero(5).as_monomial() == (0, 0)
    # p = 2: plain integers always register with j = 0
    assert CycInt.from_int(2, -7).as_monomial() == (-7, 0)
    for p in PRIMES:
        for m in range(-6, 7):
            for j in range(p):
                got = CycInt.monomial(p, m, j).as_monomial()
                assert got is not None
                back = CycInt.monomial(p, *got)
                assert back == CycInt.monomial(p, m, j)


def test_p2_roundtrips_through_int():
    for v in range(-20, 21):
        assert CycInt.from_int(2, v).to_int() == v


def test_to_int_rejects_irrational():
    with pytest.raises(ValueError):
        CycInt.omega(3).to_int()


def test_power_and_omega_order():
    for p in PRIMES:
        w = CycInt.omega(p)
        assert w**p == CycInt.one(p)
        total = CycInt.zero(p)
        for j in range(p):
            total = total + CycInt.omega(p, j)
        assert total.is_zero


def test_divexact_randomized():
    rng = random.Random(99)
    for p in PRIMES:
        for _ in range(120):
            a = random_element(rng, p, bound=12)
            b = random_element(rng, p, bound=12)
            if b.is_zero:
                continue
            assert (a * b).divexact(b) == a
    with pytest.raises(ValueError):
        CycInt.one(3).divexact(CycInt.from_int(3, 2))
    with pytest.raises(ZeroDivisionError):
        CycInt.one(3).divexact(CycInt.zero(3))


def test_mixed_prime_rejected():
    with pytest.raises(ValueError):
        CycInt.one(2) + CycInt.one(3)
    with pytest.raises(ValueError):
        CycInt.one(5) + CycInt.one(3)
    with pytest.raises(ValueError):
        CycInt(4, (1, 1, 1))


def test_json_roundtrip():
    rng = random.Random(5)
    for p in PRIMES:
        for _ in range(60):
            a = random_element(rng, p, bound=9)
            assert CycInt.from_json(p, a.to_json()) == a
    mono = CycInt.monomial(5, 4, 3)
    assert mono.to_json() == {"m": 4, "j": 3}
    messy = CycInt(3, (1, 2))
    assert messy.to_json() == {"coeffs": [1, 2]}


def test_int_coercion_in_arithmetic():
    w = CycInt.omega(3)
    assert 2 * w == CycInt.monomial(3, 2, 1)
    assert w + 1 == 1 + w == CycInt(3, (1, 1))
    with pytest.raises(TypeError):
        w + 1.5
    with pytest.raises(TypeError):
        1.5 + w
    assert 1 - w == CycInt(3, (1, -1))


def test_cyc_matrix_rank():
    one = CycInt.one(3)
    zero = CycInt.zero(3)
    w = CycInt.omega(3)
    assert cyc_matrix_rank([[one, zero], [zero, one]]) == 2
    assert cyc_matrix_rank([[one, w], [w * 2, w * w * 2]]) == 1  # row2 = 2w * row1
    assert cyc_matrix_rank([[zero, zero], [zero, zero]]) == 0
    assert cyc_matrix_rank([[one, w, zero], [w, one, one]]) == 2
    # random triangular-ish matrices have predictable rank
    rng = random.Random(3)
    for p in (2, 3):
        size = 5
        rows = []
        for i in range(size):
            row = [CycInt.zero(p)] * i + [CycInt.one(p)]
            row += [random_element(rng, p, bound=4) for _ in range(size - i - 1)]
            rows.append(row)
        assert cyc_matrix_rank(rows) == size
