"""Ring laws and normal-form behavior of the cyclotomic integers."""

import random
from fractions import Fraction

import numpy as np
import pytest

from qjordan import CycInt

from cycrank import cyc_matrix_rank, divexact, galois

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
    for p in PRIMES + (7,):
        for _ in range(100):
            a = random_element(rng, p)
            b = random_element(rng, p)
            assert a.conj() == galois(a, p - 1)  # the reference Galois action
            assert (a * b).conj() == a.conj() * b.conj()
            assert (a + b).conj() == a.conj() + b.conj()
            assert a.conj().conj() == a
        for j in range(p):
            assert CycInt.omega(p, j).conj() == CycInt.omega(p, -j)


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
            assert divexact(a * b, b) == a
    with pytest.raises(ValueError):
        divexact(CycInt.one(3), CycInt.from_int(3, 2))
    with pytest.raises(ZeroDivisionError):
        divexact(CycInt.one(3), CycInt.zero(3))


def test_mixed_prime_rejected():
    with pytest.raises(ValueError):
        CycInt.one(2) + CycInt.one(3)
    with pytest.raises(ValueError):
        CycInt.one(5) + CycInt.one(3)
    with pytest.raises(ValueError):
        CycInt.omega(3) * CycInt.one(5)
    with pytest.raises(ValueError):
        CycInt.one(2) * CycInt.omega(3)
    with pytest.raises(ValueError):
        CycInt(4, (1, 1, 1))


def test_constructor_refuses_non_integers():
    # int() would truncate the float and parse the string
    for bad in (1.7, "2", Fraction(1, 2)):
        with pytest.raises(TypeError):
            CycInt(3, (bad, 0))
    with pytest.raises(TypeError):
        CycInt.monomial(3, 1.5, 0)
    x = CycInt(3, (np.int64(1), np.int8(-2)))
    assert x == CycInt(3, (1, -2)) and all(type(a) is int for a in x.coeffs)


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


def reference_to_json(a):
    """The serialization read off ``as_monomial``: the format's definition."""
    p = a.p
    nz = [j for j, c in enumerate(a.coeffs) if c]
    if not nz:
        return {"m": 0, "j": 0}
    if len(nz) == 1:
        return {"m": a.coeffs[nz[0]], "j": nz[0]}
    if len(nz) == p - 1 and len(set(a.coeffs)) == 1:
        return {"m": -a.coeffs[0], "j": p - 1}
    return {"coeffs": list(a.coeffs)}


def test_to_json_forms():
    cases = {
        CycInt.zero(5): {"m": 0, "j": 0},
        CycInt.zero(2): {"m": 0, "j": 0},
        CycInt.from_int(2, -7): {"m": -7, "j": 0},
        CycInt.monomial(2, 3, 1): {"m": -3, "j": 0},
        CycInt(5, (0, 0, -4, 0)): {"m": -4, "j": 2},
        CycInt(7, (0, 0, 0, 0, 0, 9)): {"m": 9, "j": 5},
        CycInt.monomial(5, 6, 4): {"m": 6, "j": 4},  # (-6, -6, -6, -6)
        CycInt(3, (2, 2)): {"m": -2, "j": 2},
        CycInt(3, (1, -1)): {"coeffs": [1, -1]},
        CycInt(5, (2, 2, 2, 0)): {"coeffs": [2, 2, 2, 0]},
        CycInt(5, (1, 0, 1, 0)): {"coeffs": [1, 0, 1, 0]},
    }
    for a, expect in cases.items():
        assert a.to_json() == reference_to_json(a) == expect, a
    rng = random.Random(11)
    for p in PRIMES + (7,):
        for _ in range(200):
            a = CycInt(p, tuple(rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(p - 1)))
            assert a.to_json() == reference_to_json(a)
            assert type(a.to_json().get("m", 0)) is int


def test_from_root_counts_folds_the_top_slot_to_exact_ints():
    assert CycInt.from_root_counts(5, [3, 1, 4, 1, 5]) == CycInt(5, (-2, -4, -1, -4))
    assert CycInt.from_root_counts(2, (7, 2)) == CycInt.from_int(2, 5)
    # numpy counts still give Python ints, so the arithmetic stays exact
    got = CycInt.from_root_counts(3, np.array([1, 2, 3], dtype=np.int64))
    assert got.coeffs == (-2, -1) and all(type(a) is int for a in got.coeffs)
    with pytest.raises(ValueError):
        CycInt.from_root_counts(3, (1, 2))
    with pytest.raises(ValueError):
        CycInt.from_root_counts(4, (1, 2, 3, 4))


def test_results_are_immutable():
    w = CycInt.omega(5)
    results = [
        w + w, w - 1, -w, w * w, w * 3, w.conj(),
        CycInt.from_root_counts(5, (1, 0, 2, 0, 0)), CycInt.monomial(5, 2, 4),
    ]
    for r in results:
        for name in ("p", "coeffs"):
            with pytest.raises(AttributeError):
                setattr(r, name, getattr(r, name))
        with pytest.raises(AttributeError):
            r.other = 1
    assert w == CycInt(5, (0, 1, 0, 0))


def test_int_coercion_in_arithmetic():
    w = CycInt.omega(3)
    assert 2 * w == CycInt.monomial(3, 2, 1)
    assert w + 1 == 1 + w == CycInt(3, (1, 1))
    with pytest.raises(TypeError):
        w + 1.5
    with pytest.raises(TypeError):
        1.5 + w
    with pytest.raises(TypeError):
        w * 1.5
    with pytest.raises(TypeError):
        1.5 * w
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
