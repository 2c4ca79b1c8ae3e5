"""q-integers, Gaussian binomials and Galois numbers against brute force."""

from functools import cache
from itertools import product

import pytest

from qjordan import Check, galois_number, is_prime, q_binomial, q_int, verify_identities
from qjordan import qcombinatorics
from qjordan.lattice import enumerate_rank

from fq import span_set
from modp import trial_division_is_prime


def all_vectors(n, q):
    return list(product(range(q), repeat=n))


def count_subspaces_bruteforce(n, k, q):
    """Number of k-dim subspaces of F_q^n by collecting distinct span sets."""
    vecs = [v for v in all_vectors(n, q) if any(v)]
    seen = set()
    if k == 0:
        return 1

    def rec(chosen, start):
        if len(chosen) == k:
            s = span_set(chosen, q, n)
            if len(s) == q**k:
                seen.add(s)
            return
        for i in range(start, len(vecs)):
            rec(chosen + [vecs[i]], i + 1)

    rec([], 0)
    return len(seen)


def test_q_int_values():
    assert q_int(0, 2) == 0
    assert q_int(3, 2) == 1 + 2 + 4
    assert q_int(2, 3) == 1 + 3
    assert q_int(5, 5) == sum(5**j for j in range(5))


def test_q_int_rejects_negative():
    with pytest.raises(ValueError):
        q_int(-1, 2)
    with pytest.raises(ValueError):
        q_int(2, 1)


def test_q_binomial_edge_conventions():
    for n in range(6):
        assert q_binomial(n, 0, 2) == 1
    assert q_binomial(3, -1, 2) == 0
    assert q_binomial(-1, 0, 2) == 0
    assert q_binomial(2, 5, 3) == 0


def test_q_binomial_against_bruteforce():
    assert q_binomial(4, 2, 2) == count_subspaces_bruteforce(4, 2, 2) == 35
    for q in (2, 3):
        for n in range(5 if q == 2 else 4):
            for k in range(n + 1):
                assert q_binomial(n, k, q) == count_subspaces_bruteforce(n, k, q)


def test_q_binomial_matches_enumeration():
    for q in (2, 3):
        for n in range(5):
            for k in range(n + 1):
                assert q_binomial(n, k, q) == len(enumerate_rank(n, k, q))


def test_q_pascal_recurrence():
    for q in (2, 3, 5):
        for n in range(1, 13):
            for k in range(1, n + 1):
                assert q_binomial(n, k - 1, q) == q_binomial(n - 1, k - 2, q) + q ** (
                    k - 1
                ) * q_binomial(n - 1, k - 1, q)


def test_galois_numbers():
    for q in (2, 3, 5):
        assert galois_number(0, q) == 1
        assert galois_number(1, q) == 2
    assert galois_number(2, 2) == count_subspaces_total_bruteforce(2, 2) == 5
    for n in range(5):
        assert galois_number(n, 2) == count_subspaces_total_bruteforce(n, 2)
    assert galois_number(5, 2) == 374


def count_subspaces_total_bruteforce(n, q):
    return sum(count_subspaces_bruteforce(n, k, q) for k in range(n + 1))


def test_goldman_rota_recurrence():
    for q in (2, 3, 5):
        for n in range(1, 13):
            assert galois_number(n + 1, q) == 2 * galois_number(n, q) + (
                q**n - 1
            ) * galois_number(n - 1, q)


def test_verify_identities_reports():
    for n_max, q in [(5, 2), (1, 3), (4, 3)]:
        report = verify_identities(n_max, q)
        assert report.ok, report.summary()
    with pytest.raises(ValueError):
        verify_identities(0, 2)


def test_check_passes_exactly_when_it_names_no_fault():
    assert Check("x").passed and Check("x").to_json() == {"name": "x", "passed": True}
    fault = Check("x", "fault")
    assert not fault.passed
    assert fault.to_json() == {"name": "x", "passed": False, "detail": "fault"}
    with pytest.raises(TypeError):
        Check("x", False)


def test_q_pascal_check_is_not_the_recurrence_q_binomial_runs(monkeypatch):
    # q_binomial's own recurrence from a wrong corner, [n, n]_q = 2: every
    # instance of that recurrence still holds, so only the dual rule fails
    @cache
    def wrong(n, k, q):
        if n < 0 or k < 0 or k > n:
            return 0
        if k == 0:
            return 1
        if k == n:
            return 2
        return wrong(n - 1, k - 1, q) + q**k * wrong(n - 1, k, q)

    monkeypatch.setattr(qcombinatorics, "q_binomial", wrong)
    failed = {c.name.split()[0] for c in verify_identities(4, 2).failures()}
    assert "q-pascal" in failed


def test_is_prime():
    assert [n for n in range(10**5) if is_prime(n)] == [
        n for n in range(10**5) if trial_division_is_prime(n)
    ]
    # strong pseudoprimes: to base 2; to 2, 3, 5, 7; to the first 9 primes;
    # and psi_12, the least to the first 12
    for n in (2047, 3_215_031_751, 3_825_123_056_546_413_051, 318_665_857_834_031_151_167_461):
        assert not is_prime(n), n
    assert is_prime(2**31 - 1) and is_prime(2**61 - 1)
    # psi_13, the least strong pseudoprime to the first 13 primes, is past
    # the range where the test is exact
    with pytest.raises(ValueError, match="psi_13"):
        is_prime(3_317_044_064_679_887_385_961_981)
