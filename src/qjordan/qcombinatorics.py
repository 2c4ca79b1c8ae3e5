"""Exact q-integers, Gaussian binomials and Galois numbers.

Everything here is plain arbitrary-precision integer arithmetic: the
q-binomials involved grow fast and the rest of the package leans on them
for dimension counts, so silent overflow is not an option.  Gaussian
binomials are computed by the q-Pascal recurrence (division free) with
memoization rather than by the product formula.
"""

from __future__ import annotations

from functools import cache

from .reporting import Check, Report


def is_prime(n: int) -> bool:
    """Whether n is prime, decided exactly for every n below
    psi_13 = 3,317,044,064,679,887,385,961,981; a larger n raises ValueError.

    Divisibility by the first 13 primes, then a strong probable-prime test
    to each of them as base: no composite below psi_13 passes all 13
    (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases",
    Math. Comp. 86, 2017).
    """
    if n >= 3_317_044_064_679_887_385_961_981:
        raise ValueError(f"is_prime is exact only below psi_13, got {n}")
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2:
        return False
    for p in bases:
        if n % p == 0:
            return n == p
    # n - 1 = d * 2^s with d odd
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def json_int(value, what: str) -> int:
    """An integer field of a parsed JSON document, read strictly: a float,
    a string or a bool (which Python counts as an int) raises ValueError
    instead of being truncated to an int."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def int_str(x: int) -> str:
    """x in decimal, however many digits it has.  str(x) refuses more than
    sys.get_int_max_str_digits(), a guard meant for parsing input."""
    try:
        return str(x)
    except ValueError:
        from decimal import Decimal  # its conversion has no digit limit

        return str(Decimal(x))


def q_int(k: int, q: int) -> int:
    """The q-integer [k]_q = 1 + q + ... + q^(k-1), with [0]_q = 0."""
    if k < 0:
        raise ValueError(f"q_int: k must be >= 0, got {k}")
    _check_q(q)
    s = 0
    for _ in range(k):
        s = s * q + 1
    return s


def _check_q(q: int) -> None:
    if q < 2:
        raise ValueError(f"base q must be >= 2, got {q}")


@cache
def q_binomial(n: int, k: int, q: int) -> int:
    """Gaussian binomial [n choose k]_q, the number of k-subspaces of F_q^n.

    Out-of-range arguments (n < 0, k < 0 or k > n) give 0, matching the
    usual convention for the recurrences below.
    """
    _check_q(q)
    if n < 0 or k < 0 or k > n:
        return 0
    if k == 0:
        return 1
    return q_binomial(n - 1, k - 1, q) + q**k * q_binomial(n - 1, k, q)


def galois_number(n: int, q: int) -> int:
    """Total number of subspaces of F_q^n."""
    if n < 0:
        raise ValueError(f"galois_number: n must be >= 0, got {n}")
    return sum(q_binomial(n, k, q) for k in range(n + 1))


def verify_identities(n_max: int, q: int) -> Report:
    """Check the Goldman-Rota recurrence, its rank-refined form and
    q-Pascal's triangle for all 1 <= n <= n_max.

    A failing check signals a bug in this module, not bad input.
    """
    if n_max < 1:
        raise ValueError(f"verify_identities: n_max must be >= 1, got {n_max}")
    _check_q(q)
    checks = []
    for n in range(1, n_max + 1):
        lhs = galois_number(n + 1, q)
        rhs = 2 * galois_number(n, q) + (q**n - 1) * galois_number(n - 1, q)
        bad = "" if lhs == rhs else f"G({n + 1}) = {lhs} != {rhs}"
        checks.append(Check(f"goldman-rota n={n}", bad))

        # the rank-refined recursion and, for every k, the q-Pascal rule
        # dual to the one q_binomial is computed by:
        # [n, j]_q = q^(n-j) [n-1, j-1]_q + [n-1, j]_q at j = k - 1
        refined = (
            (k, q_binomial(n + 1, k, q), q_binomial(n, k, q) + q_binomial(n, k - 1, q)
             + (q**n - 1) * q_binomial(n - 1, k - 1, q))
            for k in range(1, n + 2)
        )
        pascal = (
            (k, q_binomial(n, k - 1, q),
             q ** (n - k + 1) * q_binomial(n - 1, k - 2, q) + q_binomial(n - 1, k - 1, q))
            for k in range(1, n + 1)
        )
        for name, sides in (("refined-recursion", refined), ("q-pascal", pascal)):
            bad = next((f"k={k}: {lhs} != {rhs}" for k, lhs, rhs in sides if lhs != rhs), "")
            checks.append(Check(f"{name} n={n}", bad))
    return Report(tuple(checks))
