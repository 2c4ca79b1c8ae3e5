"""Exact arithmetic in Z[w], w a primitive p-th root of unity for prime p.

Elements are stored on the power basis 1, w, ..., w^(p-2) of
Z[x]/(1 + x + ... + x^(p-1)), which gives unique normal forms: equality and
zero tests are plain tuple comparisons.  For p = 2 the ring degenerates to
the integers (w = -1, basis of length one).

Only prime p is supported.  The characters showing up elsewhere in this
package take values in p-th roots of unity for prime p, so a single
cyclotomic field per p covers every exact computation we need.  The one
automorphism the package uses is complex conjugation, w -> w^(p-1), and it
divides nothing in Z[w]: the one quotient it needs, an integer eigenvalue,
is read off a single coefficient slot (see :mod:`qjordan.scheme`).
"""

from __future__ import annotations

from functools import cache
from operator import add, index

from .qcombinatorics import int_str, is_prime, json_int


@cache
def _check_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"CycInt requires prime p, got {p}")


class CycInt:
    """An element of Z[w] with w = exp(2*pi*i/p), p prime."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs: tuple[int, ...]):
        _check_prime(p)
        if len(coeffs) != p - 1:
            raise ValueError(f"need exactly {p - 1} coefficients for p={p}, got {len(coeffs)}")
        _set_p(self, p)
        _set_coeffs(self, tuple(index(a) for a in coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("CycInt is immutable")

    @classmethod
    def _raw(cls, p: int, coeffs: tuple[int, ...]) -> CycInt:
        """Internal constructor for arithmetic results whose invariants hold
        by construction; skips the validation of the public one and fills
        the slots through their descriptors, past ``__setattr__``."""
        self = _new(cls)
        _set_p(self, p)
        _set_coeffs(self, coeffs)
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_int(cls, p: int, m: int) -> CycInt:
        return cls(p, (m,) + (0,) * (p - 2))

    @classmethod
    def zero(cls, p: int) -> CycInt:
        return cls.from_int(p, 0)

    @classmethod
    def one(cls, p: int) -> CycInt:
        return cls.from_int(p, 1)

    @classmethod
    def monomial(cls, p: int, m: int, j: int) -> CycInt:
        """The element m * w^j."""
        _check_prime(p)
        return cls._monomial(p, index(m), j)

    @classmethod
    def _monomial(cls, p: int, m: int, j: int) -> CycInt:
        """m * w^j for a prime p and an int m already checked."""
        j %= p
        if j < p - 1:
            coeffs = [0] * (p - 1)
            coeffs[j] = m
            return cls._raw(p, tuple(coeffs))
        # w^(p-1) = -(1 + w + ... + w^(p-2))
        return cls._raw(p, (-m,) * (p - 1))

    @classmethod
    def omega(cls, p: int, j: int = 1) -> CycInt:
        return cls.monomial(p, 1, j)

    @classmethod
    def from_root_counts(cls, p: int, counts) -> CycInt:
        """sum over j of counts[j] * w^j, for a length-p sequence of ints.

        The hot path of the character projections: the w^(p-1) slot folds
        into the power basis without any intermediate ring elements.
        """
        _check_prime(p)
        if len(counts) != p:
            raise ValueError(f"need {p} counts, got {len(counts)}")
        top = int(counts[p - 1])
        return cls._raw(p, tuple([int(c) - top for c in counts[: p - 1]]))

    # -- ring structure ----------------------------------------------------

    def _coerce(self, other) -> "CycInt | None":
        if isinstance(other, CycInt):
            if other.p != self.p:
                raise ValueError(f"mixed primes: {self.p} vs {other.p}")
            return other
        if isinstance(other, int):
            return CycInt.from_int(self.p, other)
        return None

    def __add__(self, other):
        # the hot case (the scheme's adjacency sums) skips _coerce
        o = other if type(other) is CycInt and other.p == self.p else self._coerce(other)
        if o is None:
            return NotImplemented
        return CycInt._raw(self.p, tuple(map(add, self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycInt._raw(self.p, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self) -> CycInt:
        return CycInt._raw(self.p, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        # the hot case (theta, gamma and the inner product) skips _coerce,
        # and an int scales the slots with no ring product
        if type(other) is CycInt and other.p == self.p:
            o = other
        elif type(other) is int:
            return CycInt._raw(self.p, tuple([a * other for a in self.coeffs]))
        else:
            o = self._coerce(other)
            if o is None:
                return NotImplemented
        p = self.p
        # accumulate with exponents folded mod p (w^p = 1), then eliminate
        # the w^(p-1) slot via w^(p-1) = -(1 + w + ... + w^(p-2))
        acc = [0] * p
        right = [(j, b) for j, b in enumerate(o.coeffs) if b]
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in right:
                    acc[(i + j) % p] += a * b
        top = acc.pop()
        if top:
            return CycInt._raw(p, tuple([a - top for a in acc]))
        return CycInt._raw(p, tuple(acc))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> CycInt:
        if e < 0:
            raise ValueError("negative powers are not defined in Z[w]")
        result = CycInt.one(self.p)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = CycInt.from_int(self.p, other)
        if not isinstance(other, CycInt):
            return NotImplemented
        return self.p == other.p and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.p, self.coeffs))

    def __bool__(self) -> bool:
        return any(self.coeffs)

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def conj(self) -> CycInt:
        """Complex conjugation, w -> w^(p-1): slot j moves to slot p - j, and
        slot 1 lands on w^(p-1) = -(1 + w + ... + w^(p-2)), so its
        coefficient is subtracted from every slot.  At p = 2, Z[w] is Z."""
        c = self.coeffs
        if len(c) == 1:
            return self
        top = c[1]
        return CycInt._raw(self.p, (c[0] - top, -top, *[a - top for a in reversed(c[2:])]))

    # -- recognition -----------------------------------------------------------

    def as_monomial(self) -> tuple[int, int] | None:
        """Write self as m * w^j if possible, preferring the smallest j.

        Returns (0, 0) for zero and None when self is not an integral
        multiple of a root of unity.
        """
        p = self.p
        coeffs = self.coeffs
        if coeffs.count(0) >= p - 2:
            # zero or a single nonzero slot, which then holds the sum; the
            # first slot holding it is j (zero gives (0, 0))
            j = coeffs.index(sum(coeffs))
            return (coeffs[j], j)
        if coeffs.count(coeffs[0]) == p - 1:
            # all p - 1 >= 2 slots equal to c != 0: this is (-c) * w^(p-1)
            return (-coeffs[0], p - 1)
        return None

    def to_int(self) -> int:
        """The value as a rational integer; raises if self is not one."""
        if any(self.coeffs[1:]):
            raise ValueError(f"{self!r} is not a rational integer")
        return self.coeffs[0]

    # -- serialization and display -------------------------------------------

    def to_json(self) -> dict:
        mono = self.as_monomial()
        if mono is not None:
            return {"m": mono[0], "j": mono[1]}
        return {"coeffs": list(self.coeffs)}

    @classmethod
    def from_json(cls, p: int, obj: dict) -> CycInt:
        if "coeffs" in obj:
            return cls(p, tuple(json_int(a, "coefficient entry") for a in obj["coeffs"]))
        m, j = json_int(obj["m"], "coefficient m"), json_int(obj["j"], "coefficient j")
        _check_prime(p)
        return cls._monomial(p, m, j)

    def __repr__(self) -> str:
        return f"CycInt(p={self.p}, {self.coeffs})"

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for j, a in enumerate(self.coeffs):
            if a == 0:
                continue
            unit = "" if j == 0 else ("w" if j == 1 else f"w^{j}")
            digits = "" if unit and abs(a) == 1 else int_str(abs(a))
            parts.append(("-" if a < 0 else "+") + digits + unit)
        s = "".join(parts)
        return s[1:] if s.startswith("+") else s


# the slots' own descriptors: the constructors fill a new value through them,
# past the __setattr__ that keeps values immutable
_new = object.__new__
_set_p = CycInt.p.__set__
_set_coeffs = CycInt.coeffs.__set__
