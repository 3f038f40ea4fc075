"""Exact elements of (1/p^m) Z / Z, the value group of non-classical polynomials.

Every value is stored in lowest terms as ``num / p^m  (mod 1)`` with
``0 <= num < p^m`` and ``m`` minimal; there is no floating point anywhere.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True, order=False)
class TorusValue:
    p: int
    num: int
    m: int  # depth exponent; value is num / p^m mod 1

    @classmethod
    def make(cls, p: int, num: int, m: int) -> "TorusValue":
        """Canonicalize num / p^m mod 1 (lowest terms, 0 <= num < p^m)."""
        if m < 0:
            raise ValueError("negative depth exponent")
        mod = p**m
        num %= mod
        while m > 0 and num % p == 0:
            num //= p
            m -= 1
        if m == 0:
            num = 0
        return cls(p, num, m)

    @classmethod
    def zero(cls, p: int) -> "TorusValue":
        return cls(p, 0, 0)

    @classmethod
    def from_fp(cls, p: int, a: int) -> "TorusValue":
        """Embed a in F_p as a/p mod 1."""
        return cls.make(p, a, 1)

    def __add__(self, other: "TorusValue") -> "TorusValue":
        if self.p != other.p:
            raise ValueError("mixed primes")
        m = max(self.m, other.m)
        num = self.num * self.p ** (m - self.m) + other.num * self.p ** (m - other.m)
        return TorusValue.make(self.p, num, m)

    def __sub__(self, other: "TorusValue") -> "TorusValue":
        return self + (-other)

    def __neg__(self) -> "TorusValue":
        return TorusValue.make(self.p, -self.num, self.m)

    def is_zero(self) -> bool:
        return self.m == 0

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, self.p**self.m)

    def as_fp(self) -> int:
        """Identify {0, 1/p, ..., (p-1)/p} with F_p; raises off the grid."""
        if self.m == 0:
            return 0
        if self.m == 1:
            return self.num
        raise ValueError(f"torus value {self} is not on the (1/{self.p})-grid")

    def scaled_num(self, m: int) -> int:
        """Numerator after scaling to the common denominator p^m."""
        if m < self.m:
            raise ValueError("cannot scale down")
        return self.num * self.p ** (m - self.m)

    def __str__(self) -> str:
        return f"{self.num}/{self.p}^{self.m}" if self.m else "0"
