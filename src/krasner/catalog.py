"""Bundled example hyperrings.

Every classical finite ring is a hyperring whose addition returns
singletons; ``cyclic_ring`` builds Z/n that way.  ``hyperfield_k`` is the
two element structure with 1 + 1 = {0, 1}, the smallest hyperring whose
addition is genuinely multivalued.
"""

from __future__ import annotations

from .core import HyperRing


def cyclic_ring(n: int, name: str | None = None) -> HyperRing:
    """Z/n with singleton addition, validated."""
    add = [[[(a + b) % n] for b in range(n)] for a in range(n)]
    neg = [(-a) % n for a in range(n)]
    mul = [[(a * b) % n for b in range(n)] for a in range(n)]
    ring = HyperRing(add, neg, mul, unit=1 if n > 1 else 0, name=name or f"Z{n}")
    return ring.checked("bundled ring failed validation")


def hyperfield_k() -> HyperRing:
    """The Krasner hyperfield K = {0, 1}: 1 + 1 = {0, 1}, 1 * 1 = 1."""
    add = [[[0], [1]], [[1], [0, 1]]]
    ring = HyperRing(add, neg=[0, 1], mul=[[0, 0], [0, 1]], unit=1, name="K")
    return ring.checked("bundled ring failed validation")


def zero_mul_ring(n: int = 2, name: str | None = None) -> HyperRing:
    """Z/n addition with identically zero multiplication (no unit)."""
    add = [[[(a + b) % n] for b in range(n)] for a in range(n)]
    neg = [(-a) % n for a in range(n)]
    mul = [[0] * n for _ in range(n)]
    ring = HyperRing(add, neg, mul, unit=0 if n == 1 else None, name=name or f"O{n}")
    return ring.checked("bundled ring failed validation")


def standard_rings() -> tuple:
    """The examples used throughout the tests and demos."""
    return (cyclic_ring(2), cyclic_ring(4), cyclic_ring(6), hyperfield_k())
