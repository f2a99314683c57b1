"""The space of primitive hyperideals under the closure Cl(S) = {p : p
contains the intersection of S}, with the empty set closed by fiat.

Points live in a fixed canonical order, so a subset of the space is just
an int bitmask over point indices (pmask), as a set of ring elements is a
bitmask over element indices.  Kernels are plain element masks on the ring.
"""

from __future__ import annotations

import itertools
import random
from typing import NamedTuple

from . import core
from .core import BoundExceededError, ElementSet, HyperRing, bits, derived
from .ideals import HyperIdeal, ideal_sum
from .primitivity import prim_certificates

MATERIALIZE_BOUND = 15
FULL_KURATOWSKI_BOUND = 7  # pair sweeps touch 4^k subsets
KURATOWSKI_SAMPLES = 4096


class SpectrumSpace:
    """Primitive ideals of one ring with their hull kernel topology."""

    __slots__ = ("ring", "certificates", "points", "point_masks", "_closed")

    def __init__(self, ring: HyperRing, certificates):
        ring.require_validated()
        self.ring = ring
        self.certificates = tuple(certificates)
        self.points = tuple(c.ideal for c in self.certificates)
        self.point_masks = tuple(p.members.mask for p in self.points)
        if len(set(self.point_masks)) != len(self.point_masks):
            raise ValueError("duplicate points")
        self._closed = None

    @classmethod
    def build(cls, ring: HyperRing) -> "SpectrumSpace":
        return derived(ring, "space", lambda: cls(ring, prim_certificates(ring)))

    @property
    def size(self) -> int:
        return len(self.points)

    @property
    def full_pmask(self) -> int:
        return (1 << self.size) - 1

    def kernel_of(self, pmask: int) -> int:
        """Intersection of the points, the whole ring for the empty set."""
        out = self.ring.full_mask
        for i in bits(pmask):
            out &= self.point_masks[i]
        return out

    def _points_containing(self, k: int) -> int:
        # pmask of the points whose ideal contains the element mask k
        out = 0
        for i, m in enumerate(self.point_masks):
            if k & ~m == 0:
                out |= 1 << i
        return out

    def closure(self, pmask: int) -> int:
        if pmask == 0:
            return 0
        return self._points_containing(self.kernel_of(pmask))

    def is_closed(self, pmask: int) -> bool:
        return self.closure(pmask) == pmask

    def closed_sets(self) -> tuple:
        """Every closed pmask, ascending.  Materializes all 2^size subsets
        via a shared kernel table, so the size is bounded."""
        if self._closed is not None:
            return self._closed
        n = self.size
        if n > MATERIALIZE_BOUND:
            raise BoundExceededError(
                f"materializing closed sets scans 2^{n} subsets; "
                f"{n} points exceeds the bound {MATERIALIZE_BOUND}"
            )
        full = self.ring.full_mask
        kern = [full] * (1 << n)
        closed = []
        for s in range(1, 1 << n):
            low = s & -s
            kern[s] = kern[s ^ low] & self.point_masks[low.bit_length() - 1]
            if self._points_containing(kern[s]) == s:
                closed.append(s)
        self._closed = (0,) + tuple(closed)
        return self._closed

    def vanishing_set(self, ideal) -> int:
        """Points containing the ideal."""
        m = ideal.members.mask if isinstance(ideal, HyperIdeal) else (
            ideal.mask if isinstance(ideal, ElementSet) else int(ideal))
        return self._points_containing(m)

    def is_t0(self) -> bool:
        """Distinct points have distinct closures."""
        seen = set()
        for i in range(self.size):
            c = self.closure(1 << i)
            if c in seen:
                return False
            seen.add(c)
        return True

    def is_t1(self) -> bool:
        """Every singleton closed."""
        return all(self.closure(1 << i) == 1 << i for i in range(self.size))

    def __repr__(self):
        return f"<SpectrumSpace of {self.ring.name or 'ring'} with {self.size} points>"


class KuratowskiReport(NamedTuple):
    ok: bool
    sampled: bool
    pairs_checked: int
    failure: tuple = ()
    detail: str = ""


def verify_kuratowski(space: SpectrumSpace) -> KuratowskiReport:
    """The four closure laws: empty set fixed, extensivity, idempotence,
    and union distribution.

    The union law needs subset pairs, 4^size of them; past the full sweep
    bound KURATOWSKI_SAMPLES pairs seeded with 0 are drawn instead and the
    report says so.
    """
    n = space.size
    total = 1 << n
    if space.closure(0) != 0:
        return KuratowskiReport(False, False, 0, (0,), "closure of the empty set is not empty")
    for s in range(total):
        c = space.closure(s)
        if s & ~c:
            return KuratowskiReport(False, False, 0, (s,), "a set escapes its own closure")
        if space.closure(c) != c:
            return KuratowskiReport(False, False, 0, (s,), "closure is not idempotent")

    sampled = n > FULL_KURATOWSKI_BOUND
    if sampled:
        rng = random.Random(0)
        pairs = ((rng.randrange(total), rng.randrange(total)) for _ in range(KURATOWSKI_SAMPLES))
        count = KURATOWSKI_SAMPLES
    else:
        pairs = itertools.product(range(total), repeat=2)
        count = total * total
    checked = 0
    for s, t in pairs:
        checked += 1
        if space.closure(s | t) != space.closure(s) | space.closure(t):
            return KuratowskiReport(False, sampled, checked, (s, t),
                                    "closure does not distribute over the union")
    return KuratowskiReport(True, sampled, count)


def reducible_split(space: SpectrumSpace, pmask: int) -> tuple | None:
    """Two proper closed subsets covering the given closed set, or None.
    Pair sweep over the closed sets inside it."""
    inside = [c for c in space.closed_sets() if c & ~pmask == 0 and c != pmask]
    for a, b in itertools.combinations(inside, 2):
        if a | b == pmask:
            return (a, b)
    return None


def is_irreducible(space: SpectrumSpace, pmask: int) -> bool:
    """Nonempty, closed, and not a union of two proper closed subsets.

    Checked through generic points: a finite closed set is a union of its
    point closures, so it splits unless one of them is the whole set, and
    a point closure never splits (any closed cover piece containing the
    point contains the closure).
    """
    if pmask == 0 or not space.is_closed(pmask):
        return False
    return any(space.closure(1 << i) == pmask for i in bits(pmask))


def generic_points(space: SpectrumSpace, pmask: int) -> tuple:
    """Point indices whose closure is the whole set."""
    return tuple(i for i in bits(pmask) if space.closure(1 << i) == pmask)


def irreducible_closed_sets(space: SpectrumSpace) -> tuple:
    return tuple(c for c in space.closed_sets() if is_irreducible(space, c))


def irreducible_components(space: SpectrumSpace) -> tuple:
    """Maximal irreducible closed sets; these are the closures of the
    points minimal under containment of ideals."""
    closures = sorted({space.closure(1 << i) for i in range(space.size)})
    return tuple(c for c in closures
                 if not any(c != d and c & ~d == 0 for d in closures))


def longest_closed_chain(space: SpectrumSpace) -> tuple:
    """A longest strictly descending chain of closed sets, as pmasks."""
    closed = space.closed_sets()
    order = sorted(closed, key=lambda c: c.bit_count())
    best = {}
    for c in order:
        tail = ()
        for d in order:
            if d.bit_count() >= c.bit_count():
                break
            if d != c and d & ~c == 0 and len(best[d]) > len(tail):
                tail = best[d]
        best[c] = (c,) + tail
    return max(best.values(), key=len)


def is_noetherian_space(space: SpectrumSpace) -> bool:
    """Descending chains of closed sets stabilize.  Finite spaces cannot
    do otherwise, but the longest chain is computed and checked, not assumed."""
    chain = longest_closed_chain(space)
    return (len(chain) <= space.size + 1 and set(chain) <= set(space.closed_sets())
            and all(b != a and b & ~a == 0 for a, b in zip(chain, chain[1:])))


def compactness_witness(space: SpectrumSpace, ideals) -> tuple:
    """Indices of a smallest subfamily whose vanishing sets already have
    empty intersection, given a family for which the full intersection is
    empty (so the complements form an open cover).  A family of more than
    ``core.ENUMERATION_BOUND`` ideals is refused."""
    ideals = tuple(ideals)
    if len(ideals) > core.ENUMERATION_BOUND:
        raise BoundExceededError(
            f"witness search scans subsets of {len(ideals)} ideals; "
            f"bound is {core.ENUMERATION_BOUND}"
        )
    vs = [space.vanishing_set(a) for a in ideals]
    full = space.full_pmask
    acc = full
    for v in vs:
        acc &= v
    if acc:
        raise ValueError("the vanishing sets do not have empty intersection")
    for size in range(1, len(vs) + 1):
        for combo in itertools.combinations(range(len(vs)), size):
            acc = full
            for i in combo:
                acc &= vs[i]
            if acc == 0:
                return combo
    raise AssertionError("unreachable: the full family qualifies")


def witness_kernel_sum(space: SpectrumSpace, ideals, combo) -> ElementSet:
    """Ideal sum of the chosen subfamily, for inspecting what the witness
    adds up to."""
    chosen = [ideals[i] for i in combo]
    if len(chosen) == 1:
        return chosen[0].members
    return ideal_sum(chosen).members


def dot_graph(space: SpectrumSpace) -> str:
    """Specialization digraph in DOT form: an edge p -> q whenever q lies
    in the closure of p."""
    lines = ["digraph spectrum {"]
    for i, p in enumerate(space.points):
        label = "{" + ",".join(str(x) for x in p.members) + "}"
        lines.append(f'  p{i} [label="{label}"];')
    for i in range(space.size):
        cl = space.closure(1 << i)
        for j in bits(cl):
            if j != i:
                lines.append(f"  p{i} -> p{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def space_as_dict(space: SpectrumSpace) -> dict:
    """JSON ready description: points, closed sets, separation flags."""
    closed = space.closed_sets()
    return {
        "ring": space.ring.name or "",
        "points": [sorted(p.members) for p in space.points],
        "closed_sets": [sorted(bits(c)) for c in closed],
        "t0": space.is_t0(),
        "t1": space.is_t1(),
        "irreducible_components": [sorted(bits(c)) for c in irreducible_components(space)],
    }
