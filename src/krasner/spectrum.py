"""The space of primitive hyperideals under the closure Cl(S) = {p : p
contains the intersection of S}, with the empty set closed by fiat.

Points live in a fixed canonical order, so a subset of the space is just
an int bitmask over point indices (pmask), as a set of ring elements is a
bitmask over element indices.  Kernels are plain element masks on the ring.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from . import core
from .core import ElementSet, HyperRing, bits, derived
from .ideals import HyperIdeal, ideal_sum
from .primitivity import prim_certificates


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
        """Every closed pmask, ascending: the fixed points of ``closure``
        over all 2^size subsets, so the size is bounded."""
        if self._closed is None:
            core.require_subset_bound(self.size, "materializing closed sets", "points")
            self._closed = tuple(s for s in range(1 << self.size) if self.is_closed(s))
        return self._closed

    def vanishing_set(self, ideal: HyperIdeal) -> int:
        """Points containing the ideal."""
        return self._points_containing(ideal.members.mask)

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
    pairs_checked: int
    failure: tuple = ()
    detail: str = ""


def verify_kuratowski(space: SpectrumSpace) -> KuratowskiReport:
    """The four closure laws: empty set fixed, extensivity, idempotence,
    and union distribution, from one closure of each of the 2^size subsets;
    a space of more than ``core.ENUMERATION_BOUND`` points is refused
    before the first.

    The union law is decided on all 4^size pairs by the instances
    Cl(s) = Cl(s - low) | Cl(low), low the lowest point of s: by induction
    they make each Cl(s) the union of its point closures, so
    Cl(s | t) = Cl(s) | Cl(t) for every pair, and the first instance that
    fails is a failing pair.  pairs_checked counts the pairs decided: the
    3^|u| pairs with union u for each u passed, plus a failing one.
    """
    core.require_subset_bound(space.size, "the Kuratowski check", "points")
    cl = [space.closure(s) for s in range(1 << space.size)]
    if cl[0] != 0:
        return KuratowskiReport(False, 0, (0,), "closure of the empty set is not empty")
    for s, c in enumerate(cl):
        if s & ~c:
            return KuratowskiReport(False, 0, (s,), "a set escapes its own closure")
        if cl[c] != c:
            return KuratowskiReport(False, 0, (s,), "closure is not idempotent")
    checked = 1
    for s in range(1, len(cl)):
        low = s & -s
        if cl[s] != cl[s ^ low] | cl[low]:
            return KuratowskiReport(False, checked + 1, (s ^ low, low),
                                    "closure does not distribute over the union")
        checked += 3 ** s.bit_count()
    return KuratowskiReport(True, checked)


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
    core.require_subset_bound(len(ideals), "the witness search", "ideals")
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
        lines.append(f'  p{i} [label="{p.members!r}"];')
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
