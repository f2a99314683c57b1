"""Strong homomorphisms between Krasner hyperrings and the maps they
induce on primitive ideal spaces.

Strong means the image of a hypersum equals the hypersum of the images.
The weaker inclusion-only notion shows up in failure details so a near
miss is distinguishable from a wild map, but nothing here accepts it.
Spaces and lattices come from the builders that keep them on each ring,
so nothing here takes a prebuilt one.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import (
    HyperRing,
    StrongHom,
    Structure,
    VerificationReport,
    _set,
    axiom_check,
    bits,
    hom_search,
    mask_of,
    require_hom_bound,
    strong_hom_checks,
)
from .ideals import (
    HyperIdeal,
    IdealLattice,
    is_hyperideal,
    nil_radical,
    quotient_ring,
)
from .spectrum import SpectrumSpace


class RingHom(StrongHom):
    """Map between hyperrings given by a value table on the source."""

    __slots__ = ("unit_preserving",)
    _fields = StrongHom._fields + __slots__

    def __init__(self, source: Structure, target: Structure, mapping: tuple,
                 name: str | None = None, unit_preserving: bool = False) -> None:
        super().__init__(source, target, mapping, name)
        _set(self, "unit_preserving", unit_preserving)
        if unit_preserving and (source.unit is None or target.unit is None):
            raise ValueError("unit preservation needs units on both sides")


def verify_strong_hom(hom: RingHom) -> VerificationReport:
    src, dst, f = hom.source, hom.target, hom.mapping
    target_neg, target_mul = dst.neg_table, dst.mul_table
    checks = strong_hom_checks(hom) + [
        axiom_check("negation",
                    next(((a,) for a, na in enumerate(src.neg_table)
                          if f[na] != target_neg[f[a]]), None),
                    "f(-{0}) != -f({0})"),
        axiom_check("multiplication",
                    next(((a, b) for a, row in enumerate(src.mul_table) for b, ab in enumerate(row)
                          if f[ab] != target_mul[f[a]][f[b]]), None),
                    "f(a b) != f(a) f(b) at {w}"),
    ]
    if hom.unit_preserving:
        checks.append(axiom_check("unit", None if f[src.unit] == dst.unit else (src.unit,),
                                  "declared unit preserving but f(1) != 1"))
    return VerificationReport(tuple(checks))


def kernel_ideal(hom: RingHom) -> HyperIdeal:
    """Preimage of 0, asserted to be a two sided hyperideal."""
    members = [a for a, v in enumerate(hom.mapping) if v == 0]
    is_hyperideal(hom.source, members, "two-sided").asserted("kernel of a strong hom")
    return HyperIdeal._trusted(hom.source, mask_of(members), "two-sided")


def preimage_ideal(hom: RingHom, ideal: HyperIdeal) -> HyperIdeal:
    """Pullback of a hyperideal of the target, asserted to keep its
    sidedness."""
    if ideal.ring is not hom.target:
        raise ValueError("ideal must live in the hom's target")
    members = [a for a, v in enumerate(hom.mapping) if 1 << v & ideal.members.mask]
    is_hyperideal(hom.source, members, ideal.sidedness).asserted(
        f"preimage of a {ideal.sidedness} hyperideal")
    return HyperIdeal._trusted(hom.source, mask_of(members), ideal.sidedness)


def identity_hom(ring: HyperRing) -> RingHom:
    return RingHom(ring, ring, tuple(range(ring.order)), name="id",
                   unit_preserving=ring.is_unital)


def enumerate_ring_homs(source: HyperRing, target: HyperRing) -> tuple:
    """All verified strong homs fixing 0, lexicographic, by ``core.hom_search``:
    the strong maps that keep multiplication."""
    require_hom_bound(source, target)
    smul, tmul = source.mul_table, target.mul_table

    # A strong map keeps negation already: f(0) = 0 and 0 in a + (-a) put
    # 0 in f(a) + f(-a), so f(-a) = -f(a), the unique inverse; the
    # verification below checks it again on every kept map.
    def keep(f):
        return all(f[ab] == tmul[fa][f[b]] for fa, row in zip(f, smul)
                   for b, ab in enumerate(row))

    return hom_search(RingHom, source, target, keep, verify_strong_hom, "hom search")


class InducedMap(NamedTuple):
    """The pullback map on primitive ideal spaces.

    Goes from the primitives of the hom's target to those of its source.
    A pulled back ideal can fail to be primitive; such points are listed
    in escapes with their pullbacks and leave None in point_map, rather
    than raising, so sweeps can tally them.
    """

    hom: RingHom
    domain: SpectrumSpace
    codomain: SpectrumSpace
    point_map: tuple
    escapes: tuple = ()

    @property
    def total(self) -> bool:
        return all(v is not None for v in self.point_map)

    def apply(self, pmask: int) -> int:
        out = 0
        for i in bits(pmask):
            v = self.point_map[i]
            if v is None:
                raise ValueError(f"point {i} has no image")
            out |= 1 << v
        return out

    def image_pmask(self) -> int:
        return self.apply(self.domain.full_pmask)


def induced_map(hom: RingHom) -> InducedMap:
    """Pullback from the target's space to the source's."""
    domain = SpectrumSpace.build(hom.target)
    codomain = SpectrumSpace.build(hom.source)
    lookup = {m: i for i, m in enumerate(codomain.point_masks)}
    point_map = []
    escapes = []
    for i, q in enumerate(domain.points):
        pulled = preimage_ideal(hom, q)
        j = lookup.get(pulled.members.mask)
        point_map.append(j)
        if j is None:
            escapes.append((i, pulled))
    return InducedMap(hom, domain, codomain, tuple(point_map), tuple(escapes))


def is_continuous(imap: InducedMap) -> bool:
    """Preimages of closed sets are closed; needs a total map."""
    if not imap.total:
        raise ValueError("continuity only makes sense for a total map")
    for d in imap.codomain.closed_sets():
        pre = 0
        for i, v in enumerate(imap.point_map):
            if 1 << v & d:
                pre |= 1 << i
        if not imap.domain.is_closed(pre):
            return False
    return True


class EmbeddingReport(NamedTuple):
    """How close a pullback map comes to a closed embedding."""

    total: bool
    injective: bool
    image_is_kernel_vanishing: bool
    closed_sets_correspond: bool

    @property
    def ok(self) -> bool:
        return (self.total and self.injective
                and self.image_is_kernel_vanishing and self.closed_sets_correspond)


def check_closed_embedding(imap: InducedMap) -> EmbeddingReport:
    """For a surjective hom the pullback should embed the target's
    primitives onto the vanishing set of the kernel, closed sets matching
    in both directions."""
    if not imap.hom.is_surjective():
        raise ValueError("closed embedding check expects a surjective hom")
    if not imap.total:
        return EmbeddingReport(False, False, False, False)
    pm = imap.point_map
    injective = len(set(pm)) == len(pm)
    image = imap.image_pmask()
    expected = imap.codomain.vanishing_set(kernel_ideal(imap.hom))
    forward = {imap.apply(c) for c in imap.domain.closed_sets()}
    restricted = {d & image for d in imap.codomain.closed_sets()}
    return EmbeddingReport(
        total=True,
        injective=injective,
        image_is_kernel_vanishing=image == expected,
        closed_sets_correspond=forward == restricted,
    )


class DensityReport(NamedTuple):
    dense: bool
    kernel_in_radical: bool

    @property
    def agree(self) -> bool:
        return self.dense == self.kernel_in_radical


def check_density(imap: InducedMap) -> DensityReport:
    """Compare density of the pullback image against the kernel sitting
    inside the intersection of the primes."""
    if not imap.total:
        raise ValueError("density check expects a total map")
    image = imap.image_pmask()
    dense = imap.codomain.closure(image) == imap.codomain.full_pmask
    rad = nil_radical(imap.hom.source, IdealLattice.build(imap.hom.source))
    ker = kernel_ideal(imap.hom)
    return DensityReport(dense=dense,
                         kernel_in_radical=ker.members.mask & ~rad.members.mask == 0)


class RadicalQuotientReport(NamedTuple):
    total: bool
    bijective: bool
    closed_sets_correspond: bool

    @property
    def ok(self) -> bool:
        return self.total and self.bijective and self.closed_sets_correspond


def check_radical_homeomorphism(ring: HyperRing) -> RadicalQuotientReport:
    """Killing the intersection of the primes should not move the
    primitive ideal space: the projection's pullback must be a bijection
    matching closed sets both ways."""
    rad = nil_radical(ring, IdealLattice.build(ring))
    quot = quotient_ring(ring, rad)
    imap = induced_map(quot.projection)
    if not imap.total:
        return RadicalQuotientReport(False, False, False)
    pm = imap.point_map
    bijective = (len(set(pm)) == len(pm)
                 and imap.image_pmask() == imap.codomain.full_pmask
                 and imap.domain.size == imap.codomain.size)
    forward = {imap.apply(c) for c in imap.domain.closed_sets()}
    backward = set(imap.codomain.closed_sets())
    return RadicalQuotientReport(
        total=True,
        bijective=bijective,
        closed_sets_correspond=forward == backward,
    )
