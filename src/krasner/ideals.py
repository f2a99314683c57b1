"""Hyperideals of a finite Krasner hyperring and their lattice.

A hyperideal is an additive subhypergroup that absorbs multiplication on
the requested sides.  Everything here is exhaustive: the carrier is small
enough that the ideal lattice is enumerated by a pruned search over the
subsets that contain 0 (``closed_subsets``), with an explicit refusal
above ``core.ENUMERATION_BOUND``.  The search answers yes or no; only
``is_hyperideal`` builds a witness.  Generated ideals come from
``closure``, a second route that shares no code with the search, and are
cross-checked against the lattice, one set at a time or over every
generating set with each distinct seed closed once.  The lattice also
keeps the product of every ordered pair of its two sided ideals, each
closed once and validated by membership, and primality reads that table.

Canonical order everywhere is the integer value of the member bit mask.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import (
    ElementSet,
    HyperRing,
    Structure,
    TheoremViolationError,
    _MaskTable,
    bits,
    derived,
    hypersum,
    mask_of,
    require_scan_bound,
)

SIDEDNESS = ("left", "right", "two-sided")


@dataclass(frozen=True)
class IdealCheck:
    ok: bool
    clause: str = ""
    witness: tuple = ()
    detail: str = ""

    def __bool__(self):
        return self.ok


def _as_mask(ring: HyperRing, members) -> int:
    # a hyperideal stands for its member set
    if isinstance(members, HyperIdeal):
        members = members.members
    return ring.members_mask(members)


def _absorption(ring: HyperRing, sidedness: str) -> list:
    # the closure actions of a hyperideal: right absorption is s * R in s,
    # left absorption R * s in s, read through the transposed table
    if sidedness not in SIDEDNESS:
        raise ValueError(f"sidedness must be one of {SIDEDNESS}")
    actions = []
    if sidedness != "left":
        actions.append(("right-absorption", ring.mul_table))
    if sidedness != "right":
        columns = derived(ring, "transposed_mul", lambda: tuple(zip(*ring.mul_table)))
        actions.append(("left-absorption", columns))
    return actions


def is_hyperideal(ring: HyperRing, members, sidedness: str = "two-sided") -> IdealCheck:
    """Decide whether a subset is a hyperideal, with a witness on failure."""
    ring.require_validated()
    actions = _absorption(ring, sidedness)
    check = closure_check(_as_mask(ring, members), ring.add_masks, ring.neg_table, actions)
    if check.clause == "left-absorption":
        a, r = check.witness
        return IdealCheck(False, check.clause, (r, a), f"{r} * {a} escapes the set")
    return check


class HyperIdeal:
    """A subset validated as a hyperideal of a fixed ring.

    The whole ring counts (it is the improper hyperideal); ``proper``
    distinguishes it.  Equality and hashing go through the member mask,
    so ideals found with different sidedness flags but equal members
    compare equal.
    """

    __slots__ = ("ring", "members", "sidedness")

    def __init__(self, ring: HyperRing, members, sidedness: str = "two-sided"):
        check = is_hyperideal(ring, members, sidedness)
        if not check:
            raise ValueError(
                f"not a {sidedness} hyperideal: {check.clause} fails at {check.witness}"
            )
        self.ring = ring
        self.members = ring.from_mask(_as_mask(ring, members))
        self.sidedness = sidedness

    @classmethod
    def _trusted(cls, ring: HyperRing, mask: int, sidedness: str) -> "HyperIdeal":
        self = object.__new__(cls)
        self.ring = ring
        self.members = ring.from_mask(mask)
        self.sidedness = sidedness
        return self

    @property
    def key(self) -> int:
        return self.members.mask

    @property
    def proper(self) -> bool:
        return not self.members.is_full()

    def __len__(self):
        return len(self.members)

    def __eq__(self, other):
        if not isinstance(other, HyperIdeal):
            return NotImplemented
        return self.ring is other.ring and self.members.mask == other.members.mask

    def __hash__(self):
        return hash(self.members.mask)

    def __repr__(self):
        return f"<{self.sidedness} ideal {self.members!r} of {self.ring.name or 'ring'}>"


def enumerate_ideals(ring: HyperRing, sidedness: str = "two-sided") -> tuple:
    """All hyperideals of the given sidedness, ordered by member mask."""
    require_scan_bound(ring, "ideal")
    masks = closed_subsets(ring.add_masks, ring.neg_table, _absorption(ring, sidedness))
    return tuple(HyperIdeal._trusted(ring, mask, sidedness) for mask in masks)


@dataclass(frozen=True)
class IdealLattice:
    """Two sided and right ideals of a ring plus the distinguished families.

    ``products`` maps (a.key, b.key) to the member mask of
    ``ideal_product(a, b)`` for every ordered pair of two sided ideals.
    It is keyed by mask and left out of comparison, so lattices compare
    and hash by their families alone.
    """

    ring: HyperRing
    two_sided: tuple
    right: tuple
    maximal: tuple
    prime: tuple
    maximal_right: tuple
    products: dict = field(compare=False, repr=False)

    @classmethod
    def build(cls, ring: HyperRing) -> "IdealLattice":
        def build():
            two_sided = enumerate_ideals(ring, "two-sided")
            right = enumerate_ideals(ring, "right")
            maximal = tuple(i for i in two_sided if _is_maximal_in(i, two_sided))
            products = _product_table(ring, two_sided)
            prime = tuple(i for i in two_sided
                          if i.proper and _prime_witness(i, two_sided, products) is None)
            maximal_right = tuple(i for i in right if _is_maximal_in(i, right))
            return cls(ring, two_sided, right, maximal, prime, maximal_right, products)
        return derived(ring, "lattice", build)


def _product_table(ring: HyperRing, two_sided) -> dict:
    # ideal_product for every ordered pair, closed once each.  The family
    # holds every closed mask, so a product is a two sided ideal exactly
    # when it is in the family; on a miss ideal_product reports the
    # failed clause, or the product is missing from the enumeration
    mul, add = ring.mul_table, ring.add_masks
    family = {a.key for a in two_sided}
    table = {}
    for a in two_sided:
        rows = [mul[x] for x in bits(a.key)]
        for b in two_sided:
            products = 0
            for row in rows:
                for y in bits(b.key):
                    products |= 1 << row[y]
            closed = sum_of_products_closure(add, products)
            if closed not in family:
                ideal_product(a, b)
                raise TheoremViolationError(
                    f"product {ring.from_mask(closed)!r} of {a.members!r} and "
                    f"{b.members!r} is missing from the lattice"
                )
            table[a.key, b.key] = closed
    return table


def _is_maximal_in(ideal: HyperIdeal, family) -> bool:
    if not ideal.proper:
        return False
    m = ideal.members.mask
    for other in family:
        om = other.members.mask
        if om != m and m & ~om == 0 and other.proper:
            return False
    return True


def is_maximal(ideal: HyperIdeal, lattice: IdealLattice) -> bool:
    family = lattice.right if ideal.sidedness == "right" else lattice.two_sided
    return _is_maximal_in(ideal, family)


def maximal_above(ideal: HyperIdeal, lattice: IdealLattice) -> HyperIdeal:
    """Some maximal ideal of the same sidedness containing the input.

    Finite carriers make this a scan; ties break to the smallest member
    mask so the answer is reproducible.
    """
    if not ideal.proper:
        raise ValueError("the improper ideal is contained in no maximal ideal")
    family = lattice.maximal_right if ideal.sidedness == "right" else lattice.maximal
    m = ideal.members.mask
    for cand in family:  # already in canonical mask order
        if m & ~cand.members.mask == 0:
            return cand
    raise TheoremViolationError(
        f"proper ideal {ideal.members!r} lies under no maximal ideal"
    )


def _common_sidedness(ideals) -> str:
    # a two sided ideal is also left and right, so it takes the side of
    # the others; left together with right has no common side
    if not ideals:
        raise ValueError("need at least one ideal")
    if any(i.ring is not ideals[0].ring for i in ideals):
        raise ValueError("ideals over different rings")
    sides = {i.sidedness for i in ideals} - {"two-sided"}
    if len(sides) > 1:
        raise ValueError("cannot combine left and right ideals")
    return sides.pop() if sides else "two-sided"


def ideal_intersection(ideals) -> HyperIdeal:
    """Meet of ideals over one ring, with the sidedness they share."""
    ideals = tuple(ideals)
    sided = _common_sidedness(ideals)
    ring = ideals[0].ring
    mask = ring.full_mask
    for i in ideals:
        mask &= i.members.mask
    return HyperIdeal(ring, ring.from_mask(mask), sided)


def ideal_sum(ideals) -> HyperIdeal:
    """Elements lying in some hypersum of one representative per ideal,
    with the sidedness the ideals share."""
    ideals = tuple(ideals)
    sided = _common_sidedness(ideals)
    ring = ideals[0].ring
    acc = ideals[0].members
    for i in ideals[1:]:
        acc = hypersum(ring, acc, i.members)
    check = is_hyperideal(ring, acc, sided)
    if not check:
        raise TheoremViolationError(
            f"sum of {sided} ideals failed {check.clause} at {check.witness}"
        )
    return HyperIdeal._trusted(ring, acc.mask, sided)


def sum_of_products_closure(add, products_mask: int) -> int:
    """Elements lying in some finite hypersum of the given products."""
    result = products_mask
    while True:
        grown = result
        for y in bits(result):
            row = add[y]
            for p in bits(products_mask):
                grown |= row[p]
        if grown == result:
            return result
        result = grown


# Closure and cosets on raw tables.  A hyperideal of R and a
# subhypermodule of M are the same thing over different tables: a set s
# holding 0, closed under negation and hyperaddition, and closed under a
# list of actions (clause, table), meaning table[a][r] lies in s for every
# a in s and every column r.  The ideal passes the absorbing products, the
# module its ring action; the regular module R_R makes the two agree.


def closure_check(s: int, add, neg, actions) -> IdealCheck:
    """Whether the mask s holds 0 and is closed under neg, add and the
    actions.  Scans negation and addition first, then each action in
    order; the witness is the first failure in that order."""
    if not s & 1:
        return IdealCheck(False, "zero", (), "must contain the additive identity")
    members = bits(s)
    for a in members:
        if not s >> neg[a] & 1:
            return IdealCheck(False, "neg-closure", (a,), f"-{a} = {neg[a]} escapes the set")
        row = add[a]
        for b in members:
            if row[b] & ~s:
                return IdealCheck(False, "add-closure", (a, b), f"{a} + {b} escapes the set")
    for clause, table in actions:
        for a in members:
            for r, v in enumerate(table[a]):
                if not s >> v & 1:
                    return IdealCheck(False, clause, (a, r), f"{a} * {r} escapes the set")
    return IdealCheck(True)


def closure(mask: int, add, neg, actions) -> int:
    """Smallest mask containing mask and 0 that ``closure_check``
    accepts, grown to a fixpoint."""
    mask |= 1
    while True:
        grown = mask
        members = bits(mask)
        for a in members:
            grown |= 1 << neg[a]
            row = add[a]
            for b in members:
                grown |= row[b]
            for _, table in actions:
                for v in table[a]:
                    grown |= 1 << v
        if grown == mask:
            return mask
        mask = grown


def closed_subsets(add, neg, actions) -> list:
    """Every mask that ``closure_check`` accepts, ascending.

    A backtracking search that shares no code with ``closure``.  Elements
    are decided from n - 1 down to 1, left out before taken in, so the
    masks come out ascending; 0 is always in.  req is what the members
    taken so far force in: each one's negative and action images
    (need[a]) and its sums with every member, in both orders so that no
    commutativity is assumed.  Leaving k out fails when req holds k;
    taking k in fails when the grown req holds an element left out above
    k.  The cost follows the closed sets and the dead ends; the 2^(n-1)
    masks holding 0 stay the worst case, so callers bound n first.  No
    witness is built for a rejected branch."""
    need = []
    for a in range(len(neg)):
        m = 1 << neg[a] | add[a][a]
        for _, table in actions:
            for v in table[a]:
                m |= 1 << v
        need.append(m)
    out = []
    # (next element to decide, taken mask, req, left-out mask)
    stack = [(len(neg) - 1, 1, need[0], 0)]
    while stack:
        k, s, req, left_out = stack.pop()
        if not k:
            out.append(s)
            continue
        bit = 1 << k
        grown = req | need[k]
        row = add[k]
        for b in bits(s):
            grown |= row[b] | add[b][k]
        # pushed in reverse, so the left-out branch is searched first
        if not grown & left_out:
            stack.append((k - 1, s | bit, grown, left_out))
        if not req & bit:
            stack.append((k - 1, s, req, left_out | bit))
    return out


def coset_partition(add, k: int) -> tuple:
    """(cosets, coset_of) for the closed mask k: the coset of 0 first,
    then the others by ascending mask, and the coset index of each
    element.  Raises unless the cosets k + x partition the carrier."""
    n = len(add)
    coset_mask = []
    for x in range(n):
        m = 0
        for a in bits(k):
            m |= add[a][x]
        coset_mask.append(m)
    cosets = [coset_mask[0]] + sorted(set(coset_mask) - {coset_mask[0]})
    index = {m: i for i, m in enumerate(cosets)}
    covered = 0
    for m in cosets:
        if covered & m:
            raise TheoremViolationError("cosets fail to partition the carrier")
        covered |= m
    if covered != (1 << n) - 1:
        raise TheoremViolationError("cosets fail to cover the carrier")
    return tuple(cosets), tuple(index[m] for m in coset_mask)


def induced_set_table(add, cosets, coset_of) -> _MaskTable:
    """Quotient hyperaddition as a mask table: entry (i, j) is the mask of
    the cosets met by a + b for a in coset i and b in coset j, which must
    not depend on the choice of a and b."""
    out = []
    for i, ci in enumerate(cosets):
        row = []
        for j, cj in enumerate(cosets):
            images = {mask_of(coset_of[t] for t in bits(add[a][b]))
                      for a in bits(ci) for b in bits(cj)}
            if len(images) != 1:
                raise TheoremViolationError(
                    f"coset tables depend on representatives at ({i}, {j})")
            row.append(images.pop())
        out.append(row)
    return _MaskTable(out)


def quotient_hypergroup(structure: Structure, k: int) -> tuple:
    """(cosets, coset_of, add, neg) of the quotient of a ring's or a
    module's hypergroup by the closed mask k: ``coset_partition``, the
    induced hyperaddition (``induced_set_table``) and the induced
    negation table, each coset's negative."""
    cosets, coset_of = coset_partition(structure.add_masks, k)
    add = induced_set_table(structure.add_masks, cosets, coset_of)
    negs = induced_value_table([(v,) for v in structure.neg_table], cosets, coset_of, (1,))
    return cosets, coset_of, add, [row[0] for row in negs]


def induced_value_table(table, cosets, coset_of, columns) -> list:
    """Quotient of a single valued table: entry (i, j) is the coset of
    table[a][b] for a in coset i and b in the column mask columns[j],
    which must not depend on the choice of a and b."""
    out = []
    for i, ci in enumerate(cosets):
        row = []
        for j, cj in enumerate(columns):
            images = {coset_of[table[a][b]] for a in bits(ci) for b in bits(cj)}
            if len(images) != 1:
                raise TheoremViolationError(
                    f"coset tables depend on representatives at ({i}, {j})")
            row.append(images.pop())
        out.append(row)
    return out


def _product_sidedness(a: HyperIdeal, b: HyperIdeal) -> str | None:
    # r(xy) = (rx)y lies in ab when a absorbs on the left, and
    # (xy)r = x(yr) when b absorbs on the right; distributivity carries
    # this over the hypersums of products
    left = a.sidedness != "right"
    right = b.sidedness != "left"
    if left and right:
        return "two-sided"
    if left:
        return "left"
    return "right" if right else None


def ideal_product(a, b, ring: HyperRing | None = None):
    """Product: all elements lying in finite sums of pairwise products.

    Accepts hyperideals or plain element sets over the same ring.  When
    both inputs are hyperideals, the product absorbs on the left when a
    does (left or two sided) and on the right when b does (right or two
    sided); it is asserted to be a hyperideal of that sidedness and is
    returned as such.  A right ideal times a left ideal has no side, and
    then, as for plain element sets, the raw element set comes back.
    """
    a_ideal = isinstance(a, HyperIdeal)
    b_ideal = isinstance(b, HyperIdeal)
    if a_ideal:
        ring = a.ring
    elif b_ideal:
        ring = b.ring
    elif ring is None:
        raise ValueError("pass the ring when neither operand is a HyperIdeal")
    ring.require_validated()
    a_set = a.members if a_ideal else a
    b_set = b.members if b_ideal else b
    for s in (a_set, b_set):
        if not isinstance(s, ElementSet) or s.structure is not ring:
            raise ValueError("operands must live over the same ring")
    mul = ring.mul_table
    products = 0
    for x in bits(a_set.mask):
        row = mul[x]
        for y in bits(b_set.mask):
            products |= 1 << row[y]
    closed = sum_of_products_closure(ring.add_masks, products)
    sided = _product_sidedness(a, b) if a_ideal and b_ideal else None
    if sided is not None:
        check = is_hyperideal(ring, ring.from_mask(closed), sided)
        if not check:
            raise TheoremViolationError(
                f"product of {sided} ideals failed {check.clause} at {check.witness}"
            )
        return HyperIdeal._trusted(ring, closed, sided)
    return ring.from_mask(closed)


def generated_ideal(ring: HyperRing, members, sidedness: str = "two-sided") -> HyperIdeal:
    """Smallest hyperideal containing the given elements.

    Computed by closing under hypersums, negation and the absorbing
    multiplications.  ``cross_check_generated`` confirms it against the
    lattice route.
    """
    ring.require_validated()
    actions = _absorption(ring, sidedness)
    mask = closure(_as_mask(ring, members), ring.add_masks, ring.neg_table, actions)
    return HyperIdeal(ring, ring.from_mask(mask), sidedness)


def cross_check_generated(ring: HyperRing, members, lattice: IdealLattice) -> HyperIdeal:
    """Lattice route for ``generated_ideal``: the meet of the two sided
    ideals containing the set must equal its two sided closure.  Lattice
    membership is the validation: the lattice holds every closed mask,
    so the closure is an ideal exactly when it is in
    ``lattice.two_sided``.  Returns that lattice ideal; raises
    if the routes disagree or the closure is not in it.
    ``cross_check_all_generated`` runs the same comparison on every set."""
    if lattice.ring is not ring:
        raise ValueError("lattice belongs to a different ring")
    ring.require_validated()
    mask = _as_mask(ring, members)
    closed = closure(mask, ring.add_masks, ring.neg_table, _absorption(ring, "two-sided"))
    return _lattice_ideal(ring, mask, closed, lattice)


def cross_check_all_generated(ring: HyperRing, lattice: IdealLattice) -> int:
    """``cross_check_generated`` on all 2^n generating sets, in ascending
    mask order; returns 2^n, or raises on the first set whose routes
    disagree.

    Each closure is found once per seed: with top the highest bit of a
    nonempty mask, closure(mask) = closure(closure(mask - top) + top),
    because ``closure`` is a closure operator.  The earlier masks already
    hold closure(mask - top), a lattice ideal, so at most |L| * n + 1
    fixpoints run, where |L| = len(lattice.two_sided)."""
    if lattice.ring is not ring:
        raise ValueError("lattice belongs to a different ring")
    ring.require_validated()
    add, neg = ring.add_masks, ring.neg_table
    actions = _absorption(ring, "two-sided")
    closed = []   # closed[mask], the closure of each mask so far
    by_seed = {}
    for mask in range(1 << ring.order):
        seed = 0
        if mask:
            top = 1 << (mask.bit_length() - 1)
            seed = closed[mask ^ top] | top
        if seed not in by_seed:
            by_seed[seed] = closure(seed, add, neg, actions)
        closed.append(by_seed[seed])
        _lattice_ideal(ring, mask, by_seed[seed], lattice)
    return len(closed)


def _lattice_ideal(ring: HyperRing, mask: int, closed: int, lattice: IdealLattice) -> HyperIdeal:
    # the comparison both cross-checks make: closed, the closure of mask,
    # must be the meet of the lattice ideals above mask and a lattice ideal
    meet = ring.full_mask
    found = None
    for ideal in lattice.two_sided:
        key = ideal.members.mask
        if mask & ~key == 0:
            meet &= key
        if key == closed:
            found = ideal
    if found is None or meet != closed:
        raise TheoremViolationError(
            f"generated ideal mismatch for {ring.subset(bits(mask))!r}"
        )
    return found


def nilpotent_elements(ring: HyperRing) -> ElementSet:
    """Elements with some power equal to 0 (diagnostic)."""
    ring.require_validated()
    mul = ring.mul_table
    out = 0
    for a in range(ring.order):
        x = a
        for _ in range(ring.order + 1):
            if x == 0:
                out |= 1 << a
                break
            x = mul[x][a]
    return ring.from_mask(out)


def nil_radical(ring: HyperRing, lattice: IdealLattice) -> HyperIdeal:
    """Intersection of the prime two sided hyperideals.

    With no primes at all the intersection over the empty family is the
    whole ring; for the one element ring that is still {0}.
    """
    if not lattice.prime:
        return HyperIdeal._trusted(ring, ring.full_mask, "two-sided")
    return ideal_intersection(lattice.prime)


@dataclass(frozen=True)
class PrimeCheck:
    ok: bool
    witness: tuple = ()


def _prime_witness(ideal: HyperIdeal, two_sided, products) -> tuple | None:
    p = ideal.members.mask
    for a in two_sided:
        am = a.members.mask
        for b in two_sided:
            if products[am, b.members.mask] & ~p == 0:
                if am & ~p and b.members.mask & ~p:
                    return (a, b)
    return None


def is_prime(ideal: HyperIdeal, lattice: IdealLattice) -> PrimeCheck:
    """Primality against every pair of two sided hyperideals,
    the improper one included: the ideal is prime unless some product
    ab in ``lattice.products`` lies in it while neither a nor b does,
    and then (a, b) is the witness."""
    if ideal.ring is not lattice.ring:
        raise ValueError("ideal belongs to a different ring")
    if not ideal.proper:
        raise ValueError("prime ideals are proper by definition")
    w = _prime_witness(ideal, lattice.two_sided, lattice.products)
    return PrimeCheck(w is None, w or ())


@dataclass(frozen=True)
class Quotient:
    """Quotient hyperring together with the coset data and projection."""

    ring: HyperRing          # the quotient structure
    source: HyperRing
    ideal: HyperIdeal
    cosets: tuple            # member mask of each coset, coset of 0 first
    coset_of: tuple          # element index -> coset index
    projection: object       # RingHom from morphisms

    def coset_members(self, index: int) -> ElementSet:
        return self.source.from_mask(self.cosets[index])


def quotient_ring(ring: HyperRing, ideal: HyperIdeal) -> Quotient:
    """R / a for a two sided hyperideal a.

    Cosets are a + r; the tables are built from representatives and
    checked to be representative independent, then the quotient is
    validated like any other ring, once: the ring keeps it by mask.
    """
    ring.require_validated()
    if ideal.ring is not ring:
        raise ValueError("ideal belongs to a different ring")
    if ideal.sidedness != "two-sided":
        raise ValueError("quotients need a two sided hyperideal")

    def build():
        cosets, coset_of, add, neg = quotient_hypergroup(ring, ideal.members.mask)
        mul = induced_value_table(ring.mul_table, cosets, coset_of, cosets)

        unit = None if ring.unit is None else coset_of[ring.unit]
        label = f"{ring.name or 'R'}/{ideal.members!r}"
        out = HyperRing(add, neg, mul, unit=unit, name=label)
        out.checked("quotient by a verified ideal failed validation")

        from .morphisms import RingHom

        projection = RingHom(ring, out, coset_of, name=f"project {label}")
        return Quotient(out, ring, ideal, cosets, coset_of, projection)
    return derived(ring, ("quotient", ideal.members.mask), build)
