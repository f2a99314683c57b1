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
The lattice families and the quotient hypergroups read tables only, so
each is built once per set of tables and kept in a bounded memo
(``core.table_memo``).

Canonical order everywhere is the integer value of the member bit mask.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import NamedTuple

from .core import (
    ElementSet,
    FrozenRecord,
    HyperRing,
    Structure,
    TheoremViolationError,
    _MaskTable,
    _set,
    bits,
    derived,
    hypersum,
    mask_of,
    require_scan_bound,
    set_product,
    table_memo,
)

SIDEDNESS = ("left", "right", "two-sided")


class IdealCheck(NamedTuple):
    ok: bool
    clause: str = ""
    witness: tuple = ()
    detail: str = ""

    def __bool__(self):
        return self.ok

    def asserted(self, what: str):
        """Raise unless the check passed: ``what``, a derived set that a
        theorem says is closed, is not, and ``TheoremViolationError``
        names the failed clause and its witness."""
        if not self.ok:
            raise TheoremViolationError(f"{what} failed {self.clause} at {self.witness}")

    def required(self, noun: str):
        """Raise unless the check passed: the set handed in is not a
        ``noun``, and ``ValueError`` names the failed clause and its
        witness."""
        if not self.ok:
            raise ValueError(f"not a {noun}: {self.clause} fails at {self.witness}")


# what every passing check returns
_HOLDS = IdealCheck(True)


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
    """Decide whether a subset is a hyperideal, with a witness on failure.
    A passing set is kept on the ring per sidedness (``kept_closure_check``)."""
    ring.require_validated()
    actions = _absorption(ring, sidedness)
    check = kept_closure_check(ring, ("closed", sidedness), _as_mask(ring, members), actions)
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
        is_hyperideal(ring, members, sidedness).required(f"{sidedness} hyperideal")
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


class IdealLattice(FrozenRecord):
    """Two sided and right ideals of a ring plus the distinguished families.

    ``products`` maps (a.key, b.key) to the member mask of
    ``ideal_product(a, b)`` for every ordered pair of two sided ideals.
    It is keyed by mask and left out of comparison, hashing and the repr,
    so lattices compare and hash by their families alone.  Lattices of
    rings with equal tables share it, so it is read, never written.
    """

    __slots__ = _fields = ("ring", "two_sided", "right", "maximal", "prime",
                           "maximal_right", "products")
    _unshown = ("products",)

    def __init__(self, ring: HyperRing, two_sided: tuple, right: tuple, maximal: tuple,
                 prime: tuple, maximal_right: tuple, products: dict) -> None:
        _set(self, "ring", ring)
        _set(self, "two_sided", two_sided)
        _set(self, "right", right)
        _set(self, "maximal", maximal)
        _set(self, "prime", prime)
        _set(self, "maximal_right", maximal_right)
        _set(self, "products", products)

    @classmethod
    def build(cls, ring: HyperRing) -> "IdealLattice":
        """The lattice of ring, kept on it.  Its families are masks read
        from the add, neg and mul tables alone, so they come from
        ``_LATTICE_FAMILIES`` when a ring with the same tables was built
        before, wrapped as ideals of this ring."""
        def build():
            require_scan_bound(ring, "ideal")
            two_sided, right, maximal, prime, maximal_right, products = table_memo(
                _LATTICE_FAMILIES, (ring.add_masks, ring.neg_table, ring.mul_table),
                _lattice_families, ring)
            two_sided = {m: HyperIdeal._trusted(ring, m, "two-sided") for m in two_sided}
            right = {m: HyperIdeal._trusted(ring, m, "right") for m in right}
            return cls(ring, tuple(two_sided.values()), tuple(right.values()),
                       tuple(map(two_sided.get, maximal)), tuple(map(two_sided.get, prime)),
                       tuple(map(right.get, maximal_right)), products)
        return derived(ring, "lattice", build)


# the families of each ring's lattice, keyed by its add, neg and mul tables
_LATTICE_FAMILIES = OrderedDict()


def _lattice_families(ring: HyperRing) -> tuple:
    # the member masks of the two sided, right, maximal, prime and
    # maximal right ideals, and the products
    two_sided = enumerate_ideals(ring, "two-sided")
    right = enumerate_ideals(ring, "right")
    products = _product_table(ring, two_sided)

    def keys(family):
        return tuple(i.key for i in family)

    return (keys(two_sided), keys(right),
            keys(i for i in two_sided if _is_maximal_in(i, two_sided)),
            keys(i for i in two_sided if i.proper and _prime_witness(i, two_sided, products) is None),
            keys(i for i in right if _is_maximal_in(i, right)), products)


def _product_table(ring: HyperRing, two_sided) -> dict:
    # ideal_product for every ordered pair, closed once each.  The family
    # holds every closed mask, so a product is a two sided ideal exactly
    # when it is in the family; on a miss ideal_product reports the
    # failed clause, or the product is missing from the enumeration
    mul, add = ring.mul_table, ring.add_masks
    family = {a.key for a in two_sided}
    table = {}
    for a in two_sided:
        for b in two_sided:
            closed = sum_of_products_closure(add, set_product(mul, a.key, b.key))
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
    is_hyperideal(ring, acc, sided).asserted(f"sum of {sided} ideals")
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
    return _HOLDS


def kept_closure_check(structure: Structure, key: tuple, s: int, actions) -> IdealCheck:
    """``closure_check`` of the mask s on the tables of the validated
    structure.  The masks that pass are kept on the structure under key
    (``core.derived``), so a sweep that asserts the same closed set again
    reads the verdict; a mask that fails is stored nowhere and checked
    again on every call, with its witness."""
    passed = derived(structure, key, set)
    if s in passed:
        return _HOLDS
    check = closure_check(s, structure.add_masks, structure.neg_table, actions)
    if check.ok:
        passed.add(s)
    return check


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


def _representative_free(out, clashes) -> list:
    # out once every cell got one value: raise at the first cell, row
    # after row, that got two (listed in clashes) or none
    if clashes or any(None in row for row in out):
        i, j = min(clashes + [(i, j) for i, row in enumerate(out)
                              for j, v in enumerate(row) if v is None])
        raise TheoremViolationError(f"coset tables depend on representatives at ({i}, {j})")
    return out


def induced_set_table(add, cosets, coset_of) -> _MaskTable:
    """Quotient hyperaddition as a mask table: entry (i, j) is the mask of
    the cosets met by a + b for a in coset i and b in coset j, which must
    not depend on the choice of a and b.  One pass over the pairs (a, b),
    each sum's coset mask computed once per distinct sum."""
    out = [[None] * len(cosets) for _ in cosets]
    clashes = []
    coset_bits = [1 << i for i in coset_of]
    images = {}
    for a, row in enumerate(add):
        i = coset_of[a]
        cells = out[i]
        for b, ab in enumerate(row):
            image = images.get(ab)
            if image is None:
                image = 0
                for t in bits(ab):
                    image |= coset_bits[t]
                images[ab] = image
            j = coset_of[b]
            seen = cells[j]
            if seen is None:
                cells[j] = image
            elif seen != image:
                clashes.append((i, j))
    return _MaskTable(map(tuple, _representative_free(out, clashes)))


# the quotient hypergroup of each (add, neg, mask), shared by a ring's
# quotient R/I and its module quotient R_R/I
_QUOTIENT_HYPERGROUPS = OrderedDict()


def quotient_hypergroup(structure: Structure, k: int) -> tuple:
    """(cosets, coset_of, add, neg) of the quotient of a ring's or a
    module's hypergroup by the closed mask k: ``coset_partition``, the
    induced hyperaddition (``induced_set_table``) and the induced
    negation table, each coset's negative.  All four are tuples, kept in
    ``_QUOTIENT_HYPERGROUPS`` by the tables and mask they read."""
    add, neg = structure.add_masks, structure.neg_table
    return table_memo(_QUOTIENT_HYPERGROUPS, (add, neg, k), _quotient_hypergroup, add, neg, k)


def _quotient_hypergroup(add, neg, k: int) -> tuple:
    cosets, coset_of = coset_partition(add, k)
    negs = induced_value_table([(v,) for v in neg], cosets, coset_of, (1,))
    return (cosets, coset_of, induced_set_table(add, cosets, coset_of),
            tuple(row[0] for row in negs))


def induced_value_table(table, cosets, coset_of, columns) -> list:
    """Quotient of a single valued table: entry (i, j) is the coset of
    table[a][b] for a in coset i and b in the column mask columns[j],
    which must not depend on the choice of a and b.  One pass over the
    pairs (a, b)."""
    out = [[None] * len(columns) for _ in cosets]
    clashes = []
    cells_of = [(j, b) for j, cj in enumerate(columns) for b in bits(cj)]
    for a, row in enumerate(table):
        i = coset_of[a]
        cells = out[i]
        for j, b in cells_of:
            v = coset_of[row[b]]
            seen = cells[j]
            if seen is None:
                cells[j] = v
            elif seen != v:
                clashes.append((i, j))
    return _representative_free(out, clashes)


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


def ideal_product(a: HyperIdeal, b: HyperIdeal):
    """Product of two hyperideals over one ring: all elements lying in
    finite sums of pairwise products.

    The product absorbs on the left when a does (left or two sided) and
    on the right when b does (right or two sided); it is asserted to be
    a hyperideal of that sidedness and is returned as such.  A right
    ideal times a left ideal has no side, and then the raw element set
    comes back.
    """
    if not (isinstance(a, HyperIdeal) and isinstance(b, HyperIdeal)):
        raise TypeError("ideal_product takes two HyperIdeals")
    if a.ring is not b.ring:
        raise ValueError("operands must live over the same ring")
    ring = a.ring
    ring.require_validated()
    closed = sum_of_products_closure(ring.add_masks, set_product(ring.mul_table, a.key, b.key))
    sided = _product_sidedness(a, b)
    if sided is None:
        return ring.from_mask(closed)
    is_hyperideal(ring, ring.from_mask(closed), sided).asserted(f"product of {sided} ideals")
    return HyperIdeal._trusted(ring, closed, sided)


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
    fixpoints run, where |L| = len(lattice.two_sided).

    The lattice ideals above mask are a bitset over the family: those
    above mask - top that hold top.  Their meet is taken once per
    distinct bitset, and a set whose routes disagree is named by
    ``_lattice_ideal``, the comparison of the single-set route."""
    return sum(1 for _ in _generated_sweep(ring, lattice))


def _generated_sweep(ring: HyperRing, lattice: IdealLattice):
    # (mask, closure of mask, the lattice ideal it is) for every mask in
    # ascending order, as ``cross_check_all_generated`` describes
    if lattice.ring is not ring:
        raise ValueError("lattice belongs to a different ring")
    ring.require_validated()
    add, neg = ring.add_masks, ring.neg_table
    actions = _absorption(ring, "two-sided")
    keys = [ideal.members.mask for ideal in lattice.two_sided]
    by_key = {ideal.members.mask: ideal for ideal in lattice.two_sided}
    holds = [mask_of(j for j, key in enumerate(keys) if key >> e & 1)
             for e in range(ring.order)]
    above = [(1 << len(keys)) - 1]   # above[mask], the ideals holding mask
    meets = {}    # the meet of the ideals in each bitset met so far
    closed = []   # closed[mask], the closure of each mask so far
    by_seed = {}
    for mask in range(1 << ring.order):
        seed = 0
        if mask:
            bit = mask.bit_length() - 1
            top = 1 << bit
            seed = closed[mask ^ top] | top
            above.append(above[mask ^ top] & holds[bit])
        if seed not in by_seed:
            by_seed[seed] = closure(seed, add, neg, actions)
        result = by_seed[seed]
        closed.append(result)
        meet = meets.get(above[mask])
        if meet is None:
            meet = ring.full_mask
            for j in bits(above[mask]):
                meet &= keys[j]
            meets[above[mask]] = meet
        found = by_key.get(result)
        if found is None or meet != result:
            _lattice_ideal(ring, mask, result, lattice)
        yield mask, result, found


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


class PrimeCheck(NamedTuple):
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


class Quotient(NamedTuple):
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
