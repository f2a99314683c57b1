"""Finite Krasner hyperrings and the structure they share with modules.

A Krasner hyperring (R, +, *, -, 0) has a multivalued addition: a + b is a
nonempty subset of R rather than a single element.  The additive structure
is a canonical hypergroup and multiplication is single valued, associative,
absorbing through 0 and distributive over the hyperaddition (as set
equality on both sides).

The elements of a structure (a ring here, a module in ``hypermodules``)
are the indices {0, .., n-1} and element 0 is the additive identity by
convention.  Subsets are bit masks, so all the set algebra below is
integer arithmetic; ``ElementSet`` wraps a mask together with its
structure, which keeps the sets of different structures apart.

Structures built from raw tables start out unchecked.  Run ``validate()``
(or the individual ``verify_*`` functions) before handing a structure to
the lattice, module, or spectrum layers; those layers refuse unchecked
input rather than silently trusting a table, and keep what they derive
from a checked structure on it (``derived``).

Checks, reports and the other plain records of the package are
``typing.NamedTuple``s, so each compares equal to a tuple with the same
values.  The classes that check what they are built from, ``StrongHom``
with the ring and module homs on it and ``ideals.IdealLattice``, are
``FrozenRecord``s: slotted, read-only, and equal only to an object of
their own class with equal fields.  No module imports ``dataclasses``,
which with the ``inspect`` it loads took about 13 ms of every ``khr``
start.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import lru_cache
from typing import NamedTuple


class CarrierMismatchError(ValueError):
    """Two operands live over different carriers."""


class NotValidatedError(RuntimeError):
    """A structure was used before its verification passed."""


class BoundExceededError(ValueError):
    """An enumeration would exceed its configured bound."""


class TheoremViolationError(AssertionError):
    """A property that holds for every valid structure failed.

    Raised only from invariants that are theorems for verified input, so
    seeing one means either the input bypassed validation or the theorem
    itself has a counterexample worth reporting.
    """


def mask_of(members) -> int:
    m = 0
    for i in members:
        m |= 1 << i
    return m


def _bits_table(width: int) -> tuple:
    # the masks with top bit top are those below it, each with top added
    table = [()]
    for top in range(width):
        table += [t + (top,) for t in table]
    return tuple(table)


# the most elements whose subsets a search may visit in the worst case
# (``require_scan_bound``, spectrum.compactness_witness)
ENUMERATION_BOUND = 12

# the answer of ``bits`` for every mask a search meets; 4096 tuples, built
# once at import
_BITS = _bits_table(ENUMERATION_BOUND)


def bits(mask: int) -> tuple:
    """Indices of the set bits of the non-negative ``mask``, ascending."""
    try:
        return _BITS[mask]
    except IndexError:
        return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


class ElementSet:
    """Subset of the elements of one structure, stored as a bit mask.
    Sets compare by structure identity: two structures of equal order
    still keep their sets apart."""

    __slots__ = ("structure", "mask")

    def __init__(self, structure: "Structure", mask: int):
        self.structure = structure
        self.mask = mask

    def _lift(self, other: "ElementSet") -> int:
        if not isinstance(other, ElementSet):
            raise TypeError(f"expected ElementSet, got {type(other).__name__}")
        if other.structure is not self.structure:
            raise CarrierMismatchError("operands live over different carriers")
        return other.mask

    def __or__(self, other):
        return ElementSet(self.structure, self.mask | self._lift(other))

    def __eq__(self, other):
        if not isinstance(other, ElementSet):
            return NotImplemented
        return self.structure is other.structure and self.mask == other.mask

    def __iter__(self):
        return iter(bits(self.mask))

    def __len__(self):
        return self.mask.bit_count()

    @property
    def members(self) -> tuple:
        return bits(self.mask)

    def is_full(self) -> bool:
        return self.mask == self.structure.full_mask

    def __repr__(self):
        return "{" + ",".join(str(i) for i in self) + "}"


class AxiomCheck(NamedTuple):
    axiom: str
    ok: bool
    witness: tuple = ()
    detail: str = ""


def axiom_check(axiom: str, bad, claim: str) -> AxiomCheck:
    """The check of axiom whose first failing instance is bad (None when
    it holds), described by claim formatted over bad: {0}, {1}, .. are
    its entries and {w} the whole instance."""
    if bad is None:
        return AxiomCheck(axiom, True)
    return AxiomCheck(axiom, False, bad, claim.format(*bad, w=bad))


class VerificationReport(NamedTuple):
    checks: tuple

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> tuple:
        return tuple(c for c in self.checks if not c.ok)


class ValidationReport(NamedTuple):
    """What ``validate()`` finds on a ring or a module: the hypergroup
    axioms of its addition, then the axioms of its single-valued table
    (the multiplication of a ring, the action of a module)."""

    hypergroup: VerificationReport
    table: VerificationReport

    @property
    def ok(self) -> bool:
        return self.hypergroup.ok and self.table.ok

    @property
    def failures(self) -> tuple:
        return self.hypergroup.failures + self.table.failures


class _MaskTable(tuple):
    """A set table whose cells are member masks already.  The builders of
    derived structures hand their tables over in it, so the structure
    keeps the rows rather than packing member lists back into masks; the
    public constructors take member lists only."""


def _normalize_set_table(n: int, table) -> tuple:
    masks = isinstance(table, _MaskTable)
    rows = tuple(table)
    if len(rows) != n:
        raise ValueError(f"set table must have {n} rows, got {len(rows)}")
    out = []
    for row in rows:
        cells = tuple(row)
        if len(cells) != n:
            raise ValueError(f"set table rows must have {n} cells, got {len(cells)}")
        out.append(cells if masks else tuple(mask_of(int(i) for i in cell) for cell in cells))
    for row in out:
        for m in row:
            if m >> n:
                raise ValueError("set table entry mentions an element outside the carrier")
    return tuple(out)


def _normalize_value_table(n: int, columns: int, table, what: str) -> tuple:
    rows = tuple(table)
    if len(rows) != n:
        raise ValueError(f"{what} table must have {n} rows, got {len(rows)}")
    out = []
    for row in rows:
        cells = tuple(int(v) for v in row)
        if len(cells) != columns:
            raise ValueError(f"{what} table rows must have {columns} cells, got {len(cells)}")
        for v in cells:
            if not 0 <= v < n:
                raise ValueError(f"{what} value {v} outside carrier of size {n}")
        out.append(cells)
    return tuple(out)


class Structure:
    """What a hyperring and a right hypermodule share: the hypergroup
    tables (``add_masks``, n x n masks, and ``neg_table``), the elements
    {0, .., order-1} they span, the subsets of them (``ElementSet``), a
    name, the validation gate and the objects derived from the structure
    once it is validated (``derived``)."""

    __slots__ = ("order", "full_mask", "add_masks", "neg_table", "name",
                 "_checked", "_derived")

    def _hypergroup(self, add, neg, name):
        # start unchecked on the elements neg spans, with the add table as
        # masks and the neg table, both range checked
        neg_t = tuple(int(v) for v in neg)
        n = len(neg_t)
        if n < 1:
            raise ValueError("carrier needs at least the zero element")
        self.order = n
        self.full_mask = (1 << n) - 1
        self.add_masks = _normalize_set_table(n, add)
        for v in neg_t:
            self.check_element(v)
        self.neg_table = neg_t
        self.name = name
        self._checked = False
        self._derived = {}

    def _settle(self, verify_table, key: tuple) -> ValidationReport:
        # the hypergroup checks and verify_table(self), each reported once
        # per distinct value of what it reads (key, for verify_table);
        # usable once both pass
        report = ValidationReport(_hypergroup_report(self.add_masks, self.neg_table),
                                  table_memo(_TABLE_REPORTS, key, verify_table, self))
        if report.ok:
            self._checked = True
        return report

    def checked(self, what: str):
        """Validate a structure built from validated ones and return it;
        a failure breaks a theorem and raises ``what: failures``."""
        report = self.validate()
        if not report.ok:
            raise TheoremViolationError(f"{what}: {report.failures}")
        return self

    @property
    def validated(self) -> bool:
        return self._checked

    def require_validated(self):
        if not self._checked:
            raise NotValidatedError(
                f"{self!r} has not passed validation; call validate() first"
            )

    def check_element(self, i: int) -> int:
        if not 0 <= i < self.order:
            raise ValueError(f"element {i} outside carrier of size {self.order}")
        return i

    def subset(self, members) -> ElementSet:
        m = 0
        for i in members:
            self.check_element(i)
            m |= 1 << i
        return ElementSet(self, m)

    def from_mask(self, mask: int) -> ElementSet:
        if mask & ~self.full_mask:
            raise ValueError("mask has bits outside the carrier")
        return ElementSet(self, mask)

    def members_mask(self, members) -> int:
        """The mask of an ElementSet of this structure, or of any other
        iterable of its elements."""
        if isinstance(members, ElementSet):
            if members.structure is not self:
                raise ValueError("member set lives over a different carrier")
            return members.mask
        return self.subset(members).mask


class HyperRing(Structure):
    """Krasner hyperring given by explicit finite tables.

    add   : n x n table of nonempty subsets (any iterables of indices)
    neg   : length n list, neg[a] is the claimed additive inverse of a
    mul   : n x n table of single elements
    unit  : optional claimed multiplicative identity

    The tables are stored as given.  Nothing is trusted until
    ``validate()`` has passed; most operations in the other modules call
    ``require_validated()`` first.
    """

    __slots__ = ("mul_table", "unit")

    def __init__(self, add, neg, mul, unit=None, name=None):
        self._hypergroup(add, neg, name)
        n = self.order
        self.mul_table = _normalize_value_table(n, n, mul, "mul")
        self.unit = None if unit is None else self.check_element(int(unit))

    @property
    def is_unital(self) -> bool:
        return self.unit is not None

    def add(self, a: int, b: int) -> ElementSet:
        return ElementSet(self, self.add_masks[a][b])

    def neg(self, a: int) -> int:
        return self.neg_table[a]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def validate(self) -> ValidationReport:
        """Run both verification passes and mark the ring usable on success."""
        return self._settle(verify_hyperring, self._key())

    def _key(self) -> tuple:
        # every value verify_hyperring reads
        return (self.add_masks, self.neg_table, self.mul_table, self.unit)

    def encoding(self) -> tuple:
        """Canonical tuple encoding of the tables (used for ordering,
        fingerprints and isomorphism tests)."""
        return (
            self.order,
            tuple(m for row in self.add_masks for m in row),
            self.neg_table,
            tuple(v for row in self.mul_table for v in row),
            -1 if self.unit is None else self.unit,
        )

    def __repr__(self):
        label = self.name or f"hyperring of order {self.order}"
        return f"<HyperRing {label}{'' if self._checked else ' (unchecked)'}>"


def derived(obj, key, build):
    """What build() returns for the validated structure obj, built on the
    first request for key and kept in obj._derived."""
    obj.require_validated()
    if key not in obj._derived:
        obj._derived[key] = build()
    return obj._derived[key]


def hypersum(ring: HyperRing, x: ElementSet, y: ElementSet) -> ElementSet:
    """Set sum: union of a + b over a in x, b in y.  Empty inputs give
    the empty set."""
    if x.structure is not ring or y.structure is not ring:
        raise CarrierMismatchError("hypersum operands must live over the ring's carrier")
    add = ring.add_masks
    out = 0
    for a in bits(x.mask):
        row = add[a]
        for b in bits(y.mask):
            out |= row[b]
    return ElementSet(ring, out)


def set_product(table, xs: int, ys: int) -> int:
    """Mask of table[x][y] over x in the mask xs and y in the mask ys,
    for a single valued table: a ring's products or a module's action."""
    out = 0
    for x in bits(xs):
        row = table[x]
        for y in bits(ys):
            out |= 1 << row[y]
    return out


def neg_set(ring: HyperRing, x: ElementSet) -> ElementSet:
    """Elementwise additive inverse of a subset."""
    if x.structure is not ring:
        raise CarrierMismatchError("neg_set operand must live over the ring's carrier")
    return ElementSet(ring, mask_of(ring.neg_table[a] for a in bits(x.mask)))


def hypergroup_checks(n: int, add, neg) -> list:
    """Axiom checks for a canonical hypergroup given raw mask tables.

    Shared by rings and modules; returns a list of AxiomCheck.  Witnesses
    are the smallest offending tuples in scan order.  Associativity scans
    only a < c of (a, b, c) when the addition commutes: (a, b, c) fails
    exactly when (c, b, a) does, the one with the smaller first entry
    coming first in the scan, and (a, b, a) holds.  Reversibility scans
    only b <= c of (a, b, c) then, by the same argument for (a, c, b).
    """
    E = range(n)
    empty = next(((a, b) for a in E for b in E if not add[a][b]), None)
    checks = [axiom_check("totality", empty, "{0} + {1} is empty")]
    if empty is not None:
        # the remaining checks assume nonempty entries
        return checks
    unswapped = next(((a, b) for a in E for b in range(a + 1, n) if add[a][b] != add[b][a]), None)
    checks.append(axiom_check("commutativity", unswapped, "{0} + {1} differs from {1} + {0}"))
    checks.append(axiom_check(
        "associativity", hypergroup_associativity_failure(add),
        "(a + b) + c != a + (b + c) at {w}"))
    checks.append(axiom_check(
        "identity", next(((a,) for a in E if add[a][0] != 1 << a), None),
        "{0} + 0 != {{{0}}}"))

    inverses = [[b for b in E if add[a][b] & 1] for a in E]
    bad = next(((a,) for a in E if inverses[a] != [neg[a]]), None)
    found = inverses[bad[0]] if bad else []
    checks.append(axiom_check(
        "negation", bad,
        f"neg table says -{{0}} = {neg[bad[0]]} but 0 lies in {{0}} + {found[0]}"
        if len(found) == 1 else f"element {{0}} has {len(found)} additive inverses"))

    # a in b + c forces c in -b + a, then b in a - c; stated against the
    # declared neg table, so it is still checkable when negation failed.
    # With a commutative addition (a, c, b) states the same two conditions
    # and comes first in the scan when c < b, so c runs from b up
    bad = next(((a, b, c) for b in E for c in (E if unswapped else range(b, n))
                for a in bits(add[b][c])
                if not (add[neg[b]][a] >> c & 1 and add[a][neg[c]] >> b & 1)), None)
    checks.append(axiom_check(
        "reversibility", bad,
        "{2} not in -{1} + {0}" if bad and not add[neg[bad[1]]][bad[0]] >> bad[2] & 1
        else "{1} not in {0} - {2}"))
    return checks


# how many results each table memo keeps: the smallest power of two that
# holds the working set of generate_corpus(4) and then run_ring_checks on
# its 163 rings, so each result is built once per distinct key.  That set
# is 842 table verdicts (163 from the build, 679 from the sweep), 110
# hypergroup verdicts, 272 strong-map lists (110 and 162), 163 lattice
# families and 284 quotient hypergroups; at 512 the sweep rebuilds 113
# evicted table verdicts
_VERDICTS_KEPT = 1024


@lru_cache(maxsize=_VERDICTS_KEPT)
def _hypergroup_report(add_masks: tuple, neg_table: tuple) -> VerificationReport:
    # the verdict of hypergroup_checks depends on the two tables alone, and
    # a sweep validates many structures over few additive tables; the call
    # goes through the module global, so a wrapped hypergroup_checks sees
    # every miss
    return VerificationReport(
        tuple(hypergroup_checks(len(neg_table), add_masks, neg_table)))


def table_memo(store: OrderedDict, key: tuple, build, *args):
    """build(*args), kept in store for the last _VERDICTS_KEPT distinct
    keys, least recently used out first.  key holds every value the
    result reads, as tables and never a structure, and the result holds
    tables or masks only, so nothing kept pins a ring or what is derived
    from it.  A miss calls the build passed in, so a wrapped builder sees
    every miss, and a build that raises stores nothing."""
    value = store.pop(key, None)
    if value is None:
        value = build(*args)
    store[key] = value
    if len(store) > _VERDICTS_KEPT:
        store.popitem(last=False)
    return value


# the table verdict of each structure, keyed by what its verifier reads
_TABLE_REPORTS = OrderedDict()


def verify_hyperring(ring: HyperRing) -> VerificationReport:
    """Check the multiplicative axioms: those of the ring acting on itself
    from the right (mul-associativity is action-associativity, left and
    right distributivity are action-sum and sum-action), absorption and
    the unit.

    Each axiom reports its first failing (a, b, c) in lexicographic
    order, right distributivity with c outermost.  When the addition
    commutes, left distributivity scans only b <= c and right
    distributivity only a <= b: an instance fails exactly when its swap,
    which comes first in the scan, does.

    Meaningful on top of a passing hypergroup check; run ``validate()``
    to get both in the right order.
    """
    add = ring.add_masks
    mul = ring.mul_table
    E = range(ring.order)
    checks = [
        axiom_check("mul-associativity", action_associativity_failure(mul, mul),
                    "(a * b) * c != a * (b * c) at {w}"),
        axiom_check("absorption",
                    next(((a,) for a in E if mul[a][0] != 0 or mul[0][a] != 0), None),
                    "products of {0} with 0 are not 0"),
        axiom_check("left-distributivity", action_sum_failure(add, add, mul),
                    "a * (b + c) != a*b + a*c at {w}"),
        # (a, b, c) with c outermost
        axiom_check("right-distributivity",
                    sum_action_failure(add, mul, by_column=True),
                    "(a + b) * c != a*c + b*c at {w}"),
    ]
    u = ring.unit
    if u is not None:
        checks.append(axiom_check(
            "unit", next(((a,) for a in E if mul[a][u] != a or mul[u][a] != a), None),
            f"{u} does not act as identity on {{0}}"))

    return VerificationReport(tuple(checks))


def find_unit(n: int, mul) -> int | None:
    """Two sided multiplicative identity of a raw mul table, if any."""
    for u in range(n):
        if all(mul[a][u] == a and mul[u][a] == a for a in range(n)):
            return u
    return None


# the largest source or target carrier of a hom search
# (``require_hom_bound``)
HOM_SEARCH_BOUND = 6


def search(sizes, rules) -> list:
    """Every tuple v with 0 <= v[i] < sizes[i] that passes all rules, in
    lexicographic order, found by backtracking over the cells in order.

    A rule is a pair (watch, test).  test(values, i) runs whenever a
    watched cell i has just been filled; cells 0..i are set, and it
    returns False only when they already break the rule.  A rule that
    reads a cell chosen by another cell's value watches every cell it may
    read and passes while one of them is unset (index > i).
    """
    tests = [[] for _ in sizes]
    for watch, test in rules:
        for i in set(watch):
            tests[i].append(test)
    values, out = [0] * len(sizes), []

    def fill(i):
        if i == len(values):
            out.append(tuple(values))
            return
        for values[i] in range(sizes[i]):
            for test in tests[i]:
                if not test(values, i):
                    break
            else:
                fill(i + 1)

    fill(0)
    # fill refers to itself; break that cycle so the rules and what they
    # hold go when the search returns, not at a later collection
    del fill
    return out


def sum_rule(x: int, y: int, parts, add) -> tuple:
    """Search rule: the values of the cells listed in ``parts``, as a
    set, are exactly add[values[x]][values[y]]."""

    def test(values, i):
        image = 0
        for c in parts:
            image |= 1 << values[c]
        return image == add[values[x]][values[y]]

    return ((max(x, y, *parts),), test)


def is_commutative(table) -> bool:
    """Whether the square table equals its transpose."""
    return list(zip(*table)) == list(map(tuple, table))


# The axiom checkers: hypergroup associativity, and the three axioms that
# tie a single-valued action act (act[m][r] is m r) of a right module with
# hypergroup madd to a ring with addition radd and product rmul.  A ring
# is a right module over itself, so (add, add, mul, mul) turns the three
# into right distributivity, left distributivity and mul-associativity.
# Each checker is a loop nest over the tables that returns the first
# failing instance of its scan order, or None.  An axiom that reads one
# or two hyperadditions has the same two sides, up to order, at an
# instance and at its swap (two entries exchanged) once those tables
# commute, so the two fail together and the one with the smaller outer
# entry comes first in the scan: a checker whose additions commute, as
# it tests itself, scans only that half.

def hypergroup_associativity_failure(add):
    """The first (a, b, c), lexicographic, with (a + b) + c != a + (b + c).

    With add commutative, (c + b) + a is a + (b + c) and c + (b + a) is
    (a + b) + c, so (a, b, c) fails exactly when (c, b, a) does, and
    (a, b, a) holds: only a < c is scanned."""
    n = len(add)
    commutative = is_commutative(add)
    for a, row_a in enumerate(add):
        for b, ab in enumerate(row_a):
            parts = bits(ab)
            row_b = add[b]
            for c in range(a + 1 if commutative else 0, n):
                lhs = 0
                for t in parts:
                    lhs |= add[t][c]
                rhs = 0
                for u in bits(row_b[c]):
                    rhs |= row_a[u]
                if lhs != rhs:
                    return (a, b, c)
    return None


def sum_action_failure(madd, act, by_column: bool = False):
    """The first (a, b, r) with (a + b) r != a r + b r: lexicographic, or
    with r outermost when by_column.  Both come from one scan with r
    innermost; by column, a failure at r leaves only the columns before r
    to scan.

    With madd commutative, (b, a, r) has the same two sides as (a, b, r):
    only a <= b is scanned."""
    n, columns = len(madd), len(act[0])
    commutative = is_commutative(madd)
    found = None
    for a, madd_a in enumerate(madd):
        act_a = act[a]
        for b in range(a if commutative else 0, n):
            parts = bits(madd_a[b])
            act_b = act[b]
            for r in range(columns):
                image = 0
                for t in parts:
                    image |= 1 << act[t][r]
                if image != madd[act_a[r]][act_b[r]]:
                    if r == 0 or not by_column:
                        return (a, b, r)
                    found, columns = (a, b, r), r
                    break
    return found


def action_sum_failure(madd, radd, act):
    """The first (m, r, s), lexicographic, with m (r + s) != m r + m s.

    With radd and madd commutative, (m, s, r) has the same two sides as
    (m, r, s): only r <= s is scanned."""
    nr = len(radd)
    commutative = is_commutative(radd) and is_commutative(madd)
    for m, row in enumerate(act):
        images = [1 << v for v in row]
        for r, radd_r in enumerate(radd):
            madd_mr = madd[row[r]]
            for s in range(r if commutative else 0, nr):
                image = 0
                for t in bits(radd_r[s]):
                    image |= images[t]
                if image != madd_mr[row[s]]:
                    return (m, r, s)
    return None


def action_associativity_failure(rmul, act):
    """The first (m, r, s), lexicographic, with m (r s) != (m r) s: row m
    after s -> r s, against row m r."""
    for m, row in enumerate(act):
        for r, mr in enumerate(row):
            act_mr = act[mr]
            for s, rs in enumerate(rmul[r]):
                if row[rs] != act_mr[s]:
                    return (m, r, s)
    return None


def strong_addition_rules(source_add, target_add) -> list:
    """Search rules on cells a holding f(a), with f(0) = 0: f sends each
    hypersum a + b of source_add onto exactly f(a) + f(b) in target_add.

    Both tables must be commutative and target_add must have 0 as its
    identity, as every validated table has.  Then a pair with a 0 holds
    for any f fixing 0, and (b, a) holds with (a, b), so only the pairs
    1 <= a <= b become rules."""
    return [sum_rule(a, b, bits(source_add[a][b]), target_add)
            for a in range(1, len(source_add)) for b in range(a, len(source_add))]


# the strong maps between each pair of addition tables
_STRONG_MAPS = OrderedDict()


def strong_maps(source_add, target_add) -> tuple:
    """The maps f fixing 0 that send each hypersum a + b of source_add
    onto exactly f(a) + f(b) in target_add, as mapping tuples in
    lexicographic order: ``search`` under ``strong_addition_rules``, run
    once per pair of tables while the memo keeps it.  The hom and action
    table searches each filter this list by the rules that read their
    other tables."""
    return table_memo(_STRONG_MAPS, (source_add, target_add), _strong_maps,
                      source_add, target_add)


def _strong_maps(source_add, target_add) -> tuple:
    sizes = [1] + [len(target_add)] * (len(source_add) - 1)
    return tuple(search(sizes, strong_addition_rules(source_add, target_add)))


def action_tables(madd, radd, rmul=None) -> list:
    """Every action table of a module with hypergroup madd over a ring with
    addition radd and product rmul that passes the three axioms above and
    kills 0 from both sides, as n x |R| rows in lexicographic order.  With
    rmul None the table searched is the ring's own product (madd is radd):
    the multiplications that make the hypergroup a hyperring.

    Row m is the map r -> m r.  Action-sum says it is a strong hom from
    radd to madd, and killing 0 says it fixes 0, so ``strong_maps`` lists
    those maps (the zero map first) and ``search`` then finds rows whose
    value is an index into that list; the tables keep the lexicographic
    order.
    Two rules link the rows: sum-action (a + b) r = a r + b r, read from
    rows a, b and the rows of a + b; and associativity (m r) s = m (r s),
    which says row m r is row m after s -> r s (row r, for a product).
    Instances with a 0 hold once row 0 is zero, so only nonzero ones
    become rules."""
    n, nr = len(madd), len(radd)
    maps = strong_maps(radd, madd)
    columns = range(1, nr)
    rules = []
    for a in range(1, n):
        for b in range(a, n):
            parts = bits(madd[a][b])

            def sum_action(v, i, a=a, b=b, parts=parts):
                row_a, row_b = maps[v[a]], maps[v[b]]
                rows = [maps[v[t]] for t in parts]
                for r in columns:
                    image = 0
                    for row in rows:
                        image |= 1 << row[r]
                    if image != madd[row_a[r]][row_b[r]]:
                        return False
                return True

            rules.append(((max(a, b, *parts),), sum_action))
    for m in range(1, n):
        for r in columns:
            # decided at the last of row m, row r (products) and row m r,
            # so it watches every row from the first two on
            first = m if rmul is not None else max(m, r)

            def associativity(v, i, m=m, r=r, first=first):
                row = maps[v[m]]
                mr = row[r]
                if max(first, mr) != i:
                    return True
                times_r = maps[v[r]] if rmul is None else rmul[r]
                return maps[v[mr]] == tuple(row[t] for t in times_r)

            rules.append((range(first, n), associativity))
    sizes = [1] + [len(maps)] * (n - 1)
    return [tuple(maps[i] for i in v) for v in search(sizes, rules)]


def require_hom_bound(source: Structure, target: Structure):
    """Refuse a hom search whose source or target order exceeds
    HOM_SEARCH_BOUND."""
    if source.order > HOM_SEARCH_BOUND or target.order > HOM_SEARCH_BOUND:
        raise BoundExceededError(
            f"hom search is exhaustive over {target.order}^{source.order - 1} maps; "
            f"orders ({source.order}, {target.order}) exceed the bound {HOM_SEARCH_BOUND}"
        )


def require_scan_bound(structure: Structure, noun: str):
    """Refuse an unvalidated structure, or a closed-subset search whose
    worst case, the 2^(n-1) subsets holding 0, has n past ENUMERATION_BOUND;
    noun names what is searched for.  Runs before the search builds anything."""
    structure.require_validated()
    if structure.order > ENUMERATION_BOUND:
        raise BoundExceededError(
            f"{noun} enumeration scans 2^{structure.order - 1} subsets; "
            f"order {structure.order} exceeds the bound {ENUMERATION_BOUND}"
        )


_set = object.__setattr__


class FrozenRecord:
    """Base of the read-only classes that check what they are built from.

    ``_fields`` names the constructor's fields in order; the repr,
    equality and the hash read each but those in ``_unshown``, and only an
    object of the same class compares equal.  A subclass sets its fields
    with ``object.__setattr__``.  Equality and the hash look each field up
    by name, which no workload notices: none compares or hashes these
    objects."""

    __slots__ = ()
    _fields = ()
    _unshown = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields
                          if f not in self._unshown)
        return f"{type(self).__qualname__}({shown})"

    def _values(self):
        return tuple(getattr(self, f) for f in self._fields if f not in self._unshown)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def _replace(self, **changes):
        """A copy with the named fields changed, built and checked anew."""
        return type(self)(**{f: changes.pop(f, getattr(self, f)) for f in self._fields},
                          **changes)


class StrongHom(FrozenRecord):
    """Map between two structures given by a value table on the source:
    what ring homs and module homs share."""

    __slots__ = _fields = ("source", "target", "mapping", "name")

    def __init__(self, source: Structure, target: Structure, mapping: tuple,
                 name: str | None = None) -> None:
        mapping = tuple(map(int, mapping))
        if len(mapping) != source.order:
            raise ValueError("mapping must cover the source carrier")
        for v in mapping:
            target.check_element(v)
        _set(self, "source", source)
        _set(self, "target", target)
        _set(self, "mapping", mapping)
        _set(self, "name", name)

    def image_mask(self) -> int:
        return mask_of(self.mapping)

    def is_surjective(self) -> bool:
        return self.image_mask() == self.target.full_mask

    def is_injective(self) -> bool:
        return len(set(self.mapping)) == len(self.mapping)


def strong_hom_checks(hom: StrongHom) -> list:
    """The checks every strong hom starts with: 0 maps to 0, and f sends
    each hypersum a + b onto exactly f(a) + f(b), the witness being the
    first failing (a, b)."""
    f = hom.mapping
    target_add = hom.target.add_masks
    pw = [1 << v for v in f]
    bad = None
    for a, row in enumerate(hom.source.add_masks):
        for b, ab in enumerate(row):
            image = 0
            for t in bits(ab):
                image |= pw[t]
            if image != target_add[f[a]][f[b]]:
                bad = (a, b)
                break
        if bad:
            break
    claim = "image escapes the target hypersum"
    if bad and not image & ~target_add[f[a]][f[b]]:
        claim = ("image only covers part of the target hypersum "
                 "(a weak hom, not a strong one)")
    return [axiom_check("zero", None if f[0] == 0 else (0,), "0 must map to 0"),
            axiom_check("strong-addition", bad, claim)]


def hom_search(cls, source: Structure, target: Structure, keep, verify, what: str) -> tuple:
    """Every cls(source, target, f) for the strong maps f between the two
    addition tables (``strong_maps``) that pass keep(f), lexicographic.
    Each is re-verified by verify, and one that fails raises "<what>
    produced ...".  Callers bound the orders first (``require_hom_bound``)
    where the search must stay small."""
    homs = tuple(cls(source, target, f)
                 for f in strong_maps(source.add_masks, target.add_masks) if keep(f))
    for hom in homs:
        report = verify(hom)
        if not report.ok:
            raise TheoremViolationError(
                f"{what} produced {hom.mapping}, which fails {report.failures}")
    return homs
