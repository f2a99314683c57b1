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
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from operator import itemgetter


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
    table = [()]
    for m in range(1, 1 << width):
        top = m.bit_length() - 1
        table.append(table[m ^ 1 << top] + (top,))
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

    def complement(self) -> "ElementSet":
        return ElementSet(self.structure, self.structure.full_mask & ~self.mask)

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


@dataclass(frozen=True)
class AxiomCheck:
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


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> tuple:
        return tuple(c for c in self.checks if not c.ok)


@dataclass(frozen=True)
class ValidationReport:
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
                                  _table_report(key, verify_table, self))
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

    def singleton(self, i: int) -> ElementSet:
        self.check_element(i)
        return ElementSet(self, 1 << i)

    def full_set(self) -> ElementSet:
        return ElementSet(self, self.full_mask)

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


def neg_set(ring: HyperRing, x: ElementSet) -> ElementSet:
    """Elementwise additive inverse of a subset."""
    if x.structure is not ring:
        raise CarrierMismatchError("neg_set operand must live over the ring's carrier")
    return ElementSet(ring, mask_of(ring.neg_table[a] for a in bits(x.mask)))


def hypergroup_checks(n: int, add, neg) -> list:
    """Axiom checks for a canonical hypergroup given raw mask tables.

    Shared by rings and modules; returns a list of AxiomCheck.  Witnesses
    are the smallest offending tuples in scan order.
    """
    E = range(n)
    empty = next(((a, b) for a in E for b in E if not add[a][b]), None)
    checks = [axiom_check("totality", empty, "{0} + {1} is empty")]
    if empty is not None:
        # the remaining checks assume nonempty entries
        return checks
    checks.append(axiom_check(
        "commutativity",
        next(((a, b) for a in E for b in range(a + 1, n) if add[a][b] != add[b][a]), None),
        "{0} + {1} differs from {1} + {0}"))
    checks.append(axiom_check(
        "associativity", hypergroup_associativity_failure(add, product(E, repeat=3)),
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
    # declared neg table, so it is still checkable when negation failed
    bad = next(((a, b, c) for b in E for c in E for a in bits(add[b][c])
                if not (add[neg[b]][a] >> c & 1 and add[a][neg[c]] >> b & 1)), None)
    checks.append(axiom_check(
        "reversibility", bad,
        "{2} not in -{1} + {0}" if bad and not add[neg[bad[1]]][bad[0]] >> bad[2] & 1
        else "{1} not in {0} - {2}"))
    return checks


# how many verdicts each validation memo keeps
_VERDICTS_KEPT = 64


@lru_cache(maxsize=_VERDICTS_KEPT)
def _hypergroup_report(add_masks: tuple, neg_table: tuple) -> VerificationReport:
    # the verdict of hypergroup_checks depends on the two tables alone, and
    # a sweep validates many structures over few additive tables; the call
    # goes through the module global, so a wrapped hypergroup_checks sees
    # every miss
    return VerificationReport(
        tuple(hypergroup_checks(len(neg_table), add_masks, neg_table)))


_TABLE_REPORTS = OrderedDict()


def _table_report(key: tuple, verify, structure) -> VerificationReport:
    # verify(structure), kept for the last distinct keys as
    # _hypergroup_report keeps its verdicts: key holds every value the
    # report reads, as tables and never a structure, so nothing kept pins
    # a ring or what is derived from it; a miss calls the verifier passed
    # in, so a wrapped verifier sees every miss
    report = _TABLE_REPORTS.pop(key, None)
    if report is None:
        report = verify(structure)
    _TABLE_REPORTS[key] = report
    if len(_TABLE_REPORTS) > _VERDICTS_KEPT:
        _TABLE_REPORTS.popitem(last=False)
    return report


def verify_hyperring(ring: HyperRing) -> VerificationReport:
    """Check the multiplicative axioms: those of the ring acting on itself
    from the right (mul-associativity is action-associativity, left and
    right distributivity are action-sum and sum-action), absorption and
    the unit.

    Meaningful on top of a passing hypergroup check; run ``validate()``
    to get both in the right order.
    """
    add = ring.add_masks
    mul = ring.mul_table
    E = range(ring.order)
    checks = [
        axiom_check("mul-associativity",
                    action_associativity_failure(mul, mul, product(E, repeat=3)),
                    "(a * b) * c != a * (b * c) at {w}"),
        axiom_check("absorption",
                    next(((a,) for a in E if mul[a][0] != 0 or mul[0][a] != 0), None),
                    "products of {0} with 0 are not 0"),
        axiom_check("left-distributivity",
                    action_sum_failure(add, add, mul, product(E, repeat=3)),
                    "a * (b + c) != a*b + a*c at {w}"),
        # (a, b, c) with c outermost: product gives (c, a, b)
        axiom_check("right-distributivity",
                    sum_action_failure(add, mul, map(itemgetter(1, 2, 0), product(E, repeat=3))),
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


HOM_SEARCH_BOUND = 6

# the largest carrier of the simple-module search
# (primitivity.enumerate_simple_modules)
SIMPLE_MODULE_ORDER = 3


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


def hypergroup_associativity_failure(add, instances):
    """The first (a, b, c) in instances with (a + b) + c != a + (b + c)."""
    for a, b, c in instances:
        row_a = add[a]
        lhs = 0
        for t in bits(row_a[b]):
            lhs |= add[t][c]
        rhs = 0
        for u in bits(add[b][c]):
            rhs |= row_a[u]
        if lhs != rhs:
            return (a, b, c)
    return None


# The three axioms that tie a single-valued action act (act[m][r] is m r)
# of a right module with hypergroup madd to a ring with addition radd and
# product rmul.  A ring is a right module over itself, so (add, add, mul,
# mul) turns them into right distributivity, left distributivity and
# mul-associativity.  Each checker returns the first failing instance of
# the scan order it is given, or None.

def sum_action_failure(madd, act, instances):
    """The first (a, b, r) in instances with (a + b) r != a r + b r."""
    for a, b, r in instances:
        image = 0
        for t in bits(madd[a][b]):
            image |= 1 << act[t][r]
        if image != madd[act[a][r]][act[b][r]]:
            return (a, b, r)
    return None


def action_sum_failure(madd, radd, act, instances):
    """The first (m, r, s) in instances with m (r + s) != m r + m s."""
    for m, r, s in instances:
        row = act[m]
        image = 0
        for t in bits(radd[r][s]):
            image |= 1 << row[t]
        if image != madd[row[r]][row[s]]:
            return (m, r, s)
    return None


def action_associativity_failure(rmul, act, instances):
    """The first (m, r, s) in instances with m (r s) != (m r) s."""
    for m, r, s in instances:
        row = act[m]
        if row[rmul[r][s]] != act[row[r]][s]:
            return (m, r, s)
    return None


def action_tables(madd, radd, rmul=None) -> list:
    """Every action table of a module with hypergroup madd over a ring with
    addition radd and product rmul that passes the three axioms above and
    kills 0 from both sides, as n x |R| rows in lexicographic order, by
    ``search`` over cells m * |R| + r.  With rmul None the table searched
    is the ring's own product (madd is radd): the multiplications that
    make the hypergroup a hyperring.  Instances with a 0 hold once row 0
    and column 0 are 0, so only nonzero ones become rules."""
    n, nr = len(madd), len(radd)
    rules = []
    for m in range(1, n):
        for r in range(1, nr):
            mr = m * nr + r
            for b in range(m, n):
                # sum-action: (m + b) r = m r + b r
                rules.append(sum_rule(mr, b * nr + r,
                                      [t * nr + r for t in bits(madd[m][b])], madd))
            for s in range(r, nr):
                # action-sum: m (r + s) = m r + m s
                rules.append(sum_rule(mr, m * nr + s,
                                      [m * nr + t for t in bits(radd[r][s])], madd))
            for s in range(1, nr):
                # action-associativity: (m r) s = m (r s) reads cells chosen
                # by values, so it watches column s, and row m too when r s
                # is itself a searched cell
                column = range(s, n * nr, nr)
                if rmul is None:
                    rs = r * nr + s

                    def associativity(v, i, mr=mr, rs=rs, row=m * nr, s=s):
                        if mr > i or rs > i:
                            return True
                        p, q = v[mr] * nr + s, row + v[rs]
                        return p > i or q > i or v[p] == v[q]

                    watch = (mr, rs, *range(m * nr, m * nr + nr), *column)
                else:
                    mrs = m * nr + rmul[r][s]

                    def associativity(v, i, mr=mr, mrs=mrs, s=s):
                        if mr > i or mrs > i:
                            return True
                        p = v[mr] * nr + s
                        return p > i or v[mrs] == v[p]

                    watch = (mr, mrs, *column)
                rules.append((watch, associativity))
    sizes = [1 if m == 0 or r == 0 else n for m in range(n) for r in range(nr)]
    return [tuple(v[m * nr:m * nr + nr] for m in range(n)) for v in search(sizes, rules)]


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


@dataclass(frozen=True)
class StrongHom:
    """Map between two structures given by a value table on the source:
    what ring homs and module homs share."""

    source: Structure
    target: Structure
    mapping: tuple
    name: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "mapping", tuple(int(v) for v in self.mapping))
        if len(self.mapping) != self.source.order:
            raise ValueError("mapping must cover the source carrier")
        for v in self.mapping:
            self.target.check_element(v)

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
    source_add, target_add = hom.source.add_masks, hom.target.add_masks
    bad = next(((a, b) for a, row in enumerate(source_add) for b, ab in enumerate(row)
                if mask_of(f[t] for t in bits(ab)) != target_add[f[a]][f[b]]), None)
    claim = "image escapes the target hypersum"
    if bad is not None:
        a, b = bad
        if not mask_of(f[t] for t in bits(source_add[a][b])) & ~target_add[f[a]][f[b]]:
            claim = ("image only covers part of the target hypersum "
                     "(a weak hom, not a strong one)")
    return [axiom_check("zero", None if f[0] == 0 else (0,), "0 must map to 0"),
            axiom_check("strong-addition", bad, claim)]


def hom_search(cls, source: Structure, target: Structure, rules, verify, what: str) -> tuple:
    """Every cls(source, target, f) for the maps f fixing 0 that send each
    hypersum a + b onto f(a) + f(b) and pass rules, lexicographic, by
    ``search`` (cell a holds f(a)).  Each is re-verified by verify, and
    one that fails raises "<what> produced ...".  Callers bound the
    orders first (``require_hom_bound``) where the search must stay small."""
    target_add = target.add_masks
    rules = [sum_rule(a, b, bits(ab), target_add)
             for a, row in enumerate(source.add_masks) for b, ab in enumerate(row)] + rules
    homs = tuple(cls(source, target, f)
                 for f in search([1] + [target.order] * (source.order - 1), rules))
    for hom in homs:
        report = verify(hom)
        if not report.ok:
            raise TheoremViolationError(
                f"{what} produced {hom.mapping}, which fails {report.failures}")
    return homs
