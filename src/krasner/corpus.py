"""Exhaustive generation of small Krasner hyperrings.

Hyperaddition tables are found first.  A table is a membership relation
on triples (p, q, r) standing for r in p + q, and commutativity plus the
two reversibility moves generate a little group acting on triples; any
valid table is a union of orbits.  The identity and negation axioms pin
some orbits in, rule some out, and kill a negation table outright when
one orbit is pinned both ways.  Each free orbit is then an in-or-out cell
of ``core.search``, whose rules keep every cell of the table nonempty and
every associativity instance true as soon as the orbits they read are
decided; a table it returns that fails the hypergroup validator raises.

Multiplication tables are the actions of the ring on itself, found by
``core.action_tables`` one whole row at a time.  Row m, the map r -> m r,
is a strong endomorphism of the hypergroup by left distributivity, so
the endomorphisms are listed once and each row is an index into that
list; right distributivity and mul-associativity, the other two action
axioms of ``core`` on the regular module, are checked as soon as the
rows they read are set.

Everything is deterministic: fixed enumeration orders, no hashing of
anything but canonical encodings.  Rings are deduplicated up to
relabelings fixing 0 without trying every relabeling of every table
(after B. D. McKay, "Isomorph-free exhaustive generation", J. Algorithms
26, 1998, and R. C. Read, "Every one a winner", Ann. Discrete Math. 2,
1978).  A relabeling carries a table with negation nu to one whose
negation is a conjugate of nu, and the conjugates of nu are the
negations with as many transpositions.  So a class is searched under
the first negation of its conjugacy class alone, where its members are
one orbit of the relabelings that commute with nu.  Those permute the
free orbits, and the table kept is the one whose set of included free
orbits is least over that orbit: the table a search of every negation in
turn would have found first in its class.  The search decides the free
orbits from the last down and cuts a partial table once a relabeling
lowers that set on the orbits decided, so it finds the kept tables
alone.  One pass over all (n-1)! relabelings of each representative
gives both its sort key, the least encoding over them all, and its
automorphisms, the relabelings that give it back: the classes come out
in the order of that full minimum, with their automorphisms kept beside
them.  Products on one representative are told apart by their least
relabeled form over those automorphisms; products on different
representatives are never isomorphic, because the additive hypergroup
is an invariant.
"""

from __future__ import annotations

import hashlib
import itertools
from functools import lru_cache, partial
from typing import NamedTuple

from .core import (
    BoundExceededError,
    HyperRing,
    TheoremViolationError,
    _MaskTable,
    _hypergroup_report,
    action_tables,
    bits,
    find_unit,
    search,
)

HARD_ORDER_CAP = 4


def _triple_orbits(n: int, nu: tuple) -> list:
    """Masks of the orbits of (p, q, r) under swap and the two
    reversibility moves, in order of their least triple."""
    seen = 0
    orbits = []
    for start in range(n * n * n):
        if seen >> start & 1:
            continue
        stack = [start]
        omask = 1 << start
        while stack:
            t = stack.pop()
            p, rest = divmod(t, n * n)
            q, r = divmod(rest, n)
            for img in ((q * n + p) * n + r,
                        (nu[p] * n + r) * n + q,
                        (r * n + nu[q]) * n + p):
                if not omask >> img & 1:
                    omask |= 1 << img
                    stack.append(img)
        seen |= omask
        orbits.append(omask)
    return orbits


def _orbit_splits(n: int):
    """(nu, base, free) for each negation table nu the identity and negation
    axioms leave alive: the union of orbits pinned in, and the orbits left open."""
    # negation tables: involutions fixing 0 (cell i holds nu[i]); an
    # earlier k goes to i exactly when i goes to k
    involution = (range(n), lambda v, i: all((v[k] == i) == (v[i] == k) for k in range(i)))
    for nu in search([1] + [n] * (n - 1), [involution]):
        in_mask = 0
        out_mask = 0
        for a in range(n):
            in_mask |= 1 << (a * n + 0) * n + a
            in_mask |= 1 << (0 * n + a) * n + a
            in_mask |= 1 << (a * n + nu[a]) * n + 0
            for r in range(n):
                if r != a:
                    out_mask |= 1 << (a * n + 0) * n + r
                    out_mask |= 1 << (0 * n + a) * n + r
            for b in range(n):
                if b != nu[a]:
                    out_mask |= 1 << (a * n + b) * n + 0

        base = 0
        free = []
        for omask in _triple_orbits(n, nu):
            if omask & in_mask:
                if omask & out_mask:
                    break
                base |= omask
            elif not omask & out_mask:
                free.append(omask)
        else:
            yield nu, base, free


def _associative(n: int, a: int, c: int, t: int) -> bool:
    """(a + b) + c = a + (b + c) for every b, from rows a and c of the triple mask t."""
    full = (1 << n) - 1
    for b in range(n):
        lhs = rhs = 0
        for x in bits(t >> (a * n + b) * n & full):
            lhs |= t >> (c * n + x) * n & full
        for u in bits(t >> (c * n + b) * n & full):
            rhs |= t >> (a * n + u) * n & full
        if lhs != rhs:
            return False
    return True


def check_order(order: int) -> None:
    """Refuse an order past HARD_ORDER_CAP: every search here is exhaustive."""
    if order > HARD_ORDER_CAP:
        raise BoundExceededError(f"generation is exhaustive and grows savagely; {order} "
                                 f"is past the supported cap {HARD_ORDER_CAP}")


def enumerate_hypergroups(n: int) -> tuple:
    """One canonical hypergroup on {0..n-1} per relabeling class
    (permutations fixing 0), as (add_masks, neg) pairs.

    A class is represented by its first table when the labelled tables are
    listed by negation and then by the bit set of their free orbits.  It is
    found by searching one negation per conjugacy class, the free orbits
    from the last down, and cutting a partial table inside the search as
    soon as a relabeling commuting with that negation is known to move it
    to a smaller bit set, so every table the search returns is a class;
    the classes are sorted by the least encoding over every relabeling.
    The few most recent answers are kept, so a repeated call returns the
    same tuple, and each call checks every table it returns with the
    validator.
    """
    if n < 1:
        raise ValueError("order must be positive")
    check_order(n)
    found = _hypergroups(n)[0]
    # a class holds relabelings fixing 0 of one addition table, which fixes
    # the negation (0 in a + b exactly when b = -a), and every axiom survives
    # them: a class holds a bad table only if its representative is one.
    # The verdicts go through the memo that validating a structure reads
    for add, nu in found:
        report = _hypergroup_report(add, nu)
        if not report.ok:
            raise TheoremViolationError("orbit construction produced a bad table; "
                                        + "; ".join(c.axiom for c in report.failures))
    return found


def _orbit_moves(n: int, nu: tuple, free, relabelings) -> list:
    """For each relabeling fixing 0 that commutes with nu, the list move
    with free[i] relabeled onto free[move[i]]: such a relabeling keeps nu,
    so it maps free orbits onto free orbits.  The identity and nu itself
    are left out; nu is an automorphism of every table with negation nu,
    as -(a + b) = -a + -b, so neither moves a table.  The inverse of a
    listed relabeling is listed too, so the class search reads each move
    as the preimages of one: the relabeled table includes free[i] exactly
    when the table includes free[move[i]], which settles the comparison
    of the two bit sets on the orbits already decided."""
    moves = []
    for _, perm, _ in relabelings:
        if perm in ((*range(n),), nu) or any(perm[nu[x]] != nu[perm[x]] for x in range(n)):
            continue
        move = []
        for omask in free:
            p, rest = divmod((omask & -omask).bit_length() - 1, n * n)
            q, r = divmod(rest, n)
            image = (perm[p] * n + perm[q]) * n + perm[r]
            move.append(next(j for j, o in enumerate(free) if o >> image & 1))
        moves.append(move)
    return moves


@lru_cache(maxsize=8)
def _hypergroups(n: int) -> tuple:
    # the labelled members of a class with negation nu are one orbit of
    # the relabelings commuting with nu, and their negations fill nu's
    # conjugacy class, fixed by its number of transpositions; so the first
    # table a labelled search finds in a class has the first negation of
    # that class and the least bit set of its orbit.  The search decides
    # the free orbits from the last down, the high bits of that set first,
    # and cuts a branch as soon as a relabeling is known to lower it, so
    # every table it returns is a class
    full = (1 << n) - 1
    row = (1 << n * n) - 1
    relabelings = _relabelings(n)
    searched = set()
    found = []
    for nu, base, free in _orbit_splits(n):
        swaps = sum(nu[a] > a for a in range(n))
        if swaps in searched:
            continue
        searched.add(swaps)
        # search cell c includes cells[c] or leaves it out; the orbits are
        # disjoint from one another and from the base
        cells = free[::-1]
        moves = _orbit_moves(n, nu, cells, relabelings)

        def leader(v, i):
            # a relabeled bit set holds cell c exactly when the set holds
            # cell move[c]; compare the two from cell 0, the high bit, while
            # both are decided, and cut where the relabeling first drops a cell
            for move in moves:
                for c in range(i + 1):
                    d = move[c]
                    if d > i:
                        break
                    if v[c] != v[d]:
                        if v[c]:
                            return False
                        break
            return True

        # (region, want): no cell is empty, and associativity holds for each
        # row pair a < c, which covers (c, b, a); (a, b, a) and a = 0 always do
        wants = [(full << s * n, lambda t, cell=full << s * n: t & cell)
                 for s in range(n * n) if not base >> s * n & full]
        wants += [(row << a * n * n | row << c * n * n, partial(_associative, n, a, c))
                  for a in range(1, n) for c in range(a + 1, n)]
        rules = []
        for region, want in wants:
            # watch the last cell whose orbit meets the region; with none, test now
            reads = [c for c, o in enumerate(cells) if o & region]
            if reads:
                rules.append(((reads[-1],), lambda v, i, want=want, reads=reads:
                              want(base + sum(cells[c] for c in reads if v[c]))))
            elif not want(base):
                break
        else:
            rules.append((range(len(cells)), leader))
            for v in search([2] * len(cells), rules):
                t = base + sum(o for o, bit in zip(cells, v) if bit)
                found.append((tuple(tuple(t >> (p * n + q) * n & full for q in range(n))
                                    for p in range(n)), nu))
    # one pass over every relabeling of a class gives both its sort key, the
    # least relabeled table, and its automorphisms, the relabelings that
    # give the table back, which are returned beside the classes
    keyed = []
    for add, nu in found:
        images = [(_relabel(add, order, image), (order, perm))
                  for order, perm, image in relabelings]
        keyed.append((min(t for t, _ in images), (add, nu),
                      tuple(aut for t, aut in images if t == add)))
    keyed.sort(key=lambda k: k[0])
    return tuple(rep for _, rep, _ in keyed), tuple(auts for _, _, auts in keyed)


def _relabelings(n: int) -> list:
    """Every relabeling of {0..n-1} fixing 0 as (order, perm, image): order
    lists the elements by their new labels, perm[x] is the new label of x,
    and image[m] is the relabeled member mask m."""
    out = []
    for rest in itertools.permutations(range(1, n)):
        order = (0,) + rest
        perm = [0] * n
        for i, x in enumerate(order):
            perm[x] = i
        image = [0]
        for x in range(n):
            image += [m | 1 << perm[x] for m in image]
        out.append((order, tuple(perm), tuple(image)))
    return out


def _relabel(add, order, image) -> tuple:
    rows = [add[p] for p in order]
    return tuple(tuple([image[row[q]] for q in order]) for row in rows)


def _mul_key(mul, automorphisms) -> tuple:
    """Least relabeled multiplication over the additive automorphisms:
    two products on one hypergroup are isomorphic exactly when it agrees."""
    return min(tuple(perm[mul[p][q]] for p in order for q in order)
               for order, perm in automorphisms)


def mult_tables(n: int, add) -> tuple:
    """Every multiplication making the hypergroup add on {0..n-1} a
    hyperring, as full n x n tuples in lexicographic order: the actions of
    the ring on itself that ``core.action_tables`` finds, with row 0 and
    column 0 zero."""
    return tuple(action_tables(add, add))


class CorpusEntry(NamedTuple):
    name: str
    ring: HyperRing


def ring_canonical_key(ring: HyperRing) -> tuple:
    """Minimum encoding over every relabeling fixing 0; equal keys mean
    isomorphic rings.

    This is the public full-min key that the demos and the tests read.
    ``generate_corpus`` does not call it: it tells the products on one
    hypergroup apart by their least relabeled form over that hypergroup's
    automorphisms, which is cheaper and says the same.
    """
    n = ring.order
    add, neg, mul = ring.add_masks, ring.neg_table, ring.mul_table
    return (n,) + min(
        (tuple(image[add[p][q]] for p in order for q in order),
         tuple(perm[neg[p]] for p in order),
         tuple(perm[mul[p][q]] for p in order for q in order))
        for order, perm, image in _relabelings(n))


def generate_corpus(max_order: int = HARD_ORDER_CAP,
                    per_order_limit: int | None = None) -> tuple:
    """Every hyperring up to max_order as named validated entries.

    per_order_limit keeps only the first so many rings of each order in
    canonical order, which is how big sweeps stay bounded without losing
    reproducibility.  The few most recent corpora are kept, so a repeated
    call returns the same tuple.
    """
    if max_order < 1:
        raise ValueError(f"max_order must be positive, not {max_order}")
    check_order(max_order)
    if per_order_limit is not None and per_order_limit < 0:
        raise ValueError(f"per_order_limit must be non-negative, not {per_order_limit}")
    # positional, so every spelling of one request shares a cache entry
    return _corpus(max_order, per_order_limit)


@lru_cache(maxsize=8)
def _corpus(max_order: int, per_order_limit: int | None) -> tuple:
    entries = []
    for n in range(1, max_order + 1):
        rings = []
        # unchecked tables: validating a class's first ring checks its table,
        # and the memo keeps that verdict while the class's other rings follow;
        # checking all 3,776 classes of order 5 first would overflow the memo.
        # An isomorphism of two rings is an automorphism of their shared
        # hypergroup, and distinct classes never meet
        for (add, nu), automorphisms in zip(*_hypergroups(n)):
            masks = _MaskTable(add)
            kept = {}
            for mul in mult_tables(n, add):
                kept.setdefault(_mul_key(mul, automorphisms), mul)
            for mul in kept.values():
                ring = HyperRing(masks, nu, mul, unit=find_unit(n, mul))
                rings.append(ring.checked("generator produced an invalid ring"))
        rings.sort(key=lambda r: r.encoding())
        if per_order_limit is not None:
            rings = rings[:per_order_limit]
        for i, ring in enumerate(rings):
            ring.name = f"r{n}_{i}"
            entries.append(CorpusEntry(name=ring.name, ring=ring))
    return tuple(entries)


def corpus_fingerprint(entries, max_order: int, per_order_limit: int | None = None) -> str:
    """Stable digest of the generation parameters and every table."""
    h = hashlib.sha256()
    # True is the value of a removed dedupe flag, kept so recorded fingerprints hold
    h.update(repr((max_order, True, per_order_limit)).encode())
    for e in entries:
        h.update(e.name.encode())
        h.update(repr(e.ring.encoding()).encode())
    return h.hexdigest()
