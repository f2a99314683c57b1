"""Exhaustive generation of small Krasner hyperrings.

Hyperaddition tables are found first.  A table is a membership relation
on triples (p, q, r) standing for r in p + q, and commutativity plus the
two reversibility moves generate a little group acting on triples; any
valid table is a union of orbits.  The identity and negation axioms pin
some orbits in, rule some out, and kill a negation table outright when
one orbit is pinned both ways.  Each free orbit is then an in-or-out cell
of ``core.search``, whose rules keep every cell of the table nonempty and
every associativity instance true as soon as the orbits they read are
decided; a table it finds that fails the hypergroup validator raises.

Multiplication tables come from ``core.search`` too: it fills the nonzero
entries one at a time and checks each associativity and distributivity
instance as soon as the entries it reads are filled.

Everything is deterministic: fixed enumeration orders, no hashing of
anything but canonical encodings.  Rings are deduplicated up to
relabelings fixing 0 without trying every relabeling of every table
(after B. D. McKay, "Isomorph-free exhaustive generation", J. Algorithms
26, 1998).  A hypergroup's class key is the sorted signature of an
isomorphism invariant of its nonzero elements together with the least
encoding over only the relabelings that list those elements in
invariant order; the first table found in a class represents it.  One
pass over all (n-1)! relabelings of each representative gives its sort
key, the least encoding over them all, so the classes come out in the
order of that full minimum.  Products on one representative are told
apart by their least relabeled form over the representative's
automorphisms; products on different representatives are never
isomorphic, because the additive hypergroup is an invariant.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from functools import lru_cache, partial

from .core import (
    BoundExceededError,
    HyperRing,
    TheoremViolationError,
    bits,
    find_unit,
    hypergroup_checks,
    search,
    sum_rule,
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


def enumerate_hypergroups(n: int, dedupe: bool = True) -> tuple:
    """All canonical hypergroups on {0..n-1} as (add_masks, neg) pairs.

    With dedupe, one representative per relabeling class (permutations
    fixing 0): the first table found with its class key, sorted by the
    least encoding over every relabeling.
    """
    if n < 1:
        raise ValueError("order must be positive")

    full = (1 << n) - 1
    row = (1 << n * n) - 1
    found = []
    for nu, base, free in _orbit_splits(n):
        # search cell j includes orbit free[k - 1 - j] or leaves it out, so
        # tables come in ascending order of the included orbits' bit set
        orbits = free[::-1]

        def table(v, reads, base=base, orbits=orbits):
            # the orbits are disjoint from one another and from the base
            return base + sum(orbits[j] for j in reads if v[j])

        # (region, want): no cell is empty, and associativity holds for each
        # row pair a < c, which covers (c, b, a); (a, b, a) and a = 0 always do
        wants = [(full << s * n, lambda t, cell=full << s * n: t & cell)
                 for s in range(n * n) if not base >> s * n & full]
        wants += [(row << a * n * n | row << c * n * n, partial(_associative, n, a, c))
                  for a in range(1, n) for c in range(a + 1, n)]
        rules = []
        for region, want in wants:
            # watch the last cell whose orbit meets the region; with none, test now
            reads = [j for j, o in enumerate(orbits) if o & region]
            if reads:
                rules.append(((reads[-1],),
                              lambda v, i, want=want, reads=reads: want(table(v, reads))))
            elif not want(base):
                break
        else:
            for v in search([2] * len(orbits), rules):
                t = table(v, range(len(orbits)))
                add = tuple(tuple(t >> (p * n + q) * n & full for q in range(n))
                            for p in range(n))
                failed = [c.axiom for c in hypergroup_checks(n, add, nu) if not c.ok]
                if failed:
                    raise TheoremViolationError(
                        "orbit construction produced a bad table; " + "; ".join(failed))
                found.append((add, nu))

    if not dedupe:
        return tuple(sorted(found))
    relabelings = _relabelings(n)
    images = {order: image for order, _, image in relabelings}
    classes = {}
    for add, nu in found:
        classes.setdefault(_class_key(add, nu, images), (add, nu))
    return tuple(sorted(classes.values(), key=lambda rep: _full_min(rep[0], relabelings)))


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


def _class_key(add, nu, images) -> tuple:
    """Isomorphism class key of a hypergroup: the sorted invariants of its
    nonzero elements, and the least encoding over the relabelings fixing 0
    that list those elements in invariant order, ties in every order.  The
    invariant of a is (a is its own negative, |a + a|, sorted sizes of row a)."""
    n = len(add)
    inv = [(nu[a] == a, add[a][a].bit_count(), tuple(sorted(m.bit_count() for m in add[a])))
           for a in range(n)]
    ranked = sorted(range(1, n), key=inv.__getitem__)
    runs = [itertools.permutations(run)
            for _, run in itertools.groupby(ranked, key=inv.__getitem__)]
    orders = ((0,) + tuple(itertools.chain.from_iterable(p)) for p in itertools.product(*runs))
    return (tuple(inv[a] for a in ranked),
            min(_relabel(add, order, images[order]) for order in orders))


def _full_min(add, relabelings) -> tuple:
    """The least encoding of a table over every relabeling fixing 0: the
    key the classes are sorted by."""
    return min(_relabel(add, order, image) for order, _, image in relabelings)


def _automorphisms(add, relabelings) -> list:
    """(order, perm) of every relabeling fixing 0 that gives back the table."""
    return [(order, perm) for order, perm, image in relabelings
            if _relabel(add, order, image) == add]


def _mul_key(mul, automorphisms) -> tuple:
    """Least relabeled multiplication over the additive automorphisms:
    two products on one hypergroup are isomorphic exactly when it agrees."""
    return min(tuple(perm[mul[p][q]] for p in order for q in order)
               for order, perm in automorphisms)


def mult_tables(n: int, add) -> tuple:
    """Every multiplication making the hypergroup a hyperring, as full
    n x n tuples in lexicographic order, from ``core.search`` over cells
    a * n + b.  Row 0 and column 0 are 0, which satisfies every
    distributivity and associativity instance with a zero element."""
    rules = []
    for a in range(1, n):
        for b in range(1, n):
            for c in range(b, n):
                terms = bits(add[b][c])
                # a (b + c) = ab + ac and (b + c) a = ba + ca
                rules.append(sum_rule(a * n + b, a * n + c, [a * n + t for t in terms], add))
                rules.append(sum_rule(b * n + a, c * n + a, [t * n + a for t in terms], add))
            for c in range(1, n):
                # (ab) c = a (bc) reads cells chosen by values: watch row a, column c
                def associativity(v, i, ab=a * n + b, bc=b * n + c, a=a, c=c):
                    if ab > i or bc > i:
                        return True
                    p, q = v[ab] * n + c, a * n + v[bc]
                    return p > i or q > i or v[p] == v[q]

                watch = (a * n + b, b * n + c, *range(a * n, a * n + n), *range(c, n * n, n))
                rules.append((watch, associativity))
    sizes = [1 if a == 0 or b == 0 else n for a in range(n) for b in range(n)]
    return tuple(tuple(v[a * n:a * n + n] for a in range(n)) for v in search(sizes, rules))


@dataclass(frozen=True)
class CorpusEntry:
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


def generate_corpus(max_order: int = HARD_ORDER_CAP, dedupe: bool = True,
                    per_order_limit: int | None = None) -> tuple:
    """Every hyperring up to max_order as named validated entries.

    per_order_limit keeps only the first so many rings of each order in
    canonical order, which is how big sweeps stay bounded without losing
    reproducibility.  The few most recent corpora are kept, so a repeated
    call returns the same tuple.
    """
    if max_order > HARD_ORDER_CAP:
        raise BoundExceededError(
            f"generation is exhaustive and grows savagely; {max_order} is past "
            f"the supported cap {HARD_ORDER_CAP}"
        )
    # positional, so every spelling of one request shares a cache entry
    return _corpus(max_order, dedupe, per_order_limit)


@lru_cache(maxsize=8)
def _corpus(max_order: int, dedupe: bool, per_order_limit: int | None) -> tuple:
    entries = []
    for n in range(1, max_order + 1):
        relabelings = _relabelings(n)
        rings = []
        for add, nu in enumerate_hypergroups(n, dedupe=dedupe):
            members = [[list(bits(m)) for m in row] for row in add]
            muls = mult_tables(n, add)
            if dedupe:
                # an isomorphism of two rings is an automorphism of their
                # shared hypergroup, and distinct classes never meet
                automorphisms = _automorphisms(add, relabelings)
                kept = {}
                for mul in muls:
                    kept.setdefault(_mul_key(mul, automorphisms), mul)
                muls = kept.values()
            for mul in muls:
                ring = HyperRing(members, nu, mul, unit=find_unit(n, mul))
                rings.append(ring.checked("generator produced an invalid ring"))
        rings.sort(key=lambda r: r.encoding())
        if per_order_limit is not None:
            rings = rings[:per_order_limit]
        for i, ring in enumerate(rings):
            ring.name = f"r{n}_{i}"
            entries.append(CorpusEntry(name=ring.name, ring=ring))
    return tuple(entries)


def corpus_fingerprint(entries, max_order: int, dedupe: bool = True,
                       per_order_limit: int | None = None) -> str:
    """Stable digest of the generation parameters and every table."""
    h = hashlib.sha256()
    h.update(repr((max_order, dedupe, per_order_limit)).encode())
    for e in entries:
        h.update(e.name.encode())
        h.update(repr(e.ring.encoding()).encode())
    return h.hexdigest()
