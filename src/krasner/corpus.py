"""Exhaustive generation of small Krasner hyperrings.

Hyperaddition tables are found first.  A table is a membership relation
on triples (p, q, r) standing for r in p + q, and commutativity plus the
two reversibility moves generate a little group acting on triples; any
valid table is a union of orbits.  The identity and negation axioms pin
some orbits in, rule some out, and kill a negation table outright when
one orbit is pinned both ways.  That leaves a subset search over the few
free orbits, filtered by nonemptiness; every candidate then goes through
the full hypergroup validator, which discards it when associativity is
its only failure and raises on any other failure.

Multiplication tables come from ``core.search``: it fills the nonzero
entries one at a time and checks each associativity and distributivity
instance as soon as the entries it reads are filled.

Everything is deterministic: fixed enumeration orders, no hashing of
anything but canonical encodings.  Rings are deduplicated up to
relabelings fixing 0, and the canonical form is the minimum encoding
over those relabelings.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass

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


def _triple_orbits(n: int, nu: tuple):
    """Orbits of (p, q, r) under swap and the two reversibility moves."""
    total = n * n * n
    seen = [False] * total
    orbits = []
    for start in range(total):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        orbit = []
        while stack:
            t = stack.pop()
            orbit.append(t)
            p, rest = divmod(t, n * n)
            q, r = divmod(rest, n)
            for img in ((q * n + p) * n + r,
                        (nu[p] * n + r) * n + q,
                        (r * n + nu[q]) * n + p):
                if not seen[img]:
                    seen[img] = True
                    stack.append(img)
        orbit.sort()
        orbits.append(tuple(orbit))
    orbits.sort()
    return orbits


def enumerate_hypergroups(n: int, dedupe: bool = True) -> tuple:
    """All canonical hypergroups on {0..n-1} as (add_masks, neg) pairs.

    With dedupe, one representative per relabeling class (permutations
    fixing 0), sorted by canonical encoding.
    """
    if n < 1:
        raise ValueError("order must be positive")

    found = []
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
        dead = False
        for orbit in _triple_orbits(n, nu):
            omask = 0
            for t in orbit:
                omask |= 1 << t
            has_in = bool(omask & in_mask)
            has_out = bool(omask & out_mask)
            if has_in and has_out:
                dead = True
                break
            if has_in:
                base |= omask
            elif not has_out:
                free.append(omask)
        if dead:
            continue

        # a subset must leave no cell empty; record which free orbits can
        # rescue each cell the base misses
        requirements = []
        impossible = False
        for p in range(n):
            for q in range(n):
                cell = 0
                for r in range(n):
                    cell |= 1 << (p * n + q) * n + r
                if base & cell:
                    continue
                req = 0
                for i, omask in enumerate(free):
                    if omask & cell:
                        req |= 1 << i
                if not req:
                    impossible = True
                    break
                requirements.append(req)
            if impossible:
                break
        if impossible:
            continue

        for chosen in range(1 << len(free)):
            if any(not chosen & req for req in requirements):
                continue
            t_mask = base
            for i in bits(chosen):
                t_mask |= free[i]
            add = tuple(
                tuple(
                    sum(1 << r for r in range(n) if t_mask >> (p * n + q) * n + r & 1)
                    for q in range(n))
                for p in range(n))
            failed = [c.axiom for c in hypergroup_checks(n, add, nu) if not c.ok]
            if failed == ["associativity"]:
                continue
            if failed:
                raise TheoremViolationError(
                    "orbit construction produced a bad table; " + "; ".join(failed))
            found.append((add, nu))

    if not dedupe:
        return tuple(sorted(found))
    canon = {}
    for add, nu in found:
        key = min(_relabel_add(n, add, perm)
                  for perm in _zero_fixing_perms(n))
        if key not in canon:
            canon[key] = (add, nu)
    return tuple(canon[k] for k in sorted(canon))


def _zero_fixing_perms(n: int):
    for rest in itertools.permutations(range(1, n)):
        yield (0,) + rest


def _relabel_add(n: int, add, perm) -> tuple:
    out = [[0] * n for _ in range(n)]
    for p in range(n):
        for q in range(n):
            m = 0
            for r in bits(add[p][q]):
                m |= 1 << perm[r]
            out[perm[p]][perm[q]] = m
    return tuple(tuple(row) for row in out)


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
    """Minimum encoding over relabelings fixing 0; equal keys mean
    isomorphic rings."""
    n = ring.order
    best = None
    for perm in _zero_fixing_perms(n):
        add = _relabel_add(n, ring.add_masks, perm)
        neg = [0] * n
        mul = [[0] * n for _ in range(n)]
        for a in range(n):
            neg[perm[a]] = perm[ring.neg_table[a]]
            for b in range(n):
                mul[perm[a]][perm[b]] = perm[ring.mul_table[a][b]]
        key = (tuple(x for row in add for x in row), tuple(neg),
               tuple(v for row in mul for v in row))
        if best is None or key < best:
            best = key
    return (n,) + best


_CACHE = {}


def generate_corpus(max_order: int = HARD_ORDER_CAP, dedupe: bool = True,
                    per_order_limit: int | None = None) -> tuple:
    """Every hyperring up to max_order as named validated entries.

    per_order_limit keeps only the first so many rings of each order in
    canonical order, which is how big sweeps stay bounded without losing
    reproducibility.
    """
    if max_order > HARD_ORDER_CAP:
        raise BoundExceededError(
            f"generation is exhaustive and grows savagely; {max_order} is past "
            f"the supported cap {HARD_ORDER_CAP}"
        )
    key = (max_order, dedupe, per_order_limit)
    if key in _CACHE:
        return _CACHE[key]
    entries = []
    for n in range(1, max_order + 1):
        rings = []
        seen = set()
        for add, nu in enumerate_hypergroups(n, dedupe=dedupe):
            members = [[list(bits(m)) for m in row] for row in add]
            for mul in mult_tables(n, add):
                ring = HyperRing(members, nu, mul, unit=find_unit(n, mul))
                if dedupe:
                    ck = ring_canonical_key(ring)
                    if ck in seen:
                        continue
                    seen.add(ck)
                rings.append(ring.checked("generator produced an invalid ring"))
        rings.sort(key=lambda r: r.encoding())
        if per_order_limit is not None:
            rings = rings[:per_order_limit]
        for i, ring in enumerate(rings):
            ring.name = f"r{n}_{i}"
            entries.append(CorpusEntry(name=ring.name, ring=ring))
    result = tuple(entries)
    _CACHE[key] = result
    return result


def corpus_fingerprint(entries, max_order: int, dedupe: bool = True,
                       per_order_limit: int | None = None) -> str:
    """Stable digest of the generation parameters and every table."""
    h = hashlib.sha256()
    h.update(repr((max_order, dedupe, per_order_limit)).encode())
    for e in entries:
        h.update(e.name.encode())
        h.update(repr(e.ring.encoding()).encode())
    return h.hexdigest()
