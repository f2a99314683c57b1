"""The closure and coset helpers in ideals, refereed by the separate
ideal and module code they replaced.

Each oracle below is one of the loops that ``ideals.py`` and
``hypermodules.py`` used to carry on their own: the hyperideal and
subhypermodule checks, the two closure loops and the two coset
quotients.  The shared helpers must give the same answers on every
corpus ring of order <= 4, on its regular module and on its quotients
by maximal right ideals.

The lattice cross-check of generated ideals is refereed the same way, by
the route it replaced: ``generated_ideal`` and ``ideal_intersection``,
each building a checked ideal, compared on masks.  The sweep over every
generating set is refereed by the single-set cross-check, mask by mask,
and the closed-subset search by the scan it replaced, ``closure_check``
run on every mask holding 0: on corpus rings, on direct products of
orders 6 to 12, on modules, and on raw tables that satisfy no axiom.
"""

import pytest
from hypothesis import given, settings, strategies as st

from krasner.catalog import cyclic_ring
from krasner.core import BoundExceededError, HyperRing, TheoremViolationError, bits, mask_of
from krasner.hypermodules import (
    HyperModule,
    cyclic_submodule,
    enumerate_subhypermodules,
    is_subhypermodule,
    quotient_module,
    regular_module,
)
from krasner import core, hypermodules, ideals
from krasner.ideals import (
    SIDEDNESS,
    IdealCheck,
    IdealLattice,
    closed_subsets,
    closure_check,
    cross_check_all_generated,
    cross_check_generated,
    enumerate_ideals,
    generated_ideal,
    ideal_intersection,
    is_hyperideal,
    quotient_ring,
)

from conftest import direct_product


# oracles: the separate ideal and module loops


def old_is_hyperideal(ring, s, sidedness):
    if not s & 1:
        return IdealCheck(False, "zero", (), "must contain the additive identity")
    add, neg, mul, n = ring.add_masks, ring.neg_table, ring.mul_table, ring.order
    for a in bits(s):
        if not (1 << neg[a]) & s:
            return IdealCheck(False, "neg-closure", (a,), f"-{a} = {neg[a]} escapes the set")
        for b in bits(s):
            if add[a][b] & ~s:
                return IdealCheck(False, "add-closure", (a, b), f"{a} + {b} escapes the set")
    if sidedness in ("right", "two-sided"):
        for a in bits(s):
            for r in range(n):
                if not (1 << mul[a][r]) & s:
                    return IdealCheck(False, "right-absorption", (a, r), f"{a} * {r} escapes the set")
    if sidedness in ("left", "two-sided"):
        for a in bits(s):
            for r in range(n):
                if not (1 << mul[r][a]) & s:
                    return IdealCheck(False, "left-absorption", (r, a), f"{r} * {a} escapes the set")
    return IdealCheck(True)


def old_generated_ideal(ring, mask, sidedness):
    mask |= 1
    add, neg, mul, n = ring.add_masks, ring.neg_table, ring.mul_table, ring.order
    while True:
        grown = mask
        for a in bits(mask):
            grown |= 1 << neg[a]
            for b in bits(mask):
                grown |= add[a][b]
            if sidedness in ("right", "two-sided"):
                for r in range(n):
                    grown |= 1 << mul[a][r]
            if sidedness in ("left", "two-sided"):
                for r in range(n):
                    grown |= 1 << mul[r][a]
        if grown == mask:
            return mask
        mask = grown


def old_cross_check_generated(ring, mask, lattice):
    above = [i for i in lattice.two_sided if mask & ~i.key == 0]
    closed = generated_ideal(ring, ring.from_mask(mask), "two-sided")
    via_lattice = ideal_intersection(above) if above else None
    if via_lattice is None or via_lattice.key != closed.key:
        raise TheoremViolationError(f"generated ideal mismatch for {mask}")
    return closed


def old_is_subhypermodule(module, s):
    if not s & 1:
        return False
    madd = module.add_masks
    for a in bits(s):
        if not (1 << module.neg_table[a]) & s:
            return False
        for b in bits(s):
            if madd[a][b] & ~s:
                return False
        for r in range(module.ring.order):
            if not (1 << module.act_table[a][r]) & s:
                return False
    return True


def old_cyclic_submodule(module, m):
    mask = 1 | 1 << m
    madd = module.add_masks
    while True:
        grown = mask
        for a in bits(mask):
            grown |= 1 << module.neg_table[a]
            for b in bits(mask):
                grown |= madd[a][b]
            for r in range(module.ring.order):
                grown |= 1 << module.act_table[a][r]
        if grown == mask:
            return mask
        mask = grown


def old_cosets(add, k):
    coset_mask = []
    for x in range(len(add)):
        m = 0
        for a in bits(k):
            m |= add[a][x]
        coset_mask.append(m)
    cosets = [coset_mask[0]]
    for m in sorted(set(coset_mask)):
        if m != coset_mask[0]:
            cosets.append(m)
    index = {m: i for i, m in enumerate(cosets)}
    coset_of = tuple(index[coset_mask[x]] for x in range(len(add)))
    covered = 0
    for m in cosets:
        assert not covered & m
        covered |= m
    assert covered == (1 << len(add)) - 1
    return cosets, coset_of


def old_quotient_ring(ring, k):
    cosets, coset_of = old_cosets(ring.add_masks, k)
    q = len(cosets)
    add = [[None] * q for _ in range(q)]
    mul = [[None] * q for _ in range(q)]
    for i in range(q):
        for j in range(q):
            seen_add = seen_mul = None
            for r1 in bits(cosets[i]):
                for r2 in bits(cosets[j]):
                    s = frozenset(coset_of[t] for t in bits(ring.add_masks[r1][r2]))
                    m = coset_of[ring.mul_table[r1][r2]]
                    if seen_add is None:
                        seen_add, seen_mul = s, m
                    assert (s, m) == (seen_add, seen_mul)
            add[i][j] = sorted(seen_add)
            mul[i][j] = seen_mul
    neg = []
    for i in range(q):
        images = {coset_of[ring.neg_table[r]] for r in bits(cosets[i])}
        assert len(images) == 1
        neg.append(images.pop())
    unit = None if ring.unit is None else coset_of[ring.unit]
    out = HyperRing(add, neg, mul, unit=unit)
    assert out.validate().ok
    return tuple(cosets), coset_of, out.encoding()


def old_quotient_module(module, k):
    cosets, coset_of = old_cosets(module.add_masks, k)
    q = len(cosets)
    nr = module.ring.order
    madd = [[None] * q for _ in range(q)]
    for i in range(q):
        for j in range(q):
            seen = None
            for a in bits(cosets[i]):
                for b in bits(cosets[j]):
                    s = frozenset(coset_of[t] for t in bits(module.add_masks[a][b]))
                    if seen is None:
                        seen = s
                    assert s == seen
            madd[i][j] = sorted(seen)
    act = [[None] * nr for _ in range(q)]
    for i in range(q):
        for r in range(nr):
            images = {coset_of[module.act_table[a][r]] for a in bits(cosets[i])}
            assert len(images) == 1
            act[i][r] = images.pop()
    mneg = []
    for i in range(q):
        images = {coset_of[module.neg_table[a]] for a in bits(cosets[i])}
        assert len(images) == 1
        mneg.append(images.pop())
    out = HyperModule(module.ring, madd, mneg, act, unital=module.unital)
    assert out.validate().ok
    return tuple(cosets), coset_of, out.encoding()


def old_induced_set_table(add, cosets, coset_of):
    # the per-coset-pair builder the one-pass ideals.induced_set_table
    # replaced: a set of images for each cell
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
    return out


def old_induced_value_table(table, cosets, coset_of, columns):
    # likewise for ideals.induced_value_table
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


# the shared helpers against their oracles


def test_is_hyperideal_matches_the_old_check(corpus4):
    clauses = set()
    for ring in (e.ring for e in corpus4):
        for s in range(1 << ring.order):
            for sidedness in SIDEDNESS:
                check = is_hyperideal(ring, ring.from_mask(s), sidedness)
                assert check == old_is_hyperideal(ring, s, sidedness)
                clauses.add(check.clause)
    assert clauses == {"", "zero", "neg-closure", "add-closure",
                       "right-absorption", "left-absorption"}


def test_generated_ideal_matches_the_old_loop(corpus4):
    for ring in (e.ring for e in corpus4):
        for s in range(1 << ring.order):
            for sidedness in SIDEDNESS:
                got = generated_ideal(ring, ring.from_mask(s), sidedness)
                assert got.key == old_generated_ideal(ring, s, sidedness)


def test_cross_check_matches_the_checked_route(corpus4):
    for ring in (e.ring for e in corpus4):
        lattice = IdealLattice.build(ring)
        for s in range(1 << ring.order):
            got = cross_check_generated(ring, ring.from_mask(s), lattice)
            expected = old_cross_check_generated(ring, s, lattice)
            assert (got.key, got.sidedness) == (expected.key, expected.sidedness)
            assert got in lattice.two_sided


def test_cross_check_needs_the_closure_in_the_lattice(corpus4):
    # with one ideal struck from the lattice, the ideal's own members
    # close to a mask the lattice no longer vouches for, even where the
    # meet of the ideals above it still agrees
    meet_agreed = 0
    for ring in (e.ring for e in corpus4):
        lattice = IdealLattice.build(ring)
        for ideal in lattice.two_sided:
            rest = tuple(i for i in lattice.two_sided if i != ideal)
            damaged = lattice._replace(two_sided=rest)
            with pytest.raises(TheoremViolationError, match="generated ideal mismatch"):
                cross_check_generated(ring, ideal.members, damaged)
            above = [i for i in rest if ideal.key & ~i.key == 0]
            if above and ideal_intersection(above).key == ideal.key:
                meet_agreed += 1
    assert meet_agreed


def test_cross_check_refuses_another_rings_lattice(z4, monkeypatch):
    def refuse(*args):
        raise AssertionError("closure computed for a foreign lattice")

    monkeypatch.setattr(ideals, "closure", refuse)
    for other in (cyclic_ring(6), cyclic_ring(4)):
        with pytest.raises(ValueError, match="different ring"):
            cross_check_generated(z4, [0], IdealLattice.build(other))
        with pytest.raises(ValueError, match="different ring"):
            cross_check_all_generated(z4, IdealLattice.build(other))


def corpus4_and_z12(corpus4):
    return [e.ring for e in corpus4] + [cyclic_ring(12)]


def test_the_sweep_agrees_with_the_single_set_route(corpus4):
    # every mask is compared once, in ascending order, with the closure
    # and the lattice ideal the single-set route finds
    for ring in corpus4_and_z12(corpus4):
        lattice = IdealLattice.build(ring)
        assert cross_check_all_generated(ring, lattice) == 1 << ring.order
        seen = list(ideals._generated_sweep(ring, lattice))
        expected = []
        for s in range(1 << ring.order):
            found = cross_check_generated(ring, ring.from_mask(s), lattice)
            expected.append((s, generated_ideal(ring, ring.from_mask(s)).key, found))
        assert seen == expected
        assert all(got[2] is want[2] for got, want in zip(seen, expected))


def first_single_set_failure(ring, lattice):
    for s in range(1 << ring.order):
        try:
            cross_check_generated(ring, ring.from_mask(s), lattice)
        except TheoremViolationError as e:
            return str(e)
    return None


def test_the_sweep_fails_on_the_first_failing_mask(corpus4):
    # the message names the generating set, so equal messages mean the
    # same first mask
    for ring in corpus4_and_z12(corpus4):
        lattice = IdealLattice.build(ring)
        for ideal in lattice.two_sided:
            rest = tuple(i for i in lattice.two_sided if i != ideal)
            damaged = lattice._replace(two_sided=rest)
            expected = first_single_set_failure(ring, damaged)
            assert expected is not None
            with pytest.raises(TheoremViolationError) as info:
                cross_check_all_generated(ring, damaged)
            assert str(info.value) == expected


def test_the_sweep_closes_each_seed_once(corpus4, monkeypatch):
    # closure(S) = closure(closure(S - top) + top), so only the distinct
    # (lattice ideal, top bit) seeds and the empty set need a fixpoint
    closure = ideals.closure
    for ring in corpus4_and_z12(corpus4):
        lattice = IdealLattice.build(ring)
        calls = []

        def count(*args):
            calls.append(args[0])
            return closure(*args)

        with monkeypatch.context() as patch:
            patch.setattr(ideals, "closure", count)
            cross_check_all_generated(ring, lattice)
        assert len(calls) == len(set(calls))
        assert len(calls) <= len(lattice.two_sided) * ring.order + 1


def regular_and_quotients(ring, lattice):
    reg = regular_module(ring)
    mods = [reg]
    for m in lattice.maximal_right:
        mods.append(quotient_module(reg, reg.from_mask(m.members.mask)).module)
    return mods


def scan_oracle(add, neg, actions):
    # the enumeration closed_subsets replaced: every mask holding 0,
    # each asked closure_check
    return [s for s in range(1, 1 << len(neg), 2) if closure_check(s, add, neg, actions)]


def products_of_orders_6_to_12(corpus4):
    # every 2 x 3 product; 2 x 4, 3 x 3 and 3 x 4 products over a few
    # unital, non-commutative and non-unital factors of each order
    by_order = {n: [e.ring for e in corpus4 if e.ring.order == n] for n in (2, 3, 4)}

    def commutes(r):
        return all(r.mul_table[a][b] == r.mul_table[b][a]
                   for a in range(r.order) for b in range(r.order))

    def some(n):
        rings = by_order[n]
        return ([r for r in rings if r.is_unital][:3]
                + [r for r in rings if not commutes(r)]
                + [r for r in rings if not r.is_unital][:2])

    pairs = [(r, s) for r in by_order[2] for s in by_order[3]]
    pairs += [(r, s) for r in by_order[2] for s in some(4)]
    pairs += [(r, s) for r in some(3) for s in some(3) + some(4)]
    return [direct_product(r, s) for r, s in pairs]


def test_closed_subsets_matches_the_checked_scan(corpus4):
    rings = corpus4_and_z12(corpus4) + products_of_orders_6_to_12(corpus4)
    assert {ring.order for ring in rings} >= {6, 8, 9, 12}
    cases = []
    for ring in rings:
        for sidedness in SIDEDNESS:
            cases.append((ring.add_masks, ring.neg_table, ideals._absorption(ring, sidedness)))
    for ring in (e.ring for e in corpus4):
        reg = regular_module(ring)
        modules = [reg] + [quotient_module(reg, reg.from_mask(ideal.key)).module
                           for ideal in IdealLattice.build(ring).right]
        for module in modules:
            cases.append((module.add_masks, module.neg_table, hypermodules._action(module)))
    proper = 0
    for add, neg, actions in cases:
        expected = scan_oracle(add, neg, actions)
        assert closed_subsets(add, neg, actions) == expected
        proper += len(expected) > 2
    assert proper


@st.composite
def raw_tables(draw):
    # tables that need not satisfy any hypergroup or ring axiom: any add
    # masks, any negation and up to two actions of any width, each entry
    # leaning towards what forces little, so that many sets are closed
    n = draw(st.integers(min_value=1, max_value=7))
    element = st.integers(min_value=0, max_value=n - 1)
    entry = st.one_of(st.just(0), st.sets(element, max_size=2).map(mask_of),
                      st.integers(min_value=0, max_value=(1 << n) - 1))
    add = [[draw(entry) for _ in range(n)] for _ in range(n)]
    neg = [draw(st.one_of(st.just(a), element)) for a in range(n)]
    actions = []
    for i in range(draw(st.integers(min_value=0, max_value=2))):
        width = draw(st.integers(min_value=1, max_value=n))
        value = st.one_of(st.just(0), element)
        actions.append((f"action-{i}", [[draw(value) for _ in range(width)] for _ in range(n)]))
    return add, neg, actions


@settings(derandomize=True, deadline=None, max_examples=300)
@given(raw_tables())
def test_closed_subsets_assumes_no_axiom(tables):
    assert closed_subsets(*tables) == scan_oracle(*tables)


def test_closed_subsets_never_builds_a_witness(corpus3, monkeypatch):
    def refuse(*args):
        raise AssertionError("closure_check called by the subset scan")

    # module checks reach closure_check through ideals as well
    monkeypatch.setattr(ideals, "closure_check", refuse)
    for ring in (e.ring for e in corpus3):
        for sidedness in SIDEDNESS:
            enumerate_ideals(ring, sidedness)
        enumerate_subhypermodules(regular_module(ring))


def test_module_closure_matches_the_old_loops(corpus4):
    seen = set()
    for ring in (e.ring for e in corpus4):
        for module in regular_and_quotients(ring, IdealLattice.build(ring)):
            for s in range(1 << module.order):
                ok = is_subhypermodule(module, module.from_mask(s)).ok
                assert ok == old_is_subhypermodule(module, s)
                seen.add(ok)
            expected = [s for s in range(1 << module.order) if old_is_subhypermodule(module, s)]
            assert [m.mask for m in enumerate_subhypermodules(module)] == expected
            for m in range(module.order):
                assert cyclic_submodule(module, m).mask == old_cyclic_submodule(module, m)
    assert seen == {False, True}


def test_quotients_match_the_old_coset_code(corpus4):
    quotients = 0
    for ring in (e.ring for e in corpus4):
        lattice = IdealLattice.build(ring)
        for ideal in lattice.two_sided:
            q = quotient_ring(ring, ideal)
            got = (q.cosets, q.coset_of, q.ring.encoding())
            assert got == old_quotient_ring(ring, ideal.key)
            quotients += 1
        reg = regular_module(ring)
        for ideal in lattice.right:
            q = quotient_module(reg, reg.from_mask(ideal.key))
            got = (q.cosets, q.coset_of, q.module.encoding())
            assert got == old_quotient_module(reg, ideal.key)
            quotients += 1
    assert quotients


def built(build, *args):
    """What build(*args) returns as lists of rows, or the text of the
    TheoremViolationError it raises."""
    try:
        return [list(row) for row in build(*args)]
    except TheoremViolationError as error:
        return str(error)


def test_coset_tables_match_the_per_pair_builders(corpus4):
    # every closed mask holding 0 (a subhypergroup, an ideal or not), and
    # the add, neg, mul and act columns of its cosets: the same table, or
    # the same error at the same cell
    tables = raised = 0
    for ring in (e.ring for e in corpus4):
        act = regular_module(ring).act_table
        for k in closed_subsets(ring.add_masks, ring.neg_table, []):
            cosets, coset_of = ideals.coset_partition(ring.add_masks, k)
            negs = [(v,) for v in ring.neg_table]
            singles = [1 << r for r in range(ring.order)]
            for new, old, args in (
                    (ideals.induced_set_table, old_induced_set_table,
                     (ring.add_masks, cosets, coset_of)),
                    (ideals.induced_value_table, old_induced_value_table,
                     (negs, cosets, coset_of, (1,))),
                    (ideals.induced_value_table, old_induced_value_table,
                     (ring.mul_table, cosets, coset_of, cosets)),
                    (ideals.induced_value_table, old_induced_value_table,
                     (act, cosets, coset_of, singles))):
                expected = built(old, *args)
                assert built(new, *args) == expected
                if isinstance(expected, str):
                    raised += 1
                else:
                    tables += 1
    # 458 masks, four columns each
    assert (tables, raised) == (1806, 26)


def test_the_scan_bound_fires_before_any_work(z4, monkeypatch, fresh_memos):
    def refuse(*args):
        raise AssertionError("scanned past the bound")

    # the lattice memo holds Z4's families, and the bound still refuses
    # a fresh Z4 before the memo is read
    IdealLattice.build(cyclic_ring(4))
    monkeypatch.setattr(ideals, "closed_subsets", refuse)
    monkeypatch.setattr(hypermodules, "closed_subsets", refuse)
    monkeypatch.setattr(core, "ENUMERATION_BOUND", 3)
    with pytest.raises(BoundExceededError):
        enumerate_ideals(z4, "two-sided")
    with pytest.raises(BoundExceededError):
        enumerate_subhypermodules(regular_module(z4))
    with pytest.raises(BoundExceededError):
        IdealLattice.build(cyclic_ring(4))
