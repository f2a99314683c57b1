"""Axiom checking on the bundled rings and on deliberately broken tables."""

import pytest
from hypothesis import given, strategies as st

import krasner
from krasner.catalog import cyclic_ring, hyperfield_k, standard_rings, zero_mul_ring
from krasner import core, hypermodules, ideals
from krasner.core import (
    BoundExceededError,
    CarrierMismatchError,
    HyperRing,
    NotValidatedError,
    ValidationReport,
    VerificationReport,
    _MaskTable,
    bits,
    find_unit,
    hypergroup_checks,
    hypersum,
    mask_of,
    neg_set,
    verify_hyperring,
)
from krasner.corpus import enumerate_hypergroups, generate_corpus
from krasner.hypermodules import (
    HyperModule,
    enumerate_module_homs,
    enumerate_subhypermodules,
    is_simple,
    is_subhypermodule,
    regular_module,
    verify_hypermodule,
)
from krasner.ideals import IdealLattice, enumerate_ideals, is_hyperideal, quotient_ring
from krasner.morphisms import enumerate_ring_homs
from krasner.spectrum import SpectrumSpace, compactness_witness
from krasner.suite import run_ring_checks


def ring_tables(ring):
    """Plain list-of-lists copies, safe to mutate."""
    add = [[list(bits(m)) for m in row] for row in ring.add_masks]
    return add, list(ring.neg_table), [list(row) for row in ring.mul_table]


def test_bundled_rings_pass():
    for ring in standard_rings():
        report = verify_hyperring(ring)
        assert report.ok, report.failures


def test_cyclic_hypersum_matches_modular_arithmetic(z4):
    # oracle: a +_R b = {(a + b) mod 4}, so X + Y is the setwise image
    x = z4.subset([1, 2])
    y = z4.subset([3])
    out = hypersum(z4, x, y)
    assert out.members == (0, 1)
    for a in range(4):
        for b in range(4):
            s = hypersum(z4, z4.subset([a]), z4.subset([b]))
            assert s.members == ((a + b) % 4,)


def test_neg_set(z4):
    assert neg_set(z4, z4.subset([1, 2])).members == (2, 3)
    assert neg_set(z4, z4.subset([0])).members == (0,)


def test_hyperfield_k_tables(kfield):
    # 1 + 1 = {0, 1} is what makes K a hyperfield rather than a field
    assert hypersum(kfield, kfield.subset([1]), kfield.subset([1])).members == (0, 1)
    assert kfield.unit == 1
    assert verify_hyperring(kfield).ok


def test_find_unit(z4, zmul2):
    assert find_unit(4, z4.mul_table) == 1
    assert find_unit(2, zmul2.mul_table) is None


def test_missing_negative_is_caught():
    r = HyperRing(add=[[[0], [1]], [[1], [1]]], neg=[0, 1], mul=[[0, 0], [0, 0]])
    report = r.validate()
    assert not report.ok
    axioms = {c.axiom for c in report.failures}
    assert "negation" in axioms
    neg_fail = next(c for c in report.failures if c.axiom == "negation")
    assert neg_fail.witness == (1,)
    assert "0 additive inverses" in neg_fail.detail


def test_broken_multiplication_is_caught(z4):
    add, neg, mul = ring_tables(z4)
    mul[2][2] = 1
    r = HyperRing(add=add, neg=neg, mul=mul, unit=1)
    report = r.validate()
    assert not report.ok
    by_axiom = {c.axiom: c for c in report.failures}
    assert by_axiom["mul-associativity"].witness == (2, 2, 3)
    assert by_axiom["left-distributivity"].witness == (2, 1, 1)
    assert by_axiom["right-distributivity"].witness == (1, 1, 2)


def test_broken_reversibility_witness():
    # drop 1 from 1+0 on a Z3 shape: totality stays fine, reversibility breaks
    r3 = cyclic_ring(3)
    add, neg, mul = ring_tables(r3)
    add[1][1] = [2, 0]
    r = HyperRing(add=add, neg=neg, mul=mul)
    report = r.validate()
    assert not report.ok
    axioms = {c.axiom for c in report.failures}
    assert axioms & {"reversibility", "negation", "associativity", "commutativity"}


def test_zero_row_must_be_identity():
    r = HyperRing(add=[[[0], [0, 1]], [[0, 1], [0]]], neg=[0, 1], mul=[[0, 0], [0, 0]])
    report = r.validate()
    assert not report.ok
    assert any(c.axiom == "identity" for c in report.failures)


def test_structural_layers_require_validation(z6):
    from krasner.hypermodules import regular_module
    from krasner.spectrum import SpectrumSpace

    add, neg, mul = ring_tables(z6)
    raw = HyperRing(add=add, neg=neg, mul=mul)
    with pytest.raises(NotValidatedError):
        IdealLattice.build(raw)
    with pytest.raises(NotValidatedError):
        regular_module(raw)
    with pytest.raises(NotValidatedError):
        SpectrumSpace.build(raw)
    raw.validate()
    raw.require_validated()
    IdealLattice.build(raw)


def test_a_broken_table_fails_the_same_way_every_time(z4):
    # one hypergroup report per table is kept; the gate is decided afresh
    add, neg, mul = ring_tables(cyclic_ring(3))
    add[1][1] = [2, 0]
    broken = HyperRing(add=add, neg=neg, mul=mul)
    first = broken.validate()
    assert not first.ok and not first.hypergroup.ok
    assert broken.validate() == first and not broken.validated
    twin = HyperRing(add=add, neg=neg, mul=mul)
    assert twin.validate() == first
    with pytest.raises(NotValidatedError):
        twin.require_validated()
    # z4's additive table passes, but its multiplication is still verified
    add, neg, mul = ring_tables(z4)
    mul[2][2] = 1
    for _ in range(2):
        bad_mul = HyperRing(add=add, neg=neg, mul=mul, unit=1)
        report = bad_mul.validate()
        assert report.hypergroup == z4.validate().hypergroup
        assert not report.table.ok and not bad_mul.validated


def test_kept_hypergroup_reports_match_a_fresh_check(corpus3, monkeypatch):
    answers = {}
    real = core._hypergroup_report

    def spy(add_masks, neg_table):
        report = real(add_masks, neg_table)
        answers.setdefault((add_masks, neg_table), []).append(report)
        return report

    monkeypatch.setattr(core, "_hypergroup_report", spy)
    for entry in corpus3:
        run_ring_checks(entry.ring)
    # the sweep validates far more structures than there are tables
    assert sum(len(reports) for reports in answers.values()) > 2 * len(answers)
    for (add, neg), reports in answers.items():
        fresh = VerificationReport(tuple(hypergroup_checks(len(neg), add, neg)))
        assert all(report == fresh for report in reports)


def test_the_hypergroup_memo_is_bounded(monkeypatch, request):
    info = core._hypergroup_report.cache_info()
    assert info.maxsize == core._VERDICTS_KEPT and info.currsize <= core._VERDICTS_KEPT
    # under a bound below the 97 order-4 classes the oldest verdicts are
    # evicted and checked again; the empty memos take the patched bound
    small = 64
    monkeypatch.setattr(core, "_VERDICTS_KEPT", small)
    request.getfixturevalue("fresh_memos")
    tables = enumerate_hypergroups(4)
    assert len(tables) > small
    for add, neg in tables:
        core._hypergroup_report(add, neg)
    info = core._hypergroup_report.cache_info()
    assert info.maxsize == small and info.currsize == small
    core._hypergroup_report(*tables[0])
    assert core._hypergroup_report.cache_info().misses == info.misses + 1
    # the ring and module verdicts are kept the same way
    rings = [HyperRing(*ring_tables(e.ring), unit=e.ring.unit) for e in generate_corpus(4)]
    assert len({ring.encoding() for ring in rings}) > small
    for ring in rings:
        assert ring.validate().ok
        assert len(core._TABLE_REPORTS) <= small
    assert len(core._TABLE_REPORTS) == small


# validate() may keep verdicts, but every one must equal a check from
# scratch; the structures below agree in all but one value a report reads,
# so a verdict kept under a key that leaves that value out shows here

def fresh_report(s):
    verify = verify_hyperring if isinstance(s, HyperRing) else verify_hypermodule
    return ValidationReport(
        VerificationReport(tuple(hypergroup_checks(s.order, s.add_masks, s.neg_table))),
        verify(s))


def module_over(ring, like, unital=None):
    """A module with the tables of like, built unchecked over ring."""
    return HyperModule(ring, [[list(bits(m)) for m in row] for row in like.add_masks],
                       like.neg_table, like.act_table,
                       unital=like.unital if unital is None else unital)


def test_unit_action_names_its_own_ring():
    left, right = zero_mul_ring(2, name="left"), zero_mul_ring(2, name="right")
    assert left.encoding() == right.encoding()
    for _ in range(2):
        for ring in (left, right):
            module = module_over(ring, regular_module(ring), unital=True)
            report = module.validate()
            assert report == fresh_report(module)
            assert [c.detail for c in report.failures] == [
                f"declared unital, but {ring.name} has no unit"]
    # the name is read when the module is validated, not when it is built
    module = module_over(left, regular_module(left), unital=True)
    left.name = None
    assert module.validate().failures[0].detail == "declared unital, but the ring has no unit"


def test_equal_table_rings_with_other_names_share_module_verdicts(fresh_memos, monkeypatch):
    built = []
    verify = hypermodules.verify_hypermodule

    def counting(module):
        built.append(module.ring.name)
        return verify(module)

    monkeypatch.setattr(hypermodules, "verify_hypermodule", counting)
    z4 = cyclic_ring(4, name="z4")
    renamed = [cyclic_ring(4, name="other"),
               quotient_ring(z4, IdealLattice.build(z4).two_sided[0]).ring]
    assert renamed[1].name != "z4" and renamed[1].encoding() == z4.encoding()
    for ring in [z4] + renamed:
        for unital in (False, True):
            report = module_over(ring, regular_module(z4), unital).validate()
            assert report == fresh_report(module_over(ring, regular_module(z4), unital))
            assert report.ok
    # the regular module of z4, then one build per unital flag: every
    # renamed ring reads the verdicts of z4
    assert built == ["z4", "z4"]
    # without a unit the report names the ring, so each name gets its own
    built.clear()
    for name in ("left", "right", "left"):
        ring = zero_mul_ring(2, name=name)
        assert module_over(ring, regular_module(ring)).validate().ok
        report = module_over(ring, regular_module(ring), unital=True).validate()
        assert [c.detail for c in report.failures] == [
            f"declared unital, but {name} has no unit"]
    assert built == ["left", "left", "right"]


def test_rings_that_differ_only_in_their_unit(z4):
    add, neg, mul = ring_tables(z4)
    rings = [HyperRing(add, neg, mul, unit=u, name="z") for u in (1, None, 2, 3, 1)]
    verdicts = []
    for ring in rings + rings[::-1]:
        report = ring.validate()
        assert report == fresh_report(ring)
        verdicts.append(report.ok)
    assert verdicts == [True, True, False, False, True, True, False, False, True, True]
    # a unital module reads the unit of its ring, named alike here
    with_unit, without = rings[0], rings[1]
    for ring, ok in ((with_unit, True), (without, False), (with_unit, True)):
        module = module_over(ring, regular_module(z4), unital=True)
        report = module.validate()
        assert report == fresh_report(module) and report.ok == ok


def test_a_one_cell_twin_gets_its_own_verdict(corpus3):
    rings = [entry.ring for entry in corpus3]
    failed = 0
    for ring in rings:
        n = ring.order
        add, neg, mul = ring_tables(ring)
        reg = regular_module(ring)
        twins = []
        for a in range(n):
            for b in range(n):
                cell = [row[:] for row in mul]
                cell[a][b] = (cell[a][b] + 1) % n
                twins.append(HyperRing(add, neg, cell, unit=ring.unit))
                twins.append(HyperModule(ring, add, neg, cell, unital=reg.unital))
                cell = [row[:] for row in add]
                cell[a][b] = list(bits(ring.add_masks[a][b] ^ 1 << (a + b) % n))
                twins.append(HyperRing(cell, neg, mul, unit=ring.unit))
                twins.append(HyperModule(ring, cell, neg, mul, unital=reg.unital))
        for twin in twins:
            for s in (ring, reg):
                assert s.validate().ok
            report = twin.validate()
            assert report == fresh_report(twin)
            failed += not report.ok
    assert failed > len(rings)


def test_one_module_over_rings_that_differ_in_one_table(corpus4):
    # the regular module of each ring with a nonzero product (a zero action
    # passes over every ring), over each ring of its order and unit whose
    # add or mul table, not both, differs; the rings are unnamed copies, so
    # only their tables tell them apart
    rings = [HyperRing(*ring_tables(e.ring), unit=e.ring.unit).checked("copy")
             for e in corpus4]
    failed = 0
    for ring in rings:
        if not any(map(any, ring.mul_table)):
            continue
        reg = regular_module(ring)
        for other in rings:
            if (other.order == ring.order and other.unit == ring.unit
                    and (other.add_masks == ring.add_masks) != (other.mul_table == ring.mul_table)):
                twin = module_over(other, reg)
                for s in (reg, twin):
                    report = s.validate()
                    assert report == fresh_report(s)
                failed += not report.ok
    assert failed > 100


def test_mask_tables_build_what_member_lists_build(corpus3):
    for entry in corpus3:
        ring = entry.ring
        add, neg, mul = ring_tables(ring)
        masks = _MaskTable(ring.add_masks)
        assert (HyperRing(add, neg, mul, unit=ring.unit).encoding()
                == HyperRing(masks, neg, mul, unit=ring.unit).encoding() == ring.encoding())
        assert (HyperModule(ring, add, neg, mul, unital=ring.is_unital).encoding()
                == HyperModule(ring, masks, neg, mul, unital=ring.is_unital).encoding()
                == regular_module(ring).encoding())


def test_mask_tables_keep_the_shape_and_range_checks(z2):
    neg, mul = [0, 1], [[0, 0], [0, 1]]
    for bad in ([[1, 2], [2, 4]], [[1, 2], [2, -1]], [[1, 2]], [[1, 2], [2]]):
        with pytest.raises(ValueError):
            HyperRing(_MaskTable(bad), neg, mul)
        with pytest.raises(ValueError):
            HyperModule(z2, _MaskTable(bad), neg, mul)
    # the public form takes member lists, and an int cell is no list
    with pytest.raises(TypeError):
        HyperRing([[1, 2], [2, 1]], neg, mul)
    with pytest.raises(TypeError):
        HyperModule(z2, [[1, 2], [2, 1]], neg, mul)


def test_validate_is_idempotent(z4):
    first = z4.validate()
    second = z4.validate()
    assert first.ok and second.ok


def test_carrier_mismatch(z4, z6):
    with pytest.raises(CarrierMismatchError):
        hypersum(z4, z4.from_mask(z4.full_mask), z6.from_mask(z6.full_mask))


def test_equal_order_structures_keep_their_sets_apart():
    # sets belong to one structure, not to its order: two separately
    # built Z4s, and each ring against its own regular module
    a, b = cyclic_ring(4), cyclic_ring(4)
    ma, mb = regular_module(a), regular_module(b)
    assert a.from_mask(a.full_mask) != b.from_mask(b.full_mask)
    assert ma.subset(range(4)) != mb.subset(range(4))
    assert a.from_mask(a.full_mask) != ma.subset(range(4))
    with pytest.raises(CarrierMismatchError):
        hypersum(a, a.from_mask(a.full_mask), b.from_mask(b.full_mask))
    with pytest.raises(CarrierMismatchError):
        a.from_mask(a.full_mask) | b.from_mask(b.full_mask)
    with pytest.raises(ValueError, match="different carrier"):
        is_hyperideal(a, b.from_mask(b.full_mask))
    with pytest.raises(ValueError, match="different carrier"):
        is_subhypermodule(ma, mb.subset([0]))
    with pytest.raises(ValueError, match="different carrier"):
        is_subhypermodule(ma, a.from_mask(a.full_mask))


def test_every_export_resolves():
    for name in krasner.__all__:
        assert getattr(krasner, name, None) is not None, name


def test_element_set_basics():
    c = cyclic_ring(4)
    s = c.subset([1, 3])
    assert s.mask == 0b1010
    assert s.members == (1, 3)
    assert not s.is_full()
    assert c.subset([0, 1, 2, 3]).is_full()
    assert mask_of([1, 3]) == s.mask
    assert list(bits(0b1010)) == [1, 3]


def old_bits(mask):
    # the generator that ``bits`` was before it became a table lookup
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


def test_bits_matches_the_old_generator():
    # every mask below 2^13 crosses the table edge at 2^12
    for mask in range(1 << 13):
        assert bits(mask) == tuple(old_bits(mask))
    wide = [(1 << 40) - 1, 1 << 39, 0x5A5A5A5A5A, 0xF0F0F0F0F0 | 1, 0x8000000001]
    for mask in wide:
        got = bits(mask)
        assert isinstance(got, tuple)
        assert got == tuple(old_bits(mask))


def test_the_bits_table_covers_every_ideal_scan():
    # the ideal and submodule scans refuse carriers above the bound, so
    # every mask they walk is inside the table
    assert len(core._BITS) == 1 << core.ENUMERATION_BOUND


def test_each_search_bound_is_one_constant(z4, z6, monkeypatch, fresh_memos):
    def refuse(*args):
        raise AssertionError("searched past the bound")

    reg = regular_module(z4)
    space = SpectrumSpace.build(z6)
    family = IdealLattice.build(z6).two_sided
    with monkeypatch.context() as m:
        # lowered once, the scan bound refuses all four scans before any work
        m.setattr(core, "ENUMERATION_BOUND", len(family) - 1)
        m.setattr(ideals, "closed_subsets", refuse)
        m.setattr(hypermodules, "closed_subsets", refuse)
        m.setattr(SpectrumSpace, "vanishing_set", refuse)
        for scan in (lambda: enumerate_ideals(z4), lambda: enumerate_subhypermodules(reg),
                     lambda: is_simple(reg), lambda: compactness_witness(space, family)):
            with pytest.raises(BoundExceededError):
                scan()

    z7 = cyclic_ring(7)
    reg7 = regular_module(z7)
    with pytest.raises(BoundExceededError):
        enumerate_ring_homs(z7, z7)
    with pytest.raises(BoundExceededError):
        enumerate_module_homs(reg7, reg7)
    # raised once, the hom bound lets both hom searches run at order 7
    monkeypatch.setattr(core, "HOM_SEARCH_BOUND", 7)
    assert [h.mapping for h in enumerate_ring_homs(z7, z7)] == [(0,) * 7, tuple(range(7))]
    assert len(enumerate_module_homs(reg7, reg7)) == 7


def test_a_ring_wider_than_the_bits_table_still_validates():
    z13 = cyclic_ring(13)
    assert verify_hyperring(z13).ok
    assert z13.from_mask(z13.full_mask).members == tuple(range(13))
    assert list(z13.from_mask(z13.full_mask)) == list(range(13))


def test_element_set_rejects_out_of_range():
    c = cyclic_ring(3)
    with pytest.raises(ValueError):
        c.subset([3])
    with pytest.raises(ValueError):
        c.from_mask(1 << 3)
    with pytest.raises(ValueError):
        HyperRing([], [], [])


def test_ring_encoding_is_stable(z4):
    assert z4.encoding() == cyclic_ring(4).encoding()
    assert z4.encoding() != cyclic_ring(5).encoding()


@given(st.integers(min_value=1, max_value=9))
def test_cyclic_rings_always_validate(n):
    assert verify_hyperring(cyclic_ring(n)).ok


@given(st.integers(min_value=2, max_value=7), st.data())
def test_hypersum_commutes_and_associates(n, data):
    ring = cyclic_ring(n)
    elems = st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1)
    x = ring.subset(data.draw(elems))
    y = ring.subset(data.draw(elems))
    z = ring.subset(data.draw(elems))
    assert hypersum(ring, x, y).mask == hypersum(ring, y, x).mask
    left = hypersum(ring, hypersum(ring, x, y), z)
    right = hypersum(ring, x, hypersum(ring, y, z))
    assert left.mask == right.mask


@given(st.integers(min_value=2, max_value=7), st.data())
def test_reversibility_on_cyclic_rings(n, data):
    # a in b+c forces c in -b+a and b in a-c
    ring = cyclic_ring(n)
    elem = st.integers(min_value=0, max_value=n - 1)
    b, c = data.draw(elem), data.draw(elem)
    for a in hypersum(ring, ring.subset([b]), ring.subset([c])).members:
        back = hypersum(ring, ring.subset([ring.neg(b)]), ring.subset([a]))
        assert c in back.members
        other = hypersum(ring, ring.subset([a]), ring.subset([ring.neg(c)]))
        assert b in other.members
