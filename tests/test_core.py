"""Axiom checking on the bundled rings and on deliberately broken tables."""

import pytest
from hypothesis import given, strategies as st

import krasner
from krasner.catalog import cyclic_ring, hyperfield_k, standard_rings, zero_mul_ring
from krasner import core
from krasner.core import (
    CarrierMismatchError,
    HyperRing,
    NotValidatedError,
    VerificationReport,
    bits,
    find_unit,
    hypergroup_checks,
    hypersum,
    mask_of,
    neg_set,
    verify_hyperring,
)
from krasner.corpus import enumerate_hypergroups
from krasner.hypermodules import is_subhypermodule, regular_module
from krasner.ideals import ENUMERATION_BOUND, IdealLattice, is_hyperideal
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
            s = hypersum(z4, z4.singleton(a), z4.singleton(b))
            assert s.members == ((a + b) % 4,)


def test_neg_set(z4):
    assert neg_set(z4, z4.subset([1, 2])).members == (2, 3)
    assert neg_set(z4, z4.subset([0])).members == (0,)


def test_hyperfield_k_tables(kfield):
    # 1 + 1 = {0, 1} is what makes K a hyperfield rather than a field
    assert hypersum(kfield, kfield.singleton(1), kfield.singleton(1)).members == (0, 1)
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


def test_the_hypergroup_memo_is_bounded():
    tables = enumerate_hypergroups(4)
    assert len(tables) > 64
    for add, neg in tables:
        core._hypergroup_report(add, neg)
    info = core._hypergroup_report.cache_info()
    assert info.maxsize == 64 and info.currsize <= 64


def test_validate_is_idempotent(z4):
    first = z4.validate()
    second = z4.validate()
    assert first.ok and second.ok


def test_carrier_mismatch(z4, z6):
    with pytest.raises(CarrierMismatchError):
        hypersum(z4, z4.full_set(), z6.full_set())


def test_equal_order_structures_keep_their_sets_apart():
    # sets belong to one structure, not to its order: two separately
    # built Z4s, and each ring against its own regular module
    a, b = cyclic_ring(4), cyclic_ring(4)
    ma, mb = regular_module(a), regular_module(b)
    assert a.full_set() != b.full_set()
    assert ma.subset(range(4)) != mb.subset(range(4))
    assert a.full_set() != ma.subset(range(4))
    with pytest.raises(CarrierMismatchError):
        hypersum(a, a.full_set(), b.full_set())
    with pytest.raises(CarrierMismatchError):
        a.full_set() | b.full_set()
    with pytest.raises(ValueError, match="different carrier"):
        is_hyperideal(a, b.full_set())
    with pytest.raises(ValueError, match="different carrier"):
        is_subhypermodule(ma, mb.subset([0]))
    with pytest.raises(ValueError, match="different carrier"):
        is_subhypermodule(ma, a.full_set())


def test_every_export_resolves():
    for name in krasner.__all__:
        assert getattr(krasner, name, None) is not None, name


def test_element_set_basics():
    c = cyclic_ring(4)
    s = c.subset([1, 3])
    assert s.mask == 0b1010
    assert s.members == (1, 3)
    assert s.complement().members == (0, 2)
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
    assert len(core._BITS) == 1 << ENUMERATION_BOUND


def test_a_ring_wider_than_the_bits_table_still_validates():
    z13 = cyclic_ring(13)
    assert verify_hyperring(z13).ok
    assert z13.full_set().members == tuple(range(13))
    assert list(z13.full_set()) == list(range(13))


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
    for a in hypersum(ring, ring.singleton(b), ring.singleton(c)).members:
        back = hypersum(ring, ring.singleton(ring.neg(b)), ring.singleton(a))
        assert c in back.members
        other = hypersum(ring, ring.singleton(a), ring.singleton(ring.neg(c)))
        assert b in other.members
