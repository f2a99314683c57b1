"""Hull kernel topology on the primitive ideal space."""

import collections
import itertools
import random
import types

import pytest

from krasner import core
from krasner.catalog import cyclic_ring
from krasner.core import BoundExceededError, bits
from krasner.ideals import HyperIdeal, IdealLattice
from krasner.spectrum import (
    KuratowskiReport,
    SpectrumSpace,
    compactness_witness,
    dot_graph,
    generic_points,
    irreducible_closed_sets,
    irreducible_components,
    is_irreducible,
    is_noetherian_space,
    longest_closed_chain,
    reducible_split,
    space_as_dict,
    verify_kuratowski,
    witness_kernel_sum,
)


def test_z6_spectrum_is_two_discrete_points(z6):
    space = SpectrumSpace.build(z6)
    assert space.size == 2
    assert [p.members.members for p in space.points] == [(0, 3), (0, 2, 4)]
    # every subset closed: the two ideals are incomparable
    assert space.closed_sets() == (0, 1, 2, 3)
    assert space.is_t0() and space.is_t1()


def test_single_point_spectra(z4, kfield):
    for ring in (z4, kfield):
        space = SpectrumSpace.build(ring)
        assert space.size == 1
        assert space.closed_sets() == (0, 1)
        assert space.is_t0() and space.is_t1()


def test_closure_operator(z6):
    space = SpectrumSpace.build(z6)
    assert space.closure(0) == 0
    assert space.closure(1) == 1
    assert space.closure(3) == 3
    assert space.is_closed(2)


def test_vanishing_set(z6):
    space = SpectrumSpace.build(z6)
    lattice = IdealLattice.build(z6)
    by_members = {i.members.members: i for i in lattice.two_sided}
    assert space.vanishing_set(by_members[(0, 3)]) == 0b01
    assert space.vanishing_set(by_members[(0, 2, 4)]) == 0b10
    assert space.vanishing_set(by_members[(0,)]) == 0b11


def test_kernel_of(z6):
    space = SpectrumSpace.build(z6)
    # kernel of all points is the intersection {0}; of none, the whole ring
    assert space.kernel_of(0b11) == 0b1
    assert space.kernel_of(0) == z6.full_mask


def test_kuratowski_exact(z2, z4, z6, kfield):
    for ring in (z2, z4, z6, kfield):
        report = verify_kuratowski(SpectrumSpace.build(ring))
        assert report.ok
        assert report.pairs_checked == 4 ** SpectrumSpace.build(ring).size
        assert report.failure == ()


class StubSpace:
    """A space by duck typing: a size and a closure, whose calls are counted."""

    def __init__(self, size, closure):
        self.size = size
        self._closure = closure
        self.calls = 0

    def closure(self, pmask):
        self.calls += 1
        return self._closure(pmask)


def preorder_closure(below):
    # below[i] is the pmask of the points at or under point i, a preorder;
    # the closure of a set is its down-set
    def closure(pmask):
        out = 0
        for i in bits(pmask):
            out |= below[i]
        return out
    return closure


def random_preorder(rng, size):
    below = [1 << i | (rng.getrandbits(size) & rng.getrandbits(size)) for i in range(size)]
    for k in range(size):  # transitive closure, Warshall
        for i in range(size):
            if below[i] >> k & 1:
                below[i] |= below[k]
    return below


def broken_union(closure, top, extra):
    # adds the point extra to the closure of each set whose closure holds
    # top: still a closure operator, but the union law fails on the pair
    # of points in top when neither closure holds top and neither holds extra
    def broken(pmask):
        c = closure(pmask)
        return closure(pmask | extra) if c & top == top else c
    return broken


def shrunk_union(closure, top):
    # leaves each set holding top as it is: still extensive and idempotent,
    # but no longer monotone, so the union law fails on the pair of points
    # in top when their closures hold a point outside top
    def shrunk(pmask):
        return pmask if pmask & top == top else closure(pmask)
    return shrunk


def swept_kuratowski(space):
    """The closure laws with the union law swept over all 4^size subset
    pairs in order, reporting the first failing pair."""
    total = 1 << space.size
    cl = [space.closure(s) for s in range(total)]
    if cl[0] != 0:
        return KuratowskiReport(False, 0, (0,), "closure of the empty set is not empty")
    for s, c in enumerate(cl):
        if s & ~c:
            return KuratowskiReport(False, 0, (s,), "a set escapes its own closure")
        if cl[c] != c:
            return KuratowskiReport(False, 0, (s,), "closure is not idempotent")
    for checked, (s, t) in enumerate(itertools.product(range(total), repeat=2), 1):
        if cl[s | t] != cl[s] | cl[t]:
            return KuratowskiReport(False, checked, (s, t),
                                    "closure does not distribute over the union")
    return KuratowskiReport(True, total * total)


def agrees_with_the_sweep(space):
    """Asserts verify_kuratowski and the pair sweep agree on space; returns
    the failed law's detail, or "" when every law holds."""
    swept, report = swept_kuratowski(space), verify_kuratowski(space)
    assert (report.ok, report.detail) == (swept.ok, swept.detail)
    if report.ok:
        assert report.pairs_checked == 4 ** space.size
    elif report.detail.startswith("closure does not distribute"):
        # a genuinely failing pair, after the pairs whose union comes before
        s, t = report.failure
        assert space.closure(s | t) != space.closure(s) | space.closure(t)
        assert report.pairs_checked == 1 + sum(3 ** u.bit_count() for u in range(s | t))
    else:
        assert report == swept
    return report.detail


def test_kuratowski_matches_the_pair_sweep_on_corpus4(corpus4):
    details = {agrees_with_the_sweep(SpectrumSpace.build(e.ring)) for e in corpus4}
    assert details == {""}


def test_kuratowski_matches_the_pair_sweep_on_preorders():
    rng = random.Random(0)
    details = collections.Counter()
    for size in range(10):
        for _ in range(3 if size > 7 else 6):
            below = random_preorder(rng, size)
            closure = preorder_closure(below)
            details[agrees_with_the_sweep(StubSpace(size, closure))] += 1
            pairs = [(i, j) for i in range(size) for j in range(i)
                     if not below[i] >> j & 1 and not below[j] >> i & 1
                     and below[i] | below[j] != (1 << size) - 1]
            if pairs:
                i, j = rng.choice(pairs)
                top = 1 << i | 1 << j
                extra = 1 << min(bits(~(below[i] | below[j]) & ((1 << size) - 1)))
                broken = broken_union(closure, top, extra)
                details[agrees_with_the_sweep(StubSpace(size, broken))] += 1
            pairs = [(i, j) for i in range(size) for j in range(i)
                     if not below[i] >> j & 1 and not below[j] >> i & 1
                     and below[i] | below[j] != 1 << i | 1 << j]
            if pairs:
                i, j = pairs[0]
                shrunk = shrunk_union(closure, 1 << i | 1 << j)
                details[agrees_with_the_sweep(StubSpace(size, shrunk))] += 1
    # every intact preorder passes and every broken one (23 grown, 21 shrunk)
    # fails the union law
    assert details == {"": 54, "closure does not distribute over the union": 44}


def test_kuratowski_decides_nine_points_from_one_closure_each():
    # past 7 points the union law was once sampled from 4,096 pairs
    space = StubSpace(9, preorder_closure(random_preorder(random.Random(9), 9)))
    report = verify_kuratowski(space)
    assert report == (True, 4 ** 9, (), "")
    assert space.calls == 2 ** 9


def test_irreducibility(z6):
    space = SpectrumSpace.build(z6)
    assert is_irreducible(space, 0b01)
    assert is_irreducible(space, 0b10)
    assert not is_irreducible(space, 0b11)
    assert reducible_split(space, 0b11) == (0b01, 0b10)
    assert reducible_split(space, 0b01) is None


def test_generic_points(z6):
    space = SpectrumSpace.build(z6)
    assert generic_points(space, 0b01) == (0,)
    assert generic_points(space, 0b10) == (1,)
    # the full two point set has no generic point
    assert generic_points(space, 0b11) == ()


def test_irreducible_closed_sets_have_unique_generics(corpus3):
    for entry in corpus3:
        space = SpectrumSpace.build(entry.ring)
        if space.size > 6:
            continue
        for c in irreducible_closed_sets(space):
            assert len(generic_points(space, c)) == 1


def test_components(z6, z4):
    assert irreducible_components(SpectrumSpace.build(z6)) == (0b01, 0b10)
    assert irreducible_components(SpectrumSpace.build(z4)) == (0b1,)


def test_components_cover_the_space(corpus3):
    for entry in corpus3:
        space = SpectrumSpace.build(entry.ring)
        cover = 0
        for c in irreducible_components(space):
            cover |= c
        assert cover == space.full_pmask


def test_chains_and_noetherian(z6):
    space = SpectrumSpace.build(z6)
    chain = longest_closed_chain(space)
    assert chain == (0b11, 0b01, 0)
    assert is_noetherian_space(space)


@pytest.mark.parametrize("chain", [
    (0b111, 0b11, 0),  # 0b111 holds a point the space lacks, so is not closed
    (0b11, 0b11, 0),   # not strictly descending
    (0b01, 0b10, 0),   # 0b10 is not inside 0b01
])
def test_noetherian_check_refuses_a_broken_chain(z6, chain, monkeypatch):
    monkeypatch.setattr("krasner.spectrum.longest_closed_chain", lambda space: chain)
    assert not is_noetherian_space(SpectrumSpace.build(z6))


def test_compactness_witness_z6(z6):
    space = SpectrumSpace.build(z6)
    lattice = IdealLattice.build(z6)
    family = [i for i in lattice.two_sided if i.proper]
    combo = compactness_witness(space, family)
    assert combo == (1, 2)
    # the two maximal ideals alone uncover the space and sum to R
    assert witness_kernel_sum(space, family, combo).is_full()


def test_compactness_witness_rejects_covered_space(z6):
    space = SpectrumSpace.build(z6)
    lattice = IdealLattice.build(z6)
    small = [i for i in lattice.two_sided if i.members.members == (0, 3)]
    with pytest.raises(ValueError):
        compactness_witness(space, small)


def test_compactness_witness_bound(z6, monkeypatch):
    space = SpectrumSpace.build(z6)
    lattice = IdealLattice.build(z6)
    family = [i for i in lattice.two_sided if i.proper]
    monkeypatch.setattr(core, "ENUMERATION_BOUND", 2)
    with pytest.raises(BoundExceededError):
        compactness_witness(space, family)


def test_materialize_bound(monkeypatch):
    # a ring of its own: the session z6 keeps a space whose closed sets
    # another test may already have materialized; the bound is lowered
    # below its two points after the ideal search that builds it
    space = SpectrumSpace.build(cyclic_ring(6))
    monkeypatch.setattr(core, "ENUMERATION_BOUND", 1)
    with pytest.raises(BoundExceededError):
        space.closed_sets()


def trusted_space(ring, masks):
    """A space through the public constructor whose points are the given
    element masks, taken as ideals unchecked: the topology reads masks only."""
    ideals = [HyperIdeal._trusted(ring, m, "two-sided") for m in masks]
    return SpectrumSpace(ring, [types.SimpleNamespace(ideal=p) for p in ideals])


def kernel_table_closed_sets(space):
    """The closed pmasks by the route closed_sets once took: the kernel of
    each subset from that of the subset less its lowest point, in one
    table, and the subset closed when the points holding its kernel are
    its own."""
    masks = space.point_masks
    kern = [space.ring.full_mask] * (1 << space.size)
    closed = [0]
    for s in range(1, 1 << space.size):
        low = s & -s
        kern[s] = kern[s ^ low] & masks[low.bit_length() - 1]
        if sum(1 << i for i, m in enumerate(masks) if kern[s] & ~m == 0) == s:
            closed.append(s)
    return tuple(closed)


def test_closed_sets_match_the_kernel_table(corpus4):
    for entry in corpus4:
        space = SpectrumSpace.build(entry.ring)
        assert space.closed_sets() == kernel_table_closed_sets(space)
    # every corpus space has at most two points; spaces up to the bound
    # come from masks of Z6 holding 0, as many as 12 of its 32
    rng = random.Random(1)
    z6 = cyclic_ring(6)
    holding_zero = range(1, 1 << 6, 2)
    for size in range(core.ENUMERATION_BOUND + 1):
        for _ in range(3):
            space = trusted_space(z6, rng.sample(holding_zero, size))
            assert space.closed_sets() == kernel_table_closed_sets(space)


def test_a_space_past_the_bound_is_refused_before_any_closure(monkeypatch):
    bound = core.ENUMERATION_BOUND
    space = trusted_space(cyclic_ring(6), range(1, 2 * bound + 3, 2))
    assert space.size == bound + 1
    calls = []
    closure = SpectrumSpace.closure
    monkeypatch.setattr(SpectrumSpace, "closure",
                        lambda self, pmask: calls.append(pmask) or closure(self, pmask))
    for scan in (verify_kuratowski, SpectrumSpace.closed_sets):
        with pytest.raises(BoundExceededError,
                           match=rf"2\^{bound + 1} subsets; {bound + 1} points exceeds the bound {bound}"):
            scan(space)
    assert calls == []


def test_dot_graph_discrete(z6):
    out = dot_graph(SpectrumSpace.build(z6))
    assert out.splitlines() == [
        "digraph spectrum {",
        '  p0 [label="{0,3}"];',
        '  p1 [label="{0,2,4}"];',
        "}",
    ]


def test_dot_graph_specialization_edges(z6):
    # no bundled spectrum has a nontrivial specialization order, so force
    # one through a stub that glues p1 into the closure of p0
    space = SpectrumSpace.build(z6)

    class Stub:
        points = space.points
        size = space.size

        def closure(self, pmask):
            return space.full_pmask if pmask == 0b01 else pmask

    out = dot_graph(Stub())
    assert "  p0 -> p1;" in out.splitlines()


def test_space_as_dict(z6):
    d = space_as_dict(SpectrumSpace.build(z6))
    assert d["points"] == [[0, 3], [0, 2, 4]]
    assert d["t1"] is True
    assert d["closed_sets"] == [[], [0], [1], [0, 1]]
    assert d["irreducible_components"] == [[0], [1]]


def test_duplicate_points_rejected(z6):
    from krasner.primitivity import prim_certificates

    certs = prim_certificates(z6)
    with pytest.raises(ValueError):
        SpectrumSpace(z6, certs + certs)
