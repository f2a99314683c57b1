"""Right hypermodules: axioms, submodules, quotients, homs."""

import pytest

from krasner import primitivity
from krasner.catalog import cyclic_ring, hyperfield_k, standard_rings
from krasner.core import NotValidatedError, TheoremViolationError, bits
from krasner.hypermodules import (
    HyperModule,
    ModuleHom,
    annihilator,
    cyclic_submodule,
    enumerate_module_homs,
    enumerate_subhypermodules,
    find_isomorphism,
    hom_image,
    hom_kernel,
    induced_isomorphism,
    is_simple,
    is_subhypermodule,
    module_ideal_product,
    quotient_module,
    regular_module,
    restrict_scalars,
    submodule,
    verify_module_hom,
)
from krasner.ideals import IdealLattice
from krasner.morphisms import RingHom


def module_tables(mod):
    madd = [[list(bits(m)) for m in row] for row in mod.add_masks]
    return madd, list(mod.neg_table), [list(row) for row in mod.act_table]


def test_regular_modules_validate():
    for ring in standard_rings():
        mod = regular_module(ring)
        assert mod.validated
        assert mod.unital == ring.is_unital


def test_regular_module_requires_validated_ring(z4):
    add = [[list(bits(m)) for m in row] for row in z4.add_masks]
    from krasner.core import HyperRing

    raw = HyperRing(add, list(z4.neg_table), [list(r) for r in z4.mul_table])
    with pytest.raises(NotValidatedError):
        regular_module(raw)


def test_z4_regular_submodules(z4):
    subs = enumerate_subhypermodules(regular_module(z4))
    assert [s.members for s in subs] == [(0,), (0, 2), (0, 1, 2, 3)]


def test_submodules_are_the_right_ideals(z6):
    # over the regular module the submodules are exactly the right ideals
    lattice = IdealLattice.build(z6)
    subs = enumerate_subhypermodules(regular_module(z6))
    assert sorted(s.members for s in subs) == sorted(i.members.members for i in lattice.right)


def test_is_subhypermodule_witness(z4):
    mod = regular_module(z4)
    check = is_subhypermodule(mod, [0, 1])
    assert not check.ok
    assert check.clause in ("neg-closure", "add-closure", "action-closure")


def test_broken_zero_action_is_caught(z4):
    madd, mneg, act = module_tables(regular_module(z4))
    act[1][0] = 1
    bad = HyperModule(z4, madd, mneg, act, unital=True)
    report = bad.validate()
    assert not report.ok
    by_axiom = {c.axiom: c for c in report.failures}
    assert by_axiom["zero-action"].witness == (1,)


def test_broken_unit_action_is_caught(z4):
    madd, mneg, act = module_tables(regular_module(z4))
    act[1][1] = 2
    bad = HyperModule(z4, madd, mneg, act, unital=True)
    report = bad.validate()
    assert not report.ok
    by_axiom = {c.axiom: c for c in report.failures}
    assert by_axiom["unit-action"].witness == (1,)
    assert by_axiom["sum-action"].witness == (1, 1, 1)


def test_unital_module_over_a_ring_without_unit_fails(zmul2):
    madd, mneg, act = module_tables(regular_module(zmul2))
    assert HyperModule(zmul2, madd, mneg, act).validate().ok
    report = HyperModule(zmul2, madd, mneg, act, unital=True).validate()
    assert not report.ok
    assert [(c.axiom, c.witness) for c in report.failures] == [("unit-action", ())]
    assert report.failures[0].detail.endswith("has no unit")


def test_cyclic_submodule(z4):
    mod = regular_module(z4)
    assert cyclic_submodule(mod, 1).members == (0, 1, 2, 3)
    assert cyclic_submodule(mod, 2).members == (0, 2)


def test_simplicity(z4, kfield):
    assert not is_simple(regular_module(z4))
    assert is_simple(regular_module(kfield))
    quot = quotient_module(regular_module(z4), [0, 2])
    assert is_simple(quot.module)


def test_zero_action_module_is_not_simple(z2):
    # two elements, zero action: the action test in simplicity kicks in
    madd, mneg, _ = module_tables(regular_module(z2))
    act = [[0, 0], [0, 0]]
    mod = HyperModule(z2, madd, mneg, act)
    mod.validate()
    assert all(v == 0 for row in mod.act_table for v in row)
    assert not is_simple(mod)


def lattice_simple(module):
    # the definition, by the subhypermodule lattice: nonzero action and
    # exactly two subhypermodules
    if all(v == 0 for row in module.act_table for v in row):
        return False
    return len(enumerate_subhypermodules(module)) == 2


def test_simplicity_matches_the_lattice_definition_on_corpus4(corpus4):
    checked = simple = 0
    for entry in corpus4:
        reg = regular_module(entry.ring)
        modules = [reg] + [quotient_module(reg, reg.from_mask(i.members.mask)).module
                           for i in IdealLattice.build(entry.ring).right]
        for mod in modules:
            assert is_simple(mod) == lattice_simple(mod), mod
            checked += 1
            simple += is_simple(mod)
    assert (checked, simple) == (609, 52)


def test_simplicity_matches_the_lattice_definition_on_searched_modules(corpus3, monkeypatch):
    # every module the simple-module search validates, caught as it asks
    seen = []

    def spy(module):
        seen.append(module)
        return is_simple(module)

    monkeypatch.setattr(primitivity, "is_simple", spy)
    for entry in corpus3:
        primitivity.enumerate_simple_modules(entry.ring)
    assert all(m.validated and is_simple(m) == lattice_simple(m) for m in seen)
    assert (len(seen), sum(map(is_simple, seen))) == (253, 9)


def test_simplicity_answers_past_the_subset_scan_bound():
    # the lattice search refuses carriers past core.ENUMERATION_BOUND = 12
    assert is_simple(regular_module(cyclic_ring(13)))
    assert not is_simple(regular_module(cyclic_ring(14)))


def test_annihilators(z4, z6):
    # the regular module of a unital ring is faithful
    assert annihilator(regular_module(z4)).members.members == (0,)
    quot = quotient_module(regular_module(z4), [0, 2])
    assert annihilator(quot.module).members.members == (0, 2)
    assert annihilator(regular_module(z6)).members.members == (0,)


def test_module_ideal_product(z4):
    mod = regular_module(z4)
    lattice = IdealLattice.build(z4)
    even = next(i for i in lattice.two_sided if i.members.members == (0, 2))
    assert module_ideal_product(mod, even).members == (0, 2)


def test_quotient_module_shape(z4):
    quot = quotient_module(regular_module(z4), [0, 2])
    assert quot.module.order == 2
    assert quot.module.validated
    assert quot.coset_of == (0, 1, 0, 1)
    assert quot.projection.mapping == (0, 1, 0, 1)
    assert verify_module_hom(quot.projection).ok


def test_quotient_module_rejects_non_submodule(z4):
    with pytest.raises(ValueError):
        quotient_module(regular_module(z4), [0, 1])


def test_standalone_submodule(z4):
    sub = submodule(regular_module(z4), [0, 2])
    assert sub.order == 2
    assert sub.validated
    # 2 acts as the reindexed element 1; 1 * 1 = 2 * 1 = 2 -> index 1
    assert sub.act(1, 1) == 1


def test_module_hom_enumeration(z4):
    reg = regular_module(z4)
    quot = quotient_module(reg, [0, 2]).module
    homs = enumerate_module_homs(reg, quot)
    assert [h.mapping for h in homs] == [(0, 0, 0, 0), (0, 1, 0, 1)]
    for hom in homs:
        assert verify_module_hom(hom).ok


def test_module_hom_enumeration_bound(monkeypatch):
    from krasner import core
    from krasner.core import HOM_SEARCH_BOUND, BoundExceededError

    big = regular_module(cyclic_ring(HOM_SEARCH_BOUND + 1))

    def refuse(sizes, rules):
        raise AssertionError("searched past the bound")

    with monkeypatch.context() as m:
        m.setattr(core, "search", refuse)
        with pytest.raises(BoundExceededError):
            enumerate_module_homs(big, big)
    monkeypatch.setattr(core, "HOM_SEARCH_BOUND", HOM_SEARCH_BOUND + 1)
    assert len(enumerate_module_homs(big, big)) == HOM_SEARCH_BOUND + 1


def test_module_homs_need_one_ring(z4, z2):
    with pytest.raises(ValueError):
        ModuleHom(regular_module(z4), regular_module(z2), (0, 0, 0, 0))


def test_kernel_and_image(z4):
    quot = quotient_module(regular_module(z4), [0, 2])
    proj = quot.projection
    assert hom_kernel(proj).members == (0, 2)
    assert hom_image(proj).members == (0, 1)


def test_first_isomorphism(z4):
    # M / ker f is isomorphic to im f, as modules over the same ring
    reg = regular_module(z4)
    quot = quotient_module(reg, [0, 2])
    proj = quot.projection
    domain_mod = quotient_module(reg, hom_kernel(proj).members).module
    image_mod = submodule(quot.module, hom_image(proj).members)
    assert find_isomorphism(domain_mod, image_mod) is not None


def test_induced_isomorphism_reads_the_cosets(z4):
    # Z4 -> Z4/{0,2}: the cosets {0,2}, {1,3} go to 0 and 1 of the image
    reg = regular_module(z4)
    proj = quotient_module(reg, [0, 2]).projection
    quot = quotient_module(reg, hom_kernel(proj).members)
    image_mod = submodule(proj.target, hom_image(proj).members)
    iso = induced_isomorphism(proj, quot, image_mod)
    assert iso == (0, 1)
    assert iso == find_isomorphism(quot.module, image_mod)
    assert verify_module_hom(ModuleHom(quot.module, image_mod, iso)).ok


def test_induced_isomorphism_refuses_a_map_that_is_not_one(z4):
    reg = regular_module(z4)
    proj = quotient_module(reg, [0, 2]).projection
    image_mod = submodule(proj.target, hom_image(proj).members)
    # a quotient by less than the kernel: four cosets onto two elements
    too_fine = quotient_module(reg, [0])
    assert induced_isomorphism(proj, too_fine, image_mod) is None
    # a quotient by more than the kernel: one coset for two elements
    too_coarse = quotient_module(reg, reg.from_mask(reg.full_mask))
    assert induced_isomorphism(proj, too_coarse, image_mod) is None
    # a bijection onto a two element module with zero action is no hom
    quot = quotient_module(reg, [0, 2])
    still = HyperModule(z4, [[[0], [1]], [[1], [0]]], [0, 1], [[0] * 4, [0] * 4])
    still.checked("zero action module failed validation")
    assert induced_isomorphism(proj, quot, still) is None
    other = quotient_module(regular_module(cyclic_ring(2)), [0])
    with pytest.raises(ValueError, match="source"):
        induced_isomorphism(proj, other, image_mod)


def test_no_isomorphism_across_sizes(z4):
    reg = regular_module(z4)
    quot = quotient_module(reg, [0, 2]).module
    assert find_isomorphism(reg, quot) is None


def test_restrict_scalars(z4, z2):
    # pull the Z2 regular module back along the projection Z4 -> Z2
    proj = RingHom(z4, z2, (0, 1, 0, 1))
    target = regular_module(z2)
    pulled = restrict_scalars(target, proj)
    assert pulled.ring is z4
    assert pulled.validated
    assert pulled.act(1, 3) == 1          # 1 * phi(3) = 1 * 1
    assert annihilator(pulled).members.members == (0, 2)


def test_restricted_simple_module_certifies_primitivity(z4, z2):
    # the mechanism behind pulling primitive ideals back along a surjection
    proj = RingHom(z4, z2, (0, 1, 0, 1))
    pulled = restrict_scalars(regular_module(z2), proj)
    assert is_simple(pulled)


def test_module_validate_requires_ring_first(z4):
    madd, mneg, act = module_tables(regular_module(z4))
    from krasner.core import HyperRing

    raw_add = [[list(bits(m)) for m in row] for row in z4.add_masks]
    raw = HyperRing(raw_add, list(z4.neg_table), [list(r) for r in z4.mul_table])
    mod = HyperModule(raw, madd, mneg, act)
    with pytest.raises(NotValidatedError):
        mod.validate()
