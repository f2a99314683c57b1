"""Theorem suite: registry behavior, report determinism, searches."""

import collections
import json
from types import SimpleNamespace

import pytest

from krasner import corpus, suite
from krasner.catalog import cyclic_ring, zero_mul_ring
from krasner.core import TheoremViolationError
from krasner.corpus import generate_corpus
from krasner.hypermodules import (
    ModuleHom,
    enumerate_module_homs,
    find_isomorphism,
    hom_image,
    hom_kernel,
    quotient_module,
    regular_module,
    submodule,
    verify_module_hom,
)
from krasner.ideals import IdealLattice
from krasner.suite import (
    CHECK_IDS,
    HOM_CHECK_ORDER,
    ROGUE_CHECK_ORDER,
    SCHEMA,
    check_ideal_product_closed,
    check_product_inside_intersection,
    counterexample_search,
    run_ring_checks,
    run_theorem_suite,
)


def test_registry_ids_are_unique_and_kebab():
    assert len(CHECK_IDS) == len(set(CHECK_IDS)) == 32
    for cid in CHECK_IDS:
        assert cid == cid.lower()
        assert " " not in cid


def test_full_sweep_is_clean(corpus3):
    report = run_theorem_suite(max_order=3)
    assert report.ok
    # frozen totals for the order <= 3 corpus; a change here means either
    # the corpus moved or a check changed its mind
    assert report.counts == {"pass": 678, "fail": 0, "skip": 52, "info": 38}
    assert len(report.rows) == len(corpus3)
    for row in report.rows:
        assert len(row.results) == 32


def test_ring_checks_filter(z4):
    picked = ("t0", "kuratowski-closure")
    results = run_ring_checks(z4, check_ids=picked)
    assert tuple(r.id for r in results) == ("kuratowski-closure", "t0")
    assert all(r.status == "pass" for r in results)


def test_unknown_check_id_is_rejected(monkeypatch):
    # the suite refuses before it generates a corpus, and one ring's
    # checks refuse rather than run none
    def refuse(**kwargs):
        raise AssertionError("corpus generated")

    monkeypatch.setattr("krasner.suite.generate_corpus", refuse)
    for run in (lambda ids: run_theorem_suite(max_order=2, check_ids=ids),
                lambda ids: run_ring_checks(cyclic_ring(4), ids)):
        with pytest.raises(ValueError) as err:
            run(["t0 ", "no-such-check", "t0"])
        assert str(err.value) == "unknown check ids: no-such-check, t0 "


def test_report_is_deterministic():
    # two runs agree byte for byte but for the timestamp
    first = run_theorem_suite(max_order=3)
    second = run_theorem_suite(max_order=3)
    d1, d2 = first.as_dict(), second.as_dict()
    d1.pop("generated_at")
    d2.pop("generated_at")
    assert d1 == d2
    j1 = json.loads(first.to_json())
    j2 = json.loads(second.to_json())
    j1.pop("generated_at")
    j2.pop("generated_at")
    assert json.dumps(j1, sort_keys=True) == json.dumps(j2, sort_keys=True)


def test_report_shape(z6):
    report = run_theorem_suite(max_order=1)
    d = report.as_dict()
    assert d["schema"] == SCHEMA
    assert d["parameters"] == {"max_order": 1, "per_order_limit": None,
                               "checks": "all"}
    assert d["rings"][0]["name"] == "r1_0"
    assert set(d["summary"]) == {"pass", "fail", "skip", "info"}
    # threads deliberately never appear in the payload
    assert "threads" not in json.dumps(d)


def test_text_rendering():
    report = run_theorem_suite(max_order=2)
    text = report.to_text()
    assert text.endswith("\n")
    lines = text.strip().splitlines()
    assert lines[0].startswith("r1_0 (order 1): ")
    counts = report.counts
    assert lines[-1] == (f"pass {counts['pass']}  fail {counts['fail']}  "
                         f"skip {counts['skip']}  info {counts['info']}")


def test_info_lines_name_their_finding():
    report = run_theorem_suite(max_order=3)
    infos = [r for row in report.rows for r in row.results if r.status == "info"]
    by_id = {}
    for r in infos:
        by_id.setdefault(r.id, []).append(r)
    assert set(by_id) == {"nil-radical-vs-nilpotents", "t1-iff-prim-equals-max"}
    for r in by_id["t1-iff-prim-equals-max"]:
        assert "no unit" in r.detail


def test_t1_search_finds_only_nonunital_rings(corpus3):
    result = counterexample_search("t1-failure", max_order=3)
    assert result.scanned == len(corpus3)
    assert result.found
    by_name = {e.name: e.ring for e in corpus3}
    for name, detail in result.found:
        assert not by_name[name].is_unital
        assert "t1" in detail


@pytest.mark.parametrize("kind", ["primitive-not-maximal", "prime-not-primitive",
                                  "rogue-simple-module"])
def test_separating_searches_are_empty_at_small_orders(kind):
    # primes, primitives and maximals all coincide this far down; the
    # searches exist to catch the first order where they separate
    result = counterexample_search(kind, max_order=3)
    assert result.scanned == 24
    assert result.found == ()


def test_search_findings_at_order_4():
    # no ring of order 4 separates prime, primitive and maximal; t1 fails
    # on the 133 rings that the suite's t1 check flags, ring by ring; the
    # rogue search runs on, and counts, only the 24 rings of order at most
    # ROGUE_CHECK_ORDER
    report = run_theorem_suite(max_order=4, check_ids=["t1-iff-prim-equals-max"])
    t1 = tuple((row.name, r.detail) for row in report.rows
               for r in row.results if r.status in ("fail", "info"))
    assert len(t1) == 133
    expected = {"prime-not-primitive": (163, ()), "primitive-not-maximal": (163, ()),
                "t1-failure": (163, t1), "rogue-simple-module": (24, ())}
    for kind, (scanned, found) in expected.items():
        result = counterexample_search(kind, max_order=4)
        assert (result.scanned, result.found) == (scanned, found), kind


def test_unknown_search_kind():
    with pytest.raises(ValueError) as err:
        counterexample_search("haunted-lattice")
    assert "haunted-lattice" in str(err.value)


def test_explicit_entries_run(corpus3):
    subset = corpus3[:3]
    report = run_theorem_suite(entries=subset, max_order=3)
    assert [row.name for row in report.rows] == [e.name for e in subset]


def test_ideal_product_referees_the_lattice_product_table():
    ring = cyclic_ring(4)
    lattice = IdealLattice.build(ring)
    ok = check_ideal_product_closed(SimpleNamespace(ring=ring, lattice=lattice))
    assert (ok.status, ok.detail) == ("pass", "")
    # {0,2} * {0,2} = {0}, mask 1; the damaged table says {0,2}, mask 5
    products = dict(lattice.products)
    products[5, 5] = 5
    damaged = lattice._replace(products=products)
    bad = check_ideal_product_closed(SimpleNamespace(ring=ring, lattice=damaged))
    assert bad.status == "fail"
    assert bad.detail == "{0,2} * {0,2} has mask 1, the lattice's product table 5"


def test_product_inside_intersection_reads_the_product_table(monkeypatch):
    ring = cyclic_ring(4)
    lattice = IdealLattice.build(ring)

    def refuse(*args, **kwargs):
        raise AssertionError("the check recomputed a product")

    monkeypatch.setattr("krasner.suite.ideal_product", refuse)
    ok = check_product_inside_intersection(SimpleNamespace(ring=ring, lattice=lattice))
    assert (ok.status, ok.detail) == ("pass", "")
    # {0} * {0,2} = {0}, mask 1; the damaged table says {0,2}, mask 5,
    # which escapes the intersection {0}
    products = dict(lattice.products)
    products[1, 5] = 5
    damaged = lattice._replace(products=products)
    bad = check_product_inside_intersection(SimpleNamespace(ring=ring, lattice=damaged))
    assert bad.status == "fail"
    assert bad.detail == "{0} * {0,2} = {0,2} escapes the intersection"


def first_isomorphism(ring):
    return run_ring_checks(ring, ["first-isomorphism"])[0]


def test_every_induced_map_the_check_builds_is_an_isomorphism(corpus4, monkeypatch):
    # oracle: the search finds an isomorphism on each pair the induced map settled
    built = []

    def spy(hom, quot, image_mod):
        iso = real(hom, quot, image_mod)
        built.append((quot.module, image_mod, iso))
        return iso

    real = suite.induced_isomorphism
    monkeypatch.setattr(suite, "induced_isomorphism", spy)
    # every corpus4 ring is within the check's hom bound
    for entry in corpus4:
        assert first_isomorphism(entry.ring).status == "pass"
    assert built
    for quot, image_mod, iso in built:
        assert iso is not None
        assert sorted(iso) == list(range(image_mod.order)) == list(range(quot.order))
        assert verify_module_hom(ModuleHom(quot, image_mod, iso)).ok
        assert find_isomorphism(quot, image_mod) is not None


def unabridged_first_isomorphism(ring):
    """Referee of the check: every target by index and every hom into it,
    one claim per (target, kernel, image), each image a fresh submodule.
    The two routes to an isomorphism are read from the suite, so a test
    that patches them there patches both walks."""
    reg = regular_module(ring)
    targets = [reg] + [quotient_module(reg, reg.from_mask(m.members.mask)).module
                       for m in IdealLattice.build(ring).maximal_right]
    tried = 0
    seen = set()
    for t, target in enumerate(targets):
        for hom in enumerate_module_homs(reg, target):
            tried += 1
            ker, img = hom_kernel(hom), hom_image(hom)
            if (t, ker.mask, img.mask) in seen:
                continue
            seen.add((t, ker.mask, img.mask))
            quot = quotient_module(reg, ker)
            image_mod = submodule(target, img)
            if (suite.induced_isomorphism(hom, quot, image_mod) is None
                    and suite.find_isomorphism(quot.module, image_mod) is None):
                return suite.CheckResult("first-isomorphism", "fail",
                                         f"M/ker not isomorphic to image for mapping {hom.mapping}")
    return suite.CheckResult("first-isomorphism", "pass", f"checked {tried} homs")


def test_first_isomorphism_agrees_with_the_unabridged_walk(corpus4, monkeypatch):
    searched, claims = [], []
    induced = suite.induced_isomorphism

    def counting(source, target):
        homs = enumerate_module_homs(source, target)
        searched.append(len(homs))
        return homs

    def deciding(hom, quot, image_mod):
        claims.append(hom.mapping)
        return induced(hom, quot, image_mod)

    monkeypatch.setattr(suite, "enumerate_module_homs", counting)
    monkeypatch.setattr(suite, "induced_isomorphism", deciding)
    rings = [e.ring for e in corpus4]
    results = [first_isomorphism(ring) for ring in rings]
    monkeypatch.undo()
    assert results == [unabridged_first_isomorphism(ring) for ring in rings]
    # one hom search per distinct target table set, whose homs a repeated
    # target still counts, and one zero-hom claim per ring
    assert len(searched) == 263
    assert sum(int(r.detail.split()[1]) for r in results) == 985 > sum(searched)
    assert len(claims) == 522


def test_first_isomorphism_fails_on_the_claim_the_unabridged_walk_fails(corpus4, monkeypatch):
    # make the claims of one kind fail, for each kind a walk reaches: the
    # claims whose image has one set of tables, or one claim as the check
    # keys it (target tables, kernel and image; the zero hom's on every
    # target).  Both walks must stop at the same hom, so the check skips
    # only claims that the referee decides the same way
    induced, search = suite.induced_isomorphism, suite.find_isomorphism
    reached, failing = set(), False

    def kinds(hom, quot, image_mod):
        img = hom.image_mask()
        target = None if img == 1 else hom.target.encoding()
        return {("image", image_mod.encoding()), ("claim", target, quot.kernel_members.mask, img)}

    def recording(hom, quot, image_mod):
        reached.update(kinds(hom, quot, image_mod))
        return induced(hom, quot, image_mod)

    def failing_induced(hom, quot, image_mod):
        nonlocal failing
        failing = bad in kinds(hom, quot, image_mod)
        return None if failing else induced(hom, quot, image_mod)

    def failing_search(a, b):
        # called only after failing_induced refused the same claim
        return None if failing else search(a, b)

    injected = 0
    for ring in [e.ring for e in corpus4]:
        reached.clear()
        monkeypatch.setattr(suite, "induced_isomorphism", recording)
        unabridged_first_isomorphism(ring)
        monkeypatch.setattr(suite, "induced_isomorphism", failing_induced)
        monkeypatch.setattr(suite, "find_isomorphism", failing_search)
        for bad in reached:
            expected = unabridged_first_isomorphism(ring)
            assert expected.status == "fail"
            assert first_isomorphism(ring) == expected, (ring.name, bad)
            injected += 1
        monkeypatch.setattr(suite, "find_isomorphism", search)
    assert injected > len(corpus4)


@pytest.mark.slow
def test_first_isomorphism_agrees_with_the_unabridged_walk_at_order_5(monkeypatch):
    # every order-5 ring, with the corpus cap and the hom bound raised to
    # 5 as the order-5 referees of test_corpus do; opt-in: pytest -m slow
    monkeypatch.setattr(corpus, "HARD_ORDER_CAP", 5)
    monkeypatch.setattr(suite, "HOM_CHECK_ORDER", 5)
    rings = [e.ring for e in generate_corpus(5) if e.ring.order == 5]
    assert len(rings) == 4418
    for ring in rings:
        result = first_isomorphism(ring)
        assert result.status == "pass"
        assert result == unabridged_first_isomorphism(ring), ring.name


def test_first_isomorphism_falls_back_to_the_search(corpus4, monkeypatch):
    rings = [e.ring for e in corpus4]
    expected = [first_isomorphism(ring) for ring in rings]
    monkeypatch.setattr(suite, "induced_isomorphism", lambda *args: None)
    assert [first_isomorphism(ring) for ring in rings] == expected


def test_first_isomorphism_fails_when_neither_route_finds_a_map(monkeypatch):
    monkeypatch.setattr(suite, "induced_isomorphism", lambda *args: None)
    monkeypatch.setattr(suite, "find_isomorphism", lambda a, b: None)
    result = first_isomorphism(cyclic_ring(4))
    assert (result.status, result.detail) == (
        "fail", "M/ker not isomorphic to image for mapping (0, 0, 0, 0)")


def test_a_broken_theorem_fails_its_check_and_the_sweep_goes_on(monkeypatch):
    def broken(ring, ideal):
        raise TheoremViolationError(f"no simple quotient above {ideal.members!r}")

    monkeypatch.setattr(suite, "prim_from_maximal_right", broken)
    ring = cyclic_ring(4)
    results = run_ring_checks(ring)
    assert ring.is_unital and len(results) == 32
    by_id = {r.id: r for r in results}
    for cid in ("simple-quotient-by-maximal-right", "maximal-right-contains-primitive"):
        assert (by_id[cid].status, by_id[cid].detail) == (
            "fail", "no simple quotient above {0,2}")
    assert [r.id for r in results if r.status == "fail"] == [
        "simple-quotient-by-maximal-right", "maximal-right-contains-primitive"]


UNIT_CHECKS = ("maximal-implies-primitive", "maximal-right-contains-primitive",
               "compactness-kernel-sum")
HOM_CHECKS = ("first-isomorphism", "endo-hom-kernels", "induced-map-continuity",
              "surjection-embedding")


def expected_skip(ring, result):
    """Why result should skip on ring, or None where its hypothesis holds."""
    if result.id in UNIT_CHECKS and not ring.is_unital:
        return "needs a unit"
    if result.id in HOM_CHECKS and ring.order > HOM_CHECK_ORDER:
        return "hom enumeration bounded to small rings"
    if result.id == "rogue-simple-modules" and ring.order > ROGUE_CHECK_ORDER:
        return "module table search bounded to very small rings"
    if result.id == "compactness-kernel-sum" and result.status == "skip":
        # a unital ring whose space no family of proper ideals uncovers
        return "no family of proper ideals uncovers the space"
    return None


def test_checks_skip_exactly_where_their_hypothesis_fails(corpus4):
    skips = collections.Counter()
    for ring in [e.ring for e in corpus4] + [cyclic_ring(5), cyclic_ring(6)]:
        for r in run_ring_checks(ring):
            reason = expected_skip(ring, r)
            assert (r.status == "skip") == (reason is not None), (ring.name, r)
            if reason is not None:
                assert r.detail == reason, (ring.name, r)
                if ring.order <= 4:
                    skips[r.id, r.detail] += 1
    assert skips == {
        ("maximal-implies-primitive", "needs a unit"): 135,
        ("maximal-right-contains-primitive", "needs a unit"): 135,
        ("compactness-kernel-sum", "needs a unit"): 135,
        ("compactness-kernel-sum", "no family of proper ideals uncovers the space"): 25,
        ("rogue-simple-modules", "module table search bounded to very small rings"): 139,
    }
    assert sum(skips.values()) == 569


def test_a_wrapped_registry_sees_one_call_per_check_per_ring(monkeypatch):
    # the benchmark tracer rebinds suite.CHECKS to wrapped callables and
    # times each check by its calls, so the hypothesis gates sit inside
    # the registered callable: a ring that skips still calls every check
    calls = []

    def wrap(cid, check):
        def traced(ctx):
            calls.append(cid)
            return check(ctx)
        return traced

    monkeypatch.setattr(suite, "CHECKS",
                        tuple((cid, wrap(cid, check)) for cid, check in suite.CHECKS))
    skipped = set()
    # no unit; past the rogue bound; past the hom bound
    for ring in (zero_mul_ring(2), cyclic_ring(4), cyclic_ring(5)):
        calls.clear()
        results = run_ring_checks(ring)
        assert calls == list(CHECK_IDS)
        assert tuple(r.id for r in results) == CHECK_IDS
        skipped |= {r.id for r in results if r.status == "skip"}
    assert skipped >= set(UNIT_CHECKS) | set(HOM_CHECKS) | {"rogue-simple-modules"}
