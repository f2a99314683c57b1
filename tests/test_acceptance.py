"""The acceptance gate: one test per shipped guarantee, one line each.

Every test re-derives its expected values on the spot (brute force set
arithmetic, independent witnesses) instead of trusting the code under
test, prints a single pass/FAIL line, and enforces the stated time
budget where one exists.

Two clauses are stated more broadly than the mathematics supports and
their tests fail by design rather than quietly narrowing the claim:

* the t1 <-> primitive-equals-maximal equivalence needs a unit (a ring
  whose products all vanish has an empty spectrum, so t1 holds
  vacuously, while the zero ideal is still maximal);
* pullback along an arbitrary strong hom can leave the spectrum (the
  zero map pulls every primitive ideal back to the whole ring), so the
  sweep only stays total on unit preserving homs and surjections.

The failure messages carry the counts and a counterexample each.
"""

import itertools
import time

import pytest

from conftest import ACCEPTANCE_LINES
from krasner.catalog import cyclic_ring, hyperfield_k
from krasner.cli import main as cli_main
from krasner.core import HyperRing, bits, mask_of
from krasner.dsl import emit_ring, parse_text
from krasner.hypermodules import (
    annihilator,
    enumerate_module_homs,
    find_isomorphism,
    hom_image,
    hom_kernel,
    is_simple,
    quotient_module,
    regular_module,
    submodule,
)
from krasner.ideals import IdealLattice, ideal_product, ideal_sum, is_hyperideal
from krasner.morphisms import (
    check_closed_embedding,
    check_density,
    enumerate_ring_homs,
    induced_map,
    is_continuous,
)
from krasner.primitivity import (
    check_primitive_iff_quotient_primitive,
    prim_certificates,
    prim_from_maximal_right,
)
from krasner.spectrum import (
    SpectrumSpace,
    generic_points,
    irreducible_closed_sets,
    irreducible_components,
    verify_kuratowski,
)


def record(num, label, violations, elapsed=None, budget=None, note=""):
    over = budget is not None and elapsed >= budget
    status = "pass" if not violations and not over else "FAIL"
    line = f"criterion {num} ({label}): {status}"
    if elapsed is not None:
        line += f" [{elapsed:.2f}s]"
    if note:
        line += f" - {note}"
    if violations:
        line += f" - {violations[0]}"
        if len(violations) > 1:
            line += f" and {len(violations) - 1} more"
    ACCEPTANCE_LINES.append(line)
    print(line)
    if budget is not None:
        assert elapsed < budget, f"over the {budget:.0f}s budget: {elapsed:.2f}s"
    assert not violations, "\n".join(str(v) for v in violations[:8])


@pytest.fixture(scope="module")
def machinery(corpus4):
    """(ring, lattice, certificates, spectrum) per corpus ring, built once."""
    out = {}
    for e in corpus4:
        lattice = IdealLattice.build(e.ring)
        certs = prim_certificates(e.ring)
        out[e.name] = (e.ring, lattice, certs, SpectrumSpace(e.ring, certs))
    return out


# criterion 1: the validators accept the bundled rings and reject
# sabotaged copies with witnesses that actually witness


def _tables(ring):
    n = ring.order
    add = [[list(bits(ring.add_masks[a][b])) for b in range(n)] for a in range(n)]
    neg = list(ring.neg_table)
    mul = [list(row) for row in ring.mul_table]
    return add, neg, mul


def _sabotaged_variants():
    add, neg, mul = _tables(cyclic_ring(2))
    add[1][1] = [1]  # 1 loses its inverse
    yield "z2 without negatives", HyperRing(add, neg, mul)

    add, neg, mul = _tables(cyclic_ring(4))
    mul[2][2] = 1  # 2*2 rewired
    yield "z4 with broken products", HyperRing(add, neg, mul)

    add, neg, mul = _tables(cyclic_ring(6))
    add[1][2] = [4]  # asymmetric cell
    yield "z6 made noncommutative", HyperRing(add, neg, mul)

    add, neg, mul = _tables(hyperfield_k())
    mul[0][1] = 1  # zero stops absorbing
    yield "k without absorption", HyperRing(add, neg, mul, unit=1)


def _witness_is_genuine(ring, axiom, w):
    n = ring.order
    A = [[set(bits(ring.add_masks[a][b])) for b in range(n)] for a in range(n)]
    neg = ring.neg_table
    mul = ring.mul_table
    if axiom == "totality":
        return not A[w[0]][w[1]]
    if axiom == "commutativity":
        return A[w[0]][w[1]] != A[w[1]][w[0]]
    if axiom == "associativity":
        a, b, c = w
        left = set().union(*(A[x][c] for x in A[a][b]))
        right = set().union(*(A[a][y] for y in A[b][c]))
        return left != right
    if axiom == "identity":
        return A[w[0]][0] != {w[0]}
    if axiom == "negation":
        inv = [b for b in range(n) if 0 in A[w[0]][b]]
        return len(inv) != 1 or inv[0] != neg[w[0]]
    if axiom == "reversibility":
        a, b, c = w
        return a in A[b][c] and (c not in A[neg[b]][a] or b not in A[a][neg[c]])
    if axiom == "mul-associativity":
        a, b, c = w
        return mul[mul[a][b]][c] != mul[a][mul[b][c]]
    if axiom == "absorption":
        return mul[w[0]][0] != 0 or mul[0][w[0]] != 0
    if axiom == "left-distributivity":
        a, b, c = w
        return {mul[a][t] for t in A[b][c]} != A[mul[a][b]][mul[a][c]]
    if axiom == "right-distributivity":
        a, b, c = w
        return {mul[t][c] for t in A[a][b]} != A[mul[a][c]][mul[b][c]]
    if axiom == "unit":
        u = ring.unit
        return mul[w[0]][u] != w[0] or mul[u][w[0]] != w[0]
    return False


def test_criterion_1_axiom_oracles():
    start = time.perf_counter()
    bad = []
    for ring in (cyclic_ring(2), cyclic_ring(4), cyclic_ring(6), hyperfield_k()):
        report = ring.validate()
        if not report.ok:
            bad.append(f"{ring.name} rejected: {report.failures[0].axiom}")
    sabotages = 0
    for label, ring in _sabotaged_variants():
        sabotages += 1
        report = ring.validate()
        if report.ok:
            bad.append(f"sabotage {label!r} slipped through")
            continue
        for chk in report.failures:
            if not _witness_is_genuine(ring, chk.axiom, chk.witness):
                bad.append(f"sabotage {label!r}: {chk.axiom} witness "
                           f"{chk.witness} does not actually violate the axiom")
    elapsed = time.perf_counter() - start
    record(1, "axiom oracles", bad, elapsed, budget=1.0,
           note=f"4 bundled rings, {sabotages} sabotaged variants")


# criterion 2: hyperideals are closed under intersection, sum and product


def test_criterion_2_ideal_closure(machinery):
    start = time.perf_counter()
    bad = []
    checked = 0
    for name, (ring, lattice, _, _) in machinery.items():
        for family, sided in ((lattice.two_sided, "two-sided"),
                              (lattice.right, "right")):
            for a, b in itertools.combinations_with_replacement(family, 2):
                meet = ring.from_mask(a.members.mask & b.members.mask)
                verdict = is_hyperideal(ring, meet, sided)
                if not verdict:
                    bad.append(f"{name}: {a.members!r} meet {b.members!r} fails "
                               f"{verdict.clause} at {verdict.witness}")
                try:
                    total = ideal_sum([a, b])
                except Exception as e:
                    bad.append(f"{name}: sum {a.members!r} + {b.members!r}: {e}")
                else:
                    verdict = is_hyperideal(ring, total.members, sided)
                    if not verdict:
                        bad.append(f"{name}: {a.members!r} + {b.members!r} fails "
                                   f"{verdict.clause} at {verdict.witness}")
                checked += 2
        for a, b in itertools.product(lattice.two_sided, repeat=2):
            try:
                prod = ideal_product(a, b)
            except Exception as e:
                bad.append(f"{name}: product {a.members!r} * {b.members!r}: {e}")
            else:
                verdict = is_hyperideal(ring, prod.members, "two-sided")
                if not verdict:
                    bad.append(f"{name}: {a.members!r} * {b.members!r} fails "
                               f"{verdict.clause} at {verdict.witness}")
            checked += 1
    elapsed = time.perf_counter() - start
    record(2, "ideal closure sweep", bad, elapsed, budget=120.0,
           note=f"{checked} combinations over {len(machinery)} rings, "
                "order 4 sampled in full")


# criterion 3: annihilator of R/m equals {r | Rr inside m}, and R/m is simple


def test_criterion_3_annihilator_formula(machinery):
    bad = []
    checked = 0
    for name, (ring, lattice, _, _) in machinery.items():
        n = ring.order
        mul = ring.mul_table
        products = mask_of(mul[a][b] for a in range(n) for b in range(n))
        for m in lattice.maximal_right:
            if products & ~m.members.mask == 0:
                continue  # all products fall inside m; out of scope
            checked += 1
            cert = prim_from_maximal_right(ring, m)
            if cert is None:
                bad.append(f"{name}: no certificate out of maximal right {m.members!r}")
                continue
            brute = mask_of(r for r in range(n)
                            if all(m.members.mask >> mul[x][r] & 1 for x in range(n)))
            if cert.ideal.members.mask != brute:
                bad.append(f"{name}: annihilator of R/{m.members!r} is "
                           f"{cert.ideal.members!r}, expected mask {brute:#x}")
            if annihilator(cert.module).key != brute:
                bad.append(f"{name}: module annihilator disagrees at {m.members!r}")
            if not is_simple(cert.module):
                bad.append(f"{name}: R/{m.members!r} is not simple")
    record(3, "annihilator cross check", bad,
           note=f"{checked} maximal right ideals with products outside")


# criterion 4: primitive implies prime; maximal implies primitive on unital
# rings; a proper ideal is primitive exactly when its quotient ring is


def test_criterion_4_primitivity_implications(machinery):
    bad = []
    for name, (ring, lattice, certs, _) in machinery.items():
        prime_keys = {p.key for p in lattice.prime}
        prim_keys = {c.ideal.key for c in certs}
        for c in certs:
            if c.ideal.key not in prime_keys:
                bad.append(f"{name}: primitive {c.ideal.members!r} is not prime")
        if ring.is_unital:
            for mx in lattice.maximal:
                if mx.key not in prim_keys:
                    bad.append(f"{name}: maximal {mx.members!r} is not primitive")
        report = check_primitive_iff_quotient_primitive(ring)
        if not report.ok:
            p, left, right = report.mismatches[0]
            bad.append(f"{name}: {p.members!r} primitive {left}, "
                       f"quotient ring primitive {right}")
    record(4, "primitivity implications", bad,
           note=f"{len(machinery)} rings")


# criterion 5: closure laws, separation and irreducibility over every
# corpus spectrum; the t1 equivalence is asserted for every ring, as
# promised, and fails on the unit-free rings


def test_criterion_5_topology(machinery):
    start = time.perf_counter()
    bad = []
    t1_diverged = []
    for name, (ring, lattice, certs, space) in machinery.items():
        report = verify_kuratowski(space)
        if not report.ok:
            bad.append(f"{name}: {report.detail} at {report.failure}")
        elif report.sampled:
            bad.append(f"{name}: union law sampled instead of exhaustive")
        if not space.is_t0():
            bad.append(f"{name}: two points share a closure")
        point_closures = {space.closure(1 << i) for i in range(space.size)}
        irr = set(irreducible_closed_sets(space))
        if irr != point_closures:
            bad.append(f"{name}: irreducible closed sets are not the point closures")
        for c in irr:
            if len(generic_points(space, c)) != 1:
                bad.append(f"{name}: closed set {c:#x} lacks a unique generic point")
        minimal = {space.closure(1 << i) for i in range(space.size)
                   if not any(j != i
                              and space.point_masks[j] & ~space.point_masks[i] == 0
                              for j in range(space.size))}
        if set(irreducible_components(space)) != minimal:
            bad.append(f"{name}: components differ from minimal point closures")
        t1 = space.is_t1()
        if t1 != ({c.ideal.key for c in certs} == {m.key for m in lattice.maximal}):
            t1_diverged.append((name, ring.is_unital, t1))
    if t1_diverged:
        unit_free = sum(1 for _, unital, _ in t1_diverged if not unital)
        first = t1_diverged[0][0]
        bad.insert(0, (
            f"t1 <-> primitive-equals-maximal fails on {len(t1_diverged)} of "
            f"{len(machinery)} rings, {unit_free} of them without a unit "
            f"(first: {first}); the equivalence needs a unit, since a ring "
            "whose products all vanish has an empty spectrum (t1 vacuously) "
            "while its zero ideal is still maximal"))
    elapsed = time.perf_counter() - start
    record(5, "hull kernel topology", bad, elapsed, budget=120.0,
           note=f"{len(machinery)} spectra, union pairs exhaustive")


# criterion 6: on unital rings, any minimal closed family with empty
# intersection has kernels summing to the whole ring


def test_criterion_6_compactness(machinery):
    bad = []
    families = 0
    for name, (ring, lattice, certs, space) in machinery.items():
        if not ring.is_unital:
            continue
        closed = space.closed_sets()
        for pick in range(1, 1 << len(closed)):
            chosen = [closed[i] for i in bits(pick)]
            meet = space.full_pmask
            for c in chosen:
                meet &= c
            if meet:
                continue
            if len(chosen) > 1:
                # minimal means every proper subfamily still intersects,
                # and dropping one member at a time is enough to see that
                minimal = True
                for skip in range(len(chosen)):
                    rest = space.full_pmask
                    for j, c in enumerate(chosen):
                        if j != skip:
                            rest &= c
                    if rest == 0:
                        minimal = False
                        break
                if not minimal:
                    continue
            families += 1
            acc = 1  # the zero ideal
            for c in chosen:
                kernel = space.kernel_of(c)
                grown = 0
                for x in bits(acc):
                    row = ring.add_masks[x]
                    for y in bits(kernel):
                        grown |= row[y]
                acc = grown
            if acc != ring.full_mask:
                bad.append(f"{name}: a minimal empty family of {len(chosen)} "
                           f"closed sets has kernel sum {acc:#x}")
    record(6, "compactness kernel sums", bad,
           note=f"{families} minimal empty families over the unital rings")


# criterion 7: pullback along every strong hom between small corpus rings
# stays inside the spectrum and is continuous; surjections embed closed
# and satisfy the density equivalence; quotient-by-kernel matches image
# for every generated module hom


def test_criterion_7_morphism_sweep(corpus3):
    start = time.perf_counter()
    bad = []
    total = surjections = 0
    escapes = []
    zero_maps = 0
    for src in corpus3:
        for dst in corpus3:
            if src.ring.order + dst.ring.order > 6:
                continue
            for hom in enumerate_ring_homs(src.ring, dst.ring):
                total += 1
                imap = induced_map(hom)
                if imap.escapes:
                    escapes.append((src.name, dst.name, hom.mapping))
                    if all(v == 0 for v in hom.mapping):
                        zero_maps += 1
                    continue
                if not is_continuous(imap):
                    bad.append(f"{src.name}->{dst.name} {hom.mapping}: "
                               "pullback is not continuous")
                if hom.is_surjective():
                    surjections += 1
                    embedding = check_closed_embedding(imap)
                    if not embedding.ok:
                        bad.append(f"{src.name}->{dst.name} {hom.mapping}: "
                                   f"not a closed embedding ({embedding.reason})")
                    density = check_density(imap)
                    if not density.agree:
                        bad.append(f"{src.name}->{dst.name} {hom.mapping}: "
                                   "density and kernel-inside-radical disagree")
    if escapes:
        a, b, mapping = escapes[0]
        bad.insert(0, (
            f"{len(escapes)} of {total} strong homs pull a point back to a "
            f"non-primitive ideal ({zero_maps} zero maps, whose pullback is "
            f"the whole source ring, the rest out of empty spectra); first: "
            f"{a}->{b} via {mapping}; totality does hold for every unit "
            "preserving hom and every surjection"))
    module_homs = 0
    for e in corpus3:
        reg = regular_module(e.ring)
        lattice = IdealLattice.build(e.ring)
        targets = [reg]
        for m in lattice.maximal_right:
            targets.append(
                quotient_module(reg, reg.from_mask(m.members.mask)).module)
        for target in targets:
            for mh in enumerate_module_homs(reg, target):
                module_homs += 1
                cokernel = quotient_module(reg, hom_kernel(mh)).module
                image = submodule(target, hom_image(mh))
                if find_isomorphism(cokernel, image) is None:
                    bad.append(f"{e.name}: quotient by the kernel is not "
                               f"isomorphic to the image for {mh.mapping}")
    elapsed = time.perf_counter() - start
    record(7, "morphism sweep", bad, elapsed,
           note=f"{total} ring homs ({surjections} surjective), "
                f"{module_homs} module homs")


# criterion 8: generation and checking are reproducible byte for byte,
# timestamp aside, whatever the thread count


def test_criterion_8_determinism(capsys):
    manifests = []
    reports = []
    for threads in ("1", "4"):
        assert cli_main(["gen", "--max-order", "3"]) == 0
        manifests.append(capsys.readouterr().out)
        assert cli_main(["check", "--max-order", "3", "--format", "json",
                         "--threads", threads]) == 0
        reports.append(capsys.readouterr().out)
    bad = []
    if manifests[0] != manifests[1]:
        bad.append("generation manifests differ between runs")
    first, second = (r.splitlines() for r in reports)
    if len(first) != len(second):
        bad.append("check reports differ in length across thread counts")
    else:
        for a, b in zip(first, second):
            if a != b and "generated_at" not in a:
                bad.append(f"check reports differ beyond the timestamp: {a!r} vs {b!r}")
                break
    record(8, "deterministic reports", bad,
           note="threads 1 and 4, byte compared")


# criterion 9: emitted text is a fixpoint of parse and emit


def test_criterion_9_round_trip(corpus4):
    bad = []
    for e in corpus4:
        text = emit_ring(e.ring, e.name)
        back = parse_text(text).rings[e.name]
        if back.encoding() != e.ring.encoding():
            bad.append(f"{e.name}: re-parsed ring differs from the original")
        elif emit_ring(back, e.name) != text:
            bad.append(f"{e.name}: second emission drifted from the first")
    record(9, "parse emit fixpoint", bad, note=f"{len(corpus4)} rings")
