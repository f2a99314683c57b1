"""The exact text of every closed-set assertion, and a pin of the full
``khr check --max-order 4`` report.

A derived set that a theorem says is closed (an annihilator, a kernel, a
preimage, a sum or a product) raises ``TheoremViolationError`` naming
the failed clause and its witness when the check says otherwise; the
check is replaced by one that always fails, so each message is read
without a broken ring.  A set the caller hands in that is not closed
raises ``ValueError`` with the same clause and witness.  These messages
are what a user reads, so they are pinned byte for byte.  ``ideal_product``
takes two hyperideals over one ring and refuses anything else.
Two messages embed the repr of a report's failures, so they pin that
repr too; the records they are built from stay immutable and hash by
value.  The homs and the ideal lattice are read-only classes that check
what they are built from; their constructors, refusals, reprs, equality
and hashes are pinned as well.
"""

import hashlib
import inspect
import json

import pytest

from krasner import core, corpus, dsl, hypermodules, ideals, morphisms, primitivity
from krasner import spectrum, suite
from krasner.catalog import cyclic_ring, zero_mul_ring
from krasner.cli import main
from krasner.core import (
    AxiomCheck,
    HyperRing,
    StrongHom,
    TheoremViolationError,
    VerificationReport,
)
from krasner.hypermodules import (
    ModuleHom,
    annihilator,
    hom_image,
    hom_kernel,
    module_ideal_product,
    quotient_module,
    regular_module,
    submodule,
)
from krasner.ideals import HyperIdeal, IdealCheck, IdealLattice, ideal_product, ideal_sum
from krasner.morphisms import RingHom, identity_hom, kernel_ideal, preimage_ideal

FAILED = IdealCheck(False, "add-closure", (1, 2), "1 + 2 escapes the set")


def failing(*args):
    return FAILED


def ideal(ring, members, sidedness="two-sided"):
    return HyperIdeal(ring, members, sidedness)


def identity_module_hom(ring):
    reg = regular_module(ring)
    return ModuleHom(reg, reg, tuple(range(reg.order)))


# (module whose check is replaced, the check, the function under test,
# its arguments built from Z4 through the real check, the message)
DERIVED = [
    (ideals, "is_hyperideal", ideal_sum,
     lambda r: ([ideal(r, [0, 2]), ideal(r, [0])],),
     "sum of two-sided ideals failed add-closure at (1, 2)"),
    (ideals, "is_hyperideal", ideal_sum,
     lambda r: ([ideal(r, [0, 2], "right"), ideal(r, [0])],),
     "sum of right ideals failed add-closure at (1, 2)"),
    (ideals, "is_hyperideal", ideal_product,
     lambda r: (ideal(r, [0, 2]), ideal(r, [0, 1, 2, 3])),
     "product of two-sided ideals failed add-closure at (1, 2)"),
    (ideals, "is_hyperideal", ideal_product,
     lambda r: (ideal(r, [0, 2], "left"), ideal(r, [0, 2], "left")),
     "product of left ideals failed add-closure at (1, 2)"),
    (hypermodules, "is_hyperideal", annihilator,
     lambda r: (regular_module(r),),
     "annihilator failed add-closure at (1, 2)"),
    (hypermodules, "is_subhypermodule", module_ideal_product,
     lambda r: (regular_module(r), ideal(r, [0, 2])),
     "M * ideal failed add-closure at (1, 2)"),
    (hypermodules, "is_subhypermodule", hom_kernel,
     lambda r: (identity_module_hom(r),),
     "kernel failed add-closure at (1, 2)"),
    (hypermodules, "is_subhypermodule", hom_image,
     lambda r: (identity_module_hom(r),),
     "image failed add-closure at (1, 2)"),
    (morphisms, "is_hyperideal", kernel_ideal,
     lambda r: (identity_hom(r),),
     "kernel of a strong hom failed add-closure at (1, 2)"),
    (morphisms, "is_hyperideal", preimage_ideal,
     lambda r: (identity_hom(r), ideal(r, [0, 2], "right")),
     "preimage of a right hyperideal failed add-closure at (1, 2)"),
]


@pytest.mark.parametrize("module, check, function, operands, message", DERIVED,
                         ids=[f"{case[2].__name__}-{i}" for i, case in enumerate(DERIVED)])
def test_a_derived_set_that_is_not_closed_breaks_a_theorem(monkeypatch, module, check,
                                                           function, operands, message):
    # a fresh ring, so no kept derived object skips the check
    args = operands(cyclic_ring(4))
    monkeypatch.setattr(module, check, failing)
    with pytest.raises(TheoremViolationError) as raised:
        function(*args)
    assert str(raised.value) == message


@pytest.mark.parametrize("call, message", [
    (lambda r: HyperIdeal(r, [0, 1]), "not a two-sided hyperideal: neg-closure fails at (1,)"),
    (lambda r: HyperIdeal(r, [0, 1, 3], "right"),
     "not a right hyperideal: add-closure fails at (1, 1)"),
    (lambda r: submodule(regular_module(r), [0, 1]),
     "not a subhypermodule: neg-closure fails at (1,)"),
    (lambda r: quotient_module(regular_module(r), [0, 1, 3]),
     "not a subhypermodule: add-closure fails at (1, 1)"),
])
def test_a_set_handed_in_that_is_not_closed_is_refused(call, message):
    with pytest.raises(ValueError) as raised:
        call(cyclic_ring(4))
    assert type(raised.value) is ValueError
    assert str(raised.value) == message


def dual_numbers():
    """F2[x]/(x^2) on a0 + 2 a1 for a0 + a1 x: {0, 1} is an additive
    subgroup but no ideal, as 1 x = x."""
    def times(a, b):
        return (a & 1) * (b & 1) | ((a & 1) * (b >> 1) ^ (a >> 1) * (b & 1)) << 1
    return HyperRing([[[a ^ b] for b in range(4)] for a in range(4)], [0, 1, 2, 3],
                     [[times(a, b) for b in range(4)] for a in range(4)], unit=1)


@pytest.mark.parametrize("call, message", [
    # the cosets {0, 1} and {2, 3}: 0 x = 0 and 1 x = x lie in different ones
    (lambda: ideals.induced_value_table(dual_numbers().mul_table, (0b0011, 0b1100),
                                        (0, 0, 1, 1), (0b0011, 0b1100)),
     "coset tables depend on representatives at (0, 1)"),
    # {0, 1} and {2, 3} are no cosets in Z4: 0 + 0 = 0 and 1 + 1 = 2 part
    (lambda: ideals.induced_set_table(cyclic_ring(4).add_masks, (0b0011, 0b1100),
                                      (0, 0, 1, 1)),
     "coset tables depend on representatives at (0, 0)"),
])
def test_coset_tables_name_the_first_cell_that_depends_on_representatives(call, message):
    with pytest.raises(TheoremViolationError) as raised:
        call()
    assert str(raised.value) == message


def test_ideal_product_takes_two_ideals_of_one_ring():
    ring = cyclic_ring(4)
    two = HyperIdeal(ring, [0, 2])
    for a, b in ((two.members, two), (two, two.members), (two.members, two.members)):
        with pytest.raises(TypeError, match="two HyperIdeals"):
            ideal_product(a, b)
    other = HyperIdeal(cyclic_ring(4), [0, 2])
    with pytest.raises(ValueError, match="operands must live over the same ring"):
        ideal_product(two, other)


BROKEN = VerificationReport((AxiomCheck("multiplication", False, (1, 1),
                                        "f(a b) != f(a) f(b) at (1, 1)"),))
BROKEN_TEXT = ("(AxiomCheck(axiom='multiplication', ok=False, witness=(1, 1), "
               "detail='f(a b) != f(a) f(b) at (1, 1)'),)")


def test_a_structure_that_fails_validation_names_its_failures(monkeypatch, fresh_memos):
    # fresh memos, so the replaced verifier is called
    monkeypatch.setattr(core, "verify_hyperring", lambda ring: BROKEN)
    with pytest.raises(TheoremViolationError) as raised:
        cyclic_ring(3)
    assert str(raised.value) == f"bundled ring failed validation: {BROKEN_TEXT}"


def test_a_hom_search_that_finds_a_failing_hom_names_it(monkeypatch):
    monkeypatch.setattr(morphisms, "verify_strong_hom", lambda hom: BROKEN)
    z2 = cyclic_ring(2)
    with pytest.raises(TheoremViolationError) as raised:
        morphisms.enumerate_ring_homs(z2, z2)
    assert str(raised.value) == f"hom search produced (0, 0), which fails {BROKEN_TEXT}"


RECORDS = [
    core.AxiomCheck, core.VerificationReport, core.ValidationReport,
    ideals.IdealCheck, ideals.PrimeCheck, ideals.Quotient,
    hypermodules.ModuleQuotient,
    morphisms.InducedMap, morphisms.EmbeddingReport, morphisms.DensityReport,
    morphisms.RadicalQuotientReport,
    primitivity.PrimitiveCertificate, primitivity.BiconditionalReport,
    spectrum.KuratowskiReport,
    suite.CheckResult, suite.RingReportRow, suite.SuiteReport, suite.SearchResult,
    corpus.CorpusEntry, dsl.BlockedReport, dsl.Document,
]


@pytest.mark.parametrize("record", RECORDS, ids=[r.__name__ for r in RECORDS])
def test_a_record_is_immutable_and_hashes_by_value(record):
    fields = list(inspect.signature(record).parameters)
    one = record(*(f"value of {f}" for f in fields))
    two = record(*(f"value of {f}" for f in fields))
    assert one == two and hash(one) == hash(two)
    assert one != record(*(f"other {f}" for f in fields))
    with pytest.raises(AttributeError):
        setattr(one, fields[0], "changed")
    with pytest.raises(AttributeError):
        one.extra = "added"


SIGNATURES = {
    StrongHom: "(source: 'Structure', target: 'Structure', mapping: 'tuple', "
               "name: 'str | None' = None)",
    RingHom: "(source: 'Structure', target: 'Structure', mapping: 'tuple', "
             "name: 'str | None' = None, unit_preserving: 'bool' = False)",
    ModuleHom: "(source: 'Structure', target: 'Structure', mapping: 'tuple', "
               "name: 'str | None' = None)",
    IdealLattice: "(ring: 'HyperRing', two_sided: 'tuple', right: 'tuple', maximal: 'tuple', "
                  "prime: 'tuple', maximal_right: 'tuple', products: 'dict')",
}


@pytest.mark.parametrize("cls", SIGNATURES, ids=[c.__name__ for c in SIGNATURES])
def test_a_checked_class_keeps_its_constructor(cls):
    # the parameters, their annotations and defaults; not the return annotation
    signature = inspect.signature(cls).replace(return_annotation=inspect.Signature.empty)
    assert str(signature) == SIGNATURES[cls]


def test_homs_and_lattices_print_their_fields():
    z2 = cyclic_ring(2)
    reg = regular_module(z2)
    assert repr(identity_hom(z2)) == (
        "RingHom(source=<HyperRing Z2>, target=<HyperRing Z2>, mapping=(0, 1), "
        "name='id', unit_preserving=True)")
    assert repr(RingHom(z2, z2, [0, 0])) == (
        "RingHom(source=<HyperRing Z2>, target=<HyperRing Z2>, mapping=(0, 0), "
        "name=None, unit_preserving=False)")
    assert repr(ModuleHom(reg, reg, (0, 1))) == (
        "ModuleHom(source=<HyperModule Z2 as module>, target=<HyperModule Z2 as module>, "
        "mapping=(0, 1), name=None)")
    assert repr(StrongHom(z2, z2, (0, 1), "s")) == (
        "StrongHom(source=<HyperRing Z2>, target=<HyperRing Z2>, mapping=(0, 1), name='s')")
    assert repr(IdealLattice.build(z2)) == (
        "IdealLattice(ring=<HyperRing Z2>, "
        "two_sided=(<two-sided ideal {0} of Z2>, <two-sided ideal {0,1} of Z2>), "
        "right=(<right ideal {0} of Z2>, <right ideal {0,1} of Z2>), "
        "maximal=(<two-sided ideal {0} of Z2>,), prime=(<two-sided ideal {0} of Z2>,), "
        "maximal_right=(<right ideal {0} of Z2>,))")


def test_homs_compare_by_kind_and_fields_and_hash_by_fields():
    z2 = cyclic_ring(2)
    reg = regular_module(z2)
    hom = RingHom(z2, z2, [0, True], name="id", unit_preserving=True)
    assert hom.mapping == (0, 1) and all(type(v) is int for v in hom.mapping)
    assert hom == identity_hom(z2) and hash(hom) == hash(identity_hom(z2))
    assert hash(hom) == hash((z2, z2, (0, 1), "id", True))
    assert hom != RingHom(z2, z2, (0, 1), name="id")
    assert hom != RingHom(z2, z2, (0, 1), unit_preserving=True)
    module_hom = ModuleHom(reg, reg, (0, 1))
    assert module_hom == ModuleHom(reg, reg, [0, 1])
    assert hash(module_hom) == hash(ModuleHom(reg, reg, [0, 1])) == hash((reg, reg, (0, 1), None))
    assert module_hom != ModuleHom(reg, reg, (0, 0))
    # the same fields in another kind of hom are another hom
    assert module_hom != RingHom(reg, reg, (0, 1))
    assert module_hom != StrongHom(reg, reg, (0, 1))
    assert StrongHom(z2, z2, (0, 1)) != RingHom(z2, z2, (0, 1))
    assert StrongHom(z2, z2, (0, 1)) == StrongHom(z2, z2, (0, 1))
    assert module_hom != (reg, reg, (0, 1), None)


def test_a_lattice_compares_and_hashes_without_its_products():
    ring = cyclic_ring(4)
    lattice = IdealLattice.build(ring)
    families = (lattice.ring, lattice.two_sided, lattice.right, lattice.maximal,
                lattice.prime, lattice.maximal_right)
    bare = IdealLattice(*families, products={})
    assert bare == lattice and hash(bare) == hash(lattice) == hash(families)
    assert bare.products == {} and lattice.products
    assert IdealLattice(ring, lattice.two_sided[1:], *families[2:], lattice.products) != lattice
    assert isinstance(IdealLattice.__dict__["build"], classmethod)


def checked_objects():
    z2 = cyclic_ring(2)
    reg = regular_module(z2)
    return [identity_hom(z2), ModuleHom(reg, reg, (0, 1)), StrongHom(z2, z2, (0, 1)),
            IdealLattice.build(z2)]


@pytest.mark.parametrize("index", range(4), ids=["RingHom", "ModuleHom", "StrongHom",
                                                 "IdealLattice"])
def test_a_checked_object_is_read_only(index):
    obj = checked_objects()[index]
    for field in list(inspect.signature(type(obj)).parameters) + ["extra"]:
        with pytest.raises(AttributeError):
            setattr(obj, field, "changed")
        with pytest.raises(AttributeError):
            delattr(obj, field)


@pytest.mark.parametrize("index", range(4), ids=["RingHom", "ModuleHom", "StrongHom",
                                                 "IdealLattice"])
def test_a_checked_object_copies_field_by_field(index):
    obj = checked_objects()[index]
    assert obj._replace() == obj and repr(obj._replace()) == repr(obj)
    first = obj._fields[0]
    assert getattr(obj._replace(**{first: getattr(obj, first)}), first) is getattr(obj, first)
    with pytest.raises(TypeError):
        obj._replace(extra=None)


@pytest.mark.parametrize("call, message", [
    (lambda: RingHom(cyclic_ring(2), cyclic_ring(4), (0, 1, 2)),
     "mapping must cover the source carrier"),
    (lambda: RingHom(cyclic_ring(2), cyclic_ring(4), (0, 5)),
     "element 5 outside carrier of size 4"),
    (lambda: RingHom(cyclic_ring(2), cyclic_ring(2), ("a", 0)),
     "invalid literal for int() with base 10: 'a'"),
    (lambda: RingHom(zero_mul_ring(2), cyclic_ring(2), (0, 1), unit_preserving=True),
     "unit preservation needs units on both sides"),
    (lambda: RingHom(cyclic_ring(2), zero_mul_ring(2), (0, 1), unit_preserving=True),
     "unit preservation needs units on both sides"),
    (lambda: StrongHom(cyclic_ring(2), cyclic_ring(2), (0,)),
     "mapping must cover the source carrier"),
    (lambda: ModuleHom(regular_module(cyclic_ring(2)), regular_module(cyclic_ring(4)), (0,)),
     "mapping must cover the source carrier"),
    (lambda: ModuleHom(regular_module(cyclic_ring(2)), regular_module(cyclic_ring(2)), (0, 2)),
     "element 2 outside carrier of size 2"),
    (lambda: ModuleHom(regular_module(cyclic_ring(2)), regular_module(cyclic_ring(4)), (0, 3)),
     "module homs need a common base ring"),
])
def test_a_hom_refuses_a_table_it_cannot_hold(call, message):
    with pytest.raises(ValueError) as raised:
        call()
    assert type(raised.value) is ValueError
    assert str(raised.value) == message


def test_a_failed_ideal_check_is_falsy():
    assert not ideals.IdealCheck(False)
    assert not FAILED
    assert ideals.IdealCheck(True)


# the full report of ``khr check --max-order 4``: the text, and the JSON
# without its timestamp, dumped again as the suite dumps it
CHECK4_TEXT_SHA256 = "bb983c401d168e7cebe60d3c8b18e51af5ccc52df15164569a9c73b1c5c9a28b"
CHECK4_JSON_SHA256 = "4073938ca1c1cf9097dd21b545bc5a1ba423c02947b5f83f44fe8414841b86e4"
CHECK4_SUMMARY = "pass 4351  fail 0  skip 569  info 296"


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_check_text_at_order_4_is_pinned(capsys):
    assert main(["check", "--max-order", "4"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == CHECK4_SUMMARY
    assert sha256(out) == CHECK4_TEXT_SHA256


def test_check_json_at_order_4_is_pinned(capsys):
    assert main(["check", "--max-order", "4", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    del doc["generated_at"]
    assert doc["summary"] == {"fail": 0, "info": 296, "pass": 4351, "skip": 569}
    assert sha256(json.dumps(doc, indent=2, sort_keys=True) + "\n") == CHECK4_JSON_SHA256
