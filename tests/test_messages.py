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
value.
"""

import collections
import hashlib
import inspect
import json

import pytest

from krasner import core, corpus, dsl, hypermodules, ideals, morphisms, primitivity
from krasner import spectrum, suite
from krasner.catalog import cyclic_ring
from krasner.cli import main
from krasner.core import AxiomCheck, TheoremViolationError, VerificationReport
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
from krasner.ideals import HyperIdeal, IdealCheck, ideal_product, ideal_sum
from krasner.morphisms import identity_hom, kernel_ideal, preimage_ideal

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


def test_a_structure_that_fails_validation_names_its_failures(monkeypatch):
    # a fresh verdict memo, so the replaced verifier is called
    monkeypatch.setattr(core, "_TABLE_REPORTS", collections.OrderedDict())
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
