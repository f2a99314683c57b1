from collections import OrderedDict
from functools import lru_cache

import pytest

import krasner
from krasner import core, corpus, ideals
from krasner.catalog import cyclic_ring, hyperfield_k, zero_mul_ring
from krasner.core import HyperRing, bits
from krasner.corpus import generate_corpus

# one pass/FAIL line per shipped guarantee, filled in by test_acceptance
# and echoed after the run so the gate is readable at a glance
ACCEPTANCE_LINES = []


def direct_product(r, s):
    """r x s with componentwise tables, the pair (a, b) numbered
    a * |s| + b so that 0 stays 0; unital when both factors are."""
    m, n = s.order, r.order * s.order
    add = [[[x * m + y for x in bits(r.add_masks[a // m][b // m])
             for y in bits(s.add_masks[a % m][b % m])] for b in range(n)] for a in range(n)]
    neg = [r.neg_table[a // m] * m + s.neg_table[a % m] for a in range(n)]
    mul = [[r.mul_table[a // m][b // m] * m + s.mul_table[a % m][b % m] for b in range(n)]
           for a in range(n)]
    unit = None if r.unit is None or s.unit is None else r.unit * m + s.unit
    return HyperRing(add, neg, mul, unit=unit).checked("direct product")


def table_copy(ring):
    """A new ring with the tables, unit and name of ring, validated; it
    holds nothing derived yet."""
    copy = HyperRing(add=[[list(bits(m)) for m in row] for row in ring.add_masks],
                     neg=ring.neg_table, mul=ring.mul_table, unit=ring.unit,
                     name=ring.name)
    assert copy.validate().ok
    return copy


def pytest_report_header(config):
    # pyproject's pythonpath puts this checkout's src first, ahead of
    # PYTHONPATH, so name the code actually under test
    return f"krasner imported from {krasner.__file__}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def fresh_memos(monkeypatch):
    """Swap every table memo for an empty one until the test ends, so a
    build or a check happens rather than being read from one an earlier
    test kept for equal tables.  Returns the swap, for a test that needs
    empty memos again part way through."""
    def swap():
        for module, store in ((core, "_TABLE_REPORTS"), (ideals, "_LATTICE_FAMILIES"),
                              (ideals, "_QUOTIENT_HYPERGROUPS")):
            monkeypatch.setattr(module, store, OrderedDict())
        # read by corpus and core alike
        memo = lru_cache(maxsize=core._VERDICTS_KEPT)(core._hypergroup_report.__wrapped__)
        for module in (core, corpus):
            monkeypatch.setattr(module, "_hypergroup_report", memo)
    swap()
    return swap


@pytest.fixture(scope="session")
def z2():
    return cyclic_ring(2)


@pytest.fixture(scope="session")
def z4():
    return cyclic_ring(4)


@pytest.fixture(scope="session")
def z6():
    return cyclic_ring(6)


@pytest.fixture(scope="session")
def kfield():
    return hyperfield_k()


@pytest.fixture(scope="session")
def zmul2():
    return zero_mul_ring(2)


# generation is cached inside the module, but session scoping keeps the
# intent visible: every test sees the same corpus objects
@pytest.fixture(scope="session")
def corpus3():
    return generate_corpus(max_order=3)


@pytest.fixture(scope="session")
def corpus4():
    return generate_corpus(max_order=4)
