from collections import OrderedDict
from functools import lru_cache, partial

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


@lru_cache(maxsize=8)
def labelled_hypergroups(n):
    """Every labelled hypergroup table on {0..n-1} as (add_masks, neg)
    pairs, sorted: the rule search over the free triple orbits of every
    negation that ``corpus._orbit_splits`` leaves alive, with no symmetry
    cut.  It referees the class search of ``corpus.enumerate_hypergroups``;
    the subset loop (n <= 4) and the frozenset brute force (n <= 3) of
    test_corpus referee it in turn."""
    full = (1 << n) - 1
    row = (1 << n * n) - 1
    found = []
    for nu, base, free in corpus._orbit_splits(n):
        def table(v, reads):
            # the orbits are disjoint from one another and from the base
            return base + sum(free[j] for j in reads if v[j])

        # (region, want): no cell is empty, and associativity holds for each
        # row pair a < c, which covers (c, b, a); (a, b, a) and a = 0 always do
        wants = [(full << s * n, lambda t, cell=full << s * n: t & cell)
                 for s in range(n * n) if not base >> s * n & full]
        wants += [(row << a * n * n | row << c * n * n, partial(corpus._associative, n, a, c))
                  for a in range(1, n) for c in range(a + 1, n)]
        rules = []
        for region, want in wants:
            # watch the last cell whose orbit meets the region; with none, test now
            reads = [j for j, o in enumerate(free) if o & region]
            if reads:
                rules.append(((reads[-1],),
                              lambda v, i, want=want, reads=reads: want(table(v, reads))))
            elif not want(base):
                break
        else:
            for v in core.search([2] * len(free), rules):
                t = table(v, range(len(free)))
                found.append((tuple(tuple(t >> (p * n + q) * n & full for q in range(n))
                                    for p in range(n)), nu))
    return tuple(sorted(found))


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
        for module, store in ((core, "_TABLE_REPORTS"), (core, "_STRONG_MAPS"),
                              (ideals, "_LATTICE_FAMILIES"), (ideals, "_QUOTIENT_HYPERGROUPS")):
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
