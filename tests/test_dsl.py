"""Text format: parsing, diagnostics, emission, round trips."""

import random
import string
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from krasner.catalog import cyclic_ring, hyperfield_k, standard_rings
from krasner.corpus import generate_corpus
from krasner.core import HyperRing
from krasner.dsl import (
    Document,
    ParseError,
    _Parser,
    _columns,
    _tokenize,
    emit_hom,
    emit_module,
    emit_ring,
    parse_file,
    parse_text,
)
from krasner.hypermodules import HyperModule, quotient_module, regular_module, restrict_scalars
from krasner.ideals import IdealLattice
from krasner.morphisms import RingHom, identity_hom

from conftest import direct_product

RING2 = """ring r
  order 2
  unit 1
  add 1 1 {0}
  neg 1 1
  mul 1 1 1
end
"""


def err(text):
    with pytest.raises(ParseError) as info:
        parse_text(text, source="t.khr")
    return str(info.value)


def test_minimal_ring_parses():
    doc = parse_text(RING2)
    ring = doc.rings["r"]
    assert ring.order == 2
    assert ring.unit == 1
    assert ring.validate().ok


def test_comments_and_bare_singletons():
    text = "ring r\n  order 2  # two elements\n  add 1 1 0\n  neg 1 1\n  mul 1 1 0\nend\n"
    doc = parse_text(text)
    assert doc.rings["r"].validate().ok


def test_round_trip_bundled_rings():
    for ring in standard_rings():
        text = emit_ring(ring)
        back = parse_text(text).rings[ring.name]
        assert back.encoding() == ring.encoding()
        # emitting again reproduces the text exactly
        assert emit_ring(back) == text


def test_round_trip_corpus(corpus3):
    for entry in corpus3:
        text = emit_ring(entry.ring, entry.name)
        back = parse_text(text).rings[entry.name]
        assert back.encoding() == entry.ring.encoding()
        assert emit_ring(back, entry.name) == text


def shuffled_products(corpus4) -> list:
    """(text, product) for direct products of orders 6 to 12, whose
    elements include 10 and 11, each line after 'symmetric' shuffled."""
    by_order = {n: [e.ring for e in corpus4 if e.ring.order == n] for n in (2, 3, 4)}
    pairs = [(r, s) for m, n in ((2, 3), (2, 4), (3, 3), (3, 4), (4, 3))
             for r in by_order[m][:3] for s in by_order[n][-3:]]
    assert {r.order * s.order for r, s in pairs} == {6, 8, 9, 12}
    rng = random.Random(0)
    out = []
    for k, (r, s) in enumerate(pairs):
        product = direct_product(r, s)
        lines = emit_ring(product, f"p{k}").splitlines()
        head = lines.index("  symmetric") + 1
        body = lines[head:-1]
        rng.shuffle(body)
        out.append(("\n".join(lines[:head] + body + ["end"]), product))
    return out


def test_round_trip_shuffled_products(corpus4):
    # any order of the lines after 'symmetric' parses back to the same tables
    for k, (text, product) in enumerate(shuffled_products(corpus4)):
        assert reading(parse_text, text) == reading(reference_parse, text)
        back = parse_text(text).rings[f"p{k}"]
        assert back.encoding() == product.encoding()


def test_well_formed_entry_lines_never_reach_the_checked_readers(corpus4, monkeypatch):
    # every entry line of the emitted corpus-4 documents and of the
    # shuffled products is read by lookup; a line with a comment is not
    calls = []
    for reader in ("add_entry", "table_entry", "map_entry"):
        def spy(self, *args, _reader=reader, _read=getattr(_Parser, reader)):
            calls.append(_reader)
            return _read(self, *args)
        monkeypatch.setattr(_Parser, reader, spy)
    texts = emitted_documents(4) + tuple(text for text, _ in shuffled_products(corpus4))
    for text in texts:
        parse_text(text)
    assert len(texts) == 163 + 45 and calls == []
    commented = "".join(line + (" #\n" if line[:3] in ("  a", "  n", "  m") else "\n")
                        for line in RING2.splitlines())
    parse_text(commented + "hom f : r -> r\n  map 0 0 #\n  map 1 1\nend\n")
    # a neg line is read as a map of the ring to itself
    assert calls == ["add_entry", "map_entry", "table_entry", "map_entry"]


def test_module_and_hom_round_trip(z4):
    reg = regular_module(z4)
    ident = RingHom(z4, z4, (0, 1, 2, 3), unit_preserving=True)
    text = emit_ring(z4, "z4") + "\n" + emit_module(reg, "reg", "z4") + "\n" + emit_hom(ident, "id", "z4", "z4")
    doc = parse_text(text)
    assert doc.modules["reg"].encoding() == reg.encoding()
    assert doc.homs["id"].mapping == (0, 1, 2, 3)
    assert doc.homs["id"].unit_preserving
    # emitting each block again, in document order, gives the text back
    emit = {"ring": (doc.rings, emit_ring), "module": (doc.modules, emit_module),
            "hom": (doc.homs, emit_hom)}
    assert "\n".join(emit[kind][1](emit[kind][0][name], name) for kind, name in doc.order) == text


def test_module_round_trip_corpus(corpus3):
    # each regular module and its quotients by maximal right ideals
    for entry in corpus3:
        reg = regular_module(entry.ring)
        modules = [reg] + [quotient_module(reg, reg.from_mask(m.key)).module
                           for m in IdealLattice.build(entry.ring).maximal_right]
        ring_text = emit_ring(entry.ring, entry.name)
        for module in modules:
            text = emit_module(module, "m", entry.name)
            back = parse_text(ring_text + "\n" + text).modules["m"]
            assert back.encoding() == module.encoding(), entry.name
            assert back.unital == module.unital
            assert emit_module(back, "m", entry.name) == text


def test_verify_all_good_document(z4):
    text = emit_ring(z4, "z4") + "\n" + emit_module(regular_module(z4), "reg", "z4")
    reports = parse_text(text).verify_all()
    assert all(r.ok for r in reports.values())


def test_verify_all_flags_bad_ring_and_blocks_dependents():
    text = (
        "ring bad\n  order 2\n  add 1 1 {1}\n  neg 1 1\n  mul 1 1 0\nend\n"
        "module m over bad\n  order 2\n  madd 1 1 {0}\n  mneg 1 1\n  act 1 0 0\n  act 1 1 0\nend\n"
    )
    reports = parse_text(text).verify_all()
    assert not reports["bad"].ok
    assert {c.axiom for c in reports["bad"].failures} == {"negation", "reversibility"}
    blocked = reports["m"]
    assert not blocked.ok
    assert blocked.failures[0].axiom == "base-ring"


def test_zero_row_mul_is_writable_but_fails_validation():
    # the format defaults mul 0 * = 0 but lets a file override it, so the
    # absorption axiom itself stays testable from text
    text = "ring r\n  order 2\n  add 1 1 {0}\n  neg 1 1\n  mul 1 1 0\n  mul 0 1 1\nend\n"
    ring = parse_text(text).rings["r"]
    report = ring.validate()
    assert not report.ok
    assert any(c.axiom == "absorption" for c in report.failures)


def test_parse_error_format():
    msg = err("ring r\n  order 2\n  add 1 1 {}\nend\n")
    assert msg == "t.khr:3:11: hypersum must be nonempty"


def test_diagnostic_positions():
    # one representative bad input per diagnostic, with its exact position
    table = [
        ("ring r\n  add 1 1 {0}\n  order 2\nend\n",
         "t.khr:2:3: 'order' must come first in the block"),
        ("ring r\n  order 2\n  add 0 1 {0}\n  add 1 1 {0}\nend\n",
         "t.khr:3:11: element 0 must be the additive identity"),
        ("ring r\n  order 2\n  add 1 0 {0}\nend\n",
         "t.khr:3:11: element 0 must be the additive identity"),
        ("ring r\n  order 2\n  add 1 1 {0}\n  neg 0 1\nend\n",
         "t.khr:4:9: element 0 must be the additive identity"),
        ("ring r\n  order 2\n  add 1 2 {0}\nend\n",
         "t.khr:3:9: element 2 out of range for order 2"),
        ("ring r\n  order 2\n  add 1 1 {0}\n  add 1 1 {1}\nend\n",
         "t.khr:4:3: duplicate entry for add (1, 1)"),
        ("ring r\n  order 3\n  add 1 1 {0}\nend\n",
         "t.khr:1:1: missing add entry for (1, 2)"),
        # a missing entry is found before any table of the order is built
        ("ring r\n  order 99999999999\n  add 1 1 {0}\nend\n",
         "t.khr:1:1: missing add entry for (1, 2)"),
        # an entry on row or column 0 does not stand in for a missing one
        ("ring r\n  order 2\n  add 0 1 1\nend\n",
         "t.khr:1:1: missing add entry for (1, 1)"),
        ("ring r\n  order 2\n  add 1 1 {0}\n  neg 0 0\nend\n",
         "t.khr:1:1: missing neg entry for 1"),
        ("ring r\n  order 2\n  add 1 1 {0}\n  neg 1 1\n  mul 0 1 0\nend\n",
         "t.khr:1:1: missing mul entry for (1, 1)"),
        ("end\n", "t.khr:1:1: 'end' outside a block"),
        ("ring r\n  order 2\n  add 1 1 {0}\n",
         "t.khr:3:1: block never closed with 'end'"),
        ("module m over q\n  order 2\nend\n",
         "t.khr:1:15: undeclared ring 'q'"),
        ("ring r\n  order 2\n  add 1 1 {0}\n  frob 1\nend\n",
         "t.khr:4:3: unknown key 'frob'"),
        ("ring r\n  order 1\nend\nring r\n  order 1\nend\n",
         "t.khr:4:6: duplicate name 'r'"),
        ("ring r\n  order 2\n  add 1 1 {0\nend\n",
         "t.khr:3:11: unclosed '{'"),
        ("ring r\n  order 2\n  add 1 1 {0}\n  mul 1 1 {0,1}\nend\n",
         "t.khr:4:11: multiplication must be single-valued"),
        ("ring r\n  order 2\n  add 1 1 {0}\n  mul 1 1 x\nend\n",
         "t.khr:4:11: expected an integer, got 'x'"),
        ("ring r\n  order 2\n  symmetric\n  symmetric\nend\n",
         "t.khr:4:3: duplicate entry for symmetric"),
        (RING2 + "hom f : r -> r\n  unit_preserving\n  map 0 0\n  unit_preserving\nend\n",
         "t.khr:11:3: duplicate entry for unit_preserving"),
    ]
    for text, expected in table:
        assert err(text) == expected


def test_tokenizer_edge_cases():
    ring = "ring r\n  order 2\n"
    table = [
        # a brace set runs to the next '}', so a '#' inside it is no comment
        (ring + "  add 1 1 {0,#}\nend\n", "t.khr:3:11: expected an integer, got '#'"),
        # a '#' ends the word before it and the line
        (ring + "  add 1 1 {0}\n  neg 1#x\nend\n", "t.khr:4:3: 'neg' takes 2 argument(s)"),
        # '\x1c' and '\v' are whitespace within a line and break no line
        (ring + "  add 1 1 {0}\n  neg 1 1\x1c\n  mul\x1c1 1\nend\n",
         "t.khr:5:3: 'mul' takes 3 argument(s)"),
        ("ring r\n  order 1\x0b\nend\nfoo\n", "t.khr:4:1: unknown directive 'foo'"),
        (ring + "  add 1 1 {0\nend\n", "t.khr:3:11: unclosed '{'"),
        (ring + "  add 1 1{0\nend\n", "t.khr:3:10: unclosed '{'"),
        (ring + "  add 1 1 {\nend\n", "t.khr:3:11: unclosed '{'"),
        # a set unclosed after a name and a comma, whose inside is a name
        (ring + "  add 1 1 {1,\nend\n", "t.khr:3:11: unclosed '{'"),
        # the unclosed brace is found before the line's arity is read
        (ring + "  add 1 1} {0\nend\n", "t.khr:3:12: unclosed '{'"),
        # a stray '}' is part of a word
        (ring + "  add 1 1 0}\nend\n", "t.khr:3:11: expected an integer, got '0}'"),
        (ring + "  }\nend\n", "t.khr:3:3: unknown key '}'"),
    ]
    for text, expected in table:
        assert err(text) == expected

    z2 = parse_text("ring r\n  order 2\n  add 1 1 {0}\n  neg 1 1\n  mul 1 1 0\nend\n").rings["r"]
    for text in ("ring r\n  order 2\n  add 1 1 0#x\n  neg 1 1#\n  mul 1 1 0#{\nend#\n",
                 "ring\tr\n\torder\t2\n  add\u30001 1\u3000{0}\n  neg 1 1\n  mul 1 1 0\nend\n",
                 "ring r\r\n  order 2\r  add 1 1 {0}\x1c\n  neg\x1c1 1\x85\n  mul 1 1 0\nend\n"):
        assert parse_text(text).rings["r"].encoding() == z2.encoding()

    def tokens(raw):
        return list(zip(_tokenize(raw, "t.khr", 1), _columns(raw)))

    assert tokens("a\tb\u3000c\x1cd") == [("a", 1), ("b", 3), ("c", 5), ("d", 7)]
    assert tokens("x{y # z}w}#{") == [("x", 1), ("{y # z}", 2), ("w}", 9)]
    assert tokens("  {0,#}") == [("{0,#}", 3)]
    assert tokens("1#x") == [("1", 1)]
    assert tokens("") == tokens("   ") == tokens("# {") == []


def reference_tokens(raw: str, source: str, lineno: int) -> list:
    # the character loop the tokenizer replaced, kept as its oracle
    toks = []
    i = 0
    n = len(raw)
    while i < n:
        ch = raw[i]
        if ch == "#":
            break
        if ch.isspace():
            i += 1
            continue
        start = i
        if ch == "{":
            j = raw.find("}", i)
            if j < 0:
                raise ParseError("unclosed '{'", source, lineno, i + 1)
            toks.append((raw[i:j + 1], start + 1))
            i = j + 1
            continue
        while i < n and not raw[i].isspace() and raw[i] not in "#{":
            i += 1
        toks.append((raw[start:i], start + 1))
    return toks


class ReferenceParser(_Parser):
    """The token-by-token table and hom block readers the lookup replaced,
    kept as its oracle: every element through `element`, every set
    through `values`, each line cut by the character-loop tokenizer
    above."""

    def entry_line(self, i, keys):
        # (index of the next line, lineno, toks) of the next entry line,
        # toks None at 'end'
        while i < len(self.lines):
            lineno = i + 1
            toks = [t for t, _ in reference_tokens(self.lines[i], self.source, lineno)]
            if not toks:
                i += 1
                continue
            if toks[0] == "end":
                if len(toks) != 1:
                    self.error_at("nothing may follow 'end'", lineno, 1)
                return i + 1, None, None
            if toks[0] not in keys:
                self.error_at(f"unknown key {toks[0]!r}", lineno, 0)
            return i + 1, lineno, toks
        self.error("block never closed with 'end'", len(self.lines), 1)

    def table_block(self, name, i, keys, ring=None):
        add_key, neg_key, table_key, unit_key = keys
        order = None
        unit = None
        symmetric = False
        add = {}
        neg = {}
        table = {}
        first = i
        while True:
            i, lineno, toks = self.entry_line(i, ("order", "symmetric") + keys)
            if toks is None:
                break
            key = toks[0]
            if key == "order":
                self.arity(toks, 1, lineno)
                if order is not None:
                    self.error_at("duplicate entry for order", lineno, 0)
                order = self.number(toks[1], lineno, 1)
                if order < 1:
                    self.error_at("order must be positive", lineno, 1)
                continue
            if order is None:
                self.error_at("'order' must come first in the block", lineno, 0)
            if key == unit_key:
                self.arity(toks, 1 if ring is None else 0, lineno)
                if unit is not None:
                    self.error_at(f"duplicate entry for {key}", lineno, 0)
                unit = True if ring is not None else self.element(toks, 1, order, lineno)
            elif key == "symmetric":
                self.arity(toks, 0, lineno)
                if symmetric:
                    self.error_at("duplicate entry for symmetric", lineno, 0)
                symmetric = True
            elif key == add_key:
                self.arity(toks, 3, lineno)
                a = self.element(toks, 1, order, lineno)
                b = self.element(toks, 2, order, lineno)
                vals = self.values(toks, 3, lineno)
                for v in vals:
                    if not 0 <= v < order:
                        self.error_at(f"element {v} out of range for order {order}",
                                      lineno, 3)
                if (a == 0 or b == 0) and set(vals) != {b if a == 0 else a}:
                    self.error_at("element 0 must be the additive identity", lineno, 3)
                self.put(add, (a, b), sorted(set(vals)), lineno, add_key)
                if symmetric and a != b:
                    self.put(add, (b, a), sorted(set(vals)), lineno, add_key)
            elif key == neg_key:
                self.arity(toks, 2, lineno)
                a = self.element(toks, 1, order, lineno)
                v = self.element(toks, 2, order, lineno)
                if a == 0 and v != 0:
                    self.error_at("element 0 must be the additive identity", lineno, 2)
                self.put(neg, a, v, lineno, neg_key)
            else:
                self.arity(toks, 3, lineno)
                a = self.element(toks, 1, order, lineno)
                if ring is None:
                    b = self.element(toks, 2, order, lineno)
                else:
                    b = self.element(toks, 2, ring.order, lineno, what="ring element")
                vals = self.values(toks, 3, lineno)
                if len(vals) != 1:
                    self.error_at(("multiplication" if ring is None else "action")
                                  + " must be single-valued", lineno, 3)
                v = vals[0]
                if not 0 <= v < order:
                    self.error_at(f"element {v} out of range for order {order}",
                                  lineno, 3)
                self.put(table, (a, b), v, lineno, table_key)
        if order is None:
            self.error("missing order", first, 1)

        columns = order if ring is None else ring.order
        for label, store, keys in (
                (add_key, add, ((a, b) for a in range(1, order) for b in range(1, order))),
                (neg_key, neg, range(1, order)),
                (table_key, table, ((a, b) for a in range(1, order) for b in range(1, columns)))):
            missing = next((k for k in keys if k not in store), None)
            if missing is not None:
                self.error(f"missing {label} entry for {missing}", first, 1)
        add_table = [[None] * order for _ in range(order)]
        for a in range(order):
            add_table[a][0] = [a]
            add_table[0][a] = [a]
        for (a, b), vals in add.items():
            add_table[a][b] = vals
        neg_table = [0] * order
        for a in range(1, order):
            neg_table[a] = neg[a]
        value_table = [[0] * columns for _ in range(order)]
        for (a, b), v in table.items():
            value_table[a][b] = v
        if ring is None:
            self.rings[name] = HyperRing(add_table, neg_table, value_table,
                                             unit=unit, name=name)
        else:
            self.modules[name] = HyperModule(ring, add_table, neg_table, value_table,
                                                 unital=bool(unit), name=name)
        return i


    def hom_block(self, name, source_ring, target_ring, i):
        mapping = {}
        unit_preserving = False
        flag_line = None
        first = i
        while True:
            i, lineno, toks = self.entry_line(i, ("map", "unit_preserving"))
            if toks is None:
                break
            if toks[0] == "map":
                self.arity(toks, 2, lineno)
                a = self.element(toks, 1, source_ring.order, lineno)
                v = self.element(toks, 2, target_ring.order, lineno)
                self.put(mapping, a, v, lineno, "map")
            else:
                self.arity(toks, 0, lineno)
                if unit_preserving:
                    self.error_at("duplicate entry for unit_preserving", lineno, 0)
                unit_preserving = True
                flag_line = lineno
        for a in range(source_ring.order):
            if a not in mapping:
                self.error(f"missing map entry for {a}", first, 1)
        if unit_preserving and (source_ring.unit is None or target_ring.unit is None):
            self.error("unit preservation needs units on both sides", flag_line, 1)
        self.homs[name] = RingHom(source_ring, target_ring,
                                  tuple(mapping[a] for a in range(source_ring.order)),
                                  name=name, unit_preserving=unit_preserving)
        return i


def reading(parse, text):
    """What parse makes of text, in plain values: every table, name and
    link of the document in order, or the error with its place."""
    try:
        doc = parse(text)
    except ParseError as e:
        return str(e), e.line, e.col
    return (doc.order,
            [(n, r.name, r.encoding()) for n, r in doc.rings.items()],
            [(n, m.name, m.ring.name, m.unital, m.encoding()) for n, m in doc.modules.items()],
            [(n, h.name, h.source.name, h.target.name, h.mapping, h.unit_preserving)
             for n, h in doc.homs.items()])


def reference_parse(text):
    return ReferenceParser(text, "<string>").parse()


def outcome(tokens):
    try:
        return tokens()
    except ParseError as e:
        return str(e)


@settings(derandomize=True, deadline=None, max_examples=2000)
@given(st.text(alphabet="#{}," + string.digits + string.ascii_letters + " \t\u3000\x1c",
               max_size=40))
def test_tokenizer_matches_character_loop(raw):
    # _columns also counts the tokens after a comment, which zip drops
    assert (outcome(lambda: list(zip(_tokenize(raw, "t.khr", 7), _columns(raw))))
            == outcome(lambda: reference_tokens(raw, "t.khr", 7)))


def test_numbers_are_ascii_digits():
    # int() reads each of these tokens as a number; the format does not
    table = [
        ("ring r\n  order \u0662\nend\n", "t.khr:2:9: expected an integer, got '\u0662'"),
        ("ring r\n  order 2\n  unit +1\nend\n", "t.khr:3:8: expected an integer, got '+1'"),
        ("ring r\n  order 2\n  add 1 1 {0_0}\nend\n",
         "t.khr:3:11: expected an integer, got '0_0'"),
    ]
    for text, expected in table:
        assert err(text) == expected


def test_unusual_spellings():
    # pinned from the token-by-token reader: each line reads to the cells
    # (add 1 1, neg 1, mul 1 1) or raises the diagnostic given
    def ring(line):
        lines = {"add": "  add 1 1 {0}", "neg": "  neg 1 1", "mul": "  mul 1 1 1"}
        lines[line.split()[0]] = "  " + line
        return "ring r\n  order 2\n  unit 1\n" + "\n".join(lines.values()) + "\nend\n"

    table = [
        ("mul 1 1 {1,1}", "t.khr:6:11: multiplication must be single-valued"),
        ("add 1 300 {0}", "t.khr:4:9: element 300 out of range for order 2"),
        ("add 1 1 {300}", "t.khr:4:11: element 300 out of range for order 2"),
        ("add 1 1 {1,}", "t.khr:4:11: empty element in set"),
        ("neg 1 07", "t.khr:5:9: element 7 out of range for order 2"),
        ("neg 1 12", "t.khr:5:9: element 12 out of range for order 2"),
        ("mul 1 12 1", "t.khr:6:9: element 12 out of range for order 2"),
        ("add 1 1 { 1 , 0 }", (0b11, 1, 1)),
        ("add 1 1 {1,1,0}", (0b11, 1, 1)),
        ("add 1 1 0", (0b01, 1, 1)),
        ("add 01 1 {00}", (0b01, 1, 1)),
        ("add 1 1 {01}", (0b10, 1, 1)),
        ("neg 1 01", (0b01, 1, 1)),
        ("mul 1 1 {1}", (0b01, 1, 1)),
        ("mul 1 1 00", (0b01, 1, 0)),
    ]
    for line, expected in table:
        if isinstance(expected, str):
            assert err(ring(line)) == expected, line
        else:
            r = parse_text(ring(line)).rings["r"]
            assert (r.add_masks[1][1], r.neg_table[1], r.mul_table[1][1]) == expected, line
    # names past the lookup's cap are elements all the same
    assert (err("ring r\n  order 400\n  add 300 1 {0,299}\n  add 300 1 {0}\nend\n")
            == "t.khr:4:3: duplicate entry for add (300, 1)")

    # an act column reads the base ring's elements, its value the module's
    def module(line):
        return (RING2 + "module m over r\n  order 3\n  madd 1 1 {2}\n  madd 1 2 {0}\n"
                "  madd 2 1 {0}\n  madd 2 2 {1}\n  mneg 1 2\n  mneg 2 1\n  act 1 1 1\n"
                f"  {line}\nend\n")

    plain = parse_text(module("act 2 1 2")).modules["m"].encoding()
    for line in ("act 2 1 02", "act 2 01 {2}"):
        assert parse_text(module(line)).modules["m"].encoding() == plain, line
    for line, expected in (
            ("act 2 2 2", "t.khr:17:9: ring element 2 out of range for order 2"),
            ("act 2 1 3", "t.khr:17:11: element 3 out of range for order 3"),
            ("act 2 1 {2,2}", "t.khr:17:11: action must be single-valued")):
        assert err(module(line)) == expected, line


def test_module_diagnostic_positions():
    # the module block's own keys, and each block refusing the other's
    def module(order, body):
        return RING2 + f"module m over r\n  order {order}\n" + body + "end\n"

    table = [
        (module(2, "  madd 1 1 {0}\n  madd 1 1 {1}\n"),
         "t.khr:11:3: duplicate entry for madd (1, 1)"),
        (module(3, "  madd 1 1 {0}\n"),
         "t.khr:8:1: missing madd entry for (1, 2)"),
        (module(99999999999, "  madd 1 1 {0}\n"),
         "t.khr:8:1: missing madd entry for (1, 2)"),
        (module(2, "  madd 1 1 {0}\n"),
         "t.khr:8:1: missing mneg entry for 1"),
        (module(2, "  madd 1 1 {0}\n  mneg 1 1\n"),
         "t.khr:8:1: missing act entry for (1, 1)"),
        (module(2, "  madd 1 1 {0}\n  mneg 1 1\n  act 1 2 0\n"),
         "t.khr:12:9: ring element 2 out of range for order 2"),
        (module(2, "  unital 1\n"),
         "t.khr:10:3: 'unital' takes 0 argument(s)"),
        (module(2, "  unit 1\n"),
         "t.khr:10:3: unknown key 'unit'"),
        ("ring r\n  order 2\n  unital\nend\n",
         "t.khr:3:3: unknown key 'unital'"),
        ("ring r\n  order 2\n  unit 1\n  unit 1\nend\n",
         "t.khr:4:3: duplicate entry for unit"),
        (module(2, "  unital\n  madd 1 1 {0}\n  unital\n"),
         "t.khr:12:3: duplicate entry for unital"),
    ]
    for text, expected in table:
        assert err(text) == expected


def test_action_must_be_single_valued():
    text = RING2 + "module m over r\n  order 2\n  madd 1 1 {0}\n  mneg 1 1\n  act 1 1 {0,1}\nend\n"
    assert err(text) == "t.khr:12:11: action must be single-valued"


def test_missing_map_and_unit_flag():
    base = "ring r\n  order 2\n  add 1 1 {0}\n  neg 1 1\n  mul 1 1 0\nend\n"
    assert err(base + "hom f : r -> r\n  map 1 1\nend\n") == "t.khr:7:1: missing map entry for 0"
    msg = err(base + "hom f : r -> r\n  unit_preserving\n  map 0 0\n  map 1 1\nend\n")
    assert msg.endswith("unit preservation needs units on both sides")


def test_parse_file(tmp_path, z6):
    path = tmp_path / "z6.khr"
    path.write_text(emit_ring(z6, "z6"), encoding="utf-8")
    doc = parse_file(path)
    assert doc.rings["z6"].encoding() == z6.encoding()
    with pytest.raises(ParseError) as info:
        bad = tmp_path / "bad.khr"
        bad.write_text("ring r\n  order 0\nend\n", encoding="utf-8")
        parse_file(bad)
    assert str(info.value).startswith(str(bad))


def test_parse_file_locates_the_first_non_utf8_byte(tmp_path):
    # the line and column the parser would have given that character
    table = [
        (b"ring r\n  order 1\n\xff\nend\n", "3:1: invalid UTF-8: byte 0xff (invalid start byte)"),
        (b"\x80", "1:1: invalid UTF-8: byte 0x80 (invalid start byte)"),
        (b"ring r\n  order 1 # caf\xc3\xa9 \xe2\x82\n",
         "2:18: invalid UTF-8: byte 0xe2 (invalid continuation byte)"),
        (b"ring r\r\n  order 2\r\n\xe2\x82",
         "3:1: invalid UTF-8: byte 0xe2 (unexpected end of data)"),
        (b"ring r\x1c  order 1\n  \xc3\xa9\xc3\xa9 \xc3",
         "2:6: invalid UTF-8: byte 0xc3 (unexpected end of data)"),
    ]
    path = tmp_path / "bad.khr"
    for data, expected in table:
        path.write_bytes(data)
        with pytest.raises(ParseError) as info:
            parse_file(path)
        assert str(info.value) == f"{path}:{expected}"


def test_emit_needs_names(z4):
    nameless = cyclic_ring(4)
    nameless.name = None
    with pytest.raises(ValueError):
        emit_ring(nameless)


def test_emit_rejects_nonstandard_identity(z4):
    # a ring whose 0 is not the additive identity cannot be written down;
    # build one by relabeling, skipping validation on purpose
    from krasner.core import HyperRing

    perm = [1, 0, 2, 3]
    inv = [perm.index(i) for i in range(4)]
    add = [[sorted(perm[x] for x in z4.add(inv[a], inv[b]).members) for b in range(4)]
           for a in range(4)]
    neg = [perm[z4.neg(inv[a])] for a in range(4)]
    mul = [[perm[z4.mul(inv[a], inv[b])] for b in range(4)] for a in range(4)]
    twisted = HyperRing(add, neg, mul, name="twisted")
    with pytest.raises(ValueError):
        emit_ring(twisted)


def test_order_zero_is_rejected():
    msg = err("ring r\n  order 0\nend\n")
    assert "order" in msg


@lru_cache(maxsize=2)
def emitted_documents(max_order: int) -> tuple:
    # each corpus ring, its regular module, its identity hom, and that
    # module over the one element ring "o", a module larger than its ring
    o = HyperRing([[[0]]], [0], [[0]], name="o").checked("the one element ring")
    return tuple(emit_ring(e.ring) + emit_module(regular_module(e.ring), "m")
                 + emit_hom(identity_hom(e.ring), "h") + emit_ring(o)
                 + emit_module(restrict_scalars(regular_module(e.ring), RingHom(o, e.ring, (0,))),
                               "n", "o")
                 for e in generate_corpus(max_order))


# the second last row holds spellings the lookup misses that still read as
# elements or sets: leading zeros, spaces and repeats inside a set, names
# past the order; the last, sets and comments that str.split() cuts
# otherwise than the tokenizer
TOKENS = ("0", "1", "3", "-1", "99999999999", "1" * 5000, "x", "²", "{}", "{0}",
          "{1,2}", "{9}", "{,}", "{x}", "{", "}", "#", ":", "->", "order", "unit",
          "symmetric", "add", "neg", "mul", "madd", "mneg", "act", "unital", "map",
          "unit_preserving", "ring", "module", "over", "hom", "end", "r", "m", "h",
          "07", "00", "{ 1, 2}", "{2,2,1}", "{01}", "{1,}", "12", "300", "{300}",
          "{2,", "{1}x", "x{1}", "{1}{2}", "{2}}", "1#x", "{2}#c")


# element names at and around the orders of the corpus, drawn as often as
# all of TOKENS, so that entries move to and past the edges of a table
NUMERALS = ("0", "1", "2", "3", "4")


# whitespace within a line that str.split() and the tokenizer both cut at
SPACES = (" ", "\t", "\x0b", "\x0c", "\u3000", "   ", " \t ")


# what a brace or comma of a set may be retyped as
MARKS = ("", " ", ",", "{", "}", "x", "#", "}{", ", ")


@st.composite
def mutated_documents(draw, max_order=3):
    lines = draw(st.sampled_from(emitted_documents(max_order))).split("\n")
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        toks = lines[i].split()
        j = draw(st.integers(0, len(toks)))
        token = draw(st.sampled_from(TOKENS) | st.sampled_from(NUMERALS))
        kind = draw(st.sampled_from(["drop line", "copy line", "move line", "new line",
                                     "replace token", "insert token", "drop token",
                                     "respace line", "retype mark"]))
        if kind == "drop line":
            del lines[i]
        elif kind == "copy line":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        elif kind == "move line":
            lines.insert(draw(st.integers(0, len(lines) - 1)), lines.pop(i))
        elif kind == "new line":
            lines.insert(i, " ".join(draw(st.lists(st.sampled_from(TOKENS), max_size=4))))
        elif kind == "insert token":
            lines[i] = " ".join(toks[:j] + [token] + toks[j:])
        elif kind == "respace line":
            # other whitespace before, between and after the tokens
            gaps = draw(st.lists(st.sampled_from(SPACES), min_size=len(toks) + 1,
                                 max_size=len(toks) + 1))
            lines[i] = "".join(g + t for g, t in zip(gaps, toks + [""]))
        elif kind == "retype mark":
            # a set left open ('{0,'), glued to a word ('{0}x') or split
            marks = [(k, n) for k, line in enumerate(lines) for n, c in enumerate(line)
                     if c in "{},"]
            if marks:
                k, n = draw(st.sampled_from(marks))
                lines[k] = lines[k][:n] + draw(st.sampled_from(MARKS)) + lines[k][n + 1:]
        elif toks and j < len(toks):
            lines[i] = " ".join(toks[:j] + ([token] if kind == "replace token" else [])
                                + toks[j + 1:])
        if not lines:
            lines = [""]
    return "\n".join(lines)


@settings(derandomize=True, deadline=None, max_examples=1000)
@given(mutated_documents())
def test_mutated_documents_parse_or_raise_a_located_error(text):
    # the lookup reader gives what the token-by-token reader gives: the
    # same document, or the same error at the same place
    got = reading(parse_text, text)
    assert got == reading(reference_parse, text)
    if isinstance(got[0], str):
        assert got[1] >= 1 and got[2] >= 1


@pytest.mark.slow
@settings(derandomize=True, deadline=None, max_examples=20000)
@given(mutated_documents(max_order=4))
def test_mutated_corpus4_documents_read_as_the_reference_reads_them(text):
    assert reading(parse_text, text) == reading(reference_parse, text)
