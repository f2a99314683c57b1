"""A small line oriented text format for hyperrings, hypermodules and
homs, plus its emitter.

    # two element hyperfield
    ring K
      order 2
      unit 1
      symmetric
      add 1 1 {0,1}
      neg 1 1
      mul 1 1 1
    end

Blocks start with `ring NAME`, `module NAME over RING` or
`hom NAME : SOURCE -> TARGET` and close with `end`.  A ring block and a
module block share one grammar, since a ring is a module over itself:
`order`, which must come first so every later index can be range checked
where it appears, an optional `symmetric`, a hypergroup (`add`/`neg`, or
`madd`/`mneg`), a single-valued table (`mul` over the ring's own
elements, or `act` over the base ring's) and a unit line (`unit N`, or
the `unital` flag).  `symmetric` mirrors add/madd entries.  `order`,
`symmetric`, the unit line and a hom's `unit_preserving` may each appear
once per block.  Rows
involving 0 follow the conventions of the structures themselves:
hyperaddition with 0 and negation of 0 are fixed and may not be
contradicted, while multiplication and action entries involving 0
default to 0 but may be overridden, which is how broken fixtures for the
validators get written down.

Parsing builds structures without validating them; run their validators
(or `Document.verify_all`) afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import AxiomCheck, HyperRing, bits
from .hypermodules import HyperModule
from .morphisms import RingHom, verify_strong_hom


# the keys of a ring block and of a module block: hyperaddition, negation,
# the single-valued table and the unit line
RING_KEYS = ("add", "neg", "mul", "unit")
MODULE_KEYS = ("madd", "mneg", "act", "unital")


class ParseError(Exception):
    def __init__(self, message, source, line, col):
        self.message = message
        self.source = source
        self.line = line
        self.col = col
        super().__init__(f"{source}:{line}:{col}: {message}")


@dataclass(frozen=True)
class _Tok:
    text: str
    col: int  # 1 based


def _tokenize(raw: str, source: str, lineno: int) -> list:
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
            toks.append(_Tok(raw[i:j + 1], start + 1))
            i = j + 1
            continue
        while i < n and not raw[i].isspace() and raw[i] not in "#{":
            i += 1
        toks.append(_Tok(raw[start:i], start + 1))
    return toks


def _int(text: str, source, lineno, col) -> int:
    # ASCII digits only: int() would also read '+1', '0_0' and '٢'
    try:
        if text.isascii() and text.isdigit():
            return int(text)
    except ValueError:  # past int()'s digit limit
        pass
    raise ParseError(f"expected an integer, got {text!r}", source, lineno, col)


def _value_set(tok: _Tok, source, lineno) -> list:
    """A {a,b,c} set or a bare integer as a singleton."""
    if not tok.text.startswith("{"):
        return [_int(tok.text, source, lineno, tok.col)]
    inner = tok.text[1:-1].strip()
    if not inner:
        raise ParseError("hypersum must be nonempty", source, lineno, tok.col)
    out = []
    for piece in inner.split(","):
        piece = piece.strip()
        if not piece:
            raise ParseError("empty element in set", source, lineno, tok.col)
        out.append(_int(piece, source, lineno, tok.col))
    return out


@dataclass(frozen=True)
class BlockedReport:
    """Stands in for a verification that could not run."""

    reason: str

    @property
    def ok(self) -> bool:
        return False

    @property
    def failures(self) -> tuple:
        return (AxiomCheck("base-ring", False, (), self.reason),)


@dataclass
class Document:
    """Parsed structures in file order."""

    rings: dict = field(default_factory=dict)
    modules: dict = field(default_factory=dict)
    homs: dict = field(default_factory=dict)
    order: tuple = ()

    def verify_all(self) -> dict:
        """Name to report; structures over broken rings get a blocked
        report instead of a misleading one."""
        out = {}
        for name, ring in self.rings.items():
            out[name] = ring.validate()
        for name, module in self.modules.items():
            if module.ring.validated:
                out[name] = module.validate()
            else:
                out[name] = BlockedReport("the base ring failed validation")
        for name, hom in self.homs.items():
            if hom.source.validated and hom.target.validated:
                out[name] = verify_strong_hom(hom)
            else:
                out[name] = BlockedReport("an endpoint ring failed validation")
        return out


class _Parser:
    def __init__(self, text: str, source: str):
        self.lines = text.splitlines()
        self.source = source
        self.doc = Document()
        self.names = set()

    def error(self, message, lineno, col=1):
        raise ParseError(message, self.source, lineno, col)

    def parse(self) -> Document:
        order = []
        i = 0
        while i < len(self.lines):
            lineno = i + 1
            toks = _tokenize(self.lines[i], self.source, lineno)
            if not toks:
                i += 1
                continue
            head = toks[0]
            if head.text == "ring":
                if len(toks) != 2:
                    self.error("expected 'ring NAME'", lineno, head.col)
                name = toks[1].text
                self.claim(name, lineno, toks[1].col)
                i = self.table_block(name, i + 1, RING_KEYS)
                order.append(("ring", name))
            elif head.text == "module":
                if len(toks) != 4 or toks[2].text != "over":
                    self.error("expected 'module NAME over RING'", lineno, head.col)
                name = toks[1].text
                self.claim(name, lineno, toks[1].col)
                ring_name = toks[3].text
                if ring_name not in self.doc.rings:
                    self.error(f"undeclared ring {ring_name!r}", lineno, toks[3].col)
                i = self.table_block(name, i + 1, MODULE_KEYS,
                                     self.doc.rings[ring_name])
                order.append(("module", name))
            elif head.text == "hom":
                if (len(toks) != 6 or toks[2].text != ":" or toks[4].text != "->"):
                    self.error("expected 'hom NAME : SOURCE -> TARGET'", lineno, head.col)
                name = toks[1].text
                self.claim(name, lineno, toks[1].col)
                for t in (toks[3], toks[5]):
                    if t.text not in self.doc.rings:
                        self.error(f"undeclared ring {t.text!r}", lineno, t.col)
                i = self.hom_block(name, self.doc.rings[toks[3].text],
                                   self.doc.rings[toks[5].text], i + 1)
                order.append(("hom", name))
            elif head.text == "end":
                self.error("'end' outside a block", lineno, head.col)
            else:
                self.error(f"unknown directive {head.text!r}", lineno, head.col)
        self.doc.order = tuple(order)
        return self.doc

    def claim(self, name, lineno, col):
        if name in self.names:
            self.error(f"duplicate name {name!r}", lineno, col)
        self.names.add(name)

    def block_lines(self, i, keys):
        """Yield (lineno, toks) until 'end', dispatch checked against keys."""
        while i < len(self.lines):
            lineno = i + 1
            toks = _tokenize(self.lines[i], self.source, lineno)
            if not toks:
                i += 1
                continue
            if toks[0].text == "end":
                if len(toks) != 1:
                    self.error("nothing may follow 'end'", lineno, toks[1].col)
                return i + 1, None, None
            if toks[0].text not in keys:
                self.error(f"unknown key {toks[0].text!r}", lineno, toks[0].col)
            return i + 1, lineno, toks
        self.error("block never closed with 'end'", len(self.lines), 1)

    def arity(self, toks, count, lineno):
        if len(toks) != count + 1:
            self.error(f"'{toks[0].text}' takes {count} argument(s)",
                       lineno, toks[0].col)

    def element(self, tok, order, lineno, what="element"):
        v = _int(tok.text, self.source, lineno, tok.col)
        if not 0 <= v < order:
            self.error(f"{what} {v} out of range for order {order}", lineno, tok.col)
        return v

    def need_order(self, order, lineno, col):
        if order is None:
            self.error("'order' must come first in the block", lineno, col)

    def table_block(self, name, i, keys, ring=None):
        """A ring block (ring None) or a module block over ring: `order`,
        `symmetric`, then the hyperaddition, negation, single-valued table
        and unit line named by keys (RING_KEYS or MODULE_KEYS).  A ring's
        table runs over its own elements and its unit line names the unit;
        a module's runs over the ring's and `unital` is a flag."""
        add_key, neg_key, table_key, unit_key = keys
        order = None
        unit = None
        symmetric = False
        add = {}
        neg = {}
        table = {}
        first = i
        while True:
            i, lineno, toks = self.block_lines(i, ("order", "symmetric") + keys)
            if toks is None:
                break
            key = toks[0].text
            if key == "order":
                self.arity(toks, 1, lineno)
                if order is not None:
                    self.error("duplicate entry for order", lineno, toks[0].col)
                order = _int(toks[1].text, self.source, lineno, toks[1].col)
                if order < 1:
                    self.error("order must be positive", lineno, toks[1].col)
                continue
            self.need_order(order, lineno, toks[0].col)
            if key == unit_key:
                self.arity(toks, 1 if ring is None else 0, lineno)
                if unit is not None:
                    self.error(f"duplicate entry for {key}", lineno, toks[0].col)
                unit = True if ring is not None else self.element(toks[1], order, lineno)
            elif key == "symmetric":
                self.arity(toks, 0, lineno)
                if symmetric:
                    self.error("duplicate entry for symmetric", lineno, toks[0].col)
                symmetric = True
            elif key == add_key:
                self.arity(toks, 3, lineno)
                a = self.element(toks[1], order, lineno)
                b = self.element(toks[2], order, lineno)
                vals = _value_set(toks[3], self.source, lineno)
                for v in vals:
                    if not 0 <= v < order:
                        self.error(f"element {v} out of range for order {order}",
                                   lineno, toks[3].col)
                if (a == 0 or b == 0) and set(vals) != {b if a == 0 else a}:
                    self.error("element 0 must be the additive identity",
                               lineno, toks[3].col)
                self.put(add, (a, b), sorted(set(vals)), lineno, toks[0].col, add_key)
                if symmetric and a != b:
                    self.put(add, (b, a), sorted(set(vals)), lineno, toks[0].col, add_key)
            elif key == neg_key:
                self.arity(toks, 2, lineno)
                a = self.element(toks[1], order, lineno)
                v = self.element(toks[2], order, lineno)
                if a == 0 and v != 0:
                    self.error("element 0 must be the additive identity",
                               lineno, toks[2].col)
                self.put(neg, a, v, lineno, toks[0].col, neg_key)
            else:
                self.arity(toks, 3, lineno)
                a = self.element(toks[1], order, lineno)
                if ring is None:
                    b = self.element(toks[2], order, lineno)
                else:
                    b = self.element(toks[2], ring.order, lineno, what="ring element")
                vals = _value_set(toks[3], self.source, lineno)
                if len(vals) != 1:
                    self.error(("multiplication" if ring is None else "action")
                               + " must be single-valued", lineno, toks[3].col)
                v = vals[0]
                if not 0 <= v < order:
                    self.error(f"element {v} out of range for order {order}",
                               lineno, toks[3].col)
                self.put(table, (a, b), v, lineno, toks[0].col, table_key)
        if order is None:
            self.error("missing order", first, 1)

        # find a missing entry before allocating anything by the declared
        # order: each scan stops within one step past its dict's size, and
        # complete tables are no larger than the input
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
            self.doc.rings[name] = HyperRing(add_table, neg_table, value_table,
                                             unit=unit, name=name)
        else:
            self.doc.modules[name] = HyperModule(ring, add_table, neg_table, value_table,
                                                 unital=bool(unit), name=name)
        return i

    def put(self, store, key, value, lineno, col, label):
        if key in store:
            self.error(f"duplicate entry for {label} {key}", lineno, col)
        store[key] = value

    def hom_block(self, name, source_ring, target_ring, i):
        mapping = {}
        unit_preserving = False
        flag_line = None
        keys = {"map", "unit_preserving"}
        first = i
        while True:
            i, lineno, toks = self.block_lines(i, keys)
            if toks is None:
                break
            key = toks[0].text
            if key == "map":
                self.arity(toks, 2, lineno)
                a = self.element(toks[1], source_ring.order, lineno)
                v = self.element(toks[2], target_ring.order, lineno)
                self.put(mapping, a, v, lineno, toks[0].col, "map")
            else:
                self.arity(toks, 0, lineno)
                if unit_preserving:
                    self.error("duplicate entry for unit_preserving", lineno, toks[0].col)
                unit_preserving = True
                flag_line = lineno
        for a in range(source_ring.order):
            if a not in mapping:
                self.error(f"missing map entry for {a}", first, 1)
        if unit_preserving and (source_ring.unit is None or target_ring.unit is None):
            self.error("unit preservation needs units on both sides", flag_line, 1)
        self.doc.homs[name] = RingHom(source_ring, target_ring,
                                      tuple(mapping[a] for a in range(source_ring.order)),
                                      name=name, unit_preserving=unit_preserving)
        return i


def parse_text(text: str, source: str = "<string>") -> Document:
    return _Parser(text, source).parse()


def parse_file(path) -> Document:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return parse_text(text, source=str(path))


def _set_text(values) -> str:
    return "{" + ",".join(str(v) for v in sorted(values)) + "}"


def _table_text(header, keys, unit_line, add_masks, neg_table, table) -> str:
    # the lines a table block parses back from, in the order it reads them
    add_key, neg_key, table_key, _ = keys
    n = len(neg_table)
    for a in range(n):
        if add_masks[a][0] != 1 << a or add_masks[0][a] != 1 << a:
            raise ValueError("the format fixes 0 as the additive identity")
    if neg_table[0] != 0:
        raise ValueError("the format fixes 0 as the additive identity")
    lines = [header, f"  order {n}"]
    if unit_line:
        lines.append(unit_line)
    lines.append("  symmetric")
    for a in range(1, n):
        for b in range(a, n):
            lines.append(f"  {add_key} {a} {b} {_set_text(bits(add_masks[a][b]))}")
    for a in range(1, n):
        lines.append(f"  {neg_key} {a} {neg_table[a]}")
    for a, row in enumerate(table):
        for b, v in enumerate(row):
            if (a and b) or v:
                lines.append(f"  {table_key} {a} {b} {v}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def emit_ring(ring: HyperRing, name: str | None = None) -> str:
    """Canonical text for a ring; parsing it back rebuilds the same
    tables under the same name."""
    label = name or ring.name
    if not label:
        raise ValueError("the ring needs a name to be written down")
    unit_line = None if ring.unit is None else f"  unit {ring.unit}"
    return _table_text(f"ring {label}", RING_KEYS, unit_line,
                       ring.add_masks, ring.neg_table, ring.mul_table)


def emit_module(module: HyperModule, name: str | None = None,
                ring_name: str | None = None) -> str:
    label = name or module.name
    rlabel = ring_name or module.ring.name
    if not label or not rlabel:
        raise ValueError("module and ring both need names to be written down")
    return _table_text(f"module {label} over {rlabel}", MODULE_KEYS,
                       "  unital" if module.unital else None,
                       module.add_masks, module.neg_table, module.act_table)


def emit_hom(hom: RingHom, name: str | None = None,
             source_name: str | None = None, target_name: str | None = None) -> str:
    label = name or hom.name
    s = source_name or hom.source.name
    t = target_name or hom.target.name
    if not label or not s or not t:
        raise ValueError("hom and both rings need names to be written down")
    lines = [f"hom {label} : {s} -> {t}"]
    if hom.unit_preserving:
        lines.append("  unit_preserving")
    for a, v in enumerate(hom.mapping):
        lines.append(f"  map {a} {v}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def emit_document(doc: Document) -> str:
    pieces = []
    for kind, name in doc.order:
        if kind == "ring":
            pieces.append(emit_ring(doc.rings[name], name))
        elif kind == "module":
            pieces.append(emit_module(doc.modules[name], name))
        else:
            pieces.append(emit_hom(doc.homs[name], name))
    return "\n".join(pieces)
