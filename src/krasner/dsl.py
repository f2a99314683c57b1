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

Each block reads its lines in one pass.  An entry line (`add`, `neg`,
`mul`, their module forms, or `map`) without a `#` is cut by
`str.split()` and read by lookup: each element is one dict lookup of the
plain decimal names below the order (the ring's order for an `act`
column, each side's for a `map`), at most `_NAMED` of them, and a closed
set whose members are all such names becomes its member mask at once.
It is stored then if its cell is new and 0 stays the additive identity.
Every other line (a comment, `order`, `symmetric`, a unit line, `end`,
a token such as `07`, `{ 1, 2}`, `{1}` as a product, `x` or `300`, a
duplicate) takes the checked route: `_tokenize`, the key checks and the
checked readers, which find the same values or raise the same diagnostic
at the same place whether or not the lookup ran.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .core import AxiomCheck, HyperRing, _MaskTable, bits, mask_of
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


# the line breaks an editor counts; str.splitlines() also breaks at
# \v \f \x1c \x1d \x1e \x85 \u2028 \u2029, which _TOKEN reads as whitespace
_LINE_BREAK = re.compile(r"\r\n|\r|\n")


def _lines(text: str) -> list:
    """The lines of text as an editor counts them; a final break starts no line."""
    lines = _LINE_BREAK.split(text)
    return lines if lines[-1] else lines[:-1]


# a comment mark, a brace set (unclosed when it runs to the end of the
# line) or a word; \s matches the characters str.isspace() accepts
_TOKEN = re.compile(r"#|\{[^}]*\}?|[^\s#{]+")


def _tokenize(raw: str, source: str, lineno: int) -> list:
    """The tokens of one line, as strings; `_columns` finds where they
    start, which only a diagnostic needs."""
    if "#" not in raw and "{" not in raw:
        # only words, which str.split() cuts at the same whitespace
        return raw.split()
    toks = _TOKEN.findall(raw)
    if "#" in toks:
        del toks[toks.index("#"):]
    # an unclosed set swallows the rest of the line, so it can only be last
    if toks and toks[-1][0] == "{" and toks[-1][-1] != "}":
        raise ParseError("unclosed '{'", source, lineno, _columns(raw)[len(toks) - 1])
    return toks


def _columns(raw: str) -> list:
    """The 1 based column of each token of a line, in `_tokenize`'s order."""
    return [m.start() + 1 for m in _TOKEN.finditer(raw)]


# the most element names a table block looks up; bounds what a block
# allocates whatever order it declares
_NAMED = 256


def _names(count: int) -> dict:
    """Element by plain decimal name, for the elements below count and
    below `_NAMED`."""
    return {str(v): v for v in range(min(count, _NAMED))}


def _on_zero(rows: int, columns: int):
    """The keys on row and column 0 of a rows x columns table, lazily."""
    yield from ((0, b) for b in range(columns))
    yield from ((a, 0) for a in range(1, rows))


class BlockedReport(NamedTuple):
    """Stands in for a verification that could not run."""

    reason: str

    @property
    def ok(self) -> bool:
        return False

    @property
    def failures(self) -> tuple:
        return (AxiomCheck("base-ring", False, (), self.reason),)


class Document(NamedTuple):
    """Parsed structures in file order."""

    rings: dict
    modules: dict
    homs: dict
    order: tuple

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
        self.lines = _lines(text)
        self.source = source
        self.rings, self.modules, self.homs = {}, {}, {}
        self.names = set()

    def error(self, message, lineno, col=1):
        raise ParseError(message, self.source, lineno, col)

    def error_at(self, message, lineno, k):
        """Raise at the k-th token of line lineno."""
        self.error(message, lineno, _columns(self.lines[lineno - 1])[k])

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
            if head == "ring":
                if len(toks) != 2:
                    self.error_at("expected 'ring NAME'", lineno, 0)
                name = toks[1]
                self.claim(name, lineno)
                i = self.table_block(name, i + 1, RING_KEYS)
                order.append(("ring", name))
            elif head == "module":
                if len(toks) != 4 or toks[2] != "over":
                    self.error_at("expected 'module NAME over RING'", lineno, 0)
                name = toks[1]
                self.claim(name, lineno)
                ring_name = toks[3]
                if ring_name not in self.rings:
                    self.error_at(f"undeclared ring {ring_name!r}", lineno, 3)
                i = self.table_block(name, i + 1, MODULE_KEYS,
                                     self.rings[ring_name])
                order.append(("module", name))
            elif head == "hom":
                if (len(toks) != 6 or toks[2] != ":" or toks[4] != "->"):
                    self.error_at("expected 'hom NAME : SOURCE -> TARGET'", lineno, 0)
                name = toks[1]
                self.claim(name, lineno)
                for k in (3, 5):
                    if toks[k] not in self.rings:
                        self.error_at(f"undeclared ring {toks[k]!r}", lineno, k)
                i = self.hom_block(name, self.rings[toks[3]],
                                   self.rings[toks[5]], i + 1)
                order.append(("hom", name))
            elif head == "end":
                self.error_at("'end' outside a block", lineno, 0)
            else:
                self.error_at(f"unknown directive {head!r}", lineno, 0)
        return Document(self.rings, self.modules, self.homs, tuple(order))

    def claim(self, name, lineno):
        # the name is the second token of its header line
        if name in self.names:
            self.error_at(f"duplicate name {name!r}", lineno, 1)
        self.names.add(name)

    def entry_tokens(self, raw, lineno, keys):
        """The tokens of entry line lineno on the checked route, its key
        checked against keys: [] for a blank line, None for 'end'."""
        toks = _tokenize(raw, self.source, lineno)
        if toks:
            if toks[0] == "end":
                if len(toks) != 1:
                    self.error_at("nothing may follow 'end'", lineno, 1)
                return None
            if toks[0] not in keys:
                self.error_at(f"unknown key {toks[0]!r}", lineno, 0)
        return toks

    def arity(self, toks, count, lineno):
        if len(toks) != count + 1:
            self.error_at(f"'{toks[0]}' takes {count} argument(s)", lineno, 0)

    def number(self, text, lineno, k):
        """text, the k-th token or a piece of it, as an int."""
        # ASCII digits only: int() would also read '+1', '0_0' and '٢'
        try:
            if text.isascii() and text.isdigit():
                return int(text)
        except ValueError:  # past int()'s digit limit
            pass
        self.error_at(f"expected an integer, got {text!r}", lineno, k)

    def element(self, toks, k, order, lineno, what="element"):
        v = self.number(toks[k], lineno, k)
        if not 0 <= v < order:
            self.error_at(f"{what} {v} out of range for order {order}", lineno, k)
        return v

    def values(self, toks, k, lineno):
        """The k-th token, a {a,b,c} set or a bare integer as a singleton."""
        text = toks[k]
        if not text.startswith("{"):
            return [self.number(text, lineno, k)]
        inner = text[1:-1].strip()
        if not inner:
            self.error_at("hypersum must be nonempty", lineno, k)
        out = []
        for piece in inner.split(","):
            piece = piece.strip()
            if not piece:
                self.error_at("empty element in set", lineno, k)
            out.append(self.number(piece, lineno, k))
        return out

    # the checked readers of the entry lines the lookup missed, token by
    # token in line order, so their first error is the one to report

    def add_entry(self, toks, order, lineno):
        """(a, b, member mask) of an add line."""
        self.arity(toks, 3, lineno)
        a = self.element(toks, 1, order, lineno)
        b = self.element(toks, 2, order, lineno)
        vals = self.values(toks, 3, lineno)
        for v in vals:
            if not 0 <= v < order:
                self.error_at(f"element {v} out of range for order {order}", lineno, 3)
        return a, b, mask_of(vals)

    def map_entry(self, toks, source_order, target_order, lineno):
        """(a, f(a)) of a map line, or (a, -a) of a neg line, whose two
        orders are equal."""
        self.arity(toks, 2, lineno)
        return (self.element(toks, 1, source_order, lineno),
                self.element(toks, 2, target_order, lineno))

    def table_entry(self, toks, order, ring, lineno):
        """(a, b, value) of a mul line (ring None) or an act line."""
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
            self.error_at(f"element {v} out of range for order {order}", lineno, 3)
        return a, b, v

    def table_block(self, name, i, keys, ring=None):
        """A ring block (ring None) or a module block over ring: `order`,
        `symmetric`, then the hyperaddition, negation, single-valued table
        and unit line named by keys (RING_KEYS or MODULE_KEYS).  A ring's
        table runs over its own elements and its unit line names the unit;
        a module's runs over the ring's and `unital` is a flag.  An entry
        line is read by lookup, or by its checked reader on a miss."""
        add_key, neg_key, table_key, unit_key = keys
        block_keys = ("order", "symmetric") + keys
        order = None
        unit = None
        symmetric = False
        add = {}
        neg = {}
        table = {}
        # element by name; empty until `order`, so every lookup misses
        names = column_names = {}
        first = i
        for lineno, raw in enumerate(self.lines[i:], i + 1):
            if "#" not in raw:
                # The lookup reads split()'s tokens, which are _TOKEN's
                # unless a brace set holds whitespace ('{0, 2}'), touches
                # other text ('x{1}', '{1}x', '{1}{2}') or is unclosed
                # ('{2,'); then the count changes, a piece is no plain
                # name or a set token does not end in '}', so a lookup
                # misses.  A line it reads must also be a new cell, with
                # 0 as the additive identity, or the checked route below
                # reads it again to report what is wrong.
                toks = raw.split()
                n = len(toks)
                try:
                    if n == 4:
                        key, x, y, z = toks
                        if key == add_key:
                            a, b = names[x], names[y]
                            if z[0] == "{" and z[-1] == "}":
                                m = 0
                                for piece in z[1:-1].split(","):
                                    m |= 1 << names[piece]
                            else:  # a bare element, its singleton
                                m = 1 << names[z]
                            if (((a and b) or m == 1 << (a or b)) and (a, b) not in add
                                    and not (symmetric and (b, a) in add)):
                                add[a, b] = m
                                if symmetric:
                                    add[b, a] = m
                                continue
                        elif key == table_key:
                            a, b, v = names[x], column_names[y], names[z]
                            if (a, b) not in table:
                                table[a, b] = v
                                continue
                    elif n == 3 and toks[0] == neg_key:
                        a, v = names[toks[1]], names[toks[2]]
                        if (a or not v) and a not in neg:
                            neg[a] = v
                            continue
                except KeyError:
                    pass
            toks = self.entry_tokens(raw, lineno, block_keys)
            if toks is None:
                break
            if not toks:
                continue
            key = toks[0]
            if key == "order":
                self.arity(toks, 1, lineno)
                if order is not None:
                    self.error_at("duplicate entry for order", lineno, 0)
                order = self.number(toks[1], lineno, 1)
                if order < 1:
                    self.error_at("order must be positive", lineno, 1)
                names = _names(order)
                column_names = names if ring is None else _names(ring.order)
                continue
            if order is None:
                self.error_at("'order' must come first in the block", lineno, 0)
            if key == add_key:
                a, b, m = self.add_entry(toks, order, lineno)
                if (a == 0 or b == 0) and m != 1 << (b if a == 0 else a):
                    self.error_at("element 0 must be the additive identity", lineno, 3)
                self.put(add, (a, b), m, lineno, add_key)
                if symmetric and a != b:
                    self.put(add, (b, a), m, lineno, add_key)
            elif key == table_key:
                a, b, v = self.table_entry(toks, order, ring, lineno)
                self.put(table, (a, b), v, lineno, table_key)
            elif key == neg_key:
                a, v = self.map_entry(toks, order, order, lineno)
                if a == 0 and v != 0:
                    self.error_at("element 0 must be the additive identity", lineno, 2)
                self.put(neg, a, v, lineno, neg_key)
            elif key == unit_key:
                self.arity(toks, 1 if ring is None else 0, lineno)
                if unit is not None:
                    self.error_at(f"duplicate entry for {key}", lineno, 0)
                unit = True if ring is not None else self.element(toks, 1, order, lineno)
            else:
                self.arity(toks, 0, lineno)
                if symmetric:
                    self.error_at("duplicate entry for symmetric", lineno, 0)
                symmetric = True
        else:
            self.error("block never closed with 'end'", len(self.lines), 1)
        if order is None:
            self.error("missing order", first, 1)

        # find a missing entry before allocating anything by the declared
        # order.  A store holds each key once and none out of range, so it
        # lacks one exactly when it holds fewer than the cells off row and
        # column 0 plus those it holds on them; row and column 0 are probed
        # only once it is that large.  Only a short store is scanned, and
        # the scan stops within one step past its size: complete tables
        # are no larger than the input
        columns = order if ring is None else ring.order
        for label, store, cells, on_zero, keys in (
                (add_key, add, (order - 1) ** 2, _on_zero(order, order),
                 ((a, b) for a in range(1, order) for b in range(1, order))),
                (neg_key, neg, order - 1, (0,), range(1, order)),
                (table_key, table, (order - 1) * (columns - 1), _on_zero(order, columns),
                 ((a, b) for a in range(1, order) for b in range(1, columns)))):
            if len(store) < cells or len(store) - sum(k in store for k in on_zero) < cells:
                missing = next(k for k in keys if k not in store)
                self.error(f"missing {label} entry for {missing}", first, 1)
        add_table = [[0] * order for _ in range(order)]
        for a in range(order):
            add_table[a][0] = add_table[0][a] = 1 << a
        for (a, b), m in add.items():
            add_table[a][b] = m
        neg_table = [0] * order
        for a in range(1, order):
            neg_table[a] = neg[a]
        value_table = [[0] * columns for _ in range(order)]
        for (a, b), v in table.items():
            value_table[a][b] = v
        if ring is None:
            self.rings[name] = HyperRing(_MaskTable(add_table), neg_table, value_table,
                                             unit=unit, name=name)
        else:
            self.modules[name] = HyperModule(ring, _MaskTable(add_table), neg_table,
                                                 value_table, unital=bool(unit), name=name)
        return lineno

    def put(self, store, key, value, lineno, label):
        # an entry's line starts with its key
        if key in store:
            self.error_at(f"duplicate entry for {label} {key}", lineno, 0)
        store[key] = value

    def hom_block(self, name, source_ring, target_ring, i):
        """A hom block: a `map` line per source element, read by lookup
        as a table block's entries are, and an optional flag."""
        mapping = {}
        unit_preserving = False
        flag_line = None
        source_names, target_names = _names(source_ring.order), _names(target_ring.order)
        first = i
        for lineno, raw in enumerate(self.lines[i:], i + 1):
            if "#" not in raw:
                # read as table_block reads its entry lines
                toks = raw.split()
                if len(toks) == 3 and toks[0] == "map":
                    a, v = source_names.get(toks[1]), target_names.get(toks[2])
                    if a is not None and v is not None and a not in mapping:
                        mapping[a] = v
                        continue
            toks = self.entry_tokens(raw, lineno, ("map", "unit_preserving"))
            if toks is None:
                break
            if not toks:
                continue
            if toks[0] == "map":
                a, v = self.map_entry(toks, source_ring.order, target_ring.order, lineno)
                self.put(mapping, a, v, lineno, "map")
            else:
                self.arity(toks, 0, lineno)
                if unit_preserving:
                    self.error_at("duplicate entry for unit_preserving", lineno, 0)
                unit_preserving = True
                flag_line = lineno
        else:
            self.error("block never closed with 'end'", len(self.lines), 1)
        for a in range(source_ring.order):
            if a not in mapping:
                self.error(f"missing map entry for {a}", first, 1)
        if unit_preserving and (source_ring.unit is None or target_ring.unit is None):
            self.error("unit preservation needs units on both sides", flag_line, 1)
        self.homs[name] = RingHom(source_ring, target_ring,
                                      tuple(mapping[a] for a in range(source_ring.order)),
                                      name=name, unit_preserving=unit_preserving)
        return lineno


def parse_text(text: str, source: str = "<string>") -> Document:
    return _Parser(text, source).parse()


def parse_file(path) -> Document:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        # the line and column the parser would give the first bad byte;
        # the "x" stands in for it, so a break just before it counts
        lines = _lines(data[:e.start].decode("utf-8") + "x")
        raise ParseError(f"invalid UTF-8: byte 0x{data[e.start]:02x} ({e.reason})",
                         str(path), len(lines), len(lines[-1])) from None
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
