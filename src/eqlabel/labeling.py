"""Adjacency labels compiled from protocol transcripts, plus a standalone
decoder that works from the label bytes alone.

Build: replay the protocol on every ordered vertex pair and record, per
(vertex, role, transcript prefix), the vertex's local action: announce a
bit, supply an equality operand, or stop with the output. The protocol's
one-sidedness makes this map well defined; the builder asserts it and fails
loudly otherwise. Prefixes are nodes of one trie of all transcripts, shared
by every vertex and stored as two flat lists: node 0 is the empty prefix,
child[2*node + bit] the next node, parent[node] the way back. Each run
walks the trie one event at a time, so a prefix is an int, never a tuple;
the tuple is rebuilt only to name a prefix in an error. A vertex's tree is
its action nodes plus their ancestors, marked by walking up the parents,
and is written in preorder into one int accumulator. Operand tokens are
replaced by dense ids (rank in the sorted list of their canonical
serializations, each distinct token serialized once) so equality is
preserved and entries stay narrow. The build returns the file image as a
LabelFile, the same class a reader parses.

Label record: two binary prefix trees (role A, then role B), each stored in
preorder. A node is 2 kind bits (00 bit, 01 operand, 10 output, 11 blank),
its payload (1 bit, the operand width from the header, 1 bit, nothing), and
one presence flag per child branch. Blank nodes carry structure where a
vertex has no action at a prefix but acts deeper on both branches.

Decode: a record is parsed once, on first use, into two flat preorder node
lists (kind, payload, child-0 index, child-1 index), read from one
int.from_bytes of the record. Index 0 of each list is one shared absent
node (blank, both children absent) where every missing branch leads. The
walk steps the two lists in lock step by index from their roots. A bit
node on one side (blank or absent on the other) takes its bit; two operand
nodes take [id_A == id_B]; two output nodes must agree and end the walk.
Anything else is a corrupt or foreign label pair. The bits taken so far are
one int; the prefix tuple is rebuilt from it only to name it in an error.

File layout, all little-endian:
    magic 'IMPLREP1' (8) | version (1) | N (8) | max cost (1) | op width (1,
    never 0)
    then N records, each a varint byte length plus that many bytes.
"""

from __future__ import annotations

import marshal
import math

MAGIC = b"IMPLREP1"
VERSION = 1
_HEADER_SIZE = len(MAGIC) + 1 + 8 + 1 + 1
_KIND_BIT = 0
_KIND_OP = 1
_KIND_OUT = 2
_KIND_BLANK = 3


class LabelError(ValueError):
    pass


class CostCeilingExceeded(LabelError):
    def __init__(self, cost: int, ceiling: int):
        super().__init__(f"run cost {cost} exceeds ceiling {ceiling}")
        self.cost = cost
        self.ceiling = ceiling


# ---------------------------------------------------------------------------
# canonical operand serialization (never rely on hash())


def _zigzag(x: int) -> int:
    return -2 * x - 1 if x < 0 else 2 * x


def _varint(x: int) -> bytes:
    if x < 0:
        raise ValueError("varint needs a nonnegative value")
    out = bytearray()
    while True:
        b = x & 0x7F
        x >>= 7
        if x:
            out.append(b | 0x80)
        else:
            out.append(b)
            return bytes(out)


def _read_varint(data: bytes, pos: int) -> tuple:
    x = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise LabelError("truncated varint")
        b = data[pos]
        pos += 1
        x |= (b & 0x7F) << shift
        if not b & 0x80:
            return x, pos
        shift += 7


def _check_vertex(v: int, n: int) -> None:
    if not 0 <= v < n:
        raise LabelError(f"vertex {v} out of range 0..{n - 1}")


def serialize_operand(tok) -> bytes:
    if isinstance(tok, bool):
        raise LabelError("boolean operand")
    if isinstance(tok, int):
        return b"\x01" + _varint(_zigzag(tok))
    if isinstance(tok, str):
        raw = tok.encode("utf-8")
        return b"\x02" + _varint(len(raw)) + raw
    if isinstance(tok, tuple):
        out = b"\x03" + _varint(len(tok))
        for item in tok:
            out += serialize_operand(item)
        return out
    raise LabelError(f"unsupported operand type {type(tok).__name__}")


# ---------------------------------------------------------------------------
# building


# Bit and output actions are shared constants, indexed by the bit; an operand
# action is ("op", token) until compile time replaces it by its serialization.
_BIT_ACTS = (("bit", 0), ("bit", 1))
_OUT_ACTS = (("out", 0), ("out", 1))


def build_labels(run_pair, n: int, ceiling: int = 16) -> LabelFile:
    """Replay run_pair(u, w) over all ordered pairs (diagonal included) and
    compile one label per vertex. Raises CostCeilingExceeded when any run
    has more events than the ceiling, and LabelError if the transcripts are
    not one-sided (two runs disagree on a vertex's action at a prefix)."""
    if not 1 <= ceiling <= 255:
        raise ValueError("ceiling must be in 1..255")
    # transcript trie shared by all vertices: node 0 is the empty prefix,
    # child[2 * node + bit] the node one bit deeper (0 if absent)
    child = [0, 0]
    parent = [0]
    # acts[2 * v] and acts[2 * v + 1]: node -> action of v in role A and B
    acts = [{} for _ in range(2 * n)]
    max_cost = 0

    def conflict(v, role, node, old, entry):
        bits = []
        while node:
            up = parent[node]
            bits.append(1 if child[2 * up + 1] == node else 0)
            node = up
        prefix = tuple(reversed(bits))
        return LabelError(
            f"vertex {v} role {role} acts two ways at prefix {prefix}: "
            f"{old} vs {entry}"
        )

    for u in range(n):
        acts_a = acts[2 * u]
        for w in range(n):
            acts_b = acts[2 * w + 1]
            run = run_pair(u, w)
            events = run.events
            if len(events) > ceiling:
                raise CostCeilingExceeded(len(events), ceiling)
            if len(events) > max_cost:
                max_cost = len(events)
            node = 0
            for kind, value, party, op_a, op_b in events:
                if value != 0 and value != 1:
                    raise LabelError(f"event value {value!r} is not a bit")
                if kind == "eq":
                    entry = ("op", op_a)
                    old = acts_a.setdefault(node, entry)
                    if old is not entry and old != entry:
                        raise conflict(u, "A", node, old, entry)
                    entry = ("op", op_b)
                    old = acts_b.setdefault(node, entry)
                    if old is not entry and old != entry:
                        raise conflict(w, "B", node, old, entry)
                elif kind == "bit":
                    entry = _BIT_ACTS[value]
                    sender, acts_s = (u, acts_a) if party == "A" else (w, acts_b)
                    old = acts_s.setdefault(node, entry)
                    if old is not entry and old != entry:
                        raise conflict(sender, party, node, old, entry)
                else:
                    raise LabelError(f"unknown event kind {kind!r}")
                i = 2 * node + value
                node = child[i]
                if not node:
                    node = child[i] = len(parent)
                    child += (0, 0)
                    parent.append(i >> 1)  # the node this event left
            entry = _OUT_ACTS[1 if run.output > 0 else 0]
            old = acts_a.setdefault(node, entry)
            if old is not entry and old != entry:
                raise conflict(u, "A", node, old, entry)
            old = acts_b.setdefault(node, entry)
            if old is not entry and old != entry:
                raise conflict(w, "B", node, old, entry)

    # operand ids: rank of each serialization. Each distinct token is
    # serialized once, memoised by its marshal version-2 image: that image
    # codes the exact type at every level (1, True and 1.0 differ), has no
    # back-references and is inverted by marshal.loads, so two tokens share
    # a slot only when they are equal with the same types throughout, and
    # serialize_operand then gives both the same bytes. Only a successful
    # serialization fills a slot, so a token the serializer rejects is
    # rejected when first seen. marshal refuses subclasses and non-builtin
    # types; those tokens are serialized unmemoised.
    memo = {}
    loose = set()  # serializations of the tokens marshal rejects
    for tree in acts:
        for node, entry in tree.items():
            if entry[0] == "op":
                tok = entry[1]
                try:
                    key = marshal.dumps(tok, 2)
                except ValueError:
                    tree[node] = blob = serialize_operand(tok)
                    loose.add(blob)
                    continue
                blob = memo.get(key)
                if blob is None:
                    blob = memo[key] = serialize_operand(tok)
                tree[node] = blob
    tokens = sorted(loose.union(memo.values()))
    width = max(1, (len(tokens) - 1).bit_length()) if len(tokens) > 1 else 1
    # action (None: blank) -> (node header code, its width in bits)
    code = {
        None: (_KIND_BLANK, 2),
        _BIT_ACTS[0]: (_KIND_BIT << 1, 3),
        _BIT_ACTS[1]: (_KIND_BIT << 1 | 1, 3),
        _OUT_ACTS[0]: (_KIND_OUT << 1, 3),
        _OUT_ACTS[1]: (_KIND_OUT << 1 | 1, 3),
    }
    for i, tok in enumerate(tokens):
        code[tok] = (_KIND_OP << width | i, 2 + width)

    mark = [0] * len(parent)  # mark[node] == stamp: node is in the tree
    stamp = 0
    records = []
    for v in range(n):
        acc = 0  # the record's bits so far, first bit most significant
        nbits = 0
        for tree in (acts[2 * v], acts[2 * v + 1]):
            stamp += 1
            mark[0] = stamp
            for node in tree:
                while mark[node] != stamp:
                    mark[node] = stamp
                    node = parent[node]
            # preorder: node header, presence flag of child 0 and its
            # subtree, then presence flag of child 1 (stacked as ~node) and
            # its subtree
            stack = [0]
            while stack:
                node = stack.pop()
                if node < 0:
                    kid = child[2 * ~node + 1]
                else:
                    c, wd = code[tree.get(node)]
                    acc = acc << wd | c
                    nbits += wd
                    stack.append(~node)
                    kid = child[2 * node]
                nbits += 1
                if kid and mark[kid] == stamp:
                    acc = acc << 1 | 1
                    stack.append(kid)
                else:
                    acc <<= 1
        pad = -nbits % 8
        records.append((acc << pad).to_bytes((nbits + pad) // 8, "big"))

    blob = bytearray()
    blob += MAGIC
    blob.append(VERSION)
    blob += n.to_bytes(8, "little")
    blob.append(max_cost)
    blob.append(width)
    for rec in records:
        blob += _varint(len(rec))
        blob += rec
    return LabelFile(bytes(blob))


# ---------------------------------------------------------------------------
# standalone decoding


# the node every missing branch leads to: blank, both children absent
_ABSENT = (_KIND_BLANK, 0, 0, 0)
# node kind by its 2-bit header
_KIND_OF = {format(k, "02b"): k for k in range(4)}


class LabelFile:
    """A label file image, as built or as read; decoding needs nothing but
    this. Each vertex's record is parsed on first use."""

    def __init__(self, data: bytes):
        if data[: len(MAGIC)] != MAGIC:
            raise LabelError("bad magic")
        if len(data) < _HEADER_SIZE:
            raise LabelError("truncated header")
        pos = len(MAGIC)
        if data[pos] != VERSION:
            raise LabelError(f"unsupported version {data[pos]}")
        pos += 1
        self.n = int.from_bytes(data[pos : pos + 8], "little")
        pos += 8
        self.cost = data[pos]
        pos += 1
        self.op_width = data[pos]
        pos += 1
        if not self.op_width:
            raise LabelError("operand width 0")
        self._records = []
        for _ in range(self.n):
            size, pos = _read_varint(data, pos)
            if pos + size > len(data):
                raise LabelError("truncated record")
            self._records.append(data[pos : pos + size])
            pos += size
        if pos != len(data):
            raise LabelError("trailing bytes")
        self.data = data
        self._trees: dict = {}

    def label_bits(self, v: int) -> int:
        """Size of one label in bits: record plus its length prefix."""
        _check_vertex(v, self.n)
        size = len(self._records[v])
        return 8 * (size + len(_varint(size)))

    @property
    def max_label_bits(self) -> int:
        return max((self.label_bits(v) for v in range(self.n)), default=0)

    def tree(self, v: int, role: str) -> list:
        """Nodes (kind, payload, child-0 index, child-1 index) of vertex v's
        tree in role 'A' or 'B', in preorder from index 1; index 0 is the
        absent node, where every missing branch leads."""
        key = (v, role)
        got = self._trees.get(key)
        if got is not None:
            return got
        _check_vertex(v, self.n)
        # the leading 1 byte keeps the record's leading zero bits
        bits = bin(int.from_bytes(b"\x01" + self._records[v], "big"))[3:]
        size = len(bits)
        # Reads past the end see zeros, and the tree is rejected below. Once
        # a read passes the end, every flag is 0: at most one more node is
        # read, then the child-1 flags of at most cost + 1 pending nodes.
        bits += "0" * (self.op_width + self.cost + 8)
        cost = self.cost
        wop = self.op_width
        pos = 0
        for r in ("A", "B"):
            nodes = [_ABSENT]
            pend = []  # nodes whose child-1 flag is still to read
            pdepth = []  # their depths
            depth = 0
            while True:
                # a node header, its payload, then its child-0 flag
                kind = _KIND_OF[bits[pos : pos + 2]]
                pos += 2
                if kind == _KIND_OP:
                    payload = int(bits[pos : pos + wop], 2)
                    pos += wop
                elif kind == _KIND_BLANK:
                    payload = 0
                else:
                    payload = 1 if bits[pos] == "1" else 0
                    pos += 1
                node = [kind, payload, 0, 0]
                nodes.append(node)
                flag = bits[pos]
                pos += 1
                if flag == "1":
                    if depth >= cost:
                        raise LabelError("tree deeper than the recorded cost")
                    node[2] = len(nodes)
                    pend.append(node)
                    pdepth.append(depth)
                    depth += 1
                    continue
                # child-1 flags, innermost first, until one leads to a node
                while True:
                    flag = bits[pos]
                    pos += 1
                    if flag == "1":
                        if depth >= cost:
                            raise LabelError("tree deeper than the recorded cost")
                        node[3] = len(nodes)
                        depth += 1
                        break
                    if not pend:
                        break
                    node = pend.pop()
                    depth = pdepth.pop()
                if flag != "1":
                    break
            if pos > size:
                raise LabelError("truncated record")
            self._trees[(v, r)] = nodes
        return self._trees[key]


def _prefix(path: int) -> tuple:
    """The transcript prefix held by path, its bits behind a leading 1."""
    return tuple(map(int, bin(path)[3:]))


def decode_pair(labels, u: int, w: int) -> int:
    """Adjacency answer (+1/-1) from the labels of u (role A) and w (role
    B). Accepts a LabelFile or raw file bytes."""
    f = labels if isinstance(labels, LabelFile) else LabelFile(labels)
    ta = f.tree(u, "A")
    tb = f.tree(w, "B")
    i = j = 1
    path = 1
    for _ in range(max(1, f.cost) + 1):
        ka, pa, a0, a1 = ta[i]
        kb, pb, b0, b1 = tb[j]
        if ka == _KIND_OUT or kb == _KIND_OUT:
            if ka != kb or pa != pb:
                raise LabelError(f"inconsistent leaves at {_prefix(path)}")
            return 1 if pa else -1
        if ka == _KIND_BIT:
            if kb != _KIND_BLANK:
                raise LabelError(f"bit collision at {_prefix(path)}")
            bit = pa
        elif kb == _KIND_BIT:
            if ka != _KIND_BLANK:
                raise LabelError(f"bit collision at {_prefix(path)}")
            bit = pb
        elif ka == _KIND_OP and kb == _KIND_OP:
            bit = 1 if pa == pb else 0
        else:
            raise LabelError(f"stuck at prefix {_prefix(path)}")
        i, j = (a1, b1) if bit else (a0, b0)
        path = path << 1 | bit
    raise LabelError("walk exceeded the recorded cost")


def measure(labels) -> tuple:
    """Size summary (max_bits, mean_bits, bits_per_log_n) of a LabelFile.
    The last entry divides by ceil(log2 n), floored at 1."""
    if labels.n == 0:
        return 0, 0.0, 0.0
    sizes = [labels.label_bits(v) for v in range(labels.n)]
    max_bits = max(sizes)
    mean_bits = sum(sizes) / len(sizes)
    return max_bits, mean_bits, max_bits / max(1, math.ceil(math.log2(labels.n)))


def write_labels(labels: LabelFile, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(labels.data)


def read_labels(path: str) -> LabelFile:
    with open(path, "rb") as fh:
        return LabelFile(fh.read())
