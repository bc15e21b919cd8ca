"""Threshold access trees: policy grammar, satisfaction, level partition.

Grammar:

    expr   := ATTR | '(' inner ')'
    inner  := expr ('AND' expr)+
            | expr ('OR' expr)+
            | INT 'of' '(' expr (',' expr)* ')'
            | expr                          # plain grouping
    ATTR   := [A-Za-z0-9_:-]+  (not one of the keywords AND, OR, of)

AND is an n-of-n gate, OR is 1-of-n, and "k of (...)" is an explicit
threshold gate.  A policy whose root is a bare attribute is wrapped in a
1-of-1 gate; the wrapper is depth-transparent, so that degenerate tree
has a single level holding both the gate and its leaf.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .algebra import ORDER, Scalar
from .errors import PolicySyntaxError

_ATTR_RE = re.compile(r"[A-Za-z0-9_:-]+")
_KEYWORDS = frozenset({"AND", "OR", "of"})


@dataclass(frozen=True)
class AccessNode:
    """One node of the tree: a leaf (attribute) or a threshold gate."""

    node_id: int
    index: int                       # 1-based position among siblings; root is 1
    level: int                       # root level is 1
    attribute: Optional[str] = None
    threshold: Optional[int] = None
    children: Tuple["AccessNode", ...] = ()

    @property
    def is_leaf(self) -> bool:
        return self.attribute is not None

    def __post_init__(self):
        if self.is_leaf:
            if self.threshold is not None or self.children:
                raise ValueError("leaf nodes carry no threshold or children")
            if not self.attribute:
                raise ValueError("leaf attribute must be a non-empty string")
        else:
            n = len(self.children)
            if self.threshold is None or not 1 <= self.threshold <= n:
                raise ValueError(f"gate threshold {self.threshold} out of range 1..{n}")
            if [c.index for c in self.children] != list(range(1, n + 1)):
                raise ValueError("child indices must be consecutive from 1")


class AccessTree:
    """Immutable policy tree with by-id lookups and level bookkeeping."""

    def __init__(self, root: AccessNode, wrapped: bool = False):
        self.root = root
        self.wrapped = wrapped
        self._nodes: Dict[int, AccessNode] = {}
        self._parent: Dict[int, int] = {}
        for node in _walk(root):
            if node.node_id in self._nodes:
                raise ValueError(f"duplicate node id {node.node_id}")
            self._nodes[node.node_id] = node
            for child in node.children:
                self._parent[child.node_id] = node.node_id
        self.depth = max(n.level for n in self._nodes.values())

    def nodes(self) -> Iterator[AccessNode]:
        return iter(self._nodes.values())

    def node(self, node_id: int) -> AccessNode:
        return self._nodes[node_id]

    def parent_id(self, node_id: int) -> Optional[int]:
        return self._parent.get(node_id)

    def leaf_attributes(self) -> Set[str]:
        return {n.attribute for n in self._nodes.values() if n.is_leaf}

    def __len__(self) -> int:
        return len(self._nodes)


def _walk(node: AccessNode) -> Iterator[AccessNode]:
    yield node
    for child in node.children:
        yield from _walk(child)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

@dataclass
class _Token:
    kind: str       # 'attr' | 'int' | 'lparen' | 'rparen' | 'comma' | 'kw'
    text: str
    pos: int


def _tokenize(text: str) -> List[_Token]:
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c == "(":
            tokens.append(_Token("lparen", c, i))
            i += 1
        elif c == ")":
            tokens.append(_Token("rparen", c, i))
            i += 1
        elif c == ",":
            tokens.append(_Token("comma", c, i))
            i += 1
        else:
            m = _ATTR_RE.match(text, i)
            if not m:
                raise PolicySyntaxError(f"unexpected character {c!r}", i)
            word = m.group(0)
            if word in _KEYWORDS:
                tokens.append(_Token("kw", word, i))
            elif word.isdigit():
                tokens.append(_Token("int", word, i))
            else:
                tokens.append(_Token("attr", word, i))
            i = m.end()
    return tokens


class _Parser:
    """Recursive descent over the token list; builds an untyped shape first."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> Optional[_Token]:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self, kind: str) -> _Token:
        tok = self.peek()
        if tok is None:
            raise PolicySyntaxError(f"expected {kind}, found end of input", len(self.text))
        if tok.kind != kind:
            raise PolicySyntaxError(f"expected {kind}, found {tok.text!r}", tok.pos)
        self.i += 1
        return tok

    def parse(self):
        shape = self.expr()
        tok = self.peek()
        if tok is not None:
            raise PolicySyntaxError(f"trailing input {tok.text!r}", tok.pos)
        return shape

    def expr(self):
        tok = self.peek()
        if tok is None:
            raise PolicySyntaxError("expected expression, found end of input", len(self.text))
        if tok.kind == "attr":
            self.i += 1
            return ("leaf", tok.text)
        if tok.kind == "lparen":
            self.i += 1
            shape = self.inner(tok.pos)
            self.take("rparen")
            return shape
        raise PolicySyntaxError(f"expected attribute or '(', found {tok.text!r}", tok.pos)

    def inner(self, open_pos: int):
        tok = self.peek()
        if tok is not None and tok.kind == "int":
            return self.threshold_gate()
        first = self.expr()
        tok = self.peek()
        if tok is None or tok.kind == "rparen":
            return first                      # plain grouping
        if tok.kind != "kw" or tok.text not in ("AND", "OR"):
            raise PolicySyntaxError(f"expected AND, OR or ')', found {tok.text!r}", tok.pos)
        op = tok.text
        children = [first]
        while True:
            nxt = self.peek()
            if nxt is None or nxt.kind == "rparen":
                break
            if nxt.kind != "kw" or nxt.text != op:
                raise PolicySyntaxError(
                    f"cannot mix gate kinds, expected {op!r}, found {nxt.text!r}", nxt.pos
                )
            self.i += 1
            children.append(self.expr())
        k = len(children) if op == "AND" else 1
        return ("gate", k, children)

    def threshold_gate(self):
        tok = self.take("int")
        k = int(tok.text)
        kw = self.take("kw")
        if kw.text != "of":
            raise PolicySyntaxError(f"expected 'of', found {kw.text!r}", kw.pos)
        self.take("lparen")
        children = [self.expr()]
        while self.peek() is not None and self.peek().kind == "comma":
            self.i += 1
            children.append(self.expr())
        self.take("rparen")
        if not 1 <= k <= len(children):
            raise PolicySyntaxError(
                f"threshold {k} out of range 1..{len(children)}", tok.pos
            )
        return ("gate", k, children)


def parse_policy(text: str) -> AccessTree:
    """Parse policy text into an access tree.

    A bare-attribute policy is wrapped in a synthetic 1-of-1 root gate
    that shares the leaf's level, keeping the root a gate while leaving
    the tree depth at 1.
    """
    shape = _Parser(text).parse()
    counter = [0]

    def build(s, index: int, level: int) -> AccessNode:
        counter[0] += 1
        nid = counter[0]
        if s[0] == "leaf":
            return AccessNode(node_id=nid, index=index, level=level, attribute=s[1])
        _, k, kids = s
        children = tuple(
            build(kid, i + 1, level + 1) for i, kid in enumerate(kids)
        )
        return AccessNode(node_id=nid, index=index, level=level, threshold=k, children=children)

    if shape[0] == "leaf":
        # depth-transparent wrapper: gate and leaf both sit on level 1
        leaf = AccessNode(node_id=2, index=1, level=1, attribute=shape[1])
        root = AccessNode(node_id=1, index=1, level=1, threshold=1, children=(leaf,))
        return AccessTree(root, wrapped=True)
    return AccessTree(build(shape, 1, 1))


def format_policy(tree: AccessTree) -> str:
    """Canonical text for a tree; parse(format(t)) reproduces t."""

    def fmt(node: AccessNode) -> str:
        if node.is_leaf:
            return node.attribute
        kids = [fmt(c) for c in node.children]
        n = len(kids)
        if node.threshold == n and n > 1:
            return "(" + " AND ".join(kids) + ")"
        if node.threshold == 1 and n > 1:
            return "(" + " OR ".join(kids) + ")"
        return f"({node.threshold} of (" + ", ".join(kids) + "))"

    if tree.wrapped:
        return tree.root.children[0].attribute
    return fmt(tree.root)


# ---------------------------------------------------------------------------
# satisfaction
# ---------------------------------------------------------------------------

def satisfies(tree: AccessTree, attrs: Iterable[str]) -> bool:
    """Recursive threshold evaluation at the root."""
    have = set(attrs)

    def sat(node: AccessNode) -> bool:
        if node.is_leaf:
            return node.attribute in have
        return sum(1 for c in node.children if sat(c)) >= node.threshold

    return sat(tree.root)


# ---------------------------------------------------------------------------
# level partition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NodeDescriptor:
    """Public, serializable description of one node inside a level slice."""

    node_id: int
    parent_id: int                  # 0 for the root
    index: int
    attribute: Optional[str]        # None for gates
    threshold: Optional[int]        # None for leaves

    @property
    def is_leaf(self) -> bool:
        return self.attribute is not None


@dataclass(frozen=True)
class LevelSlice:
    """All nodes of one tree level plus their public topology."""

    interior_nodes: Tuple[AccessNode, ...]
    leaf_nodes: Tuple[AccessNode, ...]
    descriptor: Tuple[NodeDescriptor, ...]


def partition_levels(tree: AccessTree) -> Tuple[LevelSlice, ...]:
    """One slice per level, root level first; each slice's descriptor is
    self-contained."""
    by_level: Dict[int, List[AccessNode]] = {}
    for node in tree.nodes():
        by_level.setdefault(node.level, []).append(node)

    slices = []
    for level in range(1, tree.depth + 1):
        nodes = sorted(by_level.get(level, []), key=lambda n: n.node_id)
        gates = tuple(n for n in nodes if not n.is_leaf)
        leaves = tuple(n for n in nodes if n.is_leaf)
        desc = tuple(
            NodeDescriptor(
                node_id=n.node_id,
                parent_id=tree.parent_id(n.node_id) or 0,
                index=n.index,
                attribute=n.attribute,
                threshold=n.threshold,
            )
            for n in nodes
        )
        slices.append(LevelSlice(gates, leaves, desc))
    return tuple(slices)


# ---------------------------------------------------------------------------
# Lagrange coefficients over the scalar field
# ---------------------------------------------------------------------------

def lagrange_coeff(i: int, index_set: Iterable[int], x: int) -> Scalar:
    """Lagrange basis coefficient for index i over `index_set`, at point x."""
    s = set(index_set)
    if i not in s:
        raise ValueError(f"index {i} not in interpolation set {sorted(s)}")
    num, den = 1, 1
    for j in s:
        if j == i:
            continue
        num = num * (x - j) % ORDER
        den = den * (i - j) % ORDER
    return Scalar(num * pow(den, -1, ORDER) % ORDER)
