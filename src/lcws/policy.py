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

import itertools
import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .algebra import ORDER, Scalar
from .errors import PolicySyntaxError

_ATTR_RE = re.compile(r"[A-Za-z0-9_:-]+")
_KEYWORDS = frozenset({"AND", "OR", "of"})


@dataclass(frozen=True)
class NodeDescriptor:
    """One node of the tree, a leaf (attribute) or a threshold gate, as the
    public, serializable record a ciphertext block carries."""

    node_id: int                    # preorder, root is 1
    parent_id: int                  # 0 for the root
    index: int                      # 1-based position among siblings; root is 1
    attribute: Optional[str]        # None for gates
    threshold: Optional[int]        # None for leaves

    @property
    def is_leaf(self) -> bool:
        return self.attribute is not None


class AccessTree:
    """Immutable policy tree stored as its level partition: one tuple of
    descriptors per level, root level first, each in node-id order."""

    def __init__(self, levels: Iterable[Iterable[NodeDescriptor]]):
        self.levels: Tuple[Tuple[NodeDescriptor, ...], ...] = tuple(map(tuple, levels))
        self.depth = len(self.levels)
        self.root = self.levels[0][0]
        kids: Dict[int, List[NodeDescriptor]] = {}
        for level in self.levels:
            for node in level:
                kids.setdefault(node.parent_id, []).append(node)
        self._children = {parent: tuple(nodes) for parent, nodes in kids.items()}

    @property
    def wrapped(self) -> bool:
        """True for a bare-attribute policy: its 1-of-1 wrapper gate shares
        level 1 with the leaf, and it is the only tree of depth 1."""
        return self.depth == 1

    def children(self, node_id: int) -> Tuple[NodeDescriptor, ...]:
        """A gate's children in index order; () for a leaf."""
        return self._children.get(node_id, ())

    def leaf_attributes(self) -> Set[str]:
        return {n.attribute for level in self.levels for n in level if n.is_leaf}

    def __len__(self) -> int:
        return sum(map(len, self.levels))


def partition_levels(tree: AccessTree) -> Tuple[Tuple[NodeDescriptor, ...], ...]:
    """The tree's level partition, one block's worth of nodes per level:
    root level first, each level in node-id order."""
    return tree.levels


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
    if shape[0] == "leaf":
        # depth-transparent wrapper: gate and leaf both sit on level 1
        return AccessTree([[NodeDescriptor(1, 0, 1, None, 1),
                            NodeDescriptor(2, 1, 1, shape[1], None)]])
    levels: List[List[NodeDescriptor]] = []
    ids = itertools.count(1)

    def build(s, parent_id: int, index: int, level: int) -> None:
        nid = next(ids)
        if level == len(levels):
            levels.append([])
        if s[0] == "leaf":
            levels[level].append(NodeDescriptor(nid, parent_id, index, s[1], None))
            return
        _, k, kids = s
        levels[level].append(NodeDescriptor(nid, parent_id, index, None, k))
        for i, kid in enumerate(kids, 1):
            build(kid, nid, i, level + 1)

    build(shape, 0, 1, 0)
    return AccessTree(levels)


def format_policy(tree: AccessTree) -> str:
    """Canonical text for a tree; parse(format(t)) reproduces t."""

    def fmt(node: NodeDescriptor) -> str:
        if node.is_leaf:
            return node.attribute
        kids = [fmt(c) for c in tree.children(node.node_id)]
        n = len(kids)
        if node.threshold == n and n > 1:
            return "(" + " AND ".join(kids) + ")"
        if node.threshold == 1 and n > 1:
            return "(" + " OR ".join(kids) + ")"
        return f"({node.threshold} of (" + ", ".join(kids) + "))"

    if tree.wrapped:
        return tree.children(tree.root.node_id)[0].attribute
    return fmt(tree.root)


# ---------------------------------------------------------------------------
# satisfaction
# ---------------------------------------------------------------------------

def satisfies(tree: AccessTree, attrs: Iterable[str]) -> bool:
    """Recursive threshold evaluation at the root."""
    have = set(attrs)

    def sat(node: NodeDescriptor) -> bool:
        if node.is_leaf:
            return node.attribute in have
        return sum(1 for c in tree.children(node.node_id) if sat(c)) >= node.threshold

    return sat(tree.root)


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
