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
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from .errors import PolicySyntaxError

# punctuation, a word (keyword, integer or attribute), or any other
# non-space character, which is an error
_WORD = r"[A-Za-z0-9_:-]+"
_TOKEN_RE = re.compile(rf"([(),])|({_WORD})|(\S)")
_WORD_RE = re.compile(_WORD)
_KEYWORDS = frozenset({"AND", "OR", "of"})
# deepest parenthesis nesting a policy may use: the parser recurses once per
# level, far below Python's recursion limit
MAX_NESTING = 128

# a descriptor's field widths on the wire: 32-bit node and parent ids,
# 16-bit sibling index, threshold and attribute length
MAX_NODE_ID, MAX_FIELD = 2 ** 32 - 1, 2 ** 16 - 1


@dataclass(frozen=True)
class NodeDescriptor:
    """One node of the tree, a leaf (attribute) or a threshold gate, as the
    public, serializable record a ciphertext block carries."""

    node_id: int                    # a name; the parser numbers in preorder, root 1
    parent_id: int                  # 0 for the root
    index: int                      # 1-based position among siblings; root is 1
    attribute: Optional[str]        # None for gates
    threshold: Optional[int]        # None for leaves

    @property
    def is_leaf(self) -> bool:
        return self.attribute is not None


def check_attributes(attributes: Iterable[str]) -> None:
    """A non-empty attribute set, each attribute one the grammar's ATTR can
    write, so one a policy can name: a word of the tokenizer that is no
    keyword and no integer, within the wire's 16-bit length field."""
    if not attributes:
        raise ValueError("attribute set must be non-empty")
    size = max(len(attribute.encode("utf-8")) for attribute in attributes)
    if size > MAX_FIELD:
        raise ValueError(f"attribute of {size} bytes is over {MAX_FIELD}")
    for attribute in attributes:
        if (not _WORD_RE.fullmatch(attribute) or attribute in _KEYWORDS
                or attribute.isdigit()):
            raise ValueError(f"attribute {attribute!r} is no name a policy can use: "
                             "a word of A-Z, a-z, 0-9, '_', ':' and '-', "
                             "not AND, OR, of or a number")


def tree_fault(levels: Mapping[int, Sequence[NodeDescriptor]]) -> Optional[Tuple[int, str]]:
    """The first fault of levels keyed by 1-based position, some possibly
    missing, as (position, reason); None if there is none.  Each held level
    is walked once, in stored order: it holds a node, each node fits the
    wire (index 0 is no sibling's: q(0) is the gate's own secret), no node
    id and no (parent id, sibling index) repeats, and only level 1's first
    node, the root, has parent id 0.  The partition rule also needs the
    level above, so at level 1 or after a held level a node's parent id
    names a gate of the level above or one listed before it in its own."""
    seen: Set[int] = set()
    siblings: Set[Tuple[int, int]] = set()
    gates: Set[int] = set()
    for j in sorted(levels):
        # the parents the level above offers: 0 above level 1, None unheld
        above = {0} if j == 1 else gates if j - 1 in levels else None
        gates = set()
        try:
            if not levels[j]:
                raise ValueError("a level holds no node")
            for k, node in enumerate(levels[j]):
                for name, value, low, high in (
                        ("id", node.node_id, 1, MAX_NODE_ID),
                        ("parent id", node.parent_id, 0, MAX_NODE_ID),
                        ("sibling index", node.index, 1, MAX_FIELD),
                        ("threshold", 1 if node.is_leaf else node.threshold, 1, MAX_FIELD)):
                    if not (isinstance(value, int) and low <= value <= high):
                        raise ValueError(f"node {node.node_id} has {name} {value!r} "
                                         f"outside {low}..{high}")
                if node.is_leaf:
                    check_attributes([node.attribute])
                if node.node_id in seen:
                    raise ValueError(f"node id {node.node_id} appears more than once")
                seen.add(node.node_id)
                if (node.parent_id, node.index) in siblings:
                    raise ValueError(f"gate {node.parent_id} has two children of one index")
                siblings.add((node.parent_id, node.index))
                if node.parent_id == 0 and (j, k) != (1, 0) or above is not None and (
                        node.parent_id not in above and node.parent_id not in gates):
                    raise ValueError(f"node {node.node_id} has no parent gate in the level "
                                     "above or earlier in its own")
                if not node.is_leaf:
                    gates.add(node.node_id)
        except ValueError as exc:
            return j, str(exc)
    return None


class AccessTree:
    """Immutable policy tree stored as its level partition: one tuple of
    descriptors per level, root level first, keeping the rule of
    `tree_fault`.  Each gate has at least `threshold` children, so some key
    opens the tree."""

    def __init__(self, levels: Iterable[Iterable[NodeDescriptor]]):
        self.levels: Tuple[Tuple[NodeDescriptor, ...], ...] = tuple(map(tuple, levels))
        fault = tree_fault(dict(enumerate(self.levels, 1)))
        if fault:
            raise ValueError("level %d: %s" % fault)
        self.depth = len(self.levels)
        self.root = self.levels[0][0]
        kids: Dict[int, List[NodeDescriptor]] = {}
        for node in itertools.chain.from_iterable(self.levels):
            kids.setdefault(node.parent_id, []).append(node)
        self._children = {parent: tuple(nodes) for parent, nodes in kids.items()}
        for gate in (n for level in self.levels for n in level if not n.is_leaf):
            if len(self.children(gate.node_id)) < gate.threshold:
                raise ValueError(f"gate {gate.node_id} has fewer children than its "
                                 f"threshold {gate.threshold}")

    @property
    def wrapped(self) -> bool:
        """True for a bare-attribute policy: its 1-of-1 wrapper gate shares
        level 1 with the leaf, and it is the only one-level tree of two nodes."""
        return self.depth == 1 and len(self) == 2

    def children(self, node_id: int) -> Tuple[NodeDescriptor, ...]:
        """A gate's children in index order; () for a leaf."""
        return self._children.get(node_id, ())

    def __len__(self) -> int:
        return sum(map(len, self.levels))


def partition_levels(tree: AccessTree) -> Tuple[Tuple[NodeDescriptor, ...], ...]:
    """The tree's level partition, one block's worth of nodes per level:
    root level first, each level in the stored order `tree_fault` walks."""
    return tree.levels


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    """(kind, text, position) tuples closed by one end token at len(text).
    A kind is the punctuation itself, 'kw', 'int', 'attr' or 'end of input'."""
    tokens, depth = [], 0
    for m in _TOKEN_RE.finditer(text):
        punct, word, other = m.groups()
        if other:
            raise PolicySyntaxError(f"unexpected character {other!r}", m.start())
        depth += {"(": 1, ")": -1}.get(punct, 0)
        if depth > MAX_NESTING:
            raise PolicySyntaxError(f"parentheses nested deeper than {MAX_NESTING}", m.start())
        kind = punct or ("kw" if word in _KEYWORDS else "int" if word.isdigit() else "attr")
        tokens.append((kind, m.group(), m.start()))
    tokens.append(("end of input", "", len(text)))
    return tokens


def _expected(what: str, token: Tuple[str, str, int]) -> PolicySyntaxError:
    kind, text, pos = token
    return PolicySyntaxError(f"expected {what}, found {repr(text) if text else kind}", pos)


class _Parser:
    """Recursive descent over the token list; builds an untyped shape first."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def take(self, kind: str, text: Optional[str] = None) -> Tuple[str, str, int]:
        tok = self.tokens[self.i]
        if tok[0] != kind or text not in (None, tok[1]):
            raise _expected(repr(text or kind), tok)
        self.i += 1
        return tok

    def parse(self):
        shape = self.expr()
        self.take("end of input")
        return shape

    def expr(self):
        tok = self.tokens[self.i]
        self.i += 1
        if tok[0] == "attr":
            return ("leaf", tok[1])
        if tok[0] == "(":
            shape = self.inner()
            self.take(")")
            return shape
        raise _expected("attribute or '('", tok)

    def inner(self):
        if self.tokens[self.i][0] == "int":
            return self.threshold_gate()
        children = [self.expr()]
        tok = self.tokens[self.i]
        if tok[0] == ")":
            return children[0]                # plain grouping
        op = tok[1]
        if op not in ("AND", "OR"):
            raise _expected("AND, OR or ')'", tok)
        while self.tokens[self.i][0] != ")":
            self.take("kw", op)
            children.append(self.expr())
        return ("gate", len(children) if op == "AND" else 1, children)

    def threshold_gate(self):
        _, digits, pos = self.take("int")
        self.take("kw", "of")
        self.take("(")
        children = [self.expr()]
        while self.tokens[self.i][0] == ",":
            self.i += 1
            children.append(self.expr())
        self.take(")")
        k = int(digits)
        if not 1 <= k <= len(children):
            raise PolicySyntaxError(f"threshold {k} out of range 1..{len(children)}", pos)
        return ("gate", k, children)


def parse_policy(text: str) -> AccessTree:
    """Parse policy text into an access tree.

    A bare-attribute policy is wrapped in a synthetic 1-of-1 root gate
    that shares the leaf's level, keeping the root a gate while leaving
    the tree depth at 1.  A tree `AccessTree` refuses (an attribute or a
    gate too wide for the wire) is a `PolicySyntaxError` at position 0.
    """
    shape = _Parser(text).parse()
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

    if shape[0] == "leaf":
        # depth-transparent wrapper: gate and leaf both sit on level 1
        levels = [[NodeDescriptor(1, 0, 1, None, 1), NodeDescriptor(2, 1, 1, shape[1], None)]]
    else:
        build(shape, 0, 1, 0)
    try:
        return AccessTree(levels)
    except ValueError as exc:
        raise PolicySyntaxError(str(exc), 0) from None


def _fold(tree: AccessTree, leaf, gate):
    """The root's value, from `leaf(node)` at each leaf and `gate(node,
    child values in index order)` at each gate.  The nodes are taken in
    reversed stored order, which by the partition rule of `tree_fault`
    reaches every child before its parent, so a tree of any depth folds
    without recursion."""
    values = {}
    for level in reversed(tree.levels):
        for node in reversed(level):
            values[node.node_id] = (leaf(node) if node.is_leaf else gate(
                node, [values.pop(c.node_id) for c in tree.children(node.node_id)]))
    return values[tree.root.node_id]


def format_policy(tree: AccessTree) -> str:
    """Canonical text for a tree.  parse(format(t)) reproduces a tree that
    `parse_policy` built; any other partition gives the same policy."""

    def fmt(node: NodeDescriptor, kids: List[str]) -> str:
        n = len(kids)
        if node.threshold == n and n > 1:
            return "(" + " AND ".join(kids) + ")"
        if node.threshold == 1 and n > 1:
            return "(" + " OR ".join(kids) + ")"
        return f"({node.threshold} of (" + ", ".join(kids) + "))"

    if tree.wrapped:
        return tree.children(tree.root.node_id)[0].attribute
    return _fold(tree, lambda node: node.attribute, fmt)


# ---------------------------------------------------------------------------
# satisfaction
# ---------------------------------------------------------------------------

def satisfies(tree: AccessTree, attrs: Iterable[str]) -> bool:
    """Threshold evaluation at the root."""
    have = set(attrs)
    return _fold(tree, lambda node: node.attribute in have,
                 lambda node, kids: sum(kids) >= node.threshold)
