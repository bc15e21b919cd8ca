import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from lcws.algebra import ORDER, Scalar
from lcws.bench import synthetic_policy
from lcws.errors import PolicySyntaxError
from lcws.policy import (
    MAX_NESTING,
    AccessTree,
    NodeDescriptor,
    check_attributes,
    format_policy,
    parse_policy,
    partition_levels,
    satisfies,
)
from lcws.scheme import lagrange_coeff

from helpers import UNNAMEABLE_ATTRIBUTES, leaf_attributes, random_policy


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_single_attribute_wraps_to_depth_one():
    tree = parse_policy("a")
    assert tree.depth == 1
    assert tree.wrapped
    assert not tree.root.is_leaf and tree.root.threshold == 1
    (leaf,) = tree.children(tree.root.node_id)
    assert leaf.attribute == "a" and tree.levels == ((tree.root, leaf),)


def test_parse_parenthesized_attribute_is_grouping():
    tree = parse_policy("(a)")
    assert tree.wrapped and tree.depth == 1


def test_parse_and_gate():
    tree = parse_policy("(a AND b)")
    assert tree.depth == 2
    assert tree.root.threshold == 2
    children = tree.children(tree.root.node_id)
    assert [c.attribute for c in children] == ["a", "b"]
    assert tree.levels[1] == children


def test_parse_nested_threshold():
    tree = parse_policy("(2 of (a, b, (c AND d)))")
    root = tree.root
    children = tree.children(root.node_id)
    assert root.threshold == 2 and len(children) == 3
    assert children[0].attribute == "a"
    assert children[1].attribute == "b"
    gate = children[2]
    assert not gate.is_leaf and gate.threshold == 2 and gate in tree.levels[1]
    assert tree.depth == 3
    assert [c.index for c in children] == [1, 2, 3]
    assert [c.parent_id for c in children] == [root.node_id] * 3


def test_parse_or_gate_threshold_one():
    tree = parse_policy("(a OR b OR c)")
    assert tree.root.threshold == 1 and len(tree.children(tree.root.node_id)) == 3


@pytest.mark.parametrize("text,position", [
    ("", 0),
    ("   ", 3),
    ("AND", 0),
    ("12", 0),
    ("(a AND", 6),
    ("(a AND b", 8),
    ("a b", 2),
    ("a )", 2),
    ("((a))x", 5),
    ("(a OR\tb\nOR c) d", 14),
    ("(a ! b)", 3),
    ("(a AND \u00e9)", 7),
    ("(a AND b OR c)", 9),
    ("(a AND AND b)", 7),
    ("(b OR)", 5),
    ("(a, b)", 2),
    ("()", 1),
    ("(1 of ())", 7),
    ("(2 of a)", 6),
    ("(2 (a, b))", 3),
    ("(2 of (a b))", 9),
    ("(3 of (a, b))", 1),
    ("(0 of (a))", 1),
])
def test_parse_errors_carry_position(text, position):
    with pytest.raises(PolicySyntaxError) as exc:
        parse_policy(text)
    assert exc.value.position == position


def test_keywords_are_not_attributes():
    with pytest.raises(PolicySyntaxError):
        parse_policy("AND")


def test_duplicate_attributes_allowed():
    tree = parse_policy("(a AND a)")
    ids = [n.node_id for level in tree.levels for n in level]
    assert len(ids) == len(set(ids)) == 3


# ---------------------------------------------------------------------------
# satisfaction
# ---------------------------------------------------------------------------

def test_satisfies_and_gate():
    tree = parse_policy("(a AND b)")
    assert satisfies(tree, {"a", "b"})
    assert not satisfies(tree, {"a"})


def test_satisfies_threshold_against_cardinality_oracle():
    tree = parse_policy("(2 of (a, b, c))")
    assert satisfies(tree, {"b", "c"})
    for subset in itertools.chain.from_iterable(
            itertools.combinations("abc", k) for k in range(4)):
        expected = len(subset) >= 2
        assert satisfies(tree, set(subset)) == expected


def test_satisfaction_monotonicity_random_trees():
    rng = random.Random(31)
    for _ in range(60):
        tree = parse_policy(random_policy(rng, max_depth=4, max_leaves=12))
        attrs = {a for a in leaf_attributes(tree) if rng.random() < 0.5}
        grown = attrs | {"extra:1", "extra:2"}
        if satisfies(tree, attrs):
            assert satisfies(tree, grown)


# ---------------------------------------------------------------------------
# level partition
# ---------------------------------------------------------------------------

def test_partition_wrapped_tree_single_slice():
    tree = parse_policy("a")
    levels = partition_levels(tree)
    assert len(levels) == 1
    gate, leaf = levels[0]
    assert gate == tree.root and not gate.is_leaf
    assert leaf.attribute == "a" and leaf.parent_id == gate.node_id


def test_partition_hand_labeled_depths():
    tree = parse_policy("(a AND (b OR c))")
    levels = partition_levels(tree)
    assert len(levels) == 3
    s1, s2, s3 = levels
    assert s1 == (tree.root,)
    a, gate = s2
    assert a.attribute == "a" and not gate.is_leaf and gate.threshold == 1
    assert [n.attribute for n in s3] == ["b", "c"]
    assert all(n.parent_id == gate.node_id for n in s3)


def test_partition_ten_level_hundred_leaf_tree():
    text, _ = synthetic_policy(10, 100)
    tree = parse_policy(text)
    levels = partition_levels(tree)
    assert len(levels) == 10
    assert sum(n.is_leaf for s in levels for n in s) == 100


@pytest.mark.parametrize("levels", range(2, 8))
def test_synthetic_policy_has_the_levels_and_leaves_it_is_asked_for(levels):
    # down to one leaf in the innermost gate, which must stay a gate
    for leaves in range(levels - 1, 3 * levels):
        text, spread = synthetic_policy(levels, leaves)
        tree = parse_policy(text)
        assert tree.depth == len(partition_levels(tree)) == levels, text
        assert len(leaf_attributes(tree)) == leaves
        assert len(spread) == levels - 1 and satisfies(tree, spread)


def test_synthetic_policy_needs_a_level():
    with pytest.raises(ValueError, match="levels must be >= 1"):
        synthetic_policy(0, 1)


def test_synthetic_policy_is_text_the_parser_reads():
    # a tree of L levels nests up to L parentheses, and the parser reads
    # MAX_NESTING deep, so one level more is refused by synthetic_policy
    # itself, not by the parser's error about text the caller never wrote
    text, spread = synthetic_policy(MAX_NESTING, MAX_NESTING)
    assert parse_policy(text).depth == MAX_NESTING and len(spread) == MAX_NESTING - 1
    with pytest.raises(ValueError, match=f"levels must be <= {MAX_NESTING}"):
        synthetic_policy(MAX_NESTING + 1, MAX_NESTING + 1)


@pytest.mark.parametrize("name", UNNAMEABLE_ATTRIBUTES)
def test_an_attribute_is_a_name_a_policy_can_use(name):
    # check_attributes states the parser's rule, so what one refuses the
    # other refuses; a name the parser reads passes both
    with pytest.raises(PolicySyntaxError):
        parse_policy(f"(x OR {name})")
    with pytest.raises(ValueError, match="no name a policy can use"):
        check_attributes({"x", name})
    check_attributes({"x", "a-b_c:9", "ANDy", "of1", "9x"})
    assert leaf_attributes(parse_policy("(x OR a-b_c:9 OR ANDy OR of1 OR 9x)")) == {
        "x", "a-b_c:9", "ANDy", "of1", "9x"}


def test_partition_complete_and_disjoint():
    rng = random.Random(77)
    for _ in range(25):
        tree = parse_policy(random_policy(rng, max_depth=5, max_leaves=20))
        levels = partition_levels(tree)
        assert len(levels) == tree.depth
        seen = [n.node_id for s in levels for n in s]
        assert sorted(seen) == list(range(1, len(seen) + 1))      # every preorder id once
        assert [n for s in levels for n in s if n.parent_id == 0] == [tree.root]
        gates_above = {0}                                           # the root's parent id
        for s in levels:
            ids = [n.node_id for n in s]
            assert ids == sorted(ids)
            gates_here = {n.node_id for n in s if not n.is_leaf}
            # a parent is a gate one level up; only a depth-1 tree shares a level
            parents = gates_above | gates_here if tree.depth == 1 else gates_above
            for n in s:
                assert n.parent_id in parents
                assert n.is_leaf == (n.threshold is None)
            gates_above = gates_here
        for s in levels:
            for gate in (n for n in s if not n.is_leaf):
                children = tree.children(gate.node_id)
                assert [c.index for c in children] == list(range(1, len(children) + 1))
                assert 1 <= gate.threshold <= len(children)


def test_parse_format_parse_fixpoint():
    rng = random.Random(13)
    cases = ["a", "(a AND b)", "(a OR b)", "(2 of (a, b, (c AND d)))",
             "(1 of (a))"]
    cases += [random_policy(rng, max_depth=5, max_leaves=15) for _ in range(25)]
    for text in cases:
        tree = parse_policy(text)
        printed = format_policy(tree)
        again = parse_policy(printed)
        assert format_policy(again) == printed
        assert partition_levels(again) == partition_levels(tree)


def test_explicit_one_of_one_gate_is_not_wrapped():
    tree = parse_policy("(1 of (a))")
    assert not tree.wrapped
    assert tree.depth == 2


def test_one_level_partition_formats_as_its_policy():
    # C9's tree sealed as one block, as traditional CP-ABE seals it; the
    # one-level partition of "(1 of (a))" is the tree of "a", and prints so
    text = "(alpha AND (beta OR (2 of (gamma, delta, epsilon))))"
    for text, printed in ((text, text), ("(1 of (a))", "a")):
        tree = parse_policy(text)
        flat = AccessTree([sorted((d for level in tree.levels for d in level),
                                  key=lambda d: d.node_id)])
        assert format_policy(flat) == printed


def _c9_nodes():
    tree = parse_policy("(alpha AND (beta OR (2 of (gamma, delta, epsilon))))")
    return {d.node_id: d for level in tree.levels for d in level}


@pytest.mark.parametrize("bad, levels, reparent", [
    (2, [[1, 3], [4, 5], [2, 6, 7, 8]], {}),           # parent two levels up
    (6, [[1], [2, 3], [6, 4, 5, 7, 8]], {}),           # listed before its parent
    (4, [[1], [2, 3], [4, 5], [6, 7, 8]], {4: 2}),     # a leaf as parent
    (3, [[1, 2, 3], [4, 5], [6, 7, 8]], {3: 0}),       # a second root
], ids=["two-levels-up", "before-its-parent", "under-a-leaf", "second-root"])
def test_access_tree_refuses_a_node_before_its_parent(bad, levels, reparent):
    # C9's tree regrouped so that one node breaks the partition rule: the
    # tree is refused where it is built, before any block is sealed
    nodes = _c9_nodes()
    nodes.update({i: dataclasses.replace(nodes[i], parent_id=p) for i, p in reparent.items()})
    with pytest.raises(ValueError, match=f"node {bad} has no parent gate"):
        AccessTree([[nodes[i] for i in level] for level in levels])


def test_access_tree_refuses_an_empty_level():
    nodes = _c9_nodes()
    for levels in ([[1], [], [2, 3], [4, 5], [6, 7, 8]], [[], [1]]):
        with pytest.raises(ValueError, match="holds no node"):
            AccessTree([[nodes[i] for i in level] for level in levels])


def test_access_tree_refuses_a_repeated_node_id():
    # the owner would spend the first node's share and then find none for
    # the second; the receiver refuses such blocks too
    N = NodeDescriptor
    for levels in ([[N(1, 0, 1, None, 2), N(2, 1, 1, "a", None), N(2, 1, 2, "b", None)]],
                   [[N(1, 0, 1, None, 2), N(2, 1, 1, None, 1), N(3, 1, 2, "b", None)],
                    [N(2, 2, 1, "a", None)]]):
        with pytest.raises(ValueError, match="node id 2 appears more than once"):
            AccessTree(levels)


@pytest.mark.parametrize("nodes, message", [
    ([(1, 0, 1, None, 2), (2, 1, 1, "a", None), (3, 1, 1, "b", None)],
     "gate 1 has two children of one index"),
    ([(1, 0, 1, None, 3), (2, 1, 1, "a", None), (3, 1, 2, "b", None)],
     "gate 1 has fewer children than its threshold 3"),
    ([(1, 0, 1, None, 1), (2, 1, 1, None, 1)], "gate 2 has fewer children than its threshold 1"),
], ids=["repeated-index", "below-threshold", "childless"])
def test_access_tree_refuses_a_gate_no_key_opens(nodes, message):
    # interpolation needs `threshold` children of distinct indices, so such
    # a gate seals a message that no key opens; the parser never builds one
    with pytest.raises(ValueError, match=message):
        AccessTree([[NodeDescriptor(*n) for n in nodes]])


def _wide_gate(children):
    return [[NodeDescriptor(1, 0, 1, None, 1)],
            [NodeDescriptor(k + 1, 1, k, f"a{k}", None) for k in range(1, children + 1)]]


@pytest.mark.parametrize("levels, message", [
    # index 0 would hand the leaf its gate's secret q(0): key {a} alone
    # would open "2 of (a, b)"
    ([[(1, 0, 1, None, 2)], [(2, 1, 0, "a", None), (3, 1, 1, "b", None)]],
     "node 2 has sibling index 0 outside 1..65535"),
    ([[(1, 0, 1, None, 1)], [(2, 1, 65536, "a", None)]],
     "node 2 has sibling index 65536 outside 1..65535"),
    ([[(1, 0, 1, None, 65536)], [(2, 1, 1, "a", None)]],
     "node 1 has threshold 65536 outside 1..65535"),
    ([[(1, 0, 1, None, 0)], [(2, 1, 1, "a", None)]], "node 1 has threshold 0"),
    ([[(1, 0, 1, None, None)], [(2, 1, 1, "a", None)]], "node 1 has threshold None"),
    ([[(0, 0, 1, None, 1)], [(2, 0, 1, "a", None)]], "node 0 has id 0 outside"),
    ([[(1, 0, 1, None, 1)], [(2 ** 32, 1, 1, "a", None)]], f"node {2 ** 32} has id"),
    ([[(1, 0, 1, None, 1)], [(2, 2 ** 32, 1, "a", None)]], "node 2 has parent id"),
    ([[(1, 0, 1, None, 1)], [(2, 1, 1, "a" * 65536, None)]], "attribute of 65536 bytes"),
    ([[(1, 0, 1, None, 1)], [(2, 1, 1, "\u00e9" * 32768, None)]], "attribute of 65536 bytes"),
], ids=["index-0", "index-65536", "threshold-65536", "threshold-0", "no-threshold", "id-0",
        "id-2^32", "parent-2^32", "attribute-65536", "attribute-65536-utf8"])
def test_access_tree_refuses_a_node_the_wire_cannot_carry(levels, message):
    with pytest.raises(ValueError, match=f"level [12]: {message}"):
        AccessTree([[NodeDescriptor(*n) for n in level] for level in levels])


def test_access_tree_takes_the_widest_fields_the_wire_carries():
    tree = AccessTree([[NodeDescriptor(2 ** 32 - 1, 0, 1, None, 1)],
                       [NodeDescriptor(1, 2 ** 32 - 1, 65535, "a" * 65535, None)]])
    assert satisfies(tree, {"a" * 65535})
    assert len(AccessTree(_wide_gate(65535)).children(1)) == 65535


def test_access_tree_refuses_a_gate_of_65536_children():
    with pytest.raises(ValueError, match="level 2: node 65537 has sibling index 65536"):
        AccessTree(_wide_gate(65536))


@pytest.mark.parametrize("text, message", [
    ("a" * 65536, "attribute of 65536 bytes"),
    ("(x AND " + "a" * 65536 + ")", "attribute of 65536 bytes"),
    ("(" + " OR ".join(f"a{k}" for k in range(65536)) + ")", "sibling index 65536"),
], ids=["bare-attribute", "attribute", "gate-of-65536-children"])
def test_parser_reports_a_tree_too_wide_for_the_wire_as_a_syntax_error(text, message):
    with pytest.raises(PolicySyntaxError, match=message) as info:
        parse_policy(text)
    assert info.value.position == 0


def _grouping(depth):
    return "(" * depth + "a" + ")" * depth


def _and_chain(depth):
    text = "x"
    for k in range(depth):
        text = f"(a{k} AND {text})"
    return text


def _one_of_chain(depth):
    """`depth` // 2 gates: each "1 of (...)" opens two parentheses."""
    text = "x"
    for k in range(depth // 2):
        text = f"(1 of (a{k}, {text}))"
    return text


@pytest.mark.parametrize("shape, key", [(_grouping, {"a"}), (_and_chain, None),
                                        (_one_of_chain, {"x"})],
                         ids=["grouping", "and-chain", "one-of-chain"])
def test_parentheses_nested_to_the_cap_parse_and_one_level_more_is_refused(shape, key):
    text = shape(MAX_NESTING)
    assert max(itertools.accumulate({"(": 1, ")": -1}.get(c, 0) for c in text)) == MAX_NESTING
    tree = parse_policy(text)
    attrs = key or {d.attribute for level in tree.levels for d in level if d.is_leaf}
    assert satisfies(tree, attrs) and not satisfies(tree, {"other"})
    assert parse_policy(format_policy(tree)).levels == tree.levels
    deeper = shape(MAX_NESTING + 2 if shape is _one_of_chain else MAX_NESTING + 1)
    offending = [i for i, c in enumerate(deeper) if c == "("][MAX_NESTING]
    with pytest.raises(PolicySyntaxError, match=f"nested deeper than {MAX_NESTING}") as info:
        parse_policy(deeper)
    assert info.value.position == offending


@pytest.mark.parametrize("flat", [False, True], ids=["1500-levels", "one-level"])
def test_hand_built_tree_of_any_depth_formats_and_is_evaluated(flat):
    # 1499 one-child gates over a leaf, one level each or all in one level:
    # far deeper than the parser's cap, and walked without recursion
    N = NodeDescriptor
    nodes = [N(k, k - 1, 1, None, 1) for k in range(1, 1500)] + [N(1500, 1499, 1, "a", None)]
    tree = AccessTree([nodes] if flat else [[n] for n in nodes])
    assert tree.depth == (1 if flat else 1500)
    assert satisfies(tree, {"a"}) and not satisfies(tree, {"b"})
    assert format_policy(tree) == "(1 of (" * 1499 + "a" + "))" * 1499


# ---------------------------------------------------------------------------
# Lagrange coefficients
# ---------------------------------------------------------------------------

def test_lagrange_singleton_is_one():
    assert lagrange_coeff(1, {1}, 0) == Scalar(1)
    assert lagrange_coeff(1, {1}, 12345) == Scalar(1)


def test_lagrange_pair_at_zero():
    assert lagrange_coeff(1, {1, 2}, 0) == Scalar(2)


def test_lagrange_interpolates_hand_polynomial():
    # q(x) = 7 + 3x over indices {1, 2, 3} recovers q(0) = 7
    q = lambda x: (7 + 3 * x) % ORDER
    total = Scalar(0)
    for i in (1, 2, 3):
        total = total + Scalar(q(i)) * lagrange_coeff(i, {1, 2, 3}, 0)
    assert total == Scalar(7)


def test_lagrange_index_not_in_set():
    with pytest.raises(ValueError):
        lagrange_coeff(4, {1, 2}, 0)


@settings(max_examples=60, deadline=None)
@given(
    coeffs=st.lists(st.integers(min_value=0, max_value=ORDER - 1), min_size=1, max_size=5),
    extra=st.integers(min_value=0, max_value=5),
)
def test_lagrange_interpolation_property(coeffs, extra):
    degree = len(coeffs) - 1
    points = list(range(1, degree + 2 + extra))[: degree + 1]

    def q(x):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % ORDER
        return acc

    total = Scalar(0)
    for i in points:
        total = total + Scalar(q(i)) * lagrange_coeff(i, points, 0)
    assert total == Scalar(coeffs[0])
