import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from lcws.algebra import ORDER, Scalar
from lcws.bench import synthetic_policy
from lcws.errors import PolicySyntaxError
from lcws.policy import (
    format_policy,
    lagrange_coeff,
    parse_policy,
    partition_levels,
    satisfies,
)

from helpers import random_policy


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_single_attribute_wraps_to_depth_one():
    tree = parse_policy("a")
    assert tree.depth == 1
    assert tree.wrapped
    assert not tree.root.is_leaf and tree.root.threshold == 1
    leaf = tree.root.children[0]
    assert leaf.attribute == "a" and leaf.level == 1


def test_parse_parenthesized_attribute_is_grouping():
    tree = parse_policy("(a)")
    assert tree.wrapped and tree.depth == 1


def test_parse_and_gate():
    tree = parse_policy("(a AND b)")
    assert tree.depth == 2
    assert tree.root.threshold == 2
    assert [c.attribute for c in tree.root.children] == ["a", "b"]
    assert [c.level for c in tree.root.children] == [2, 2]


def test_parse_nested_threshold():
    tree = parse_policy("(2 of (a, b, (c AND d)))")
    root = tree.root
    assert root.threshold == 2 and len(root.children) == 3
    assert root.children[0].attribute == "a"
    assert root.children[1].attribute == "b"
    gate = root.children[2]
    assert not gate.is_leaf and gate.threshold == 2 and gate.level == 2
    assert tree.depth == 3
    assert [c.index for c in root.children] == [1, 2, 3]


def test_parse_or_gate_threshold_one():
    tree = parse_policy("(a OR b OR c)")
    assert tree.root.threshold == 1 and len(tree.root.children) == 3


@pytest.mark.parametrize("text,pos_at_least", [
    ("", 0),
    ("(a AND", 6),
    ("(a AND b", 8),
    ("a b", 2),
    ("(a ! b)", 3),
    ("(a AND b OR c)", 9),
    ("()", 1),
    ("(3 of (a, b))", 1),
    ("(0 of (a))", 1),
])
def test_parse_errors_carry_position(text, pos_at_least):
    with pytest.raises(PolicySyntaxError) as exc:
        parse_policy(text)
    assert exc.value.position >= pos_at_least or exc.value.position == 0


def test_keywords_are_not_attributes():
    with pytest.raises(PolicySyntaxError):
        parse_policy("AND")


def test_duplicate_attributes_allowed():
    tree = parse_policy("(a AND a)")
    ids = [n.node_id for n in tree.nodes()]
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
        attrs = {a for a in tree.leaf_attributes() if rng.random() < 0.5}
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
    only = levels[0]
    assert [n.node_id for n in only.interior_nodes] == [tree.root.node_id]
    assert [n.attribute for n in only.leaf_nodes] == ["a"]


def test_partition_hand_labeled_depths():
    tree = parse_policy("(a AND (b OR c))")
    levels = partition_levels(tree)
    assert len(levels) == 3
    s1, s2, s3 = levels
    assert [n.node_id for n in s1.interior_nodes] == [tree.root.node_id]
    assert s1.leaf_nodes == ()
    assert [n.attribute for n in s2.leaf_nodes] == ["a"]
    assert len(s2.interior_nodes) == 1 and s2.interior_nodes[0].threshold == 1
    assert sorted(n.attribute for n in s3.leaf_nodes) == ["b", "c"]
    assert s3.interior_nodes == ()


def test_partition_ten_level_hundred_leaf_tree():
    text, _ = synthetic_policy(10, 100)
    tree = parse_policy(text)
    levels = partition_levels(tree)
    assert len(levels) == 10
    assert sum(len(s.leaf_nodes) for s in levels) == 100


def test_partition_complete_and_disjoint():
    rng = random.Random(77)
    for _ in range(25):
        tree = parse_policy(random_policy(rng, max_depth=5, max_leaves=20))
        levels = partition_levels(tree)
        seen = []
        for s in levels:
            seen.extend(n.node_id for n in s.interior_nodes)
            seen.extend(n.node_id for n in s.leaf_nodes)
        assert sorted(seen) == sorted(n.node_id for n in tree.nodes())
        # descriptors alone rebuild parent/threshold/attribute structure
        for s in levels:
            for d in s.descriptor:
                node = tree.node(d.node_id)
                assert d.index == node.index
                assert d.attribute == node.attribute
                assert d.threshold == node.threshold
                assert d.parent_id == (tree.parent_id(d.node_id) or 0)


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
        assert [(ades.node_id, ades.parent_id, ades.index, ades.attribute, ades.threshold)
                for s in partition_levels(tree) for ades in s.descriptor] == \
               [(bdes.node_id, bdes.parent_id, bdes.index, bdes.attribute, bdes.threshold)
                for s in partition_levels(again) for bdes in s.descriptor]


def test_explicit_one_of_one_gate_is_not_wrapped():
    tree = parse_policy("(1 of (a))")
    assert not tree.wrapped
    assert tree.depth == 2


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
