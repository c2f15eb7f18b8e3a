"""Production system: construction, tree<->sequence bijection, subtrees."""

import numpy as np
import pytest

from dialsql.grammar import (
    AST,
    Derivation,
    DerivationError,
    IncompleteSequenceError,
    NonTerminal,
    Production,
    SequenceLengthError,
    StructureError,
    actions_to_ast,
    agnostic_productions,
    ast_to_actions,
    build_grammar,
    extract_subtrees,
)
from dialsql.schema import schema_from_dict

from sampling import QuerySampler

NT = NonTerminal


def node_count(tree: AST) -> int:
    return 1 + sum(node_count(c) for c in tree.children)


def tiny_schema():
    return schema_from_dict({
        "db_id": "tiny",
        "tables": [{"name": "t", "columns": [{"name": "a"}]}],
        "foreign_keys": [],
    })


def parse_fixture_actions(text, grammar):
    """Resolve fixture lines against the grammar's productions."""
    by_str = {str(p): p for p in grammar.productions}
    return [by_str[line] for line in text.strip().splitlines()]


class TestConstruction:
    def test_cars_grammar_contains_figure_rules(self, cars_schema):
        g = build_grammar(cars_schema)
        assert Production(NT.COL, ("Id",)) in g
        assert Production(NT.COL, ("Horsepower",)) in g
        assert Production(NT.TAB, ("CARS_DATA",)) in g

    def test_minimal_schema_counts(self):
        g = build_grammar(tiny_schema())
        agnostic = agnostic_productions()
        assert len(g) == len(agnostic) + 2
        assert len(g.expansions(NT.COL)) == 1
        assert len(g.expansions(NT.TAB)) == 1

    def test_column_names_deduplicated_across_tables(self):
        schema = schema_from_dict({
            "db_id": "dup",
            "tables": [
                {"name": "a", "columns": [{"name": "id"}, {"name": "x"}]},
                {"name": "b", "columns": [{"name": "ID"}, {"name": "y"}]},
            ],
            "foreign_keys": [],
        })
        g = build_grammar(schema)
        cols = [p.rhs[0] for p in g.expansions(NT.COL)]
        assert cols == ["id", "x", "y"]

    def test_reordered_schema_changes_only_indices(self):
        base = {"db_id": "s",
                "tables": [{"name": "a", "columns": [{"name": "p"}]},
                           {"name": "b", "columns": [{"name": "q"}]}],
                "foreign_keys": []}
        swapped = {"db_id": "s",
                   "tables": [{"name": "b", "columns": [{"name": "q"}]},
                              {"name": "a", "columns": [{"name": "p"}]}],
                   "foreign_keys": []}
        g1 = build_grammar(schema_from_dict(base))
        g2 = build_grammar(schema_from_dict(swapped))
        assert set(g1.productions) == set(g2.productions)
        assert [str(p) for p in g1.productions] != [str(p) for p in g2.productions]

    def test_dump_lists_schema_rules_last(self, cars_schema):
        lines = build_grammar(cars_schema).dump().strip().splitlines()
        agnostic_count = len(agnostic_productions())
        assert all(l.startswith(("Col", "Tab")) for l in lines[agnostic_count:])
        assert not any(l.startswith(("Col", "Tab")) for l in lines[:agnostic_count])


    def test_equal_productions_hash_equal_and_share_a_dict_entry(self):
        import pickle

        made = [Production(NT.AGG, ("max", NT.COL, NT.TAB)),
                Production(NT.AGG, ("max",) + (NT.COL, NT.TAB)),
                pickle.loads(pickle.dumps(Production(NT.AGG, ("max", NT.COL, NT.TAB))))]
        assert made[0] is not made[1] and made[0].rhs is not made[1].rhs
        assert len({hash(p) for p in made}) == 1
        assert hash(made[0]) == hash((NT.AGG, ("max", NT.COL, NT.TAB)))
        index = {made[0]: "first"}
        for p in made:
            assert p == made[0] and index[p] == "first"
        index[made[1]] = "second"
        assert index == {made[2]: "second"}
        assert Production(NT.AGG, ("min", NT.COL, NT.TAB)) not in index
        assert Production(NT.AGG, ("max", NT.COL, NT.TAB)) != Production(NT.ORDER, ("max", NT.AGG))

class TestTreeSequence:
    def test_figure2_sequence_roundtrip(self, cars_schema, figure2_actions_text):
        g = build_grammar(cars_schema)
        actions = parse_fixture_actions(figure2_actions_text, g)
        tree = actions_to_ast(actions, g)
        assert ast_to_actions(tree) == actions

    def test_six_action_tree_by_hand(self, cars_schema):
        g = build_grammar(cars_schema)
        actions = [
            Production(NT.START, (NT.ROOT,)),
            Production(NT.ROOT, (NT.SELECT,)),
            Production(NT.SELECT, (NT.AGG,)),
            Production(NT.AGG, ("none", NT.COL, NT.TAB)),
            Production(NT.COL, ("Id",)),
            Production(NT.TAB, ("CARS_DATA",)),
        ]
        tree = actions_to_ast(actions, g)
        assert node_count(tree) == 6

    def test_sequence_length_equals_node_count(self, cars_schema):
        sampler = QuerySampler(cars_schema, np.random.default_rng(0))
        for _ in range(50):
            tree = sampler.query()
            assert len(ast_to_actions(tree)) == node_count(tree)

    def test_swapped_cols_give_different_tree(self, cars_schema, figure2_actions_text):
        g = build_grammar(cars_schema)
        actions = parse_fixture_actions(figure2_actions_text, g)
        swapped = list(actions)
        swapped[4], swapped[8] = swapped[8], swapped[4]
        t1 = actions_to_ast(actions, g)
        t2 = actions_to_ast(swapped, g)
        assert t1 != t2

    def test_mismatched_action_reports_step(self, cars_schema):
        g = build_grammar(cars_schema)
        bad = [Production(NT.START, (NT.ROOT,)), Production(NT.SELECT, (NT.AGG,))]
        with pytest.raises(DerivationError) as exc:
            actions_to_ast(bad, g)
        assert exc.value.step == 1

    def test_leftover_actions_rejected(self, cars_schema):
        g = build_grammar(cars_schema)
        actions = [
            Production(NT.START, (NT.ROOT,)),
            Production(NT.ROOT, (NT.SELECT,)),
            Production(NT.SELECT, (NT.AGG,)),
            Production(NT.AGG, ("none", NT.COL, NT.TAB)),
            Production(NT.COL, ("Id",)),
            Production(NT.TAB, ("CARS_DATA",)),
            Production(NT.TAB, ("CARS_DATA",)),
        ]
        with pytest.raises(SequenceLengthError):
            actions_to_ast(actions, g)

    def test_premature_end_rejected(self, cars_schema):
        g = build_grammar(cars_schema)
        with pytest.raises(IncompleteSequenceError):
            actions_to_ast([Production(NT.START, (NT.ROOT,))], g)

    def test_invalid_child_arity_rejected(self):
        with pytest.raises(StructureError):
            AST(Production(NT.SELECT, (NT.AGG,)), ())

    def test_random_roundtrip_property(self, cars_schema):
        g = build_grammar(cars_schema)
        sampler = QuerySampler(cars_schema, np.random.default_rng(1))
        for _ in range(500):
            tree = sampler.query()
            actions = ast_to_actions(tree)
            assert actions_to_ast(actions, g) == tree


def legal_after(prefix, grammar):
    d = Derivation(grammar)
    d.apply_sequence(prefix)
    return grammar.expansions(d.frontier())


class TestFrontier:
    def test_empty_prefix_axiom(self, cars_schema):
        g = build_grammar(cars_schema)
        assert legal_after([], g) == [Production(NT.START, (NT.ROOT,))]

    def test_after_start_all_root_rules(self, cars_schema):
        g = build_grammar(cars_schema)
        legal = legal_after([Production(NT.START, (NT.ROOT,))], g)
        assert legal == g.expansions(NT.ROOT)
        assert all(p.lhs is NT.ROOT for p in legal)

    def test_col_frontier_lists_schema_columns(self, cars_schema):
        g = build_grammar(cars_schema)
        prefix = [
            Production(NT.START, (NT.ROOT,)),
            Production(NT.ROOT, (NT.SELECT,)),
            Production(NT.SELECT, (NT.AGG,)),
            Production(NT.AGG, ("none", NT.COL, NT.TAB)),
        ]
        legal = legal_after(prefix, g)
        names = {p.rhs[0] for p in legal}
        assert "Id" in names and "Horsepower" in names and "Make" in names
        assert all(p.lhs is NT.COL for p in legal)

    def test_prefix_soundness_property(self, cars_schema):
        g = build_grammar(cars_schema)
        sampler = QuerySampler(cars_schema, np.random.default_rng(2))
        for _ in range(100):
            actions = ast_to_actions(sampler.query())
            d = Derivation(g)
            for act in actions:
                assert act in g.expansions(d.frontier())
                d.apply(act)
            assert d.is_complete
            assert d.frontier() is None

    def test_complete_derivation_rejects_more(self, cars_schema):
        g = build_grammar(cars_schema)
        sampler = QuerySampler(cars_schema, np.random.default_rng(3))
        d = Derivation(g)
        d.apply_sequence(ast_to_actions(sampler.query()))
        with pytest.raises(DerivationError):
            d.apply(Production(NT.TAB, ("CARS_DATA",)))


class TestSubtrees:
    def test_figure2_has_four_distinct_subtrees(self, cars_schema, figure2_actions_text):
        g = build_grammar(cars_schema)
        actions = parse_fixture_actions(figure2_actions_text, g)
        subtrees = extract_subtrees(actions)
        assert len(subtrees) == 4
        select_subtree = (
            Production(NT.SELECT, (NT.AGG,)),
            Production(NT.AGG, ("max", NT.COL, NT.TAB)),
            Production(NT.COL, ("Id",)),
            Production(NT.TAB, ("CARS_DATA",)),
        )
        assert (NT.SELECT, select_subtree) in subtrees

    def test_no_filter_no_order_roots(self, cars_schema):
        g = build_grammar(cars_schema)
        actions = [
            Production(NT.START, (NT.ROOT,)),
            Production(NT.ROOT, (NT.SELECT,)),
            Production(NT.SELECT, (NT.AGG, NT.AGG)),
            Production(NT.AGG, ("none", NT.COL, NT.TAB)),
            Production(NT.COL, ("Id",)),
            Production(NT.TAB, ("CARS_DATA",)),
            Production(NT.AGG, ("max", NT.COL, NT.TAB)),
            Production(NT.COL, ("Horsepower",)),
            Production(NT.TAB, ("CARS_DATA",)),
        ]
        subtrees = extract_subtrees(actions)
        roots = [root for root, _ in subtrees]
        assert roots.count(NT.SELECT) == 1
        assert roots.count(NT.AGG) == 2
        assert len(subtrees) == 3

    def test_every_subtree_is_valid_derivation(self, cars_schema):
        sampler = QuerySampler(cars_schema, np.random.default_rng(4))
        for _ in range(100):
            actions = ast_to_actions(sampler.query())
            for root, seq in extract_subtrees(actions):
                assert seq[0].lhs is root
                # replay the subtree as its own derivation
                stack = [root]
                for act in seq:
                    assert stack and act.lhs is stack[-1]
                    stack.pop()
                    for sym in reversed(act.rhs_nonterminals()):
                        stack.append(sym)
                assert not stack

    def test_duplicate_subtrees_deduplicated(self, cars_schema):
        g = build_grammar(cars_schema)
        agg = [
            Production(NT.AGG, ("none", NT.COL, NT.TAB)),
            Production(NT.COL, ("Id",)),
            Production(NT.TAB, ("CARS_DATA",)),
        ]
        actions = [
            Production(NT.START, (NT.ROOT,)),
            Production(NT.ROOT, (NT.SELECT,)),
            Production(NT.SELECT, (NT.AGG, NT.AGG)),
            *agg,
            *agg,
        ]
        subtrees = extract_subtrees(actions)
        assert len([s for root, s in subtrees if root is NT.AGG]) == 1
