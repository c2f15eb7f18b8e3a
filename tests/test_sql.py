"""SQL rendering, parsing, and the canonical form."""

import numpy as np
import pytest

from dialsql.grammar import (
    AST,
    JoinPathError,
    NonTerminal,
    Production,
    UnsupportedSQLError,
    ast_to_actions,
    ast_to_sql,
    canonicalize,
    format_actions,
    sql_to_ast,
)
from dialsql.schema import schema_from_dict

from sampling import QuerySampler

NT = NonTerminal

FIGURE2_SQL = "SELECT Id FROM CARS_DATA ORDER BY Horsepower DESC LIMIT 1"


def agg(f, col, tab):
    return AST(Production(NT.AGG, (f, NT.COL, NT.TAB)),
               (AST(Production(NT.COL, (col,))), AST(Production(NT.TAB, (tab,)))))


def select(*aggs):
    return AST(Production(NT.SELECT, (NT.AGG,) * len(aggs)), tuple(aggs))


def root(sel, filt=None, order=None):
    rhs = (NT.SELECT,)
    children = (sel,)
    if filt is not None:
        rhs += (NT.FILTER,)
        children += (filt,)
    if order is not None:
        rhs += (NT.ORDER,)
        children += (order,)
    return AST(Production(NT.ROOT, rhs), children)


def start(r):
    return AST(Production(NT.START, (NT.ROOT,)), (r,))


def comparison(op, agg_node):
    return AST(Production(NT.FILTER, (op, NT.AGG, NT.VALUE)),
               (agg_node, AST(Production(NT.VALUE, ("value",)))))


def conjunction(op, left, right):
    return AST(Production(NT.FILTER, (op, NT.FILTER, NT.FILTER)), (left, right))


class TestFigure2:
    def test_sql_to_action_sequence_matches_fixture(self, cars_schema, figure2_actions_text):
        tree = sql_to_ast(FIGURE2_SQL, cars_schema)
        produced = format_actions(ast_to_actions(tree)) + "\n"
        assert produced == figure2_actions_text

    def test_tree_renders_back_to_caption_sql(self, cars_schema):
        tree = sql_to_ast(FIGURE2_SQL, cars_schema)
        assert ast_to_sql(tree, cars_schema) == FIGURE2_SQL

    def test_case_insensitive_parse(self, cars_schema):
        lowered = sql_to_ast("select id from cars_data order by horsepower desc limit 1",
                             cars_schema)
        assert lowered == sql_to_ast(FIGURE2_SQL, cars_schema)


class TestRendering:
    def test_smallest_query(self, cars_schema):
        tree = start(root(select(agg("none", "Id", "CARS_DATA"))))
        assert ast_to_sql(tree, cars_schema) == "SELECT Id FROM CARS_DATA"

    def test_aggregate_renders_with_function(self, cars_schema):
        tree = start(root(select(agg("count", "Id", "CARS_DATA"))))
        assert ast_to_sql(tree, cars_schema) == "SELECT count(Id) FROM CARS_DATA"

    def test_two_tables_qualified_and_joined(self, cars_schema):
        tree = start(root(select(agg("none", "Make", "CAR_NAMES"),
                                 agg("none", "Horsepower", "CARS_DATA"))))
        sql = ast_to_sql(tree, cars_schema)
        assert sql == ("SELECT CAR_NAMES.Make, CARS_DATA.Horsepower "
                       "FROM CAR_NAMES JOIN CARS_DATA ON CARS_DATA.Id = CAR_NAMES.MakeId")

    def test_where_and_order(self, cars_schema):
        filt = comparison(">", agg("none", "Weight", "CARS_DATA"))
        order = AST(Production(NT.ORDER, ("asc", NT.AGG)), (agg("none", "MPG", "CARS_DATA"),))
        tree = start(root(select(agg("none", "Id", "CARS_DATA")), filt, order))
        assert ast_to_sql(tree, cars_schema) == (
            "SELECT Id FROM CARS_DATA WHERE Weight > 1 ORDER BY MPG ASC")

    def test_nested_boolean_shape_parenthesized(self, cars_schema):
        a = comparison("=", agg("none", "Year", "CARS_DATA"))
        b = comparison("<", agg("none", "Weight", "CARS_DATA"))
        c = comparison(">", agg("none", "MPG", "CARS_DATA"))
        left_nested = conjunction("and", conjunction("and", a, b), c)
        right_nested = conjunction("and", a, conjunction("and", b, c))
        sql_left = ast_to_sql(start(root(select(agg("none", "Id", "CARS_DATA")), left_nested)),
                              cars_schema)
        sql_right = ast_to_sql(start(root(select(agg("none", "Id", "CARS_DATA")), right_nested)),
                               cars_schema)
        assert "(" in sql_left and "(" in sql_right
        assert sql_left != sql_right

    def test_disconnected_tables_raise(self):
        schema = schema_from_dict({
            "db_id": "island",
            "tables": [{"name": "a", "columns": [{"name": "x"}]},
                       {"name": "b", "columns": [{"name": "y"}]}],
            "foreign_keys": [],
        })
        tree = start(root(select(agg("none", "x", "a"), agg("none", "y", "b"))))
        with pytest.raises(JoinPathError):
            ast_to_sql(tree, schema)

    def test_join_path_through_intermediate_table(self):
        schema = schema_from_dict({
            "db_id": "chain",
            "tables": [
                {"name": "a", "columns": [{"name": "x"}]},
                {"name": "m", "columns": [{"name": "ax"}, {"name": "by"}]},
                {"name": "b", "columns": [{"name": "y"}]},
            ],
            "foreign_keys": [["m.ax", "a.x"], ["m.by", "b.y"]],
        })
        tree = start(root(select(agg("none", "x", "a"), agg("none", "y", "b"))))
        sql = ast_to_sql(tree, schema)
        assert sql == ("SELECT a.x, b.y FROM a JOIN m ON m.ax = a.x "
                       "JOIN b ON m.by = b.y")
        assert sql_to_ast(sql, schema) == tree


class TestParsing:
    def test_unsupported_constructs_named(self, cars_schema):
        cases = {
            "SELECT Id FROM CARS_DATA GROUP BY Id": "GROUP BY",
            "SELECT DISTINCT Id FROM CARS_DATA": "DISTINCT",
            "SELECT count(*) FROM CARS_DATA": "count(*)",
            "SELECT Id FROM CARS_DATA UNION SELECT Id FROM CARS_DATA": "UNION",
            "SELECT Id FROM CARS_DATA ORDER BY Horsepower DESC LIMIT 3": "LIMIT",
            "SELECT Id FROM CARS_DATA WHERE Id IN (SELECT MakeId FROM CAR_NAMES)": "IN subquery",
            "SELECT Id FROM CARS_DATA WHERE Id NOT IN (SELECT MakeId FROM CAR_NAMES)":
                "IN subquery",
        }
        for sql, construct in cases.items():
            with pytest.raises(UnsupportedSQLError) as exc:
                sql_to_ast(sql, cars_schema)
            assert exc.value.construct == construct, sql

    def test_unknown_identifiers(self, cars_schema):
        with pytest.raises(UnsupportedSQLError):
            sql_to_ast("SELECT Bogus FROM CARS_DATA", cars_schema)
        with pytest.raises(UnsupportedSQLError):
            sql_to_ast("SELECT Id FROM NO_SUCH_TABLE", cars_schema)

    def test_ambiguous_bare_column(self):
        schema = schema_from_dict({
            "db_id": "amb",
            "tables": [{"name": "a", "columns": [{"name": "id"}]},
                       {"name": "b", "columns": [{"name": "id"}]}],
            "foreign_keys": [["a.id", "b.id"]],
        })
        with pytest.raises(UnsupportedSQLError) as exc:
            sql_to_ast("SELECT id FROM a, b", schema)
        assert exc.value.construct == "ambiguous column"

    def test_between_and_like(self, cars_schema):
        sql = ("SELECT Id FROM CARS_DATA JOIN CAR_NAMES ON CARS_DATA.Id = CAR_NAMES.MakeId "
               "WHERE Weight BETWEEN 1 AND 1 AND Make LIKE 1")
        tree = sql_to_ast(sql, cars_schema)
        rendered = ast_to_sql(tree, cars_schema)
        assert rendered == ("SELECT CARS_DATA.Id FROM CARS_DATA JOIN CAR_NAMES "
                            "ON CARS_DATA.Id = CAR_NAMES.MakeId "
                            "WHERE CARS_DATA.Weight BETWEEN 1 AND 1 "
                            "AND CAR_NAMES.Make LIKE 1")

    def test_literals_collapse_to_placeholder(self, cars_schema):
        t1 = sql_to_ast("SELECT Id FROM CARS_DATA WHERE Weight > 4000", cars_schema)
        t2 = sql_to_ast("SELECT Id FROM CARS_DATA WHERE Weight > 1", cars_schema)
        t3 = sql_to_ast("SELECT Id FROM CARS_DATA WHERE Weight > 'heavy'", cars_schema)
        assert t1 == t2 == t3

    def test_operator_normalization(self, cars_schema):
        t1 = sql_to_ast("SELECT Id FROM CARS_DATA WHERE Year <> 1", cars_schema)
        t2 = sql_to_ast("SELECT Id FROM CARS_DATA WHERE Year != 1", cars_schema)
        assert t1 == t2

    def test_asc_limit_parses_as_min(self, cars_schema):
        tree = sql_to_ast("SELECT Id FROM CARS_DATA ORDER BY Weight ASC LIMIT 1", cars_schema)
        sel = tree.children[0].children[0]
        assert sel.children[0].terminals()[0] == "min"

    def test_explicit_aggregate_survives_superlative(self, cars_schema):
        tree = sql_to_ast("SELECT count(Id) FROM CARS_DATA ORDER BY Weight DESC LIMIT 1",
                          cars_schema)
        sel = tree.children[0].children[0]
        assert sel.children[0].terminals()[0] == "count"


class TestRoundTrip:
    def test_random_trees_roundtrip_up_to_canonicalization(self, cars_schema):
        sampler = QuerySampler(cars_schema, np.random.default_rng(5))
        for _ in range(500):
            tree = sampler.query()
            sql = ast_to_sql(tree, cars_schema)
            reparsed = sql_to_ast(sql, cars_schema)
            assert canonicalize(reparsed) == canonicalize(tree), sql

    def test_parse_then_render_is_stable(self, cars_schema):
        sampler = QuerySampler(cars_schema, np.random.default_rng(6))
        for _ in range(200):
            sql = ast_to_sql(sampler.query(), cars_schema)
            tree = sql_to_ast(sql, cars_schema)
            assert ast_to_sql(tree, cars_schema) == sql


class TestCanonicalize:
    def test_idempotent(self, cars_schema):
        sampler = QuerySampler(cars_schema, np.random.default_rng(7))
        for _ in range(500):
            tree = sampler.query()
            once = canonicalize(tree)
            assert canonicalize(once) == once

    def test_select_children_sorted(self, cars_schema):
        t1 = start(root(select(agg("count", "Weight", "CARS_DATA"),
                               agg("max", "Id", "CARS_DATA"))))
        t2 = start(root(select(agg("max", "Id", "CARS_DATA"),
                               agg("count", "Weight", "CARS_DATA"))))
        assert canonicalize(t1) == canonicalize(t2)

    def test_boolean_operands_sorted(self, cars_schema):
        a = comparison("=", agg("none", "Year", "CARS_DATA"))
        b = comparison("<", agg("none", "Weight", "CARS_DATA"))
        t1 = start(root(select(agg("none", "Id", "CARS_DATA")), conjunction("and", a, b)))
        t2 = start(root(select(agg("none", "Id", "CARS_DATA")), conjunction("and", b, a)))
        assert canonicalize(t1) == canonicalize(t2)

    def test_order_children_never_reordered(self, cars_schema):
        o1 = AST(Production(NT.ORDER, ("desc", NT.AGG)), (agg("none", "MPG", "CARS_DATA"),))
        o2 = AST(Production(NT.ORDER, ("desc", NT.AGG)), (agg("none", "Weight", "CARS_DATA"),))
        t1 = start(root(select(agg("none", "Id", "CARS_DATA")), None, o1))
        t2 = start(root(select(agg("none", "Id", "CARS_DATA")), None, o2))
        assert canonicalize(t1) != canonicalize(t2)
        assert canonicalize(t1).children[0].children[1] == o1

    def test_superlative_none_folds_to_max(self, cars_schema):
        order = AST(Production(NT.ORDER, ("desc", "limit", NT.AGG)),
                    (agg("none", "Horsepower", "CARS_DATA"),))
        plain = start(root(select(agg("none", "Id", "CARS_DATA")), None, order))
        marked = start(root(select(agg("max", "Id", "CARS_DATA")), None, order))
        assert ast_to_sql(plain, cars_schema) == ast_to_sql(marked, cars_schema)
        assert canonicalize(plain) == canonicalize(marked)
        # the ORDER BY aggregate itself is untouched
        canon_order = canonicalize(plain).children[0].children[1]
        assert canon_order.children[0].terminals()[0] == "none"
