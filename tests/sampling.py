"""Random schema-coherent query sampling, the test-side oracle input."""

from dialsql.grammar import AST, NonTerminal, Production

NT = NonTerminal
AGG_FUNCS = ("none", "max", "min", "count", "sum", "avg")
COMPARISONS = ("=", "!=", ">", "<", ">=", "<=", "like")


def _p(lhs, rhs) -> Production:
    return Production(lhs, rhs)


class QuerySampler:
    """Random grammar derivations whose columns live in their tables,
    so the rendered SQL is re-parseable."""

    def __init__(self, schema, rng):
        self.schema = schema
        self.rng = rng

    def agg(self, func=None) -> AST:
        table = self.schema.tables[int(self.rng.integers(len(self.schema.tables)))]
        column = table.columns[int(self.rng.integers(len(table.columns)))]
        if func is None:
            func = AGG_FUNCS[int(self.rng.integers(len(AGG_FUNCS)))]
        return AST(_p(NT.AGG, (func, NT.COL, NT.TAB)),
                   (AST(_p(NT.COL, (column.name,))),
                    AST(_p(NT.TAB, (table.name,)))))

    def value(self) -> AST:
        return AST(_p(NT.VALUE, ("value",)))

    def comparison(self) -> AST:
        op = COMPARISONS[int(self.rng.integers(len(COMPARISONS)))]
        if self.rng.random() < 0.15:
            return AST(_p(NT.FILTER, ("between", NT.AGG, NT.VALUE, NT.VALUE)),
                       (self.agg(), self.value(), self.value()))
        return AST(_p(NT.FILTER, (op, NT.AGG, NT.VALUE)),
                   (self.agg(), self.value()))

    def filter(self, depth=0) -> AST:
        if depth < 2 and self.rng.random() < 0.3:
            op = "and" if self.rng.random() < 0.5 else "or"
            return AST(_p(NT.FILTER, (op, NT.FILTER, NT.FILTER)),
                       (self.filter(depth + 1), self.filter(depth + 1)))
        return self.comparison()

    def order(self) -> AST:
        direction = "asc" if self.rng.random() < 0.5 else "desc"
        rhs = ((direction, "limit", NT.AGG) if self.rng.random() < 0.3
               else (direction, NT.AGG))
        return AST(_p(NT.ORDER, rhs), (self.agg(),))

    def query(self) -> AST:
        n = 1 + int(self.rng.integers(3))
        select = AST(_p(NT.SELECT, tuple([NT.AGG] * n)),
                     tuple(self.agg() for _ in range(n)))
        children = [select]
        rhs = [NT.SELECT]
        if self.rng.random() < 0.5:
            rhs.append(NT.FILTER)
            children.append(self.filter())
        if self.rng.random() < 0.5:
            rhs.append(NT.ORDER)
            children.append(self.order())
        root = AST(_p(NT.ROOT, tuple(rhs)), tuple(children))
        return AST(_p(NT.START, (NT.ROOT,)), (root,))
