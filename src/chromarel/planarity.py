"""Planarity testing via the left-right (orientation) criterion.

Boolean-only implementation of the left-right planarity test of de Fraysseix,
de Mendez and Rosenstiehl, in the algorithmic formulation given by Brandes
("The left-right planarity test", 2009). Exact for all inputs; linear-ish in
practice and comfortable up to a few hundred vertices; a graph whose
depth-first tree is deeper than Python's recursion limit raises ValueError.
"""

from __future__ import annotations

from .graphs import Graph

_Edge = tuple[int, int]


class _Interval:
    __slots__ = ("low", "high")

    def __init__(self, low: _Edge | None = None, high: _Edge | None = None):
        self.low = low
        self.high = high

    def empty(self) -> bool:
        return self.low is None and self.high is None


class _ConflictPair:
    __slots__ = ("left", "right")

    def __init__(self, left: _Interval | None = None, right: _Interval | None = None):
        self.left = left if left is not None else _Interval()
        self.right = right if right is not None else _Interval()

    def swap(self) -> None:
        self.left, self.right = self.right, self.left


class _LRPlanarity:
    """One-shot test object; run() returns the verdict."""

    def __init__(self, g: Graph):
        self.g = g
        n = g.n
        self.adj = [g.neighbors(u) for u in range(n)]
        self.height: list[int | None] = [None] * n
        self.parent_edge: list[_Edge | None] = [None] * n
        self.oriented: set[_Edge] = set()
        self.out: list[list[_Edge]] = [[] for _ in range(n)]
        self.lowpt: dict[_Edge, int] = {}
        self.lowpt2: dict[_Edge, int] = {}
        self.nesting_depth: dict[_Edge, int] = {}
        self.ordered_adj: list[list[_Edge]] = []
        self.S: list[_ConflictPair] = []
        self.stack_bottom: dict[_Edge, int] = {}
        self.lowpt_edge: dict[_Edge, _Edge] = {}
        self.ref: dict[_Edge, _Edge | None] = {}

    def run(self) -> bool:
        n = self.g.n
        roots = []
        for s in range(n):
            if self.height[s] is None:
                self.height[s] = 0
                roots.append(s)
                self.dfs_orient(s)
        self.ordered_adj = [
            sorted(self.out[v], key=lambda e: self.nesting_depth[e]) for v in range(n)
        ]
        return all(self.dfs_test(s) for s in roots)

    def dfs_orient(self, v: int) -> None:
        e = self.parent_edge[v]
        for w in self.adj[v]:
            if (v, w) in self.oriented or (w, v) in self.oriented:
                continue
            vw = (v, w)
            self.oriented.add(vw)
            self.out[v].append(vw)
            self.lowpt[vw] = self.height[v]
            self.lowpt2[vw] = self.height[v]
            if self.height[w] is None:  # tree edge
                self.parent_edge[w] = vw
                self.height[w] = self.height[v] + 1
                self.dfs_orient(w)
            else:  # back edge
                self.lowpt[vw] = self.height[w]
            self.nesting_depth[vw] = 2 * self.lowpt[vw]
            if self.lowpt2[vw] < self.height[v]:  # chordal, nests deeper
                self.nesting_depth[vw] += 1
            if e is not None:
                if self.lowpt[vw] < self.lowpt[e]:
                    self.lowpt2[e] = min(self.lowpt[e], self.lowpt2[vw])
                    self.lowpt[e] = self.lowpt[vw]
                elif self.lowpt[vw] > self.lowpt[e]:
                    self.lowpt2[e] = min(self.lowpt2[e], self.lowpt[vw])
                else:
                    self.lowpt2[e] = min(self.lowpt2[e], self.lowpt2[vw])

    def dfs_test(self, v: int) -> bool:
        e = self.parent_edge[v]
        for i, ei in enumerate(self.ordered_adj[v]):
            self.stack_bottom[ei] = len(self.S)
            w = ei[1]
            if self.parent_edge[w] == ei:  # tree edge
                if not self.dfs_test(w):
                    return False
            else:  # back edge
                self.lowpt_edge[ei] = ei
                self.S.append(_ConflictPair(right=_Interval(ei, ei)))
            if self.lowpt[ei] < self.height[v]:  # ei has a return edge
                if i == 0:
                    self.lowpt_edge[e] = self.lowpt_edge[ei]
                elif not self.add_constraints(ei, e):
                    return False
        if e is not None:
            self.trim_back_edges(e)
        return True

    def conflicting(self, interval: _Interval, b: _Edge) -> bool:
        return not interval.empty() and self.lowpt[interval.high] > self.lowpt[b]

    def lowest(self, pair: _ConflictPair) -> int:
        if pair.left.empty():
            return self.lowpt[pair.right.low]
        if pair.right.empty():
            return self.lowpt[pair.left.low]
        return min(self.lowpt[pair.left.low], self.lowpt[pair.right.low])

    def add_constraints(self, ei: _Edge, e: _Edge) -> bool:
        P = _ConflictPair()
        # merge return edges of ei into P.right
        while True:
            Q = self.S.pop()
            if not Q.left.empty():
                Q.swap()
            if not Q.left.empty():
                return False
            if self.lowpt[Q.right.low] > self.lowpt[e]:
                if P.right.empty():  # topmost interval
                    P.right.high = Q.right.high
                else:
                    self.ref[P.right.low] = Q.right.high
                P.right.low = Q.right.low
            else:  # align
                self.ref[Q.right.low] = self.lowpt_edge[e]
            if len(self.S) == self.stack_bottom[ei]:
                break
        # merge conflicting return edges of earlier siblings into P.left
        while self.S and (
            self.conflicting(self.S[-1].left, ei) or self.conflicting(self.S[-1].right, ei)
        ):
            Q = self.S.pop()
            if self.conflicting(Q.right, ei):
                Q.swap()
            if self.conflicting(Q.right, ei):
                return False
            # interval below lowpt(ei) merges into P.right
            self.ref[P.right.low] = Q.right.high
            if Q.right.low is not None:
                P.right.low = Q.right.low
            if P.left.empty():  # topmost interval
                P.left.high = Q.left.high
            else:
                self.ref[P.left.low] = Q.left.high
            P.left.low = Q.left.low
        if not (P.left.empty() and P.right.empty()):
            self.S.append(P)
        return True

    def trim_back_edges(self, e: _Edge) -> None:
        u = e[0]
        # drop conflict pairs consisting entirely of back edges into u
        while self.S and self.lowest(self.S[-1]) == self.height[u]:
            self.S.pop()
        if self.S:
            P = self.S.pop()
            while P.left.high is not None and P.left.high[1] == u:
                P.left.high = self.ref.get(P.left.high)
            if P.left.high is None and P.left.low is not None:
                # interval just emptied
                self.ref[P.left.low] = P.right.low
                P.left.low = None
            while P.right.high is not None and P.right.high[1] == u:
                P.right.high = self.ref.get(P.right.high)
            if P.right.high is None and P.right.low is not None:
                self.ref[P.right.low] = P.left.low
                P.right.low = None
            self.S.append(P)
        if self.lowpt[e] < self.height[u] and self.S:  # e has a return edge
            hl = self.S[-1].left.high
            hr = self.S[-1].right.high
            if hl is not None and (hr is None or self.lowpt[hl] > self.lowpt[hr]):
                self.ref[e] = hl
            else:
                self.ref[e] = hr


def is_planar(g: Graph) -> bool:
    """Exact planarity test.

    Any graph on at most four vertices is planar; beyond that the edge-count
    bound m <= 3n-6 prunes, and the left-right criterion decides the rest.

    The test's depth-first searches recurse once per tree edge, so a graph
    too deep for Python's recursion limit raises ValueError.
    """
    if g.n <= 4:
        return True
    if g.m > 3 * g.n - 6:
        return False
    try:
        return _LRPlanarity(g).run()
    except RecursionError:
        raise ValueError(
            f"graph with {g.n} vertices is too deep for the planarity test's recursion"
        ) from None
