"""Chromatic polynomials by exact reductions and memoized edge recursion.

Each graph is reduced by the first rule that applies: complete graphs in
closed form; a product over components; a tree on n vertices as
k (k - 1)^(n-1), its coefficients by the binomial theorem; a simplicial
vertex v, whose d neighbors form a clique, gives P(G) = (k - d) P(G - v).
Otherwise a vertex pair is branched on: addition-contraction
P(G) = P(G + uv) + P(G / uv) on a missing pair when more than half of all
pairs are edges, and deletion-contraction P(G) = P(G - uv) - P(G / uv) on
an edge otherwise, so both branches head toward the closed forms.
"""

from __future__ import annotations

from math import comb

from .graphs import _bits, _component_masks, _keep_rows, _memo, _merge_rows, _toggle_rows


class BudgetError(ValueError):
    """Instance exceeds the declared resource cutoff."""


def evaluate(coefficients: tuple[int, ...], k: int) -> int:
    """Exact integer evaluation of ascending coefficients, c0 first, at a
    nonnegative palette size, by Horner's rule."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    acc = 0
    for c in reversed(coefficients):
        acc = acc * k + c
    return acc


def _mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def _add(p: tuple[int, ...], q: tuple[int, ...], sign: int) -> list[int]:
    # p + sign * q
    out = list(p) + [0] * (len(q) - len(p))
    for i, b in enumerate(q):
        out[i] += sign * b
    return out


def _falling_poly(n: int) -> list[int]:
    # k (k-1) ... (k-n+1)
    out = [1]
    for i in range(n):
        out = _mul(out, [-i, 1])
    return out


def _simplicial(rows: tuple[int, ...]) -> int | None:
    """A vertex whose neighborhood is a clique, or None."""
    for v, nb in enumerate(rows):
        for u in _bits(nb):
            if nb & ~rows[u] != 1 << u:
                break
        else:
            return v
    return None


def _branch_pair(rows: tuple[int, ...], dense: bool) -> tuple[int, int]:
    # Dense: the missing pair with the most common neighbors; its merge
    # sheds the most edges, so the merged branch stays smallest. Sparse: an
    # edge at a vertex of least degree, so deleting edges soon leaves a
    # simplicial vertex; ties again go to the most common neighbors.
    n = len(rows)
    if dense:
        full = (1 << n) - 1
        cands = ((u, v) for u in range(n) for v in _bits(full & ~rows[u] & ~((2 << u) - 1)))
    else:
        low = min(r.bit_count() for r in rows)
        cands = ((u, v) for u in range(n) if rows[u].bit_count() == low for v in _bits(rows[u]))
    return max(cands, key=lambda p: (rows[p[0]] & rows[p[1]]).bit_count())


@_memo
def _poly(rows: tuple[int, ...]) -> tuple[int, ...]:
    # a tuple: every caller of a memo hit shares the one object
    return tuple(_reduce(rows))


def _reduce(rows: tuple[int, ...]) -> list[int]:
    n = len(rows)
    m = sum(r.bit_count() for r in rows) // 2
    pairs = n * (n - 1) // 2
    if m == pairs:
        return _falling_poly(n)
    comps = _component_masks(rows)
    if len(comps) > 1:
        result = [1]
        for mask in comps:
            result = _mul(result, _poly(_keep_rows(rows, mask)))
        return result
    if m == n - 1:  # connected, so a tree
        return [0] + [comb(n - 1, i) * (-1) ** (n - 1 - i) for i in range(n)]
    v = _simplicial(rows)
    if v is not None:
        # P(G) = (k - d) P(G - v) when N(v) is a d-clique
        rest = _poly(_keep_rows(rows, ((1 << n) - 1) ^ 1 << v))
        return _mul([-rows[v].bit_count(), 1], rest)
    dense = 2 * m > pairs
    u, v = _branch_pair(rows, dense)
    # dense: P(G) = P(G + uv) + P(G / uv); sparse: P(G) = P(G - uv) - P(G / uv)
    return _add(
        _poly(_toggle_rows(rows, u, v)),
        _poly(_merge_rows(rows, u, v)),
        1 if dense else -1,
    )


def chromatic_polynomial(g, max_vertices: int = 20) -> tuple[int, ...]:
    """Exact chromatic polynomial as its integer coefficients in ascending
    degree order, c0 first, monic: (0, -1, 3, -3, 1) for P4.

    Components, simplicial vertices and trees, k (k - 1)^(n-1) by binomial
    coefficients, are peeled off exactly; what remains is branched by
    addition-contraction when dense and by deletion-contraction when sparse
    (see the module docstring). Memoized on the exact labeled adjacency by
    the package's bounded LRU memo, shared across calls. Instances with
    more than `max_vertices` vertices are refused; pass a larger budget to
    force the computation. The reductions recurse, so a graph too deep for
    Python's recursion limit, such as a long cycle, raises BudgetError too.
    """
    if g.n > max_vertices:
        raise BudgetError(
            f"n={g.n} exceeds the {max_vertices}-vertex budget; "
            "raise max_vertices to force this computation"
        )
    try:
        return _poly(g.rows)
    except RecursionError:
        raise BudgetError(
            f"graph with {g.n} vertices is too deep for the polynomial's recursion"
        ) from None
