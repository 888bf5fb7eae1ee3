"""Chromatic polynomials by memoized deletion and contraction."""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import _bits, _component_masks, _merge_rows


class BudgetError(ValueError):
    """Instance exceeds the declared resource cutoff."""


@dataclass(frozen=True)
class ChromaticPolynomial:
    """Integer coefficients in ascending degree order, c0 first, monic."""

    coefficients: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def evaluate(self, k: int) -> int:
        return evaluate(self, k)

    def to_json_dict(self) -> dict:
        return {"version": 1, "coeffs": list(self.coefficients)}


def evaluate(p: ChromaticPolynomial, k: int) -> int:
    """Exact integer evaluation at a nonnegative palette size."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    acc = 0
    for c in reversed(p.coefficients):
        acc = acc * k + c
    return acc


def _mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def _sub(p: list[int], q: list[int]) -> list[int]:
    out = list(p) + [0] * (len(q) - len(p))
    for i, b in enumerate(q):
        out[i] -= b
    return out


def _falling_poly(n: int) -> list[int]:
    # k (k-1) ... (k-n+1)
    out = [1]
    for i in range(n):
        out = _mul(out, [-i, 1])
    return out


def _power_shifted(n: int, c: int, shift: int) -> list[int]:
    # k^shift (k + c)^n
    out = [1]
    for _ in range(n):
        out = _mul(out, [c, 1])
    return [0] * shift + out


def _induced_rows(rows: tuple[int, ...], mask: int) -> tuple[int, tuple[int, ...]]:
    verts = list(_bits(mask))
    idx = {x: i for i, x in enumerate(verts)}
    out = []
    for x in verts:
        nr = 0
        for y in _bits(rows[x] & mask):
            nr |= 1 << idx[y]
        out.append(nr)
    return len(verts), tuple(out)


_POLY_CACHE: dict[tuple[int, tuple[int, ...]], tuple[int, ...]] = {}


def _poly(n: int, rows: tuple[int, ...]) -> list[int]:
    key = (n, rows)
    hit = _POLY_CACHE.get(key)
    if hit is not None:
        return list(hit)
    m = sum(r.bit_count() for r in rows) // 2
    if m == 0:
        result = [0] * n + [1]
    elif m == n * (n - 1) // 2:
        result = _falling_poly(n)
    else:
        comps = _component_masks(n, rows)
        if len(comps) > 1:
            result = [1]
            for mask in comps:
                cn, crows = _induced_rows(rows, mask)
                result = _mul(result, _poly(cn, crows))
        elif m == n - 1:  # connected, so a tree
            result = _power_shifted(n - 1, -1, 1)
        else:
            # pick the edge with the most common neighbors; its contraction
            # sheds the most edges, so the denser branch stays smallest
            best = None
            best_common = -1
            for u in range(n):
                ru = rows[u]
                for v in _bits(ru):
                    if v <= u:
                        continue
                    common = (ru & rows[v]).bit_count()
                    if common > best_common:
                        best_common = common
                        best = (u, v)
            u, v = best
            del_rows = list(rows)
            del_rows[u] &= ~(1 << v)
            del_rows[v] &= ~(1 << u)
            deleted = _poly(n, tuple(del_rows))
            contracted = _poly(n - 1, _merge_rows(rows, u, v))
            result = _sub(deleted, contracted)
    _POLY_CACHE[key] = tuple(result)
    return result


def chromatic_polynomial(g, max_vertices: int = 20) -> ChromaticPolynomial:
    """Exact chromatic polynomial via deletion and contraction.

    Memoized on the exact labeled adjacency, shared across calls. Instances
    with more than `max_vertices` vertices are refused; pass a larger budget
    to force the computation.
    """
    if g.n > max_vertices:
        raise BudgetError(
            f"n={g.n} exceeds the {max_vertices}-vertex budget; "
            "raise max_vertices to force this computation"
        )
    return ChromaticPolynomial(tuple(_poly(g.n, g.rows)))
