"""Quadrilateral meshes with uniform and 1-irregular adaptive refinement.

A mesh is its refinement forest as arrays, the whole history included:
- `vertices (nv, 2)`: the coordinates;
- per element: `verts (ne, 4)`, counterclockwise, and `sides (ne, 4)`,
  where side s runs verts[s] -> verts[(s+1)%4]; `parent` (-1 for an
  initial element), `child`, the first of four consecutive children or -1
  while the element is active, and `level`;
- per edge: `ends (ned, 2)`, `edge_parent`, `edge_child`, the first of two
  consecutive halves, ordered from ends[0] to ends[1], or -1 while the edge
  is whole, and `boundary`.

The arrays are read-only and ids are stable: `refine_marked` returns a new
mesh built by concatenation and leaves its argument untouched.  Children
keep their parent's orientation: child i holds parent vertex i at position
i, so on a uniformly refined mesh every element has the same vertex order
and equal elements differ only by a translation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# a split element's points (its corners 0-3, side midpoints 4-7, centre 8)
# and edges (the half of side s at its corner s: s, at corner s+1: 4 + s,
# the inner edges: 8-11); child i holds corner i at position i
_INNER_ENDS = np.array([[4, 8], [8, 7], [5, 8], [6, 8]])
_CHILD_VERTS = np.array([[0, 4, 8, 7], [4, 1, 5, 8], [8, 5, 2, 6], [7, 8, 6, 3]])
_CHILD_SIDES = np.array([[0, 8, 9, 7], [4, 1, 10, 8], [10, 5, 2, 11], [9, 11, 6, 3]])


@dataclass(frozen=True, eq=False)
class Mesh:
    vertices: np.ndarray    # (nv, 2) coordinates
    verts: np.ndarray       # (ne, 4) vertex ids, counterclockwise
    sides: np.ndarray       # (ne, 4) side edge ids
    parent: np.ndarray      # (ne,) parent element, -1 for the initial ones
    child: np.ndarray       # (ne,) first of four children, -1 while active
    level: np.ndarray       # (ne,) refinement level
    ends: np.ndarray        # (ned, 2) edge end vertices
    edge_parent: np.ndarray  # (ned,) edge this one is a half of, or -1
    edge_child: np.ndarray  # (ned,) first of two halves, -1 while whole
    boundary: np.ndarray    # (ned,) on the domain boundary

    def __post_init__(self):
        for a in vars(self).values():
            a.setflags(write=False)

    @property
    def active_elements(self) -> np.ndarray:
        return np.flatnonzero(self.child < 0)

    def dump(self, degrees=None) -> str:
        """Plain-text dump: `v x y` and `e v0 v1 v2 v3 pK` lines."""
        active = self.active_elements
        p = np.ones_like(active) if degrees is None else degrees.of(self, active)
        lines = [f"v {x:.17g} {y:.17g}" for x, y in self.vertices.tolist()]
        lines += ["e " + " ".join(map(str, v)) + f" {q}"
                  for v, q in zip(self.verts[active].tolist(), p.tolist())]
        return "\n".join(lines) + "\n"


def _first_use(keys: np.ndarray):
    """Ids of the rows of `keys` (its entries if 1-D), numbered in the order
    in which each distinct row first occurs, and the first row of each id."""
    # rows as opaque bytes sort far faster than np.unique(axis=0)
    if keys.ndim > 1:
        keys = np.ascontiguousarray(keys).view((np.void, keys.itemsize * keys.shape[1]))
    _, first, inverse = np.unique(keys.ravel(), return_index=True,
                                  return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return rank[inverse], first[order]


def build_initial_mesh(domain: str, n_per_side: int) -> Mesh:
    """Uniform starting mesh on the unit square or the L-shaped domain."""
    if n_per_side < 1:
        raise ValueError(f"n_per_side must be >= 1, got {n_per_side}")
    if domain == "unit_square":
        blocks = [(0.0, 0.0)]
        lo, size = 0.0, 1.0
    elif domain == "l_shape":
        blocks = [(-1.0, -1.0), (-1.0, 0.0), (0.0, 0.0)]
        lo, size = -1.0, 1.0
    else:
        raise ValueError(f"unknown domain {domain!r}")

    h = size / n_per_side
    # the grid corners of the squares, block by block, column by column;
    # vertices and edges are numbered in the order the squares first use them
    i, j = np.divmod(np.arange(n_per_side ** 2), n_per_side)
    corners = np.concatenate([
        np.stack([round((bx - lo) / h) + i, round((by - lo) / h) + j], axis=-1)
        [:, None] + [[0, 0], [1, 0], [1, 1], [0, 1]] for bx, by in blocks])
    vert_of, first = _first_use(corners.reshape(-1, 2))
    verts = vert_of.reshape(-1, 4)
    pairs = np.stack([verts, np.roll(verts, -1, axis=1)], axis=-1).reshape(-1, 2)
    edge_of, first_side = _first_use(np.sort(pairs, axis=1))
    n_el, n_edges = len(verts), first_side.size
    return Mesh(vertices=lo + corners.reshape(-1, 2)[first] * h, verts=verts,
                sides=edge_of.reshape(-1, 4), parent=np.full(n_el, -1),
                child=np.full(n_el, -1), level=np.zeros(n_el, dtype=int),
                ends=pairs[first_side], edge_parent=np.full(n_edges, -1),
                edge_child=np.full(n_edges, -1),
                boundary=np.bincount(edge_of) == 1)


def _closure_order(mesh: Mesh, marked: list) -> list:
    """The elements that splitting `marked` splits, in order: each one
    after every coarser active neighbour across one of its sides, found
    depth first, as 1-irregularity needs."""
    active = mesh.active_elements
    # owner: an active element that has the edge as a side.  A side's
    # parent edge is a side of the element's inactive parent, so its owner
    # is the coarser neighbour across, if there is one
    owner = np.full(len(mesh.ends), -1)
    owner[mesh.sides[active]] = active[:, None]
    up = mesh.edge_parent[mesh.sides[active]]
    coarse = dict(zip(active.tolist(), np.where(up >= 0, owner[up], -1).tolist()))
    order, done = [], set()
    for k in marked:
        stack = [k]     # an element stays until its coarser neighbours are done
        while stack:
            u = stack[-1]
            if u not in done:
                todo = [c for c in coarse[u] if c >= 0 and c not in done]
                if todo:
                    stack += todo[::-1]
                    continue
                done.add(u)
                order.append(u)
            stack.pop()
    return order


def refine_marked(mesh: Mesh, marked) -> Mesh:
    """Split the marked active elements (plus 1-irregularity closure).

    The split numbers what it creates element by element, in the closure's
    order: the new midpoints of its sides, in side order, and its centre;
    the halves of its newly split sides and its inner edges (m0, c),
    (c, m3), (m1, c), (m2, c); then its four children.
    """
    marked = set(marked)
    bad = marked - set(mesh.active_elements.tolist())
    if bad:
        raise ValueError("marked ids are not active elements: "
                         + ", ".join(map(str, sorted(bad))))
    order = np.array(_closure_order(mesh, sorted(marked)), dtype=int)
    nv, ne, ned, m = len(mesh.vertices), len(mesh.verts), len(mesh.ends), order.size
    S, V = mesh.sides[order], mesh.verts[order]

    # a side's edge is newly split by the first element in order that has
    # it, unless it was split before
    first = np.zeros(S.size, dtype=bool)
    first[np.unique(S, return_index=True)[1]] = True
    new = first.reshape(m, 4) & (mesh.edge_child[S] < 0)
    n_new = new.sum(axis=1)
    rank = np.cumsum(new, axis=1) - new
    v_count, e_count = n_new + 1, 2 * n_new + 4
    v_base = nv + np.cumsum(v_count) - v_count
    e_base = ned + np.cumsum(e_count) - e_count
    split, mid = S[new], (v_base[:, None] + rank)[new]
    halves = (e_base[:, None] + 2 * rank)[new]
    centre = v_base + n_new

    vertices = np.concatenate([mesh.vertices, np.empty((v_count.sum(), 2))])
    a, b = mesh.ends[split].T
    vertices[mid] = 0.5 * (mesh.vertices[a] + mesh.vertices[b])
    vertices[centre] = mesh.vertices[V].mean(axis=1)
    n_edges = ned + e_count.sum()
    ends = np.concatenate([mesh.ends, np.empty((n_edges - ned, 2), dtype=int)])
    ends[halves] = np.column_stack([a, mid])
    ends[halves + 1] = np.column_stack([mid, b])
    edge_child = np.concatenate([mesh.edge_child, np.full(n_edges - ned, -1)])
    edge_child[split] = halves
    first_half = edge_child[S]
    points = np.column_stack([V, ends[first_half, 1], centre])
    inner = (e_base + 2 * n_new)[:, None] + np.arange(4)
    ends[inner] = points[:, _INNER_ENDS]
    edge_parent = np.concatenate([mesh.edge_parent, np.full(n_edges - ned, -1)])
    boundary = np.concatenate([mesh.boundary, np.zeros(n_edges - ned, dtype=bool)])
    for h in (halves, halves + 1):
        edge_parent[h] = split
        boundary[h] = mesh.boundary[split]

    # the half of side s at corner s is the edge's first half exactly when
    # the side runs along its edge
    reverse = mesh.ends[S, 0] != V
    edges = np.column_stack([first_half + reverse, first_half + 1 - reverse, inner])
    child = mesh.child.copy()
    child[order] = ne + 4 * np.arange(m)
    return Mesh(
        vertices=vertices,
        verts=np.concatenate([mesh.verts, points[:, _CHILD_VERTS].reshape(-1, 4)]),
        sides=np.concatenate([mesh.sides, edges[:, _CHILD_SIDES].reshape(-1, 4)]),
        parent=np.concatenate([mesh.parent, np.repeat(order, 4)]),
        child=np.concatenate([child, np.full(4 * m, -1)]),
        level=np.concatenate([mesh.level, np.repeat(mesh.level[order] + 1, 4)]),
        ends=ends, edge_parent=edge_parent, edge_child=edge_child,
        boundary=boundary)


def refine_uniform(mesh: Mesh) -> Mesh:
    return refine_marked(mesh, mesh.active_elements)


def bilinear_shape(points: np.ndarray) -> np.ndarray:
    """Bilinear vertex functions and their reference derivatives.

    points: (nq, 2) reference points.  Returns shape (3, nq, 4): values,
    d/dxi and d/deta, so that `bilinear_shape(points) @ coords` stacks the
    physical points and the two columns of the Jacobian.
    """
    xi = points[:, 0]
    eta = points[:, 1]
    n = [(1 - xi) * (1 - eta), (1 + xi) * (1 - eta),
         (1 + xi) * (1 + eta), (1 - xi) * (1 + eta)]
    dxi = [-(1 - eta), (1 - eta), (1 + eta), -(1 + eta)]
    deta = [-(1 - xi), -(1 + xi), (1 + xi), (1 - xi)]
    return 0.25 * np.array([n, dxi, deta]).transpose(0, 2, 1)


class DegreeMap:
    """Per-element polynomial degrees with inheritance through refinement:
    an element without a degree of its own has its nearest ancestor's."""

    def __init__(self, mesh: Mesh, p: int = 1, delta_p: int = 2):
        if p < 1:
            raise ValueError(f"base degree must be >= 1, got {p}")
        if delta_p < 1:
            raise ValueError(f"enrichment degree must be >= 1, got {delta_p}")
        self.delta_p = delta_p
        self._p = dict.fromkeys(mesh.active_elements.tolist(), p)

    def of(self, mesh: Mesh, ids) -> np.ndarray:
        """The degrees of the elements `ids`, found by walking every
        element without a degree of its own up one level at a time."""
        own = np.zeros(len(mesh.verts), dtype=int)
        own[list(self._p)] = list(self._p.values())
        k = np.array(ids, dtype=int, ndmin=1)
        p = own[k]
        todo = np.flatnonzero(p == 0)
        while todo.size:
            k[todo] = mesh.parent[k[todo]]
            if (k[todo] < 0).any():
                raise KeyError("no degree recorded for an element or its ancestors")
            p[todo] = own[k[todo]]
            todo = todo[p[todo] == 0]
        return p

    def set_degree(self, eid: int, p: int) -> None:
        if p < 1:
            raise ValueError(f"degree must be >= 1, got {p}")
        self._p[int(eid)] = p

    def increment(self, ids, mesh: Mesh, by: int = 1) -> None:
        """Raise the degrees of the distinct elements `ids` (one id or an
        array of them) by `by`."""
        ids = np.array(ids, dtype=int, ndmin=1)
        for k, p in zip(ids.tolist(), (self.of(mesh, ids) + by).tolist()):
            self.set_degree(k, p)
