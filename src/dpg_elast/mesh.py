"""Quadrilateral meshes with uniform and 1-irregular adaptive refinement.

A mesh is immutable after construction: refinement copies the vertex list,
the edge lookup and every element and edge record, and returns a new mesh.
Elements and edges are kept for the whole history with active flags; ids
are stable across refinements.  Children keep their parent's orientation:
child i holds parent vertex i at position i, so on a uniformly refined mesh
every element has the same vertex order and equal elements differ only by
a translation.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class Element:
    verts: list[int]          # 4 vertex ids, counterclockwise
    edges: list[int]          # side edge ids; side s runs verts[s] -> verts[(s+1)%4]
    level: int = 0
    parent: int | None = None
    children: list[int] = field(default_factory=list)
    active: bool = True


@dataclass
class Edge:
    v0: int
    v1: int
    boundary: bool = False
    parent: int | None = None
    children: list[int] = field(default_factory=list)   # ordered v0 -> v1
    elems: list[tuple[int, int]] = field(default_factory=list)  # (element id, side)


class Mesh:
    def __init__(self):
        self.vertices: list[tuple[float, float]] = []
        self.elements: list[Element] = []
        self.edges: list[Edge] = []
        self._edge_lookup: dict[tuple[int, int], int] = {}

    # -- construction helpers -------------------------------------------------

    def _add_vertex(self, x: float, y: float) -> int:
        self.vertices.append((float(x), float(y)))
        return len(self.vertices) - 1

    def _get_edge(self, v0: int, v1: int) -> int:
        key = (min(v0, v1), max(v0, v1))
        eid = self._edge_lookup.get(key)
        if eid is None:
            self.edges.append(Edge(v0=v0, v1=v1))
            eid = len(self.edges) - 1
            self._edge_lookup[key] = eid
        return eid

    def _add_element(self, verts, level=0, parent=None) -> int:
        edges = [self._get_edge(verts[s], verts[(s + 1) % 4]) for s in range(4)]
        el = Element(verts=list(verts), edges=edges, level=level, parent=parent)
        self.elements.append(el)
        kid = len(self.elements) - 1
        for s, eid in enumerate(edges):
            self.edges[eid].elems.append((kid, s))
        return kid

    # -- queries ---------------------------------------------------------------

    @property
    def active_elements(self) -> list[int]:
        return [i for i, el in enumerate(self.elements) if el.active]

    def element_coords(self, eid: int) -> np.ndarray:
        """Vertex coordinates of an element, shape (4, 2)."""
        return np.array([self.vertices[v] for v in self.elements[eid].verts])

    def coords_of(self, eids) -> np.ndarray:
        """Vertex coordinates of several elements, shape (len(eids), 4, 2)."""
        verts = [self.elements[k].verts for k in eids]
        return np.asarray(self.vertices, dtype=float)[verts].reshape(-1, 4, 2)

    def edge_midpoint_vertex(self, eid: int) -> int:
        """Vertex at the midpoint of a split edge (the shared child endpoint)."""
        e = self.edges[eid]
        return self.edges[e.children[0]].v1

    def active_side_neighbor(self, eid: int) -> int | None:
        """Active element having edge eid as one of its sides, if any."""
        for kid, _ in self.edges[eid].elems:
            if self.elements[kid].active:
                return kid
        return None

    def dump(self, degrees=None) -> str:
        """Plain-text dump: `v x y` and `e v0 v1 v2 v3 pK` lines."""
        lines = [f"v {x:.17g} {y:.17g}" for x, y in self.vertices]
        for k in self.active_elements:
            el = self.elements[k]
            p = degrees.degree_of(self, k) if degrees is not None else 1
            lines.append("e " + " ".join(str(v) for v in el.verts) + f" {p}")
        return "\n".join(lines) + "\n"

    def copy(self) -> "Mesh":
        """Independent copy: no record or list is shared with this mesh."""
        out = Mesh()
        out.vertices = list(self.vertices)
        out.elements = [Element(list(el.verts), list(el.edges), el.level,
                                el.parent, list(el.children), el.active)
                        for el in self.elements]
        out.edges = [Edge(e.v0, e.v1, e.boundary, e.parent, list(e.children),
                          list(e.elems))
                     for e in self.edges]
        out._edge_lookup = dict(self._edge_lookup)
        return out

    # -- refinement ------------------------------------------------------------

    def _split_edge(self, eid: int) -> None:
        e = self.edges[eid]
        if e.children:
            return
        (x0, y0), (x1, y1) = self.vertices[e.v0], self.vertices[e.v1]
        mid = self._add_vertex(0.5 * (x0 + x1), 0.5 * (y0 + y1))
        for a, b in ((e.v0, mid), (mid, e.v1)):
            self.edges.append(Edge(v0=a, v1=b, boundary=e.boundary, parent=eid))
            cid = len(self.edges) - 1
            self._edge_lookup[(min(a, b), max(a, b))] = cid
            e.children.append(cid)

    def _refine_element(self, k: int) -> None:
        el = self.elements[k]
        if not el.active:
            return
        # restore 1-irregularity first: a coarser active neighbor across a
        # parent side edge must be refined before splitting this element
        for s in range(4):
            eid = el.edges[s]
            parent = self.edges[eid].parent
            if parent is not None:
                coarse = self.active_side_neighbor(parent)
                if coarse is not None:
                    self._refine_element(coarse)
        for eid in el.edges:
            self._split_edge(eid)
        mids = [self.edge_midpoint_vertex(eid) for eid in el.edges]
        coords = self.element_coords(k)
        center = self._add_vertex(*coords.mean(axis=0))
        v = el.verts
        # child i keeps the parent's orientation and holds parent vertex i
        child_verts = [
            (v[0], mids[0], center, mids[3]),
            (mids[0], v[1], mids[1], center),
            (center, mids[1], v[2], mids[2]),
            (mids[3], center, mids[2], v[3]),
        ]
        el.active = False
        for cv in child_verts:
            cid = self._add_element(cv, level=el.level + 1, parent=k)
            el.children.append(cid)


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

    mesh = Mesh()
    h = size / n_per_side
    vmap: dict[tuple[int, int], int] = {}

    def vertex(ix: int, iy: int) -> int:
        key = (ix, iy)
        if key not in vmap:
            vmap[key] = mesh._add_vertex(lo + ix * h, lo + iy * h)
        return vmap[key]

    for bx, by in blocks:
        ox = round((bx - lo) / h)
        oy = round((by - lo) / h)
        for i in range(n_per_side):
            for j in range(n_per_side):
                v00 = vertex(ox + i, oy + j)
                v10 = vertex(ox + i + 1, oy + j)
                v11 = vertex(ox + i + 1, oy + j + 1)
                v01 = vertex(ox + i, oy + j + 1)
                mesh._add_element((v00, v10, v11, v01))

    for e in mesh.edges:
        e.boundary = len(e.elems) == 1
    return mesh


def refine_marked(mesh: Mesh, marked) -> Mesh:
    """Split the marked active elements (plus 1-irregularity closure)."""
    active = set(mesh.active_elements)
    bad = set(marked) - active
    if bad:
        raise ValueError(f"marked ids are not active elements: {sorted(bad)}")
    new = mesh.copy()
    for k in sorted(marked):
        new._refine_element(k)
    return new


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
    """Per-element polynomial degrees with inheritance through refinement."""

    def __init__(self, mesh: Mesh, p: int = 1, delta_p: int = 2):
        if p < 1:
            raise ValueError(f"base degree must be >= 1, got {p}")
        if delta_p < 1:
            raise ValueError(f"enrichment degree must be >= 1, got {delta_p}")
        self.delta_p = delta_p
        self._p = {k: p for k in mesh.active_elements}

    def degree_of(self, mesh: Mesh, eid: int) -> int:
        k = eid
        while k is not None:
            if k in self._p:
                return self._p[k]
            k = mesh.elements[k].parent
        raise KeyError(f"no degree recorded for element {eid} or its ancestors")

    def set_degree(self, eid: int, p: int) -> None:
        if p < 1:
            raise ValueError(f"degree must be >= 1, got {p}")
        self._p[eid] = p

    def increment(self, eid: int, mesh: Mesh, by: int = 1) -> None:
        self.set_degree(eid, self.degree_of(mesh, eid) + by)
