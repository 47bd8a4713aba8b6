"""Global dof layout, Dirichlet data, static condensation, and sparse solve.

`build_dof_layout` is the one reader of the mesh topology and of the
`DegreeMap` in a step.  One pass over the active elements' sides finds
each side's trace owner edge and flux leaf edges, gives each edge the
largest degree of the elements whose sides carry it (the maximum rule),
records the midpoint of each split side as a hanging vertex constrained
by that side's edge, and collects the ends of the boundary leaves as the
vertices to pin.  The layout carries the element degrees, delta_p and the
element coordinates, so the solver functions below take the layout in
place of the mesh and the degree map; only `dirichlet_values` also reads
the mesh, for the boundary coordinates.

Numbering is element-major for the interior (sigma, u) blocks, then vertex
trace dofs, edge trace bubbles, and edge flux dofs.

Each element computes on its own skeleton basis (`SideSegment`): the
trace of degree q along each counterclockwise side, with the element's
corner functions at the side's ends, and one flux basis per leaf, along
the side.  Everything topological lives in the element's constraint map
C_K from the global to the local skeleton dofs, which `build_dof_layout`
builds in one place:
- a side that runs against its edge swaps the edge's ends, and its trace
  bubbles and flux bubbles of odd degree change sign;
- the flux takes the sign of the outward normal against the leaf's normal;
- a constrained side (a half of its master edge, whose other side is one
  element) takes the restriction of the master's trace bubbles to that
  half, a small dense block per (q, half, reversed);
- a hanging corner takes the master's trace at the edge midpoint, spread
  onto the master's dofs (`vertex_entries`).
Then the element's skeleton unknowns are x_K = C_K x, and its matrix and
loads enter the global system as C_K' S_K C_K and C_K' g_K.

The layout sorts the elements into classes.  An element's coupling
matrix B (and its Gram factor) depends only on its degrees, its shape up
to translation and its segments' degrees, so the class key is (p,
p_tilde, vertex offsets from vertex 0, per side: the trace degree q and
the leaves' flux degrees).  Orientation, flux signs and hanging nodes do
not split classes.  A class's kernel (Gram factor, B and the interior
condensation blocks) is built whole on translated coordinates, so it
depends on the class key alone; a `KernelCache` keyed by the class key and
the material carries it from one refinement step to the next, and each
step builds only the classes that are new to it.  Condensation, the error
estimator and the rank-one border terms stack the members of a class and
do their dense algebra once per class, with one scatter through the
members' C_K per class (`ClassMap`).  The loads of a step are computed
once, with one call of f per degree group.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack
from scipy.sparse.linalg import splu

from .basis import _read_only, edge_basis_eval, gauss_rule
from .local import (SideSegment, cholesky_solve, gram_factor, local_bmat,
                    local_gram, local_loads, local_stiffness, lower_solve)
from .material import Material
from .mesh import DegreeMap, Mesh

# SuperLU options for the SPD condensed skeleton matrix: a symmetric
# minimum-degree ordering of A'+A, with the pivots kept on the diagonal
SPD_SPLU_OPTIONS = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                        options=dict(SymmetricMode=True))


@dataclass(frozen=True)
class ClassKernel:
    """Read-only matrices of one element class.

    `L` is the Gram Cholesky factor and `B` the coupling matrix with its
    columns in class order.  With K = B'G^-1 B split into interior and
    skeleton blocks, `Kii` is the Cholesky factor of the interior block,
    `Kis` the interior-skeleton block, `A` = Kii^-1 Kis and `S` the
    element Schur complement Kss - Kis'A.
    """

    L: np.ndarray
    B: np.ndarray
    Kii: np.ndarray
    Kis: np.ndarray
    A: np.ndarray
    S: np.ndarray


@dataclass
class KernelCache:
    """Element-class kernels of a study, carried from step to step.

    `kernels` maps (class key, material) to a `ClassKernel`, and
    `gram_factors` maps (p_tilde, vertex offsets from vertex 0) to a Gram
    Cholesky factor.  `build_dof_layout` drops every entry its classes do
    not use, so the cache holds at most one step's classes.
    """

    kernels: dict[tuple, ClassKernel] = field(default_factory=dict)
    gram_factors: dict[tuple, np.ndarray] = field(default_factory=dict)

    def retain(self, class_keys) -> None:
        """Keep only the entries of the given class keys."""
        keys = set(class_keys)
        # a class key is (p, p_tilde, vertex offsets, pattern)
        shapes = {(key[1], key[2]) for key in keys}
        self.kernels = {k: v for k, v in self.kernels.items() if k[0] in keys}
        self.gram_factors = {k: v for k, v in self.gram_factors.items()
                             if k in shapes}


@dataclass(frozen=True)
class ClassMap:
    """The constraint maps C_K of a class's members, with their interior dofs.

    Local skeleton dof `rows[i, t]` of member i takes `weights[i, t]` times
    global dof `ids[i, t]`, and x_K = C_K x sums these over t.  `rows` is
    None when every member's C_K is a scaled copy, one entry per local dof
    in local order; otherwise a member's unused trailing entries have
    weight zero.  `interior` holds the members' interior dof ids.
    """

    interior: np.ndarray        # (m, ni)
    ids: np.ndarray             # (m, nnz)
    rows: np.ndarray | None     # (m, nnz), or None: rows[i, t] == t
    weights: np.ndarray         # (m, nnz)
    n_skel: int                 # local skeleton dofs per member

    def gather(self, x: np.ndarray) -> np.ndarray:
        """The members' local skeleton values C_K x, shape (m, n_skel)."""
        vals = self.weights * x[self.ids]
        if self.rows is None:
            return vals
        m = len(self.ids)
        flat = (np.arange(m)[:, None] * self.n_skel + self.rows).ravel()
        return np.bincount(flat, vals.ravel(),
                           m * self.n_skel).reshape(m, self.n_skel)

    def scatter(self, out: np.ndarray, vals: np.ndarray) -> None:
        """Add C_K' vals[i] of every member i to `out`; `vals` has shape
        (m, n_skel) or (m, n_skel, k) for an (n_dofs, k) `out`."""
        if self.rows is not None:
            vals = vals[np.arange(len(self.ids))[:, None], self.rows]
        w = self.weights if vals.ndim == 2 else self.weights[..., None]
        np.add.at(out, self.ids, w * vals)

    def coo(self, S: np.ndarray):
        """(rows, cols, values) of the sum of C_K' S C_K over the members."""
        if self.rows is not None:
            S = S[self.rows[:, :, None], self.rows[:, None, :]]
        vals = self.weights[:, :, None] * S * self.weights[:, None, :]
        return (np.broadcast_to(self.ids[:, :, None], vals.shape).ravel(),
                np.broadcast_to(self.ids[:, None, :], vals.shape).ravel(),
                vals.ravel())

    def member(self, i: int) -> "ClassMap":
        """The one-member map of member i."""
        rows = None if self.rows is None else self.rows[i:i + 1]
        return ClassMap(self.interior[i:i + 1], self.ids[i:i + 1], rows,
                        self.weights[i:i + 1], self.n_skel)


@dataclass
class DofLayout:
    n_dofs: int
    interior_base: dict[int, int]            # element -> first interior dof
    vertex_dof: dict[int, int]               # vertex -> dof of x component
    trace_edges: dict[int, tuple[int, int]]  # owner edge -> (q, bubble base)
    flux_edges: dict[int, tuple[int, int]]   # leaf edge -> (degree, base)
    hanging: dict[int, int]                  # hanging vertex -> master edge
    pinned: np.ndarray                       # bool mask over all dofs
    element_p: dict[int, int]
    delta_p: int                             # test enrichment, p_tilde - p
    elements: np.ndarray                     # active elements, layout order
    position: dict[int, int]                 # element -> layout position
    coords: np.ndarray                       # (n, 4, 2) vertices, layout order
    degree_groups: dict[int, np.ndarray]     # p -> positions of degree p
    segments: dict[int, list[SideSegment]]   # element -> side segments
    element_class: dict[int, tuple[int, int]]  # element -> (class id, row)
    classes: list[list[int]]                 # class id -> its elements
    class_keys: list[tuple]                  # class id -> class key
    class_maps: list[ClassMap]               # class id -> members' C_K
    # class kernels and Gram factors, filled lazily by element_full_bmat
    # and shared with the other steps of a study
    cache: KernelCache
    # read-only element loads of this step, filled by element_full_bmat
    # for a whole degree group at a time: (f, element) -> load
    loads: dict[tuple, np.ndarray] = field(default_factory=dict, repr=False)

    @property
    def n_free(self) -> int:
        return int(self.n_dofs - self.pinned.sum())

    def interior_bases(self, rows: np.ndarray) -> np.ndarray:
        """First interior dof of the elements at the given layout positions."""
        return np.array([self.interior_base[k]
                         for k in self.elements[rows].tolist()], dtype=int)


@lru_cache(maxsize=None)
def _restriction(q: int, half: int | None, reverse: bool):
    """Side coefficients from edge coefficients of the degree q edge basis,
    as rows of (weight, edge function) pairs, one row per side function.

    The side covers child `half` of the edge (the whole edge for None) and
    runs against the edge when `reverse`: then the ends swap and the
    bubbles of odd degree change sign.  On a half, a bubble restricts to
    bubbles of at most its degree plus a linear part, which the corner
    values carry; the rows of the side's ends are left out there.
    """
    if half is None:
        T = np.eye(q + 1)
        if reverse:
            T = T[[1, 0, *range(2, q + 1)]]
            T[2:] *= ((-1.0) ** np.arange(2, q + 1))[:, None]
    else:
        t = gauss_rule(q + 1).points
        t_edge = 0.5 * ((-t if reverse else t) + 2 * half - 1)
        # the edge functions at the points are T' times the side functions
        T = np.linalg.solve(edge_basis_eval(q, t).T,
                            edge_basis_eval(q, t_edge).T)
        T = np.vstack([np.zeros((2, q + 1)), np.triu(T[2:], 2)])
    return tuple(tuple((w, i) for i, w in enumerate(row) if w)
                 for row in T.tolist())


def _class_map(interior: np.ndarray, member_rows: list) -> ClassMap:
    """A class's `ClassMap` from its members' C_K, given per member as
    rows of (weight, global x dof) pairs, one row per local skeleton
    function; local dof 2 r + c takes global dof g + c."""
    m, n = len(member_rows), len(member_rows[0])
    nnz = [sum(map(len, rows)) for rows in member_rows]
    member, row, w, g = np.array(
        [(i, r, w, g) for i, rows in enumerate(member_rows)
         for r, entries in enumerate(rows) for w, g in entries]).T
    member, row, g = member.astype(int), row.astype(int), g.astype(int)
    start = np.cumsum([0] + nnz[:-1])
    slot = np.arange(member.size) - np.repeat(start, nnz)
    # a member's unused slots: its first dof, with weight zero
    ids = np.repeat(g[start][:, None], max(nnz), axis=1)
    rows = np.zeros(ids.shape, dtype=int)
    weights = np.zeros(ids.shape)
    ids[member, slot], rows[member, slot], weights[member, slot] = g, row, w
    comp = np.arange(2)
    ids = (ids[:, :, None] + comp).reshape(m, -1)
    rows = (2 * rows[:, :, None] + comp).reshape(m, -1)
    copies = max(nnz) == n
    return ClassMap(*_read_only(interior, ids),
                    None if copies else _read_only(rows)[0],
                    _read_only(np.repeat(weights, 2, axis=1))[0], 2 * n)


def build_dof_layout(mesh: Mesh, degrees: DegreeMap, bc_spec: str = "dirichlet",
                     cache: KernelCache | None = None) -> DofLayout:
    """Global numbering, constraint maps and boundary pinning.

    `cache` holds the class kernels of an earlier step; the entries this
    layout's classes do not use are dropped.  Without it the layout starts
    an empty cache.
    """
    if bc_spec != "dirichlet":
        raise ValueError(f"unsupported boundary condition spec {bc_spec!r}")
    active = mesh.active_elements
    element_p = {k: degrees.degree_of(mesh, k) for k in active}
    all_coords = mesh.coords_of(active)
    all_coords.setflags(write=False)
    degree_of = np.array(list(element_p.values()), dtype=int)

    # one pass over the element sides: each side's trace owner edge and
    # flux leaf edges, the edge degrees by the maximum rule over the
    # elements whose sides carry the edge, the hanging vertices (midpoints
    # of split sides) and the boundary vertices (ends of boundary leaves)
    sides: dict[int, list[tuple[int, list[int]]]] = {}
    trace_q: dict[int, int] = {}
    flux_p: dict[int, int] = {}
    hanging: dict[int, int] = {}
    boundary_verts: set[int] = set()
    for k in active:
        p = element_p[k]
        sides[k] = []
        for s, eid in enumerate(mesh.elements[k].edges):
            leaves = mesh.side_subedges(k, s)
            parent = mesh.edges[eid].parent
            if len(leaves) > 1:
                hanging[mesh.edge_midpoint_vertex(eid)] = eid
                owner = eid
            elif (parent is not None
                    and mesh.active_side_neighbor(parent) is not None):
                owner = parent      # constrained side, master across the interface
            else:
                owner = eid
            sides[k].append((owner, leaves))
            trace_q[owner] = max(trace_q.get(owner, 0), p + 1)
            for leaf in leaves:
                flux_p[leaf] = max(flux_p.get(leaf, 0), p)
                edge = mesh.edges[leaf]
                if edge.boundary:
                    boundary_verts.update((edge.v0, edge.v1))
    trace_edges = sorted(trace_q)
    flux_edges = sorted(flux_p)

    # numbering
    n = 0
    interior_base = {}
    for k in active:
        interior_base[k] = n
        n += 5 * (element_p[k] + 1) ** 2

    vertex_dof = {}
    for e in trace_edges:
        for v in (mesh.edges[e].v0, mesh.edges[e].v1):
            if v not in hanging and v not in vertex_dof:
                vertex_dof[v] = n
                n += 2

    trace_base = {}
    for e in trace_edges:
        trace_base[e] = n
        n += 2 * (trace_q[e] - 1)

    flux_base = {}
    for e in flux_edges:
        flux_base[e] = n
        n += 2 * (flux_p[e] + 1)

    pinned = np.zeros(n, dtype=bool)
    for v, d in vertex_dof.items():
        if v in boundary_verts:
            pinned[d:d + 2] = True
    for e in trace_edges:
        if mesh.edges[e].boundary:
            b = trace_base[e]
            pinned[b:b + 2 * (trace_q[e] - 1)] = True

    @lru_cache(maxsize=None)
    def vertex_entries(v: int) -> list[tuple[float, int]]:
        """The trace value at vertex v as (weight, x dof) pairs."""
        if v in vertex_dof:
            return [(1.0, vertex_dof[v])]
        # a hanging vertex takes its master edge's trace at the midpoint
        master = hanging[v]
        e = mesh.edges[master]
        q = trace_q[master]
        vals = edge_basis_eval(q, 0.0)[:, 0]
        base = trace_base[master]
        return ([(w * vals[0], g) for w, g in vertex_entries(e.v0)]
                + [(w * vals[1], g) for w, g in vertex_entries(e.v1)]
                + [(vals[i], base + 2 * (i - 2)) for i in range(2, q + 1)])

    # per element: side segments, class key and C_K, whose rows are the
    # local skeleton functions (four corners, each side's trace bubbles,
    # each segment's flux functions) as lists of (weight, global x dof)
    segments: dict[int, list[SideSegment]] = {}
    element_class: dict[int, tuple[int, int]] = {}
    class_ids: dict[tuple, int] = {}
    classes: list[list[int]] = []
    class_rows: list[list] = []
    for k, coords in zip(active, all_coords):
        el = mesh.elements[k]
        segs, key_sides = [], []
        rows = [vertex_entries(v) for v in el.verts]
        flux_rows = []
        for s, (owner, leaves) in enumerate(sides[k]):
            q, base = trace_q[owner], trace_base[owner]
            # children run the way their parent edge runs, so every leaf
            # and the owner run along the side exactly when the side's
            # own edge does
            own = el.edges[s]
            reverse = mesh.edges[own].v0 != el.verts[s]
            half = None if owner == own else mesh.edges[owner].children.index(own)
            rows += [[(w, base + 2 * (j - 2)) for w, j in r]
                     for r in _restriction(q, half, reverse)[2:]]
            # the flux also changes sign with the normal
            sign = -1.0 if reverse else 1.0
            nseg = len(leaves)
            for i, leaf in enumerate(leaves):
                segs.append(SideSegment(side=s, t0=-1.0 + 2.0 * i / nseg,
                                        t1=-1.0 + 2.0 * (i + 1) / nseg,
                                        trace_q=q, flux_p=flux_p[leaf]))
                fb = flux_base[leaf]
                flux_rows += [[(sign * w, fb + 2 * j) for w, j in r]
                              for r in _restriction(flux_p[leaf], None, reverse)]
            key_sides.append((q, tuple(flux_p[leaf] for leaf in leaves)))
        segments[k] = segs
        rows += flux_rows

        key = (element_p[k], element_p[k] + degrees.delta_p,
               (coords - coords[0]).tobytes(), tuple(key_sides))
        cls = class_ids.setdefault(key, len(classes))
        if cls == len(classes):
            classes.append([])
            class_rows.append([])
        element_class[k] = (cls, len(classes[cls]))
        classes[cls].append(k)
        class_rows[cls].append(rows)

    class_maps = []
    for members, member_rows in zip(classes, class_rows):
        ni = 5 * (element_p[members[0]] + 1) ** 2
        interior = (np.array([interior_base[k] for k in members])[:, None]
                    + np.arange(ni))
        class_maps.append(_class_map(interior, member_rows))

    cache = KernelCache() if cache is None else cache
    cache.retain(class_ids)
    return DofLayout(n_dofs=n, interior_base=interior_base, vertex_dof=vertex_dof,
                     trace_edges={e: (trace_q[e], trace_base[e]) for e in trace_edges},
                     flux_edges={e: (flux_p[e], flux_base[e]) for e in flux_edges},
                     hanging=hanging, pinned=pinned, element_p=element_p,
                     delta_p=degrees.delta_p,
                     elements=np.array(active, dtype=int),
                     position={k: i for i, k in enumerate(active)},
                     coords=all_coords,
                     degree_groups={int(p): np.flatnonzero(degree_of == p)
                                    for p in np.unique(degree_of)},
                     segments=segments, element_class=element_class,
                     classes=classes, class_keys=list(class_ids),
                     class_maps=class_maps, cache=cache)


def element_full_bmat(layout: DofLayout, material: Material, f, eid: int):
    """Gram Cholesky factor, full local coupling matrix, load, and the
    element's one-member `ClassMap` (its interior dofs and C_K).

    L and B are the element class's read-only matrices from `layout.cache`,
    built on the first request of the study; B's skeleton columns are the
    element's local skeleton dofs.  The first load request of the step for
    a degree computes the loads of every element of that degree and keeps
    them in `layout.loads`.
    """
    kernel = _kernel(layout, material, eid)
    if (f, eid) not in layout.loads:
        p = layout.element_p[eid]
        rows = layout.degree_groups[p]
        lvecs = local_loads(layout.coords[rows], p + layout.delta_p, f)
        lvecs.setflags(write=False)
        layout.loads.update(((f, k), lvec) for k, lvec
                            in zip(layout.elements[rows].tolist(), lvecs))
    cls, row = layout.element_class[eid]
    return (kernel.L, kernel.B, layout.loads[f, eid],
            layout.class_maps[cls].member(row))


def _class_members(layout: DofLayout, material: Material, f, cls: int):
    """Class cls's kernel, its members' loads as the columns of a
    (5 ns, m) block, and its `ClassMap`.

    Every member goes through `element_full_bmat` once.
    """
    members = layout.classes[cls]
    lvecs = np.column_stack([element_full_bmat(layout, material, f, k)[2]
                             for k in members])
    return (_kernel(layout, material, members[0]), lvecs,
            layout.class_maps[cls])


def _kernel(layout: DofLayout, material: Material, eid: int) -> ClassKernel:
    """Element eid's class kernel, from the cache or built and cached."""
    key = (layout.class_keys[layout.element_class[eid][0]], material)
    kernel = layout.cache.kernels.get(key)
    if kernel is None:
        kernel = _class_kernel(layout, eid, material)
        layout.cache.kernels[key] = kernel
    return kernel


def _class_kernel(layout: DofLayout, eid: int,
                  material: Material) -> ClassKernel:
    """Kernel of element eid's class, on the class's local skeleton basis.

    Everything is computed on the element translated to vertex 0, from
    data the class key fixes, so it does not depend on which element or
    step built it.  The Gram factor depends only on p_tilde and
    the vertex offsets and is shared by every class of that shape.
    """
    coords = layout.coords[layout.position[eid]]
    rel = coords - coords[0]
    p = layout.element_p[eid]
    p_tilde = p + layout.delta_p
    gkey = (p_tilde, rel.tobytes())
    L = layout.cache.gram_factors.get(gkey)
    if L is None:
        L = gram_factor(local_gram(rel, p_tilde))
        L.setflags(write=False)
        layout.cache.gram_factors[gkey] = L
    B = local_bmat(rel, p, p_tilde, material, layout.segments[eid])
    ni = 5 * (p + 1) ** 2
    K = local_stiffness(L, B)
    Kis, Kss = K[:ni, ni:], K[ni:, ni:]
    Kii, info = lapack.dpotrf(K[:ni, :ni], lower=1)
    if info > 0:
        raise RuntimeError("interior block of an element matrix "
                           "is not positive definite")
    if info < 0:
        raise ValueError(f"LAPACK reported an illegal value in {-info}-th "
                         "argument on entry to POTRF")
    A = cholesky_solve(Kii, Kis)
    S = Kss - Kis.T @ A
    # a copy of Kis, so that K itself is not kept alive
    return ClassKernel(*_read_only(L, B, Kii, np.ascontiguousarray(Kis), A, S))


def dirichlet_values(layout: DofLayout, g_data, mesh: Mesh) -> np.ndarray:
    """Pinned-dof vector interpolating/projecting the boundary displacement.

    g_data maps an (n, 2) array of boundary points to (n, 2) displacements.
    It is called once, at the pinned vertices and at the quadrature points
    and ends of every boundary edge; the bubble coefficients of the edges of
    one trace degree come from one solve.
    """
    xp = np.zeros(layout.n_dofs)
    if g_data is None:
        return xp
    verts = np.asarray(mesh.vertices, dtype=float)
    pinned_verts = [(v, d) for v, d in layout.vertex_dof.items()
                    if layout.pinned[d]]
    # boundary edges with bubbles, by trace degree q: (bubble base, ends)
    by_q: dict[int, list[tuple[int, int, int]]] = {}
    for e, (q, base) in layout.trace_edges.items():
        edge = mesh.edges[e]
        if edge.boundary and q >= 2:
            by_q.setdefault(q, []).append((base, edge.v0, edge.v1))
    # the pinned vertices, then per edge its quadrature points and its ends
    points = [verts[[v for v, _ in pinned_verts]].reshape(-1, 2)]
    for q, edges in by_q.items():
        ends = verts[[(v0, v1) for _, v0, v1 in edges]]
        t = gauss_rule(q + 3).points[:, None]
        pts = 0.5 * (1 - t) * ends[:, None, 0] + 0.5 * (1 + t) * ends[:, None, 1]
        points.append(np.concatenate([pts, ends], axis=1).reshape(-1, 2))
    values = np.split(g_data(np.concatenate(points)),
                      np.cumsum([len(pts) for pts in points[:-1]]))
    vdofs = np.array([d for _, d in pinned_verts], dtype=int)
    xp[vdofs] = values[0][:, 0]
    xp[vdofs + 1] = values[0][:, 1]
    for (q, edges), gv in zip(by_q.items(), values[1:]):
        rule = gauss_rule(q + 3)
        gv = gv.reshape(len(edges), -1, 2)
        vals = edge_basis_eval(q, rule.points)
        resid = (gv[:, :-2] - vals[0][:, None] * gv[:, None, -2]
                 - vals[1][:, None] * gv[:, None, -1])
        bub = vals[2:]
        M = (bub * rule.weights) @ bub.T
        rhs = (bub * rule.weights) @ resid  # (edges, q-1, 2)
        c = np.linalg.solve(M, rhs.transpose(1, 0, 2).reshape(q - 1, -1))
        bases = np.array([base for base, _, _ in edges])
        xp[bases[:, None] + np.arange(2 * (q - 1))] = \
            c.reshape(q - 1, len(edges), 2).transpose(1, 0, 2).reshape(len(edges), -1)
    return xp


def error_indicators(material: Material, f, layout: DofLayout,
                     x: np.ndarray) -> dict[int, float]:
    """Elementwise V-norms of the error representation function.

    The V-norm of e = G^-1 r is |L^-1 r|, with r = l - B x_K the residual
    and x_K the element's interior dofs and C_K x; each class does one
    triangular solve for all its members.
    """
    out = dict.fromkeys(layout.element_p, 0.0)
    for cls, members in enumerate(layout.classes):
        kernel, lvecs, cmap = _class_members(layout, material, f, cls)
        xk = np.concatenate([x[cmap.interior], cmap.gather(x)], axis=1)
        z = lower_solve(kernel.L, lvecs - kernel.B @ xk.T)
        out.update(zip(members, np.linalg.norm(z, axis=0).tolist()))
    return out


@dataclass
class CondensedSystem:
    """Skeleton system left after condensing the element interiors.

    Column j of `rhs` is load j condensed onto the free skeleton dofs;
    column 0 is the DPG load with the Dirichlet lift folded in, the others
    are the extra loads.  `recover` holds, per element class, the members'
    `ClassMap`, Kii^-1 Kis, and Kii^-1 of the members' interior loads as an
    (ni, m, 1 + extra) block.
    """

    S: sp.csc_matrix        # Schur complement on the free skeleton dofs
    rhs: np.ndarray         # (n free skeleton dofs, 1 + m)
    free: np.ndarray        # ids of the free skeleton dofs
    x_pinned: np.ndarray
    recover: list[tuple[ClassMap, np.ndarray, np.ndarray]]

    def expand(self, j: int, xs: np.ndarray) -> np.ndarray:
        """Full dof vector of load j from its free skeleton values `xs`.

        Only load 0 takes the Dirichlet values; the others vanish on the
        pinned dofs.
        """
        x = self.x_pinned.copy() if j == 0 else np.zeros(self.x_pinned.size)
        x[self.free] = xs
        for cmap, A, b in self.recover:
            x[cmap.interior] = (b[:, :, j] - A @ cmap.gather(x).T).T
        return x


def condense(material: Material, f, layout: DofLayout,
             x_pinned: np.ndarray | None = None,
             loads: np.ndarray | None = None) -> CondensedSystem:
    """Statically condense the interior (sigma, u) blocks, class by class.

    `x_pinned` holds the Dirichlet values on the pinned dofs (zero
    elsewhere).  `loads` is an optional (n_dofs, m) block of extra
    right-hand sides, which must vanish on the pinned dofs.  Each element
    class's kernel holds the factor of Kii, Kii^-1 Kis and the element
    Schur complement; the members of a class then solve Kii for their own
    loads and the extra loads in one call.  The full sparse matrix is never
    formed; each class's element Schur complement enters as C_K' S C_K.
    """
    n = layout.n_dofs
    xp = np.zeros(n) if x_pinned is None else x_pinned
    loads = np.zeros((n, 0)) if loads is None else loads
    g = np.column_stack([np.zeros(n), loads])
    interior = np.zeros(n, dtype=bool)
    rows, cols, vals = [], [], []
    recover = []
    for cls, members in enumerate(layout.classes):
        kernel, lvecs, cmap = _class_members(layout, material, f, cls)
        Kii, Kis, A, S = kernel.Kii, kernel.Kis, kernel.A, kernel.S
        ii = cmap.interior
        ni, m = ii.shape[1], len(members)
        fl = kernel.B.T @ cholesky_solve(kernel.L, lvecs)
        rhs = np.empty((ni, m, g.shape[1]))
        rhs[:, :, 0] = fl[:ni]
        rhs[:, :, 1:] = loads[ii].transpose(1, 0, 2)
        b = cholesky_solve(Kii, rhs.reshape(ni, -1)).reshape(rhs.shape)
        gs = -(Kis.T @ b.reshape(ni, -1)).reshape(-1, m, g.shape[1])
        gs[:, :, 0] += fl[ni:] - S @ cmap.gather(xp).T
        cmap.scatter(g, gs.transpose(1, 0, 2))
        r, c, v = cmap.coo(S)
        rows.append(r)
        cols.append(c)
        vals.append(v)
        interior[ii] = True
        recover.append((cmap, A, b))

    Ec = sp.coo_matrix((np.concatenate(vals),
                        (np.concatenate(rows), np.concatenate(cols))),
                       shape=(n, n)).tocsr()
    free = np.flatnonzero(~layout.pinned & ~interior)
    return CondensedSystem(S=Ec[np.ix_(free, free)].tocsc(), rhs=g[free],
                           free=free, x_pinned=xp, recover=recover)


def solve_condensed(material: Material, f, layout: DofLayout,
                    x_pinned: np.ndarray | None = None) -> np.ndarray:
    """Solve with static condensation of the interior (sigma, u) blocks.

    Factorizes only the skeleton coupling and never forms the full sparse
    matrix, which keeps memory bounded on fine high-order meshes.
    """
    system = condense(material, f, layout, x_pinned)
    try:
        lu = splu(system.S, **SPD_SPLU_OPTIONS)
    except RuntimeError as err:
        raise RuntimeError("sparse factorization failed; system not SPD") from err
    return system.expand(0, lu.solve(system.rhs[:, 0]))
