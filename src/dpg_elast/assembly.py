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
trace dofs, edge trace bubbles, and edge flux dofs.  The skeleton unknowns
live on edges: the layout builds each trace owner edge's trace functions
and each leaf edge's flux functions once, as read-only arrays, and an
element's side segments point at them.  Hanging-node coupling is part of
the trace functions: the trace on a constrained side expands directly in
the master edge's basis, and a hanging-vertex value is redistributed onto
the master's dofs.  A segment's flux sign follows from the topology alone,
since child edges run the way their parent runs.

The layout also sorts the elements into classes.  An element's coupling
matrix B depends only on its degrees, its shape up to translation and how
its sides meet the skeleton, so elements that agree on these share one B
(and one Gram factor).  The class key is (p, p_tilde, vertex offsets from
vertex 0, pattern), where the pattern replaces each of the element's
skeleton dofs, listed segment by segment (trace x, trace y, flux x, flux
y), by the position of that dof's first occurrence.  This is enough:
every vertex lies on two sides and a hanging vertex expands into its
master edge's dofs, so the coincidences in the pattern fix each side's
edge orientation (hence the flux sign), its number of leaves and which
half of a master edge a constrained side covers; the block lengths fix
the trace and flux degrees; with the vertex offsets, that is every input
`local_bmat` reads.  The element's skeleton dof ids are stored in the same
first-occurrence order, which is the order of `local_bmat`'s columns.  A
class's kernel (Gram factor, B and the interior condensation blocks) is
built whole on translated coordinates, so it depends on the class key
alone; a `KernelCache` keyed by the class key and the material carries
it from one refinement step to the next, and each step builds only the
classes that are new to it.  Condensation, the error estimator and the
rank-one border terms stack the members of a class and do their dense
algebra once per class, with one scatter per class.  The loads of a step
are computed once, with one call of f per degree group.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_factor, cho_solve, solve_triangular
from scipy.sparse.linalg import splu

from .basis import _read_only, edge_basis_eval, gauss_rule
from .local import (SideSegment, _edge_param, _first_occurrence,
                    _skeleton_dofs, gram_factor, local_bmat, local_gram,
                    local_loads, local_stiffness)
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


@dataclass
class DofLayout:
    n_dofs: int
    interior_base: dict[int, int]            # element -> first interior dof
    vertex_dof: dict[int, int]               # vertex -> dof of x component
    trace_edges: dict[int, tuple[int, int]]  # owner edge -> (q, bubble base)
    hanging: dict[int, int]                  # hanging vertex -> master edge
    pinned: np.ndarray                       # bool mask over all dofs
    element_p: dict[int, int]
    delta_p: int                             # test enrichment, p_tilde - p
    elements: np.ndarray                     # active elements, layout order
    position: dict[int, int]                 # element -> layout position
    coords: np.ndarray                       # (n, 4, 2) vertices, layout order
    degree_groups: dict[int, np.ndarray]     # p -> positions of degree p
    segments: dict[int, list[SideSegment]]   # element -> side segments
    element_dofs: dict[int, np.ndarray]      # element -> interior, then
                                             # skeleton ids in class order
    element_class: dict[int, int]            # element -> class id
    classes: list[list[int]]                 # class id -> its elements
    class_keys: list[tuple]                  # class id -> class key
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


def build_dof_layout(mesh: Mesh, degrees: DegreeMap, bc_spec: str = "dirichlet",
                     cache: KernelCache | None = None) -> DofLayout:
    """Global numbering with hanging-node constraints and boundary pinning.

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

    def vertex_entries(v: int) -> list[tuple[float, int]]:
        """The trace value at vertex v as (weight, x dof) pairs."""
        if v in vertex_dof:
            return [(1.0, vertex_dof[v])]
        # a hanging vertex takes its master edge's trace at its position
        master = hanging[v]
        e = mesh.edges[master]
        q = trace_q[master]
        s = _edge_param(np.array([mesh.vertices[v]]), mesh.edge_coords(master))
        vals = edge_basis_eval(q, s)[:, 0]
        base = trace_base[master]
        return ([(w * vals[0], g) for w, g in vertex_entries(e.v0)]
                + [(w * vals[1], g) for w, g in vertex_entries(e.v1)]
                + [(vals[i], base + 2 * (i - 2)) for i in range(2, q + 1)])

    # each owner edge's trace functions: (coordinates, basis index, weight,
    # x and y dofs); global function i is basis function index[i] scaled by
    # weight[i], which redistributes a hanging vertex onto its master edge
    trace_functions = {}
    for e in trace_edges:
        index, weight, gx = [], [], []
        for i, v in enumerate((mesh.edges[e].v0, mesh.edges[e].v1)):
            for w, g in vertex_entries(v):
                index.append(i)
                weight.append(w)
                gx.append(g)
        q, base = trace_q[e], trace_base[e]
        index += range(2, q + 1)
        weight += [1.0] * (q - 1)
        gx += range(base, base + 2 * (q - 1), 2)
        trace_functions[e] = _read_only(mesh.edge_coords(e), np.array(index),
                                        np.array(weight),
                                        np.array(gx)[:, None] + np.arange(2))
    # each leaf edge's flux functions: (coordinates, x and y dofs)
    flux_functions = {
        e: _read_only(mesh.edge_coords(e),
                      flux_base[e] + np.arange(2 * (flux_p[e] + 1)).reshape(-1, 2))
        for e in flux_edges}

    # per-element side segments and element classes
    segments: dict[int, list[SideSegment]] = {}
    element_dofs: dict[int, np.ndarray] = {}
    element_class: dict[int, int] = {}
    class_ids: dict[tuple, int] = {}
    classes: list[list[int]] = []
    for k, coords in zip(active, all_coords):
        el = mesh.elements[k]
        segs = []
        for s, (owner, leaves) in enumerate(sides[k]):
            trace_coords, index, weight, trace_gdofs = trace_functions[owner]
            # children run the way their parent edge runs, so every leaf
            # runs along the side exactly when the side's own edge does;
            # the flux sign is +1 when the outward normal is the leaf's
            # normal (its v0 -> v1 direction turned clockwise)
            sign = 1.0 if mesh.edges[el.edges[s]].v0 == el.verts[s] else -1.0
            nseg = len(leaves)
            for i, leaf in enumerate(leaves):
                flux_coords, flux_gdofs = flux_functions[leaf]
                segs.append(SideSegment(
                    side=s, t0=-1.0 + 2.0 * i / nseg,
                    t1=-1.0 + 2.0 * (i + 1) / nseg,
                    trace_coords=trace_coords, trace_q=trace_q[owner],
                    trace_index=index, trace_weight=weight,
                    trace_gdofs=trace_gdofs, flux_coords=flux_coords,
                    flux_p=flux_p[leaf], flux_sign=sign, flux_gdofs=flux_gdofs))
        segments[k] = segs

        skel, pattern = _first_occurrence(_skeleton_dofs(segs))
        key = (element_p[k], element_p[k] + degrees.delta_p,
               (coords - coords[0]).tobytes(), pattern.tobytes())
        cls = class_ids.setdefault(key, len(classes))
        if cls == len(classes):
            classes.append([])
        classes[cls].append(k)
        element_class[k] = cls
        base = interior_base[k]
        dofs = np.concatenate([np.arange(base, base + 5 * (element_p[k] + 1) ** 2),
                               skel])
        dofs.setflags(write=False)
        element_dofs[k] = dofs

    cache = KernelCache() if cache is None else cache
    cache.retain(class_ids)
    return DofLayout(n_dofs=n, interior_base=interior_base, vertex_dof=vertex_dof,
                     trace_edges={e: (trace_q[e], trace_base[e]) for e in trace_edges},
                     hanging=hanging, pinned=pinned, element_p=element_p,
                     delta_p=degrees.delta_p,
                     elements=np.array(active, dtype=int),
                     position={k: i for i, k in enumerate(active)},
                     coords=all_coords,
                     degree_groups={int(p): np.flatnonzero(degree_of == p)
                                    for p in np.unique(degree_of)},
                     segments=segments, element_dofs=element_dofs,
                     element_class=element_class, classes=classes,
                     class_keys=list(class_ids), cache=cache)


def element_full_bmat(layout: DofLayout, material: Material, f, eid: int):
    """Gram Cholesky factor, full local coupling matrix, load, global dof ids.

    L and B are the element class's read-only matrices from `layout.cache`,
    built on the first request of the study; the columns of B follow
    `gdofs`.  The first load request of the step for a degree computes the
    loads of every element of that degree and keeps them in `layout.loads`.
    """
    kernel = _kernel(layout, material, eid)
    if (f, eid) not in layout.loads:
        p = layout.element_p[eid]
        rows = layout.degree_groups[p]
        lvecs = local_loads(layout.coords[rows], p + layout.delta_p, f)
        lvecs.setflags(write=False)
        layout.loads.update(((f, k), lvec) for k, lvec
                            in zip(layout.elements[rows].tolist(), lvecs))
    return kernel.L, kernel.B, layout.loads[f, eid], layout.element_dofs[eid]


def _class_members(layout: DofLayout, material: Material, f,
                   members: list[int]):
    """A class's kernel, with its members' loads as the columns of a
    (5 ns, m) block and their dof ids as the rows of an (m, n) block.

    Every member goes through `element_full_bmat` once.
    """
    parts = [element_full_bmat(layout, material, f, k) for k in members]
    return (_kernel(layout, material, members[0]),
            np.column_stack([part[2] for part in parts]),
            np.array([part[3] for part in parts]))


def _kernel(layout: DofLayout, material: Material, eid: int) -> ClassKernel:
    """Element eid's class kernel, from the cache or built and cached."""
    key = (layout.class_keys[layout.element_class[eid]], material)
    kernel = layout.cache.kernels.get(key)
    if kernel is None:
        kernel = _class_kernel(layout, eid, material)
        layout.cache.kernels[key] = kernel
    return kernel


def _class_kernel(layout: DofLayout, eid: int,
                  material: Material) -> ClassKernel:
    """Kernel of element eid's class, with B's columns in class order.

    Everything is computed on the element translated to vertex 0, from
    data the class key fixes, so it does not depend on which element or
    step built it.  The Gram factor depends only on p_tilde and
    the vertex offsets and is shared by every class of that shape.
    """
    coords = layout.coords[layout.position[eid]]
    x0 = coords[0]
    rel = coords - x0
    p = layout.element_p[eid]
    p_tilde = p + layout.delta_p
    gkey = (p_tilde, rel.tobytes())
    L = layout.cache.gram_factors.get(gkey)
    if L is None:
        L = gram_factor(local_gram(rel, p_tilde))
        L.setflags(write=False)
        layout.cache.gram_factors[gkey] = L
    segments = [replace(seg, trace_coords=seg.trace_coords - x0,
                        flux_coords=seg.flux_coords - x0)
                for seg in layout.segments[eid]]
    B, _ = local_bmat(rel, p, p_tilde, material, segments)
    ni = 5 * (p + 1) ** 2
    K = local_stiffness(L, B)
    Kis, Kss = K[:ni, ni:], K[ni:, ni:]
    try:
        Kii, _ = cho_factor(K[:ni, :ni], lower=True, check_finite=False)
    except np.linalg.LinAlgError as err:
        raise RuntimeError("interior block of an element matrix "
                           "is not positive definite") from err
    A = cho_solve((Kii, True), Kis, check_finite=False)
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

    The V-norm of e = G^-1 r is |L^-1 r|, with r = l - B x the residual;
    each class does one triangular solve for all its members.
    """
    out = dict.fromkeys(layout.element_p, 0.0)
    for members in layout.classes:
        kernel, lvecs, gdofs = _class_members(layout, material, f, members)
        z = solve_triangular(kernel.L, lvecs - kernel.B @ x[gdofs].T,
                             lower=True, check_finite=False)
        out.update(zip(members, np.linalg.norm(z, axis=0).tolist()))
    return out


@dataclass
class CondensedSystem:
    """Skeleton system left after condensing the element interiors.

    Column j of `rhs` is load j condensed onto the free skeleton dofs;
    column 0 is the DPG load with the Dirichlet lift folded in, the others
    are the extra loads.  `recover` holds, per element class, the members'
    interior and skeleton dof ids as (m, ni) and (m, nsk) blocks, Kii^-1 Kis,
    and Kii^-1 of the members' interior loads as an (ni, m, 1 + extra) block.
    """

    S: sp.csc_matrix        # Schur complement on the free skeleton dofs
    rhs: np.ndarray         # (n free skeleton dofs, 1 + m)
    free: np.ndarray        # ids of the free skeleton dofs
    x_pinned: np.ndarray
    recover: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]

    def expand(self, j: int, xs: np.ndarray) -> np.ndarray:
        """Full dof vector of load j from its free skeleton values `xs`.

        Only load 0 takes the Dirichlet values; the others vanish on the
        pinned dofs.
        """
        x = self.x_pinned.copy() if j == 0 else np.zeros(self.x_pinned.size)
        x[self.free] = xs
        for ii, sk, A, b in self.recover:
            x[ii] = (b[:, :, j] - A @ x[sk].T).T
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
    formed.
    """
    n = layout.n_dofs
    xp = np.zeros(n) if x_pinned is None else x_pinned
    loads = np.zeros((n, 0)) if loads is None else loads
    g = np.column_stack([np.zeros(n), loads])
    interior = np.zeros(n, dtype=bool)
    rows, cols, vals = [], [], []
    recover = []
    for members in layout.classes:
        kernel, lvecs, gdofs = _class_members(layout, material, f, members)
        Kii, Kis, A, S = kernel.Kii, kernel.Kis, kernel.A, kernel.S
        ni, m = 5 * (layout.element_p[members[0]] + 1) ** 2, len(members)
        fl = kernel.B.T @ cho_solve((kernel.L, True), lvecs, check_finite=False)
        ii, sk = gdofs[:, :ni], gdofs[:, ni:]
        rhs = np.empty((ni, m, g.shape[1]))
        rhs[:, :, 0] = fl[:ni]
        rhs[:, :, 1:] = loads[ii].transpose(1, 0, 2)
        b = cho_solve((Kii, True), rhs.reshape(ni, -1),
                      check_finite=False).reshape(rhs.shape)
        gs = -(Kis.T @ b.reshape(ni, -1)).reshape(-1, m, g.shape[1])
        gs[:, :, 0] += fl[ni:] - S @ xp[sk].T
        np.add.at(g, sk, gs.transpose(1, 0, 2))
        block = (m, sk.shape[1], sk.shape[1])
        rows.append(np.broadcast_to(sk[:, :, None], block).ravel())
        cols.append(np.broadcast_to(sk[:, None, :], block).ravel())
        vals += [S.ravel()] * m
        interior[ii] = True
        recover.append((ii, sk, A, b))

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
