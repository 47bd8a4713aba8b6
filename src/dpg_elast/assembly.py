"""Global dof layout, Dirichlet data, static condensation, and sparse solve.

Numbering is element-major for the interior (sigma, u) blocks, then vertex
trace dofs, edge trace bubbles, and edge flux dofs.  Hanging-node coupling
is handled when building the per-side trace entries: the trace on a
constrained side expands directly in the master edge's basis, and a
hanging-vertex value is redistributed onto the master's dofs.

The layout also sorts the elements into classes.  An element's coupling
matrix B depends only on its degrees, its shape up to translation and how
its sides meet the skeleton, so elements that agree on these share one B
(and one Gram factor).  Each element's skeleton dof ids are stored in its
class's column order.  A class's B, Gram factor and interior condensation
blocks are built on translated coordinates, so they depend on the class
key alone; a `KernelCache` keyed by the class key carries them from one
refinement step to the next, and each step builds only the classes that
are new to it.  Condensation and the rank-one border terms do their dense
algebra once per class; per element only the load (computed once per
step), a few matrix-vector products and the scatter remain.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_factor, cho_solve
from scipy.sparse.linalg import splu

from .basis import edge_basis_eval, gauss_rule, q_basis_eval
from .local import (SideSegment, error_representation, gram_factor, local_bmat,
                    local_gram, local_load, local_stiffness)
from .material import Material
from .mesh import DegreeMap, Mesh

# SuperLU options for the SPD condensed skeleton matrix: a symmetric
# minimum-degree ordering of A'+A, with the pivots kept on the diagonal
SPD_SPLU_OPTIONS = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                        options=dict(SymmetricMode=True))


@dataclass
class ClassKernel:
    """Read-only matrices of one element class.

    `L` is the Gram Cholesky factor and `B` the coupling matrix with its
    columns in class order.  `condensed` holds the interior condensation
    blocks (Cholesky factor of Kii, Kis, Kii^-1 Kis, element Schur block)
    once `condense` has formed them.
    """

    L: np.ndarray
    B: np.ndarray
    condensed: tuple | None = None


@dataclass
class KernelCache:
    """Element-class kernels of a study, carried from step to step.

    `kernels` maps (class key, p_tilde, material) to a `ClassKernel`, and
    `gram_factors` maps (p_tilde, vertex offsets from vertex 0) to a Gram
    Cholesky factor.  `build_dof_layout` drops every entry its classes do
    not use, so the cache holds at most one step's classes.
    """

    kernels: dict[tuple, ClassKernel] = field(default_factory=dict)
    gram_factors: dict[tuple, np.ndarray] = field(default_factory=dict)

    def retain(self, class_keys) -> None:
        """Keep only the entries of the given class keys."""
        keys = set(class_keys)
        # a class key starts (p, p_tilde, vertex offsets, ...)
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
    flux_edges: dict[int, tuple[int, int]]   # leaf edge -> (p_E, base)
    hanging: dict[int, int]                  # hanging vertex -> master edge
    pinned: np.ndarray                       # bool mask over all dofs
    element_p: dict[int, int]
    segments: dict[int, list[SideSegment]]   # element -> side segments
    element_dofs: dict[int, np.ndarray]      # element -> interior, then
                                             # skeleton ids in class order
    element_class: dict[int, int]            # element -> class id
    classes: list[list[int]]                 # class id -> its elements
    class_keys: list[tuple]                  # class id -> class key
    # class kernels and Gram factors, filled lazily by element_full_bmat
    # and shared with the other steps of a study
    cache: KernelCache
    # read-only element loads of this step, filled lazily by
    # element_full_bmat: (f, p_tilde, element) -> load
    loads: dict[tuple, np.ndarray] = field(default_factory=dict, repr=False)

    @property
    def n_free(self) -> int:
        return int(self.n_dofs - self.pinned.sum())

    def interior_slices(self, eid: int):
        """(sigma slice, u slice) of an element's interior dofs."""
        p = self.element_p[eid]
        nt = (p + 1) ** 2
        base = self.interior_base[eid]
        return slice(base, base + 3 * nt), slice(base + 3 * nt, base + 5 * nt)


def _vertex_entries(mesh: Mesh, layout_vertex: dict, hanging: dict,
                    trace_q: dict, trace_base: dict, v: int) -> list[tuple[int, int, float]]:
    """Express the trace value at a vertex in global dofs: (gx, gy, weight)."""
    if v in layout_vertex:
        gx = layout_vertex[v]
        return [(gx, gx + 1, 1.0)]
    master = hanging[v]
    e = mesh.edges[master]
    q = trace_q[master]
    coords = mesh.edge_coords(master)
    x = np.array(mesh.vertices[v])
    d = coords[1] - coords[0]
    s = 2.0 * ((x - coords[0]) @ d) / (d @ d) - 1.0
    vals = edge_basis_eval(q, np.array([s]))[:, 0]
    out = []
    for gx, gy, w in _vertex_entries(mesh, layout_vertex, hanging, trace_q, trace_base, e.v0):
        out.append((gx, gy, w * vals[0]))
    for gx, gy, w in _vertex_entries(mesh, layout_vertex, hanging, trace_q, trace_base, e.v1):
        out.append((gx, gy, w * vals[1]))
    base = trace_base[master]
    for k in range(2, q + 1):
        out.append((base + 2 * (k - 2), base + 2 * (k - 2) + 1, vals[k]))
    return out


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

    # classify sides: trace owner edge + flux leaf edges per (element, side)
    side_info: dict[tuple[int, int], tuple[int, list[int]]] = {}
    trace_edges_set: set[int] = set()
    flux_edges_set: set[int] = set()
    for k in active:
        el = mesh.elements[k]
        for s in range(4):
            eid = el.edges[s]
            if mesh.side_is_split(k, s):
                owner = eid
                leaves = mesh.side_subedges(k, s)
            else:
                parent = mesh.edges[eid].parent
                if parent is not None and mesh.active_side_neighbor(parent) is not None:
                    owner = parent      # constrained side, master across the interface
                else:
                    owner = eid
                leaves = [eid]
            side_info[(k, s)] = (owner, leaves)
            trace_edges_set.add(owner)
            flux_edges_set.update(leaves)

    hanging = mesh.hanging_vertices()
    trace_q = {e: degrees.trace_degree(mesh, e) + 1 for e in trace_edges_set}
    flux_p = {e: degrees.edge_degree(mesh, e) for e in flux_edges_set}

    boundary_verts = mesh.boundary_vertices()

    # numbering
    n = 0
    interior_base = {}
    for k in active:
        interior_base[k] = n
        n += 5 * (element_p[k] + 1) ** 2

    vertex_dof = {}
    for e in sorted(trace_edges_set):
        for v in (mesh.edges[e].v0, mesh.edges[e].v1):
            if v not in hanging and v not in vertex_dof:
                vertex_dof[v] = n
                n += 2

    trace_base = {}
    for e in sorted(trace_edges_set):
        trace_base[e] = n
        n += 2 * (trace_q[e] - 1)

    flux_base = {}
    for e in sorted(flux_edges_set):
        flux_base[e] = n
        n += 2 * (flux_p[e] + 1)

    pinned = np.zeros(n, dtype=bool)
    for v, d in vertex_dof.items():
        if v in boundary_verts:
            pinned[d:d + 2] = True
    for e in sorted(trace_edges_set):
        if mesh.edges[e].boundary:
            b = trace_base[e]
            pinned[b:b + 2 * (trace_q[e] - 1)] = True

    # per-element side segments and element classes
    segments: dict[int, list[SideSegment]] = {}
    element_dofs: dict[int, np.ndarray] = {}
    element_class: dict[int, int] = {}
    class_ids: dict[tuple, int] = {}
    classes: list[list[int]] = []
    for k in active:
        el = mesh.elements[k]
        coords = mesh.element_coords(k)
        segs = []
        for s in range(4):
            owner, leaves = side_info[(k, s)]
            q = trace_q[owner]
            ecoords = mesh.edge_coords(owner)
            entries = []  # (basis index, weight, gx, gy) of each trace function
            for index, v in enumerate((mesh.edges[owner].v0, mesh.edges[owner].v1)):
                for gx, gy, w in _vertex_entries(mesh, vertex_dof, hanging,
                                                 trace_q, trace_base, v):
                    entries.append((index, w, gx, gy))
            tb = trace_base[owner]
            for kk in range(2, q + 1):
                entries.append((kk, 1.0, tb + 2 * (kk - 2), tb + 2 * (kk - 2) + 1))
            index, weight, gx, gy = (np.array(col) for col in zip(*entries))
            trace_gdofs = np.column_stack([gx, gy])

            nseg = len(leaves)
            for i, leaf in enumerate(leaves):
                t0 = -1.0 + 2.0 * i / nseg
                t1 = -1.0 + 2.0 * (i + 1) / nseg
                p_e = flux_p[leaf]
                fb = flux_base[leaf]
                gdofs = np.array([[fb + 2 * j, fb + 2 * j + 1] for j in range(p_e + 1)])
                # flux sign: +1 when the element's outward normal matches the
                # edge's global normal (rotation of its v0->v1 direction)
                lc = mesh.edge_coords(leaf)
                d = lc[1] - lc[0]
                edge_normal = np.array([d[1], -d[0]])
                outward = _side_outward_normal(coords, s)
                sign = 1.0 if outward @ edge_normal > 0 else -1.0
                segs.append(SideSegment(side=s, t0=t0, t1=t1,
                                        trace_coords=ecoords, trace_q=q,
                                        trace_index=index, trace_weight=weight,
                                        trace_gdofs=trace_gdofs,
                                        flux_coords=lc, flux_p=p_e, flux_sign=sign,
                                        flux_gdofs=gdofs))
        segments[k] = segs

        skel, pattern = _first_occurrence(np.concatenate(
            [a for seg in segs for a in (seg.trace_gdofs.T.ravel(),
                                         seg.flux_gdofs.T.ravel())]))
        x0 = coords[0]
        key = (element_p[k], element_p[k] + degrees.delta_p,
               (coords - x0).tobytes(), pattern.tobytes(),
               tuple(_segment_key(seg, x0) for seg in segs))
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
                     trace_edges={e: (trace_q[e], trace_base[e]) for e in trace_edges_set},
                     flux_edges={e: (flux_p[e], flux_base[e]) for e in flux_edges_set},
                     hanging=hanging, pinned=pinned, element_p=element_p,
                     segments=segments, element_dofs=element_dofs,
                     element_class=element_class, classes=classes,
                     class_keys=list(class_ids), cache=cache)


def _first_occurrence(dofs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct ids in order of first occurrence, and each entry's position."""
    cols: dict[int, int] = {}
    pattern = [cols.setdefault(d, len(cols)) for d in dofs.tolist()]
    return np.array(list(cols)), np.array(pattern)


def _segment_key(seg: SideSegment, x0: np.ndarray) -> tuple:
    """Everything of a side segment that enters B, edges relative to x0."""
    return (seg.side, seg.t0, seg.t1, seg.trace_q, seg.trace_index.tobytes(),
            seg.trace_weight.tobytes(), seg.flux_p, seg.flux_sign,
            (seg.trace_coords - x0).tobytes(), (seg.flux_coords - x0).tobytes())


def _side_outward_normal(coords: np.ndarray, side: int) -> np.ndarray:
    """Outward normal of a straight side at its midpoint (ccw element)."""
    a = coords[side]
    b = coords[(side + 1) % 4]
    t = b - a
    return np.array([t[1], -t[0]])


def element_full_bmat(mesh: Mesh, layout: DofLayout, material: Material, f,
                      eid: int, delta_p: int):
    """Gram Cholesky factor, full local coupling matrix, load, global dof ids.

    L and B are the element class's read-only matrices from `layout.cache`,
    built on the first request of the study; the columns of B follow
    `gdofs`.  The load is computed on the first request of the step and
    kept in `layout.loads`.
    """
    p_tilde = layout.element_p[eid] + delta_p
    kernel = _kernel(mesh, layout, material, eid, p_tilde)
    key = (f, p_tilde, eid)
    lvec = layout.loads.get(key)
    if lvec is None:
        lvec = local_load(mesh.element_coords(eid), p_tilde, f)
        lvec.setflags(write=False)
        layout.loads[key] = lvec
    return kernel.L, kernel.B, lvec, layout.element_dofs[eid]


def _kernel(mesh: Mesh, layout: DofLayout, material: Material, eid: int,
            p_tilde: int) -> ClassKernel:
    """Element eid's class kernel, from the cache or built and cached."""
    key = (layout.class_keys[layout.element_class[eid]], p_tilde, material)
    kernel = layout.cache.kernels.get(key)
    if kernel is None:
        kernel = _class_kernel(mesh, layout, eid, p_tilde, material)
        layout.cache.kernels[key] = kernel
    return kernel


def _class_kernel(mesh: Mesh, layout: DofLayout, eid: int, p_tilde: int,
                  material: Material) -> ClassKernel:
    """(L, B) of element eid's class, with B's columns in class order.

    Both are computed on the element translated to vertex 0, from exactly
    the data of the class key, so they do not depend on which element or
    step built them.  The Gram factor depends only on p_tilde and the
    vertex offsets and is shared by every class of that shape.
    """
    coords = mesh.element_coords(eid)
    x0 = coords[0]
    rel = coords - x0
    gkey = (p_tilde, rel.tobytes())
    L = layout.cache.gram_factors.get(gkey)
    if L is None:
        L = gram_factor(local_gram(rel, p_tilde))
        L.setflags(write=False)
        layout.cache.gram_factors[gkey] = L
    p = layout.element_p[eid]
    segments = [replace(seg, trace_coords=seg.trace_coords - x0,
                        flux_coords=seg.flux_coords - x0)
                for seg in layout.segments[eid]]
    B, skel_ids = local_bmat(rel, p, p_tilde, material, segments)
    ni = 5 * (p + 1) ** 2
    gdofs = layout.element_dofs[eid]
    cols = np.concatenate([np.arange(ni),
                           ni + np.searchsorted(skel_ids, gdofs[ni:])])
    B = B[:, cols]
    B.setflags(write=False)
    return ClassKernel(L, B)


def _condensation_blocks(kernel: ClassKernel, lvec: np.ndarray, ni: int):
    """(Kii Cholesky factor, Kis, Kii^-1 Kis, Schur block) of a class.

    Formed from K = B'G^-1 B on the first request and kept read-only on
    the kernel.
    """
    if kernel.condensed is None:
        K, _ = local_stiffness(kernel.L, kernel.B, lvec)
        Kis, Kss = K[:ni, ni:], K[ni:, ni:]
        try:
            Kii, _ = cho_factor(K[:ni, :ni], lower=True, check_finite=False)
        except np.linalg.LinAlgError as err:
            raise RuntimeError("interior block of an element matrix "
                               "is not positive definite") from err
        A = cho_solve((Kii, True), Kis, check_finite=False)
        S = Kss - Kis.T @ A
        # a copy of Kis, so that K itself is not kept alive
        blocks = (Kii, np.ascontiguousarray(Kis), A, S)
        for a in blocks:
            a.setflags(write=False)
        kernel.condensed = blocks
    return kernel.condensed


def dirichlet_values(layout: DofLayout, g_data, mesh: Mesh) -> np.ndarray:
    """Pinned-dof vector interpolating/projecting the boundary displacement.

    g_data maps an (n, 2) array of boundary points to (n, 2) displacements.
    """
    xp = np.zeros(layout.n_dofs)
    if g_data is None:
        return xp
    pinned_verts = [(v, d) for v, d in layout.vertex_dof.items()
                    if layout.pinned[d]]
    if pinned_verts:
        verts, dofs = zip(*pinned_verts)
        vals = g_data(np.array([mesh.vertices[v] for v in verts], dtype=float))
        dofs = np.array(dofs)
        xp[dofs] = vals[:, 0]
        xp[dofs + 1] = vals[:, 1]
    for e, (q, base) in layout.trace_edges.items():
        if not mesh.edges[e].boundary or q < 2:
            continue
        coords = mesh.edge_coords(e)
        rule = gauss_rule(q + 3)
        pts = 0.5 * (1 - rule.points)[:, None] * coords[0] \
            + 0.5 * (1 + rule.points)[:, None] * coords[1]
        gv = g_data(np.vstack([pts, coords]))  # quadrature points, then ends
        v0, v1 = gv[-2], gv[-1]
        vals = edge_basis_eval(q, rule.points)
        resid = gv[:-2] - np.outer(vals[0], v0) - np.outer(vals[1], v1)
        bub = vals[2:]
        M = (bub * rule.weights) @ bub.T
        rhs = (bub * rule.weights) @ resid  # (q-1, 2)
        c = np.linalg.solve(M, rhs)
        xp[base: base + 2 * (q - 1)] = c.ravel()
    return xp


def error_indicators(mesh: Mesh, degrees: DegreeMap, material: Material, f,
                     layout: DofLayout, x: np.ndarray) -> dict[int, float]:
    """Elementwise V-norms of the error representation function."""
    out = {}
    for k in mesh.active_elements:
        L, Bfull, lvec, gdofs = element_full_bmat(mesh, layout, material, f, k,
                                                  degrees.delta_p)
        _, eta = error_representation(L, Bfull, lvec, x[gdofs])
        out[k] = eta
    return out


def eval_element_fields(mesh: Mesh, layout: DofLayout, eid: int,
                        x: np.ndarray, ref_points: np.ndarray):
    """Discrete (sigma, u) on one element at reference points.

    Returns (sigma (nq, 3) as [s11, s12, s22], u (nq, 2)).
    """
    p = layout.element_p[eid]
    nt = (p + 1) ** 2
    base = layout.interior_base[eid]
    vals, _ = q_basis_eval(p, ref_points)  # (nt, nq)
    coef = x[base: base + 5 * nt].reshape(5, nt)
    fields = coef @ vals  # (5, nq)
    return fields[:3].T, fields[3:].T


@dataclass
class CondensedSystem:
    """Skeleton system left after condensing the element interiors.

    Column j of `rhs` is load j condensed onto the free skeleton dofs;
    column 0 is the DPG load with the Dirichlet lift folded in, the others
    are the extra loads.  `recover` holds, per element, the interior and
    skeleton dof ids, Kii^-1 Kis (shared by the element's class) and
    Kii^-1 of the interior loads.
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
            x[ii] = b[:, j] - A @ x[sk]
        return x


def condense(mesh: Mesh, degrees: DegreeMap, material: Material, f,
             layout: DofLayout, x_pinned: np.ndarray | None = None,
             loads: np.ndarray | None = None) -> CondensedSystem:
    """Statically condense the interior (sigma, u) blocks, class by class.

    `x_pinned` holds the Dirichlet values on the pinned dofs (zero
    elsewhere).  `loads` is an optional (n_dofs, m) block of extra
    right-hand sides, which must vanish on the pinned dofs.  Each element
    class forms K = B'G^-1 B, factors its interior block Kii and computes
    Kii^-1 Kis and the element Schur complement once, and the class kernel
    keeps them for later steps; each element then solves Kii for its own
    load and the extra loads together.  The full sparse matrix is never
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
        ni = 5 * (layout.element_p[members[0]] + 1) ** 2
        for k in members:
            L, Bfull, lvec, gdofs = element_full_bmat(mesh, layout, material,
                                                      f, k, degrees.delta_p)
            if k == members[0]:
                kernel = _kernel(mesh, layout, material, k,
                                 layout.element_p[k] + degrees.delta_p)
                Kii, Kis, A, S = _condensation_blocks(kernel, lvec, ni)
            fl = Bfull.T @ cho_solve((L, True), lvec, check_finite=False)
            ii, sk = gdofs[:ni], gdofs[ni:]
            b = cho_solve((Kii, True), np.column_stack([fl[:ni], loads[ii]]),
                          check_finite=False)
            gs = -(Kis.T @ b)
            gs[:, 0] += fl[ni:] - S @ xp[sk]
            g[sk] += gs
            idx = np.broadcast_to(sk, (sk.size, sk.size))
            rows.append(idx.T.ravel())
            cols.append(idx.ravel())
            vals.append(S.ravel())
            interior[ii] = True
            recover.append((ii, sk, A, b))

    Ec = sp.coo_matrix((np.concatenate(vals),
                        (np.concatenate(rows), np.concatenate(cols))),
                       shape=(n, n)).tocsr()
    free = np.flatnonzero(~layout.pinned & ~interior)
    return CondensedSystem(S=Ec[np.ix_(free, free)].tocsc(), rhs=g[free],
                           free=free, x_pinned=xp, recover=recover)


def solve_condensed(mesh: Mesh, degrees: DegreeMap, material: Material, f,
                    layout: DofLayout, x_pinned: np.ndarray | None = None) -> np.ndarray:
    """Solve with static condensation of the interior (sigma, u) blocks.

    Factorizes only the skeleton coupling and never forms the full sparse
    matrix, which keeps memory bounded on fine high-order meshes.
    """
    system = condense(mesh, degrees, material, f, layout, x_pinned)
    try:
        lu = splu(system.S, **SPD_SPLU_OPTIONS)
    except RuntimeError as err:
        raise RuntimeError("sparse factorization failed; system not SPD") from err
    return system.expand(0, lu.solve(system.rhs[:, 0]))
