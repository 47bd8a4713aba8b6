"""Reference computations for the library's batched and condensed paths.

The library only ever factors the statically condensed skeleton matrix.
`assemble_full` and `solve_full` assemble the stiffness matrix over all
dofs (pinned and element-interior included) and solve it directly, so
tests can check the condensed solves, the rank-one identity and the SPD
property against it.  Its element matrices come from `global_bmat`, which
couples each element's test space to the global trace and flux functions
directly: it finds each side's trace owner edge and flux leaves from the
coordinates, evaluates the owner's basis at the owner's own parameter and
expands a hanging vertex through its master edge's trace at the vertex's
coordinates.  So it shares neither the per-class tables nor the
constraint maps C_K the library keeps on the layout.

`assembly.condense` condenses the element interiors and then the
nodes' inner skeletons, and writes the coarse matrix straight into its
free-dof numbering.  `condensed_matrix_by_global_coo` builds the
one-level skeleton matrix by the global route (COO over all dofs, CSR, an
`np.ix_` slice to the free skeleton dofs, CSC) from the same class
blocks, for `test_assembly.py` to compare memory against and, through
the dense elimination `eliminate_dense`, entries.
`node_schur_complement` builds a node's Schur complement densely from
its leaves, against the node kernels `node_kernels` builds as
`condense` does, `layout_of_nodes` the layout in which every split
element is a node, and `indefinite_below` a layout whose roots' inner
blocks are indefinite.

The library stacks the elements of a class or of a degree for the loads,
condensation, the error estimator, the L2 errors and the Dirichlet data.
The `*_per_element` helpers do the same work one element (or boundary
edge) at a time, with one data call each, for tests to compare against.
They take each element's L and Z = L^-1 B from `element_full_bmat` and
its C_K from `element_cmap` (the class kernels, whose B C_K
`test_classes.py` checks against `global_bmat`, with B from
`class_bmat`), compute its load with the single-element `local_load`
below, and form K = Z'Z and the load Z'(L^-1 l) with L^-1 l from
`lower_rows`.

`bilinear_maps`, `apply_compliance` and `interior_slices` are pointwise
and per-element forms of what the library does in batches, for tests to
build independent references with.

`build_dof_layout` reads the skeleton off the mesh topology (edge
parents and children).  The `*_by_overlap` helpers find the same facts
from coordinates alone, by which active element sides overlap a segment
or contain a vertex: the edge degrees by the maximum rule, the hanging
vertices with their master sides, and the boundary vertices.

`build_dof_layout` works in array passes.  `layout_by_walk` builds the
same layout by a walk over every element side (`side_subedges`) and
every local skeleton function, with each row of C_K a list of (weight,
dof) pairs; `test_layout.py` requires equal output.  `validate` checks a mesh's 1-irregularity and interface
counts, and `edge_coords` gives an edge's end coordinates.

The layout keeps its vertex and edge data as arrays.  `layout_dicts`
turns them back into the walk's dicts (`vertex_dof`, `trace_edges`,
`flux_edges`, `hanging`), with the same content and order, for the
helpers and tests that read those; `position_of` gives an element's
layout position.  The study marks and splits layout positions;
`greedy_mark_by_set` and `hp_decide_by_set` are the set-based
references, by element id.

`RecordMesh` is the mesh as one record per element and edge, refined one
element at a time by recursion; `test_mesh.py` requires every array of
`dpg_elast.mesh.Mesh` to be byte-equal to its `arrays()` after random
refinements.
"""
from collections import defaultdict
from dataclasses import dataclass, field, replace
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg import block_diag, cho_factor, cho_solve, solve_triangular
from scipy.sparse.linalg import splu

from dpg_elast import assembly
from dpg_elast.assembly import (ClassMap, _class_members, build_dof_layout,
                                element_full_bmat)
from dpg_elast.basis import (edge_basis_eval, gauss_rule, gauss_rule_2d,
                             q_basis_table)
from dpg_elast.local import (_FLUX_BLOCKS, _TRACE_BLOCKS, _side_table,
                             _volume_nq, _volume_points, gram_factor,
                             local_bmat, local_gram, local_stiffness)
from dpg_elast.mesh import (DegreeMap, bilinear_shape, build_initial_mesh,
                            refine_uniform)


def bilinear_maps(coords, points):
    """Bilinear map of one element: physical points and Jacobians.

    coords: (4, 2) ccw vertices; points: (nq, 2) reference points.
    Returns (phys (nq, 2), jac (nq, 2, 2)) with jac[q, i, j] = dx_i/dxi_j.
    """
    t = bilinear_shape(points) @ coords
    return t[0], t[1:].transpose(1, 2, 0)


def apply_compliance(material, tau):
    """Apply the compliance to a 2x2 matrix (not necessarily symmetric)."""
    tau = np.asarray(tau, dtype=float)
    m = np.trace(tau) / material.N
    dev = tau - m * np.eye(2)
    return material.P * dev + material.Q * m * np.eye(2)


def position_of(layout, k):
    """Active element k's layout position."""
    i = int(np.searchsorted(layout.elements, k))
    assert layout.elements[i] == k
    return i


def layout_dicts(layout):
    """The layout's vertex and edge arrays as dicts, in the walk's order
    (`layout_by_walk`): `vertex_dof` (vertex -> x dof, by dof),
    `trace_edges` (owner edge -> (q, bubble base)) and `flux_edges` (leaf
    edge -> (degree, base)), by edge, and `hanging` (hanging vertex ->
    master edge), by element side."""
    vdof = layout.vertex_dofs
    v = np.flatnonzero(vdof >= 0)
    v = v[np.argsort(vdof[v])]
    owners, leaves = np.flatnonzero(layout.trace_q), np.flatnonzero(layout.flux_p)
    return SimpleNamespace(
        vertex_dof=dict(zip(v.tolist(), vdof[v].tolist())),
        trace_edges=dict(zip(owners.tolist(), zip(
            layout.trace_q[owners].tolist(), layout.trace_base[owners].tolist()))),
        flux_edges=dict(zip(leaves.tolist(), zip(
            layout.flux_p[leaves].tolist(), layout.flux_base[leaves].tolist()))),
        hanging=dict(layout.hanging.tolist()))


def coords_of(mesh, eids):
    """Vertex coordinates of several elements, shape (len(eids), 4, 2)."""
    return mesh.vertices[mesh.verts[np.asarray(eids, dtype=int)]]


def degree_and_base(layout, k):
    """Element k's degree p and first interior dof."""
    i = position_of(layout, k)
    return int(layout.element_p[i]), int(layout.interior_base[i])


class SideSegment(NamedTuple):
    """Portion [t0, t1] of element side `side` carried by one leaf (flux)
    edge, in the side's counterclockwise parameter, with the side's trace
    degree and the leaf's flux degree."""

    side: int
    t0: float
    t1: float
    trace_q: int
    flux_p: int


def segments_of(layout, k):
    """Element k's side segments, as its class kernel reads them from its
    class key: each side split evenly among its leaves."""
    sides = layout.class_keys[layout.element_class[position_of(layout, k)]][3]
    return [SideSegment(s, -1.0 + 2.0 * i / len(fps),
                        -1.0 + 2.0 * (i + 1) / len(fps), q, fp)
            for s, (q, fps) in enumerate(sides) for i, fp in enumerate(fps)]


def interior_slices(layout, eid):
    """(sigma slice, u slice) of an element's interior dofs."""
    p, base = degree_and_base(layout, eid)
    nt = (p + 1) ** 2
    return slice(base, base + 3 * nt), slice(base + 3 * nt, base + 5 * nt)


def local_load(coords, p_tilde, f):
    """Load vector (f, v) over one element's test space.

    f maps an (n, 2) array of physical points to the (n, 2) body force;
    None means no body force.
    """
    ns = (p_tilde + 1) ** 2
    lvec = np.zeros(5 * ns)
    if f is None:
        return lvec
    nq = _volume_nq(p_tilde)
    phys, w, _ = _volume_points(coords, nq)
    tvals, _ = q_basis_table(p_tilde, nq)
    fv = f(phys) * w[:, None]  # (nq, 2)
    lvec[3 * ns:] = (tvals @ fv).T.ravel()
    return lvec


def full_gram(blocks):
    """diag(X_tau, X_v, X_v), the whole (5 ns, 5 ns) matrix of a Gram pair
    (X_tau, X_v): `local_gram`'s blocks or `gram_factor`'s factors."""
    return block_diag(blocks[0], blocks[1], blocks[1])


def _long_double_lower(G, X):
    """L^-1 X in extended precision (`np.longdouble`), L the Cholesky
    factor of the whole G from the float64 Gram blocks G = (G_tau, G_v):
    the factor and a forward substitution, a row at a time."""
    G = full_gram(G).astype(np.longdouble)
    L = np.zeros_like(G)
    for j in range(len(G)):
        L[j, j] = np.sqrt(G[j, j] - L[j, :j] @ L[j, :j])
        L[j + 1:, j] = (G[j + 1:, j] - L[j + 1:, :j] @ L[j, :j]) / L[j, j]
    Z = np.asarray(X, dtype=np.longdouble)
    for i in range(len(G)):
        Z[i] = (Z[i] - L[i, :i] @ Z[:i]) / L[i, i]
    return Z


def long_double_stiffness(G, B):
    """B'G^-1 B in extended precision from the float64 Gram blocks G and
    coupling matrix B (`_long_double_lower`)."""
    Z = _long_double_lower(G, B)
    return Z.T @ Z


def long_double_load(G, B, lvec, c):
    """B'G^-1 (l - B_s c) in extended precision from the float64 Gram
    blocks G, coupling matrix B, load l and lift c on B's last c.size
    (skeleton) columns B_s (`_long_double_lower`)."""
    wide = B.astype(np.longdouble)
    r = lvec - wide[:, B.shape[1] - c.size:] @ c.astype(np.longdouble)
    Z = _long_double_lower(G, np.column_stack([wide, r]))
    return Z[:, :-1].T @ Z[:, -1]


def lower_rows(L, b):
    """diag(L_tau, L_v, L_v)^-1 b for the Gram factor L = (L_tau, L_v) by
    one triangular solve with the whole factor, its rows put in the order
    of `local.lower_solve`: the tau rows, then the v rows node by node."""
    ns = len(L[1])
    v = 3 * ns + np.arange(2 * ns).reshape(2, ns).T.ravel()
    z = solve_triangular(full_gram(L), b, lower=True)
    return z[np.concatenate([np.arange(3 * ns), v])]


def class_bmat(layout, material, pos):
    """The coupling matrix B of the element at layout position `pos` from
    `local_bmat` at its class key's vertex offsets and sides, the B whose
    Z = L^-1 B the class kernel keeps."""
    p, p_tilde, shape, sides = layout.class_keys[layout.element_class[pos]]
    return local_bmat(np.frombuffer(shape, float).reshape(4, 2), p, p_tilde,
                      material, sides)


def error_representation(L, Bfull, lvec, x_loc):
    """Riesz representative of one element's residual and its V-norm.

    L = (L_tau, L_v) is the Gram factor (`gram_factor`), whose whole lower
    Cholesky factor of G is `full_gram(L)`; the V-norm of e = G^{-1} r is
    |L^{-1} r|.
    """
    L = full_gram(L)
    resid = lvec - Bfull @ x_loc
    z = solve_triangular(L, resid, lower=True, check_finite=False)
    e = solve_triangular(L, z, lower=True, trans="T", check_finite=False)
    return e, float(np.linalg.norm(z))


def edge_param(points, edge_coords):
    """Parameter in [-1, 1] of physical points along a straight edge."""
    a, b = edge_coords
    d = b - a
    return 2.0 * ((points - a) @ d) / (d @ d) - 1.0


def trace_functions(mesh, tables, e):
    """Owner edge e's trace basis functions as {global x dof: weight};
    `tables` holds the layout's dicts (`layout_dicts`)."""
    q, base = tables.trace_edges[e]
    return ([vertex_trace(mesh, tables, v) for v in mesh.ends[e].tolist()]
            + [{base + 2 * (i - 2): 1.0} for i in range(2, q + 1)])


def trace_at(mesh, tables, e, point):
    """The trace's x component at a point of owner edge e, as
    {global x dof: coefficient}."""
    q, _ = tables.trace_edges[e]
    vals = edge_basis_eval(q, edge_param(point[None], edge_coords(mesh, e)))
    out = defaultdict(float)
    for val, fn in zip(vals[:, 0], trace_functions(mesh, tables, e)):
        for g, w in fn.items():
            out[g] += val * w
    return out


def vertex_trace(mesh, tables, v):
    """The trace at vertex v: its own dof, or its master edge's trace at
    the vertex's coordinates."""
    if v in tables.vertex_dof:
        return {tables.vertex_dof[v]: 1.0}
    return trace_at(mesh, tables, tables.hanging[v], mesh.vertices[v])


def global_bmat(mesh, layout, material, k):
    """Element k's coupling matrix on the global trial functions, with its
    dof ids: (B (5 ns, ni + n), interior ids then the n skeleton ids)."""
    p, first = degree_and_base(layout, k)
    p_tilde = p + layout.delta_p
    ns = (p_tilde + 1) ** 2
    coords = element_coords(mesh, k)
    tables = layout_dicts(layout)
    edges = {name: (list(table), np.array([edge_coords(mesh, e) for e in table]))
             for name, table in (("trace", tables.trace_edges),
                                 ("flux", tables.flux_edges))}
    parts, cols, blocks = [], [], []
    for s in range(4):
        a, b = coords[s], coords[(s + 1) % 4]
        trace_ids, trace_ends = edges["trace"]
        (owner,) = np.flatnonzero(overlapping(trace_ends, a, b))
        owner = trace_ids[owner]
        q, _ = tables.trace_edges[owner]
        flux_ids, flux_ends = edges["flux"]
        for leaf in np.flatnonzero(overlapping(flux_ends, a, b)):
            t0, t1 = sorted(edge_param(flux_ends[leaf], np.array([a, b])))
            leaf = flux_ids[leaf]
            ne = max(p_tilde, q) + 3
            rows_map, wref, svals = _side_table(s, t0, t1, ne, p_tilde)
            phys, tang = rows_map @ coords
            wn = (wref * tang[:, 1], -wref * tang[:, 0])
            prof = edge_basis_eval(q, edge_param(phys, edge_coords(mesh, owner)))
            for val, fn in zip(prof, trace_functions(mesh, tables, owner)):
                for g, w in fn.items():
                    R = np.array([w * val * wn[0], w * val * wn[1]]) @ svals.T
                    parts += [R[0], R[1], R[0], R[1]]
                    cols += [g, g, g + 1, g + 1]
                    blocks += _TRACE_BLOCKS.tolist()
            # the flux sign: the outward normal against the leaf's normal
            d = np.diff(edge_coords(mesh, leaf), axis=0)[0]
            sign = np.sign((b - a) @ d)
            fp, base = tables.flux_edges[leaf]
            fvals = edge_basis_eval(fp, edge_param(phys, edge_coords(mesh, leaf)))
            F = (fvals * wref * np.hypot(tang[:, 0], tang[:, 1]) * sign) @ svals.T
            for i in range(fp + 1):
                parts += [F[i], F[i]]
                cols += [base + 2 * i, base + 2 * i + 1]
                blocks += _FLUX_BLOCKS.tolist()
    ids, inv = np.unique(cols, return_inverse=True)
    acc = np.zeros((5, ids.size, ns))
    np.add.at(acc, (np.array(blocks), inv), np.array(parts))
    B = np.hstack([local_bmat(coords, p, p_tilde, material, []),
                   -acc.transpose(0, 2, 1).reshape(5 * ns, ids.size)])
    return B, np.concatenate([np.arange(first, first + 5 * (p + 1) ** 2), ids])


def member(cmap, i):
    """The one-member `ClassMap` of member i of `cmap`."""
    return ClassMap(cmap.interior[i:i + 1], cmap.ids[i:i + 1],
                    cmap.rows[i:i + 1], cmap.weights[i:i + 1], cmap.n_skel)


def element_cmap(layout, pos):
    """The one-member `ClassMap` (interior dofs, C_K) of the element at
    `pos`."""
    return member(layout.class_maps[layout.element_class[pos]],
                  layout.element_row[pos])


def full_map(cmap, n_dofs):
    """A one-member `ClassMap` as a dense (ni + n_skel, n_dofs) matrix:
    the identity on the interior dofs, then C_K."""
    ni = cmap.interior.shape[1]
    C = np.zeros((ni + cmap.n_skel, n_dofs))
    C[np.arange(ni), cmap.interior[0]] = 1.0
    np.add.at(C, (ni + cmap.rows[0], cmap.ids[0]), cmap.weights[0])
    return C


def assemble_full(mesh, degrees, material, f, layout):
    """Stiffness matrix E (CSR) and load g over all dofs, pinned included."""
    rows, cols, vals = [], [], []
    g = np.zeros(layout.n_dofs)
    for k in mesh.active_elements:
        p, _ = degree_and_base(layout, k)
        p_tilde = p + degrees.delta_p
        coords = element_coords(mesh, k)
        L = gram_factor(local_gram(coords, p_tilde))
        Bfull, gdofs = global_bmat(mesh, layout, material, k)
        lvec = local_load(coords, p_tilde, f)
        _, K = local_stiffness(L, Bfull)
        fl = load_product(L, Bfull, lvec)
        idx = np.broadcast_to(gdofs, (gdofs.size, gdofs.size))
        rows.append(idx.T.ravel())
        cols.append(idx.ravel())
        vals.append(K.ravel())
        g[gdofs] += fl
    E = sp.coo_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(layout.n_dofs, layout.n_dofs)).tocsr()
    return E, g


def load_product(L, Bfull, lvec):
    """Element load B'G^-1 l, with L = (L_tau, L_v) the Gram factor."""
    L = full_gram(L)
    Z = solve_triangular(L, Bfull, lower=True)
    return Z.T @ solve_triangular(L, lvec, lower=True)


def solve_full(E, g, layout, x_pinned=None, refine=0):
    """Direct sparse solve on the free dofs; returns the full dof vector.

    `x_pinned` holds the Dirichlet values on the pinned dofs (zero when
    omitted).  `refine` steps of iterative refinement, with the residual
    in extended precision (`np.longdouble`), take the solution to about
    double-precision accuracy, below the error of the solve itself, which
    grows with cond(E) (1.6e-10 relative at cond 1.1e6).
    """
    free = ~layout.pinned
    xp = np.zeros(layout.n_dofs) if x_pinned is None else x_pinned
    rhs = g[free] - E[np.ix_(free, layout.pinned)] @ xp[layout.pinned]
    Eff = E[np.ix_(free, free)].tocsc()
    lu = splu(Eff)
    xf = lu.solve(rhs)
    wide = Eff.astype(np.longdouble)
    for _ in range(refine):
        r = rhs.astype(np.longdouble) - wide @ xf.astype(np.longdouble)
        xf = xf + lu.solve(r.astype(float))
    x = xp.copy()
    x[free] = xf
    return x


def _element_matrices(mesh, layout, material, f, k, delta_p):
    """Element k's class Z = L^-1 B, L^-1 l of its own load l in Z's row
    order (`lower_rows`), and its dense map from the global to its local
    dofs (`full_map`)."""
    pos = position_of(layout, k)
    L, Z, _ = element_full_bmat(layout, material, f, pos)
    cmap = element_cmap(layout, pos)
    lvec = local_load(element_coords(mesh, k),
                      degree_and_base(layout, k)[0] + delta_p, f)
    return Z, lower_rows(L, lvec), full_map(cmap, layout.n_dofs)


def condense_per_element(mesh, degrees, material, f, layout, x_pinned,
                         loads):
    """Condensation one element at a time: (S, g, expand).

    S is the condensed skeleton matrix over all dofs (CSR) and g the
    (n_dofs, 1 + m) block of condensed loads, column 0 the DPG load with
    the Dirichlet lift, then the extra loads `loads` (n_dofs, m).
    `expand(j, x)` returns a copy of the dof vector x with the element
    interiors of load j recovered from x's skeleton values.
    """
    n = layout.n_dofs
    g = np.column_stack([np.zeros(n), loads])
    rows, cols, vals, recover = [], [], [], []
    for k in mesh.active_elements:
        Z, y, C = _element_matrices(mesh, layout, material, f, k,
                                    degrees.delta_p)
        ni = 5 * (degree_and_base(layout, k)[0] + 1) ** 2
        K = Z.T @ Z
        Kii = cho_factor(K[:ni, :ni], lower=True)
        Kis = K[:ni, ni:]
        A = cho_solve(Kii, Kis)
        S = K[ni:, ni:] - Kis.T @ A
        fl = Z.T @ y
        ii, Csk = np.flatnonzero(C[:ni].any(axis=0)), C[ni:]
        b = cho_solve(Kii, np.column_stack([fl[:ni], loads[ii]]))
        gs = -(Kis.T @ b)
        gs[:, 0] += fl[ni:] - S @ (Csk @ x_pinned)
        g += Csk.T @ gs
        sk = np.flatnonzero(Csk.any(axis=0))
        Sg = Csk[:, sk].T @ S @ Csk[:, sk]
        idx = np.broadcast_to(sk, (sk.size, sk.size))
        rows.append(idx.T.ravel())
        cols.append(idx.ravel())
        vals.append(Sg.ravel())
        recover.append((ii, Csk, A, b))
    S = sp.coo_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n, n)).tocsr()

    def expand(j, x):
        x = x.copy()
        for ii, Csk, A, b in recover:
            x[ii] = b[:, j] - A @ (Csk @ x)
        return x

    return S, g, expand


def class_coo(cmap, S):
    """(rows, cols, values) of the sum of C_K' S C_K over a class's
    members, in global dof numbering."""
    S = S[cmap.rows[:, :, None], cmap.rows[:, None, :]]
    vals = cmap.weights[:, :, None] * S * cmap.weights[:, None, :]
    return (np.broadcast_to(cmap.ids[:, :, None], vals.shape).ravel(),
            np.broadcast_to(cmap.ids[:, None, :], vals.shape).ravel(),
            vals.ravel())


def condensed_matrix_by_global_coo(material, f, layout):
    """The condensed skeleton matrix by the global route: (S, free).

    Every class's C_K' S C_K goes into one COO matrix over all dofs, which
    becomes CSR; the free skeleton dofs are the dofs that are neither
    pinned nor an element interior, found from the class maps, and `np.ix_`
    slices them out before the conversion to CSC.  `assembly.condense`
    writes the free-dof CSC directly; this is its reference.
    """
    n = layout.n_dofs
    interior = np.zeros(n, dtype=bool)
    rows, cols, vals = [], [], []
    for cls in range(len(layout.classes)):
        kernel, _, cmap = _class_members(layout, material, f, cls)
        r, c, v = class_coo(cmap, kernel.S)
        rows.append(r)
        cols.append(c)
        vals.append(v)
        interior[cmap.interior] = True
    E = sp.coo_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n, n)).tocsr()
    free = np.flatnonzero(~layout.pinned & ~interior)
    return E[np.ix_(free, free)].tocsc(), free


def eliminate_dense(S, g, keep):
    """Dense Schur complement of the symmetric S onto the rows and columns
    `keep` (a bool mask), the loads g (n, k) condensed the same way, and
    the size of the two terms each condensed load sums, |g_c| +
    |S_ci| |S_ii^-1 g_i|, which bounds its roundoff: the eliminated values
    S_ii^-1 g_i can be far larger than the load they leave."""
    S = S.toarray() if sp.issparse(S) else S
    drop = ~keep
    Sii, Sic = S[np.ix_(drop, drop)], S[np.ix_(drop, keep)]
    Sc = S[np.ix_(keep, keep)] - Sic.T @ np.linalg.solve(Sii, Sic)
    xi = np.linalg.solve(Sii, g[drop])
    return (Sc, g[keep] - Sic.T @ xi,
            np.abs(g[keep]) + np.abs(Sic.T) @ np.abs(xi))


def layout_of_nodes(mesh, degrees):
    """The layout in which every split element is a node: laid out with a
    node class's least member count set to 1 and then restored."""
    threshold = assembly.NODE_MIN_MEMBERS
    assembly.NODE_MIN_MEMBERS = 1
    try:
        layout = build_dof_layout(mesh, degrees)
    finally:
        assembly.NODE_MIN_MEMBERS = threshold
    assert sum(map(len, layout.nodes)) == np.count_nonzero(mesh.child >= 0)
    return layout


def node_kernels(layout, material):
    """The kernel of every class and node class of the layout by its key:
    the node kernels built children before parents from their children's,
    as `condense` builds them for one solve."""
    kernels = {key: assembly._kernel(layout.cache, key, material)
               for key in layout.class_keys}
    for key, basis in zip(layout.node_keys, layout.node_basis):
        kernels[key] = assembly._node_kernel(basis, [kernels[k] for k in key])
    return kernels


def node_schur_complement(layout, kernels, nc, i):
    """Member i of node class nc by the dense route: its leaves' C_K' S_K
    C_K (`full_map` and the class kernels' S) summed on the dofs they
    touch, with the inner dofs of the node and of every node below it
    eliminated (`eliminate_dense`).  Returns that, the node's own C' S C
    from its kernel on the same dofs, and its boundary map C as a dense
    (n_boundary, n_dofs) matrix; `kernels` maps the class and node keys
    to their kernels (`node_kernels`)."""
    mesh, n = layout.mesh, layout.n_dofs
    inner = {e: nmap.interior[j] for nodes, nmap in
             zip(layout.nodes, layout.node_maps)
             for j, e in enumerate(nodes.tolist())}
    leaves, eliminated, todo = [], [], [layout.nodes[nc][i]]
    while todo:
        e = todo.pop()
        if mesh.child[e] < 0:
            leaves.append(e)
        else:
            eliminated.append(inner[e])
            todo.extend((mesh.child[e] + np.arange(4)).tolist())
    maps, schur = [], []
    for e in leaves:
        pos = position_of(layout, e)
        cls = layout.element_class[pos]
        cmap = element_cmap(layout, pos)
        maps.append(full_map(cmap, n)[cmap.interior.shape[1]:])
        schur.append(kernels[layout.class_keys[cls]].S)
    used = np.flatnonzero(np.any([(C != 0).any(axis=0) for C in maps], axis=0))
    total = sum(C[:, used].T @ S @ C[:, used] for C, S in zip(maps, schur))
    keep = ~np.isin(used, np.concatenate(eliminated))
    expect, _, _ = eliminate_dense(total, np.zeros((used.size, 0)), keep)
    nmap = member(layout.node_maps[nc], i)
    C = full_map(nmap, n)[nmap.interior.shape[1]:]
    S = kernels[layout.node_keys[nc]].S
    got = C[:, used[keep]].T @ S @ C[:, used[keep]]
    return expect, got, C


def indefinite_below(patcher, depth):
    """The layout of the 2x2 square refined uniformly `depth` times, with
    the Schur complements one level below the roots made indefinite
    through `patcher` (pytest's monkeypatch): an element class's (depth 1)
    or the depth-1 node class's (depth 2).  The roots' inner block then
    has a negative diagonal entry, for the failure-path tests."""
    mesh = build_initial_mesh("unit_square", 2)
    for _ in range(depth):
        mesh = refine_uniform(mesh)
    layout = build_dof_layout(mesh, DegreeMap(mesh, p=1))
    assert [len(nodes) for nodes in layout.nodes] == [4 ** k for k in
                                                      range(depth, 0, -1)]
    name = "_class_kernel" if depth == 1 else "_node_kernel"
    build = getattr(assembly, name)

    def indefinite(first, *args):     # a class key, or a node basis
        kernel = build(first, *args)
        if depth == 2 and first is not layout.node_basis[0]:
            return kernel
        S = kernel.S - 1e3 * np.abs(kernel.S).max() * np.eye(len(kernel.S))
        return replace(kernel, S=S)

    patcher.setattr(assembly, name, indefinite)
    return layout


def indefinite_root_boundary(patcher):
    """The layout of the 2x2 square refined uniformly once, with the root
    node kernel's Schur complement, its boundary block, made indefinite
    through `patcher` and its inner block left SPD.  The root kernel
    itself then builds, and the roots' private units, whose blocks come
    from that Schur complement, are the first to fail, for the
    failure-path tests."""
    mesh = refine_uniform(build_initial_mesh("unit_square", 2))
    layout = build_dof_layout(mesh, DegreeMap(mesh, p=1))
    assert [len(nodes) for nodes in layout.nodes] == [4]
    build = assembly._node_kernel

    def indefinite(basis, children):
        kernel = build(basis, children)
        S = kernel.S - 1e3 * np.abs(kernel.S).max() * np.eye(len(kernel.S))
        return replace(kernel, S=S)

    patcher.setattr(assembly, "_node_kernel", indefinite)
    return layout


def error_indicators_per_element(mesh, degrees, material, f, layout, x):
    """Elementwise V-norms of the error representation function."""
    out = {}
    for k in mesh.active_elements:
        Z, y, C = _element_matrices(mesh, layout, material, f, k,
                                    degrees.delta_p)
        out[k] = float(np.linalg.norm(y - Z @ (C @ x)))
    return out


def l2_errors_per_element(mesh, degrees, layout, x, exact):
    """(e_sigma, e_u, n_sigma, n_u) with one `exact` call per element."""
    es = eu = ns = nu = 0.0
    for k in mesh.active_elements:
        p, base = degree_and_base(layout, k)
        nq = p + degrees.delta_p + 2
        rule = gauss_rule_2d(nq)
        phys, jac = bilinear_maps(element_coords(mesh, k), rule.points)
        w = rule.weights * np.linalg.det(jac)
        vals, _ = q_basis_table(p, nq)
        fields = x[base: base + 5 * vals.shape[0]].reshape(5, -1) @ vals
        u_ex, sig = exact(phys)
        s_ex = np.column_stack([sig[:, 0, 0], sig[:, 0, 1], sig[:, 1, 1]])
        ds = fields[:3].T - s_ex
        es += w @ (ds[:, 0] ** 2 + 2.0 * ds[:, 1] ** 2 + ds[:, 2] ** 2)
        eu += w @ np.sum((fields[3:].T - u_ex) ** 2, axis=1)
        ns += w @ (s_ex[:, 0] ** 2 + 2.0 * s_ex[:, 1] ** 2 + s_ex[:, 2] ** 2)
        nu += w @ np.sum(u_ex ** 2, axis=1)
    return np.sqrt(es), np.sqrt(eu), np.sqrt(ns), np.sqrt(nu)


def dirichlet_values_per_element(layout, g_data, mesh):
    """Pinned-dof vector with one `g_data` call per boundary edge."""
    xp = np.zeros(layout.n_dofs)
    tables = layout_dicts(layout)
    for v, d in tables.vertex_dof.items():
        if layout.pinned[d]:
            xp[d: d + 2] = g_data(mesh.vertices[[v]])[0]
    for e, (q, base) in tables.trace_edges.items():
        if not mesh.boundary[e] or q < 2:
            continue
        coords = edge_coords(mesh, e)
        rule = gauss_rule(q + 3)
        pts = 0.5 * (1 - rule.points)[:, None] * coords[0] \
            + 0.5 * (1 + rule.points)[:, None] * coords[1]
        gv = g_data(np.vstack([pts, coords]))
        vals = edge_basis_eval(q, rule.points)
        resid = gv[:-2] - np.outer(vals[0], gv[-2]) - np.outer(vals[1], gv[-1])
        bub = vals[2:]
        c = np.linalg.solve((bub * rule.weights) @ bub.T,
                            (bub * rule.weights) @ resid)
        xp[base: base + 2 * (q - 1)] = c.ravel()
    return xp


def greedy_mark_by_set(indicators, fraction=0.5):
    """Elements whose indicator, in a dict by element, reaches the given
    fraction of the maximum: the set-based reference of
    `study.greedy_mark`."""
    if not indicators:
        return set()
    top = max(indicators.values())
    if top <= 0.0:
        return set()
    return {k for k, v in indicators.items() if v >= fraction * top}


def hp_decide_by_set(marked, mesh, singular_point):
    """Split a set of marked elements: touching the singular point -> h,
    else -> p; the set-based reference of `study.hp_decide`."""
    sp = np.asarray(singular_point, dtype=float)
    order = sorted(marked)
    coords = coords_of(mesh, order)
    dist = np.hypot(coords[..., 0] - sp[0], coords[..., 1] - sp[1])
    touching = (dist.min(axis=1) < 1e-12).tolist()
    h_set = {k for k, t in zip(order, touching) if t}
    return h_set, set(order) - h_set


def active_sides(mesh, degrees):
    """Ends (n, 2, 2) and degrees (n,) of the sides of the active elements."""
    active = mesh.active_elements
    c = coords_of(mesh, active)
    ends = np.stack([c, np.roll(c, -1, axis=1)], axis=2).reshape(-1, 2, 2)
    return ends, np.repeat(degrees.of(mesh, active), 4)


def _along(a, b, x):
    """Parameter t of the points x on the lines a + t (b - a), and whether
    each point lies on its line; the arguments broadcast."""
    d, r = b - a, x - a
    dd = np.sum(d * d, axis=-1)
    cross = r[..., 0] * d[..., 1] - r[..., 1] * d[..., 0]
    return np.sum(r * d, axis=-1) / dd, np.abs(cross) <= 1e-12 * dd


def overlapping(ends, a, b):
    """Mask of the segments `ends` (n, 2, 2) that share a piece of positive
    length with the segment [a, b]."""
    t, on = _along(a, b, ends)
    shared = np.minimum(t.max(axis=1), 1.0) - np.maximum(t.min(axis=1), 0.0)
    return on.all(axis=1) & (shared > 1e-12)


def degree_by_overlap(sides, seg_ends):
    """The maximum rule from geometry: the largest degree of the element
    sides that share a piece of positive length with a segment."""
    ends, p = sides
    return int(p[overlapping(ends, *seg_ends)].max())


def corner_vertices(mesh):
    """The vertices of the active elements."""
    return set(mesh.verts[mesh.active_elements].ravel().tolist())


def hanging_by_overlap(mesh, sides):
    """{corner vertex: ends of the element side it lies strictly inside}."""
    ends, _ = sides
    out = {}
    for v in corner_vertices(mesh):
        t, on = _along(ends[:, 0], ends[:, 1], np.array(mesh.vertices[v]))
        inside = np.flatnonzero(on & (t > 1e-12) & (t < 1.0 - 1e-12))
        if inside.size:
            out[v] = ends[inside[0]]
    return out


def boundary_vertices_by_overlap(mesh, sides):
    """Corner vertices on an element side that no other side overlaps."""
    ends, _ = sides
    lone = ends[[overlapping(ends, a, b).sum() == 1 for a, b in ends]]
    out = set()
    for v in corner_vertices(mesh):
        t, on = _along(lone[:, 0], lone[:, 1], np.array(mesh.vertices[v]))
        if np.any(on & (t >= -1e-12) & (t <= 1.0 + 1e-12)):
            out.add(v)
    return out


def edge_coords(mesh, e):
    """End coordinates of edge e, shape (2, 2)."""
    return mesh.vertices[mesh.ends[e]]


def element_coords(mesh, k):
    """Vertex coordinates of element k, shape (4, 2)."""
    return mesh.vertices[mesh.verts[k]]


def halves(mesh, e):
    """The halves of edge e, from its first end to its second; none while
    the edge is whole."""
    c = int(mesh.edge_child[e])
    return [] if c < 0 else [c, c + 1]


def active_side_neighbor(mesh, e):
    """The first active element having edge e as one of its sides, if any."""
    k = np.flatnonzero((mesh.sides == e).any(axis=1) & (mesh.child < 0))
    return int(k[0]) if k.size else None


def side_is_split(mesh, k, s):
    """True when the neighbor across side s of element k is one level finer."""
    return any(active_side_neighbor(mesh, c) is not None
               for c in halves(mesh, mesh.sides[k, s]))


def side_subedges(mesh, k, s):
    """Leaf edges covering side s of element k, ordered along the side."""
    eid = int(mesh.sides[k, s])
    if not side_is_split(mesh, k, s):
        return [eid]
    # halves are stored from the edge's first end; flip to side traversal order
    kids = halves(mesh, eid)
    return kids if mesh.ends[eid, 0] == mesh.verts[k, s] else kids[::-1]


def validate(mesh):
    """Check 1-irregularity and interface counts; raises on violation."""
    side_count = {}
    for k in mesh.active_elements.tolist():
        for s in range(4):
            eid = int(mesh.sides[k, s])
            if side_is_split(mesh, k, s):
                for c in halves(mesh, eid):
                    if any(active_side_neighbor(mesh, cc) is not None
                           for cc in halves(mesh, c)):
                        raise ValueError(f"edge {eid} split twice across element {k}")
                    side_count[c] = side_count.get(c, 0) + 1
            else:
                side_count[eid] = side_count.get(eid, 0) + 1
    for eid, cnt in side_count.items():
        expected = 1 if mesh.boundary[eid] else 2
        if cnt != expected:
            raise ValueError(f"edge {eid} used by {cnt} sides, expected {expected}")


def restriction_rows(q, half, reverse, q_max=None):
    """Side coefficients from edge coefficients of the degree q edge basis,
    as rows of (weight, edge function) pairs, one row per side function.

    The side covers child `half` of the edge (the whole edge for None) and
    runs against the edge when `reverse`: then the ends swap and the
    bubbles of odd degree change sign.  On a half, a bubble restricts to
    bubbles of at most its degree plus a linear part, which the corner
    values carry; the rows of the side's ends are left out there.  The
    half's coefficients come from the solve at degree `q_max` (q when
    None), whose leading block is degree q's as the edge basis is
    hierarchical; `build_dof_layout` solves once at the mesh's largest
    trace degree, and `test_bubble_table_matches_per_degree_solves` holds
    that table to the solve at each q.
    """
    if half is None:
        T = np.eye(q + 1)
        if reverse:
            T = T[[1, 0, *range(2, q + 1)]]
            T[2:] *= ((-1.0) ** np.arange(2, q + 1))[:, None]
    else:
        n = q if q_max is None else q_max
        t = gauss_rule(n + 1).points
        t_edge = 0.5 * ((-t if reverse else t) + 2 * half - 1)
        # the edge functions at the points are T' times the side functions
        T = np.linalg.solve(edge_basis_eval(n, t).T,
                            edge_basis_eval(n, t_edge).T)[:q + 1, :q + 1]
        T = np.vstack([np.zeros((2, q + 1)), np.triu(T[2:], 2)])
    return tuple(tuple((w, i) for i, w in enumerate(row) if w)
                 for row in T.tolist())


def class_map_of_rows(interior, member_rows):
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
    return ClassMap(interior, ids, rows, np.repeat(weights, 2, axis=1), 2 * n)


def layout_by_walk(mesh, degrees):
    """The dof layout, class keys, constraint maps and side segments of
    `build_dof_layout`, found by a walk over every element side and every
    local skeleton function, with C_K's rows as lists of (weight, dof)
    pairs.

    Returns a namespace with `n_dofs`, `vertex_dof`, `trace_edges`,
    `flux_edges`, `hanging`, `pinned`, `class_keys`, `classes` (element
    ids), `class_maps` and `segments` (element -> its `SideSegment`s).
    """
    active = mesh.active_elements.tolist()
    element_p = dict(zip(active, degrees.of(mesh, active).tolist()))

    # one pass over the element sides: each side's trace owner edge and
    # flux leaf edges, the edge degrees by the maximum rule, the hanging
    # vertices and the boundary vertices
    sides, trace_q, flux_p, hanging, boundary_verts = {}, {}, {}, {}, set()
    for k in active:
        p = element_p[k]
        sides[k] = []
        for s, eid in enumerate(mesh.sides[k].tolist()):
            leaves = side_subedges(mesh, k, s)
            parent = int(mesh.edge_parent[eid])
            if len(leaves) > 1:
                hanging[int(mesh.ends[mesh.edge_child[eid], 1])] = eid  # midpoint
                owner = eid
            elif (parent >= 0
                    and active_side_neighbor(mesh, parent) is not None):
                owner = parent      # constrained side, master across the interface
            else:
                owner = eid
            sides[k].append((owner, leaves))
            trace_q[owner] = max(trace_q.get(owner, 0), p + 1)
            for leaf in leaves:
                flux_p[leaf] = max(flux_p.get(leaf, 0), p)
                if mesh.boundary[leaf]:
                    boundary_verts.update(mesh.ends[leaf].tolist())
    trace_edges, flux_edges = sorted(trace_q), sorted(flux_p)
    q_max = max(trace_q.values())

    n = 0
    interior_base = {}
    for k in active:
        interior_base[k] = n
        n += 5 * (element_p[k] + 1) ** 2
    vertex_dof = {}
    for e in trace_edges:
        for v in mesh.ends[e].tolist():
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
        if mesh.boundary[e]:
            b = trace_base[e]
            pinned[b:b + 2 * (trace_q[e] - 1)] = True

    def vertex_entries(v):
        """The trace value at vertex v as (weight, x dof) pairs."""
        if v in vertex_dof:
            return [(1.0, vertex_dof[v])]
        # a hanging vertex takes its master edge's trace at the midpoint
        master = hanging[v]
        end0, end1 = mesh.ends[master].tolist()
        q = trace_q[master]
        vals = edge_basis_eval(q, 0.0)[:, 0]
        base = trace_base[master]
        return ([(w * vals[0], g) for w, g in vertex_entries(end0)]
                + [(w * vals[1], g) for w, g in vertex_entries(end1)]
                + [(vals[i], base + 2 * (i - 2)) for i in range(2, q + 1)])

    # per element: side segments, class key and C_K, whose rows are the
    # local skeleton functions (four corners, each side's trace bubbles,
    # each segment's flux functions) as lists of (weight, global x dof)
    segments, class_ids, classes, class_rows = {}, {}, [], []
    for k, coords in zip(active, coords_of(mesh, active)):
        verts, own_edges = mesh.verts[k].tolist(), mesh.sides[k].tolist()
        segs, key_sides = [], []
        rows = [vertex_entries(v) for v in verts]
        flux_rows = []
        for s, (owner, leaves) in enumerate(sides[k]):
            q, base = trace_q[owner], trace_base[owner]
            own = own_edges[s]
            reverse = mesh.ends[own, 0] != verts[s]
            half = None if owner == own else halves(mesh, owner).index(own)
            rows += [[(w, base + 2 * (j - 2)) for w, j in r]
                     for r in restriction_rows(q, half, reverse, q_max)[2:]]
            # the flux also changes sign with the normal
            sign = -1.0 if reverse else 1.0
            nseg = len(leaves)
            for i, leaf in enumerate(leaves):
                segs.append(SideSegment(side=s, t0=-1.0 + 2.0 * i / nseg,
                                        t1=-1.0 + 2.0 * (i + 1) / nseg,
                                        trace_q=q, flux_p=flux_p[leaf]))
                fb = flux_base[leaf]
                flux_rows += [[(sign * w, fb + 2 * j) for w, j in r]
                              for r in restriction_rows(flux_p[leaf], None,
                                                        reverse)]
            key_sides.append((q, tuple(flux_p[leaf] for leaf in leaves)))
        segments[k] = segs
        rows += flux_rows
        key = (element_p[k], element_p[k] + degrees.delta_p,
               (coords - coords[0]).tobytes(), tuple(key_sides))
        cls = class_ids.setdefault(key, len(classes))
        if cls == len(classes):
            classes.append([])
            class_rows.append([])
        classes[cls].append(k)
        class_rows[cls].append(rows)

    class_maps = []
    for members, member_rows in zip(classes, class_rows):
        ni = 5 * (element_p[members[0]] + 1) ** 2
        interior = (np.array([interior_base[k] for k in members])[:, None]
                    + np.arange(ni))
        class_maps.append(class_map_of_rows(interior, member_rows))
    return SimpleNamespace(
        n_dofs=n, vertex_dof=vertex_dof,
        trace_edges={e: (trace_q[e], trace_base[e]) for e in trace_edges},
        flux_edges={e: (flux_p[e], flux_base[e]) for e in flux_edges},
        hanging=hanging, pinned=pinned, class_keys=list(class_ids),
        classes=classes, class_maps=class_maps, segments=segments)


# -- the record mesh: the reference for `dpg_elast.mesh` ----------------------


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


class RecordMesh:
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

    def copy(self) -> "RecordMesh":
        """Independent copy: no record or list is shared with this mesh."""
        out = RecordMesh()
        out.vertices = list(self.vertices)
        out.elements = [Element(list(el.verts), list(el.edges), el.level,
                                el.parent, list(el.children), el.active)
                        for el in self.elements]
        out.edges = [Edge(e.v0, e.v1, e.boundary, e.parent, list(e.children),
                          list(e.elems))
                     for e in self.edges]
        out._edge_lookup = dict(self._edge_lookup)
        return out

    def arrays(self) -> dict:
        """The mesh as the arrays of `dpg_elast.mesh.Mesh`, by field name;
        children and halves must have consecutive ids."""
        els, edges = self.elements, self.edges
        for item in [*els, *edges]:
            assert np.all(np.diff(item.children) == 1)
        return dict(
            vertices=np.array(self.vertices, dtype=float).reshape(-1, 2),
            verts=np.array([el.verts for el in els]),
            sides=np.array([el.edges for el in els]),
            parent=np.array([-1 if el.parent is None else el.parent for el in els]),
            child=np.array([el.children[0] if el.children else -1 for el in els]),
            level=np.array([el.level for el in els]),
            ends=np.array([(e.v0, e.v1) for e in edges]),
            edge_parent=np.array([-1 if e.parent is None else e.parent for e in edges]),
            edge_child=np.array([e.children[0] if e.children else -1 for e in edges]),
            boundary=np.array([e.boundary for e in edges]))

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


def record_initial_mesh(domain: str, n_per_side: int) -> RecordMesh:
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

    mesh = RecordMesh()
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


def record_refine_marked(mesh: RecordMesh, marked) -> RecordMesh:
    """Split the marked active elements (plus 1-irregularity closure)."""
    active = set(mesh.active_elements)
    bad = set(marked) - active
    if bad:
        raise ValueError(f"marked ids are not active elements: {sorted(bad)}")
    new = mesh.copy()
    for k in sorted(marked):
        new._refine_element(k)
    return new
