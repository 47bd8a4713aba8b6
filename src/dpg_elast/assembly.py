"""Global dof layout, Dirichlet data, static condensation, and sparse solve.

`build_dof_layout` is the one reader of the mesh topology and of the
`DegreeMap` in a step.  Straight from the mesh's arrays it finds, in a
fixed number of array passes and no loop over sides or dofs, each
side's trace owner edge and flux leaves, the edge degrees by the maximum
rule, the hanging and pinned vertices, the numbering (element interiors,
then vertex trace dofs, edge trace bubbles and edge flux dofs), and every
element's class and constraint map C_K.  The layout keeps these as
arrays, by vertex, by edge and by element in layout order, with the mesh
it was built from, so the solver functions take the layout alone.

Each element computes on its own skeleton basis (`local_bmat`): the
trace of degree q along each counterclockwise side, with the element's
corner functions at the side's ends, and one flux basis per leaf.  C_K
takes the global skeleton dofs to this basis and holds everything
topological:
- a side that runs against its edge swaps the edge's ends, and its trace
  bubbles and flux bubbles of odd degree change sign;
- the flux takes the sign of the outward normal against the leaf's normal;
- a constrained side (half of its master edge) takes the restriction of
  the master's trace bubbles to that half, a small dense block per
  (q, half, reversed);
- a hanging corner takes the master's trace at the edge midpoint, spread
  onto the master's dofs (`vertex_entries`).
The element's skeleton unknowns are x_K = C_K x, and its matrix and loads
enter the global system as C_K' S_K C_K and C_K' g_K.

The class key is (p, p_tilde, vertex offsets from vertex 0, per side: the
trace degree q and the leaves' flux degrees), every input of B and of the
Gram factor; orientation, flux signs and hanging nodes do not split
classes.  A class's kernel (Gram factor, B and the interior condensation
blocks) is built whole from the class key and the material alone
(`_class_kernel`); a `KernelCache` keyed by both carries it from one
refinement step to the next.  Condensation, the error
estimator and the rank-one border terms do their dense algebra once per
class, with one scatter through the members' C_K (`ClassMap`), and the
loads of a step take one call of f per degree group.

A patch is a parent whose four children are all active.  Its inner
skeleton, the centre vertex and the four inner edges, is carried by the
children alone, so it condenses like an element interior, one level up:
the patch basis is the inner dofs, then the children's other skeleton
rows, and a patch class, keyed by its children's class keys, holds the
children's Schur complements summed on that basis, condensed onto the
boundary rows (`_patch_kernel`, cached with the element kernels).  The
layout finds the patches and their maps C_P in array passes, one loop
step per patch class.

`condense` takes one step per unit, children before parents: each
element class, then each patch class.  The Dirichlet lift enters at the
members that write the coarse matrix, the elements outside every patch
and the patches.  The free coarse dofs are the unpinned skeleton dofs
outside every inner skeleton; the entries go in that numbering into
arrays allocated once per step, and SuperLU gets the CSC matrix built
from them; no global matrix over all dofs is formed.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack
from scipy.sparse.linalg import splu

from .basis import _read_only, edge_basis_eval, gauss_rule
from .local import (cholesky_solve, gram_factor, local_bmat, local_gram,
                    local_loads, local_stiffness, lower_solve)
from .material import Material
from .mesh import DegreeMap, Mesh, _first_use

# SuperLU options for the SPD condensed skeleton matrix: a symmetric
# minimum-degree ordering of A'+A, with the pivots kept on the diagonal.
# Relaxed supernodes of at most 4 columns with panels of 10 (SuperLU's
# defaults are 10 and 20) factor the uniform p = 2, 3 skeleton matrices
# about a quarter faster, with fewer explicit zeros stored, and move the
# adaptive L-shape and matrices up to 30,722 dofs only within noise.  Stay
# at or below the defaults: scipy 1.17's SuperLU corrupts the heap above
# them (relax 20 with panel 40 aborted under MALLOC_CHECK_=3 on a 122-dof
# matrix).
SPD_SPLU_OPTIONS = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                        relax=4, panel_size=10,
                        options=dict(SymmetricMode=True))


@dataclass(frozen=True)
class ClassKernel:
    """Read-only matrices of one element or patch class.

    With K split into interior and skeleton blocks, `Kii` is the Cholesky
    factor of the interior block, `A` = Kii^-1 Kis for the interior-skeleton
    block Kis, and `S` the Schur complement Kss - Kis'A.  For an element,
    K = B'G^-1 B, `L` is the Gram Cholesky factor and `B` the coupling
    matrix with its columns in class order.  For a patch, K is its
    children's Schur complements summed on the patch basis (inner dofs,
    then boundary rows), and `L` and `B` are None.
    """

    Kii: np.ndarray
    A: np.ndarray
    S: np.ndarray
    L: np.ndarray | None = None
    B: np.ndarray | None = None


@dataclass
class KernelCache:
    """Element- and patch-class kernels of a study, carried from step to step.

    `kernels` maps (class key, material) and (patch key, material) to a
    `ClassKernel`; a patch key is a tuple of class keys, so it never equals
    a class key.  `gram_factors` maps (p_tilde, vertex offsets from vertex
    0) to a Gram Cholesky factor, and `families` maps (family key,
    material) to the coupling matrix of the shape family (`_family`), from
    which each class's B is scaled.  `build_dof_layout` drops every entry
    its classes and patch classes do not use, so the cache holds at most
    one step's classes, shapes, families and patch classes.
    """

    kernels: dict[tuple, ClassKernel] = field(default_factory=dict)
    gram_factors: dict[tuple, np.ndarray] = field(default_factory=dict)
    families: dict[tuple, np.ndarray] = field(default_factory=dict)

    def retain(self, class_keys, patch_keys) -> None:
        """Keep only the entries of the given class and patch keys."""
        keys = set(class_keys)
        # a class key is (p, p_tilde, vertex offsets, per side: the trace
        # degree q and the leaves' flux degrees); its shape is (p_tilde,
        # offsets), its family the key with the offsets scaled to [0.5, 1)
        shapes = {(key[1], key[2]) for key in keys}
        families = {_family(key)[0] for key in keys}
        keys.update(patch_keys)
        self.kernels = {k: v for k, v in self.kernels.items() if k[0] in keys}
        self.gram_factors = {k: v for k, v in self.gram_factors.items()
                             if k in shapes}
        self.families = {k: v for k, v in self.families.items()
                         if k[0] in families}


@dataclass(frozen=True)
class ClassMap:
    """The constraint maps C_K of a class's members, with their interior
    dofs; for a patch class, the maps C_P onto the patches' boundary rows,
    with their inner dofs.

    Local skeleton dof `rows[i, t]` of member i takes `weights[i, t]` times
    global dof `ids[i, t]`, and x_K = C_K x sums these over t.  `rows` is
    None when every member's C_K is a scaled copy, one entry per local dof
    in local order; otherwise a member's unused entries have weight zero.
    `interior` holds the members' interior (or inner) dof ids.
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

    def outer(self, S: np.ndarray, members: np.ndarray,
              out: np.ndarray | None = None) -> np.ndarray:
        """C_K' S C_K of the selected members as an (m, nnz, nnz) block:
        entry [i, a, b] adds to the global entry (ids[i, a], ids[i, b])."""
        w = self.weights[members]
        if self.rows is not None:
            r = self.rows[members]
            S = S[r[:, :, None], r[:, None, :]]
        out = np.multiply(w[:, :, None], S, out=out)
        out *= w[:, None, :]
        return out

    def member(self, i: int) -> "ClassMap":
        """The one-member map of member i."""
        rows = None if self.rows is None else self.rows[i:i + 1]
        return ClassMap(self.interior[i:i + 1], self.ids[i:i + 1], rows,
                        self.weights[i:i + 1], self.n_skel)


@dataclass
class DofLayout:
    mesh: Mesh                               # the mesh it was built from
    n_dofs: int
    vertex_dofs: np.ndarray                  # vertex -> x dof, -1: none
    trace_q: np.ndarray                      # edge -> trace q, 0: no owner
    trace_base: np.ndarray                   # edge -> an owner's first bubble
    flux_p: np.ndarray                       # edge -> flux degree, 0: no leaf
    flux_base: np.ndarray                    # edge -> a leaf's first flux dof
    hanging: np.ndarray                      # (n, 2) hanging vertex, master
    pinned: np.ndarray                       # bool mask over all dofs
    delta_p: int                             # test enrichment, p_tilde - p
    elements: np.ndarray                     # active elements, layout order
    element_p: np.ndarray                    # position -> degree p
    interior_base: np.ndarray                # position -> first interior dof
    coords: np.ndarray                       # (n, 4, 2) vertices, by position
    element_class: np.ndarray                # position -> class id
    element_row: np.ndarray                  # position -> row in its class
    degree_groups: dict[int, np.ndarray]     # p -> positions of degree p
    classes: list[np.ndarray]                # class id -> member positions
    class_keys: list[tuple]                  # class id -> class key
    class_maps: list[ClassMap]               # class id -> members' C_K
    # patches (parents with four active children) by patch class: the
    # children's positions (m, 4), the key (the children's class keys),
    # the members' inner dofs and boundary map C_P, and the place and
    # sign of every child skeleton row on the patch basis
    patches: list[np.ndarray]
    patch_keys: list[tuple]
    patch_maps: list[ClassMap]
    patch_rows: list[tuple[int, np.ndarray, np.ndarray]]
    # class and patch kernels and Gram factors of the study, built on a
    # class's first request and kept for the steps after this one
    cache: KernelCache
    # read-only element loads of this step, (f, position) -> load; the
    # first request for an element's load computes its whole degree group
    loads: dict[tuple, np.ndarray] = field(default_factory=dict, repr=False)

    @property
    def n_free(self) -> int:
        """Unpinned dofs, the element interiors and the patches' inner
        skeletons included; the condensed system's free dofs
        (`CondensedSystem.free`) are the unpinned skeleton dofs outside
        every patch's inner skeleton."""
        return int(self.n_dofs - self.pinned.sum())


def _ranges(counts: np.ndarray):
    """Ranges of the given lengths laid end to end: for each entry, the
    range i it belongs to and its offset 0..counts[i]-1 there."""
    owner = np.repeat(np.arange(counts.size), counts)
    return owner, np.arange(owner.size) - (np.cumsum(counts) - counts)[owner]


@lru_cache(maxsize=None)
def _reversal(q: int):
    """The degree q edge basis on the reversed edge: function i there is
    sign[i] times function col[i] of the edge.  The ends swap and the
    bubbles of odd degree change sign."""
    return _read_only(np.array([1, 0, *range(2, q + 1)]),
                      np.concatenate([[1.0, 1.0], (-1.0) ** np.arange(2, q + 1)]))


@lru_cache(maxsize=None)
def _bubble_table(q_max: int):
    """A side's trace bubbles from its owner edge's, for q up to q_max:
    (start, size) of block ((q - 2) 3 + half + 1) 2 + reverse, then the
    blocks' nonzeros (side bubble, edge bubble, weight, place in its row).
    The side covers child `half` of the edge (the whole edge for -1) and
    runs against it when `reverse`.  On a half, a bubble restricts to
    bubbles of at most its degree plus a linear part, which the corner
    values carry."""
    blocks = []
    for q in range(2, q_max + 1):
        t = gauss_rule(q + 1).points
        for half, reverse in [(h, r) for h in (-1, 0, 1) for r in (False, True)]:
            if half < 0:
                T = np.diag(_reversal(q)[1][2:] if reverse else np.ones(q - 1))
            else:   # the edge functions at the points are T' times the side's
                t_edge = 0.5 * ((-t if reverse else t) + 2 * half - 1)
                T = np.triu(np.linalg.solve(edge_basis_eval(q, t).T,
                                            edge_basis_eval(q, t_edge).T)[2:, 2:])
            rows, cols = np.nonzero(T)
            blocks.append((rows, cols, T[rows, cols],
                           np.arange(rows.size) - np.searchsorted(rows, rows)))
    size = np.array([b[0].size for b in blocks])
    return _read_only(np.cumsum(size) - size, size, *map(np.concatenate, zip(*blocks)))


@lru_cache(maxsize=None)
def _midpoint_values(q: int) -> tuple[float, ...]:
    """The degree q edge basis at the edge midpoint."""
    return tuple(edge_basis_eval(q, 0.0)[:, 0].tolist())


@lru_cache(maxsize=1024)    # bounded: an adaptive study meets 100 to 150 keys
def _class_key(row: bytes, delta_p: int) -> tuple:
    """The class key from a row of the layout's integer key, as bytes: p,
    the vertex offsets' 8 words, q per side, then per side the leaves' flux
    degrees (-1: no second leaf)."""
    p, *_, q0, q1, q2, q3 = np.frombuffer(row[:104], np.int64).tolist()
    fs = np.frombuffer(row[104:], np.int64).tolist()
    return (p, p + delta_p, row[8:72],
            tuple((q, tuple(f for f in fs[2 * s:2 * s + 2] if f >= 0))
                  for s, q in enumerate((q0, q1, q2, q3))))


def build_dof_layout(mesh: Mesh, degrees: DegreeMap,
                     cache: KernelCache | None = None) -> DofLayout:
    """Global numbering, constraint maps and boundary pinning.

    `cache` holds the class kernels of an earlier step; the entries this
    layout's classes do not use are dropped.  Without it the layout starts
    an empty cache.
    """
    active = mesh.active_elements
    n_el, n_verts, n_edges = active.size, len(mesh.vertices), len(mesh.ends)
    # corner and side s of element i at 4 i + s
    p = degrees.of(mesh, active)
    verts = mesh.verts[active].ravel()
    side_edge = mesh.sides[active].ravel()
    v0, v1 = mesh.ends.T
    parent, boundary = mesh.edge_parent, mesh.boundary
    coords = mesh.vertices[verts].reshape(n_el, 4, 2)
    coords.setflags(write=False)

    # a side whose edge has active sides as children is split into those
    # leaves, and its edge owns the trace; a side whose edge is a child of
    # an active side is constrained, and that master edge owns the trace
    up = parent[side_edge]
    is_side, has_side_child = np.zeros((2, n_edges + 1), dtype=bool)  # [-1]: none
    is_side[side_edge] = True
    has_side_child[up] = True
    split = has_side_child[side_edge]
    constrained = is_side[up] & ~split
    owner = np.where(constrained, up, side_edge)
    # children run from their parent's v0 to its v1, so child 1 starts at
    # the midpoint; every leaf and the owner run along the side exactly
    # when the side's own edge does
    half = np.where(constrained, v0[side_edge] != v0[up], -1)
    reverse = v0[side_edge] != verts
    masters = side_edge[split]
    kids = mesh.edge_child[masters][:, None] + np.arange(2)
    hanging = v1[kids[:, 0]]
    leaves = np.full((4 * n_el, 2), -1)
    leaves[:, 0] = side_edge
    leaves[split] = np.where(reverse[split, None], kids[:, ::-1], kids)
    has_leaf = leaves >= 0
    leaf = leaves[has_leaf]
    leaf_side = np.flatnonzero(has_leaf) // 2

    # the maximum rule: an edge's degree is the largest of the elements
    # whose sides carry it
    side_p = np.repeat(p, 4)
    trace_q, flux_p = np.zeros((2, n_edges), dtype=int)
    np.maximum.at(trace_q, owner, side_p + 1)
    np.maximum.at(flux_p, leaf, side_p[leaf_side])

    # numbering: element interiors, then the owner edges' ends in order
    # (hanging vertices left out), and edge by edge the owners' bubbles
    # and the leaves' fluxes; pinned are the ends of the boundary leaves
    # and the bubbles of the boundary owners
    ni = 5 * (p + 1) ** 2
    interior_base = np.cumsum(ni) - ni
    n = int(ni.sum())
    owners = np.flatnonzero(trace_q)
    ends = np.column_stack([v0[owners], v1[owners]]).ravel()
    ends = ends[np.sort(np.unique(ends, return_index=True)[1])]
    numbered = ends[~np.isin(ends, hanging)]
    vdof = np.full(n_verts, -1)
    vdof[numbered] = n + 2 * np.arange(numbered.size)
    bubbles = 2 * np.maximum(trace_q - 1, 0)
    fluxes = 2 * (flux_p + 1) * (flux_p > 0)
    trace_base = n + 2 * numbered.size + np.cumsum(bubbles) - bubbles
    flux_base = trace_base[-1] + bubbles[-1] + np.cumsum(fluxes) - fluxes
    on_boundary = np.zeros(n_verts, dtype=bool)
    leaf_b = leaf[boundary[leaf]]
    on_boundary[v0[leaf_b]] = on_boundary[v1[leaf_b]] = True
    pinned = np.concatenate([np.zeros(n, dtype=bool),
                             np.repeat(on_boundary[numbered], 2),
                             np.repeat(boundary, bubbles),
                             np.zeros(fluxes.sum(), dtype=bool)])

    # C_K as entries (element, local row, place in the row, weight, global
    # x dof); the local rows are the four corners, then each side's trace
    # bubbles, then each leaf's flux functions
    side_q = trace_q[owner]
    fps = np.where(has_leaf, flux_p[leaves], -1).reshape(n_el, 8)
    nb = (side_q - 1).reshape(n_el, 4)
    bubble_row = (4 + np.cumsum(nb, axis=1) - nb).ravel()
    flux_row = 4 + nb.sum(axis=1)[:, None] + np.cumsum(fps + 1, axis=1) - fps - 1
    n_rows = flux_row[:, -1] + fps[:, -1] + 1

    # a corner is its vertex's dof, or at a hanging vertex the master's
    # trace at the midpoint, spread onto the master's dofs
    master = dict(zip(hanging.tolist(), zip(trace_q[masters].tolist(),
                                   trace_base[masters].tolist(),
                                   v0[masters].tolist(), v1[masters].tolist())))
    table_w, table_g = [1.0] * n_verts, vdof.tolist()

    @lru_cache(maxsize=None)
    def vertex_entries(v: int) -> tuple[list, list]:
        """The trace at vertex v: weights and global x dofs."""
        if v not in master:
            return [1.0], [table_g[v]]
        q, base, end0, end1 = master[v]
        vals = _midpoint_values(q)
        (w0, g0), (w1, g1) = vertex_entries(end0), vertex_entries(end1)
        return ([w * vals[0] for w in w0] + [w * vals[1] for w in w1] + list(vals[2:]),
                g0 + g1 + list(range(base, base + 2 * q - 2, 2)))

    start, count = np.arange(n_verts), np.ones(n_verts, dtype=int)
    for v in hanging.tolist():
        w, g = vertex_entries(v)
        start[v], count[v] = len(table_w), len(w)
        table_w += w
        table_g += g
    c, c_place = _ranges(count[verts])
    t_corner = start[verts][c] + c_place

    # a side's bubbles: the block of its degree, half and direction
    b_start, b_size, b_row, b_col, b_w, b_place = _bubble_table(int(side_q.max()))
    code = ((side_q - 2) * 3 + half + 1) * 2 + reverse
    s, s_off = _ranges(b_size[code])
    t_side = b_start[code][s] + s_off

    # a leaf's flux: a reversed leaf swaps its ends and changes the sign of
    # its bubbles of odd degree, and the flux takes the sign of the normal
    f, j = _ranges(flux_p[leaf] + 1)
    rev = reverse[leaf_side][f]
    col, sign = _reversal(int(flux_p.max()))

    pos = np.concatenate([c // 4, s // 4, leaf_side[f] // 4])
    row = np.concatenate([c % 4, bubble_row[s] + b_row[t_side],
                          flux_row.ravel()[has_leaf.ravel()][f] + j])
    place = np.concatenate([c_place, b_place[t_side], np.zeros(f.size, int)])
    weight = np.concatenate([np.array(table_w)[t_corner], b_w[t_side],
                             np.where(rev, -sign[j], 1.0)])
    dof = np.concatenate([np.array(table_g)[t_corner],
                          trace_base[owner[s]] + 2 * b_col[t_side],
                          flux_base[leaf[f]] + 2 * np.where(rev, col[j], j)])

    # classes by the first occurrence of the integer class key: p, the bits
    # of the vertex offsets, per side q and the leaves' flux degrees (-1
    # where a side has one leaf)
    offsets = (coords - coords[:, :1]).reshape(n_el, 8).view(np.int64)
    key = np.concatenate([p[:, None], offsets, nb + 1, fps], axis=1)
    element_class, lead = _first_use(key)
    class_keys = [_class_key(row.tobytes(), degrees.delta_p) for row in key[lead]]

    # every class's ClassMap at once: the members class by class in layout
    # order, each member's entries at its rows' places, as many as the
    # class's widest member has (the unused ones take the member's first
    # dof with weight zero); then the x and y components interleaved
    order = np.argsort(element_class, kind="stable")
    members = np.bincount(element_class)
    first = np.cumsum(members) - members
    slot = np.empty(n_el, dtype=int)
    slot[order] = np.arange(n_el)
    r_max = int(n_rows.max())
    counts = np.bincount(pos * r_max + row, minlength=n_el * r_max).reshape(n_el, -1)
    width = np.maximum.reduceat(counts.sum(axis=1)[order], first)
    slot_width = np.repeat(width, members)
    slot_start = np.cumsum(slot_width) - slot_width
    at = (slot_start[slot[pos]] + place
          + (np.cumsum(counts, axis=1) - counts).ravel()[pos * r_max + row])
    ids = np.repeat(dof[:c.size][c_place == 0][::4][order], slot_width)
    ids[at] = dof
    rows = np.zeros(ids.size, dtype=int)
    rows[at] = row
    weights = np.zeros(ids.size)
    weights[at] = weight
    ids = (ids[:, None] + np.arange(2)).ravel()
    rows = (2 * rows[:, None] + np.arange(2)).ravel()
    weights = np.repeat(weights, 2)
    i, off = _ranges(ni[order])
    interior = interior_base[order][i] + off
    _read_only(ids, rows, weights, interior)
    classes, class_maps = [], []
    for a, m, wd, nr, nii, e, o in zip(*(x.tolist() for x in (
            first, members, width, n_rows[order[first]], ni[order[first]],
            2 * slot_start[first], (np.cumsum(ni[order]) - ni[order])[first]))):
        span = slice(e, e + 2 * m * wd)
        class_maps.append(ClassMap(
            interior[o:o + m * nii].reshape(m, nii), ids[span].reshape(m, -1),
            None if wd == nr else rows[span].reshape(m, -1),
            weights[span].reshape(m, -1), 2 * nr))
        classes.append(order[a:a + m])

    element_row = slot - first[element_class]
    inner = _inner_skeletons(mesh, active, vdof, trace_base, flux_base,
                             bubbles, fluxes, pinned.size)
    patches, patch_keys, patch_maps, patch_rows = _patch_classes(
        *inner, element_class, element_row, class_keys, class_maps)
    cache = KernelCache() if cache is None else cache
    cache.retain(class_keys, patch_keys)
    return DofLayout(
        mesh=mesh, n_dofs=pinned.size, vertex_dofs=vdof, trace_q=trace_q,
        trace_base=trace_base, flux_p=flux_p, flux_base=flux_base,
        hanging=np.column_stack([hanging, masters]),
        pinned=pinned, delta_p=degrees.delta_p, elements=active, element_p=p,
        interior_base=interior_base, coords=coords,
        element_class=element_class, element_row=element_row,
        degree_groups={int(q): np.flatnonzero(p == q) for q in np.unique(p)},
        classes=classes, class_keys=class_keys, class_maps=class_maps,
        patches=patches, patch_keys=patch_keys, patch_maps=patch_maps,
        patch_rows=patch_rows, cache=cache)


def _inner_skeletons(mesh: Mesh, active: np.ndarray, vdof: np.ndarray,
                     trace_base: np.ndarray, flux_base: np.ndarray,
                     bubbles: np.ndarray, fluxes: np.ndarray, n_dofs: int):
    """The patches, parents whose four children are all active: their
    children's layout positions (n, 4), their inner dof ids laid end to
    end with the count per patch, and each dof's index among its patch's
    inner dofs (-1 outside every inner skeleton).

    A patch's inner skeleton is its centre vertex and its four inner
    edges, which `refine_marked` numbers consecutively after the halves;
    only the children carry it, so it is never pinned or hanging.  Its
    dofs run: the centre's, the inner edges' trace bubbles, their fluxes.
    """
    split = np.flatnonzero(mesh.child >= 0)
    kids = mesh.child[split][:, None] + np.arange(4)
    kids = kids[(mesh.child[kids] < 0).all(axis=1)]
    edges = mesh.sides[kids[:, 0], 1][:, None] + np.arange(4)
    start = np.column_stack([vdof[mesh.verts[kids[:, 0], 2]],
                             trace_base[edges], flux_base[edges]])
    count = np.column_stack([np.full(len(kids), 2), bubbles[edges],
                             fluxes[edges]])
    seg, off = _ranges(count.ravel())
    ids = start.ravel()[seg] + off
    n_inner = count.sum(axis=1)
    at = np.full(n_dofs, -1)
    at[ids] = np.arange(ids.size) - np.repeat(np.cumsum(n_inner) - n_inner,
                                              n_inner)
    return np.searchsorted(active, kids), ids, n_inner, at


def _patch_classes(kid_pos: np.ndarray, inner_ids: np.ndarray,
                   n_inner: np.ndarray, inner_at: np.ndarray,
                   element_class: np.ndarray, element_row: np.ndarray,
                   class_keys: list, class_maps: list):
    """Patch classes, keyed by their children's class keys in child order:
    per class the members' children positions, the key, the `ClassMap` and
    the patch basis (`_patch_kernel`).

    A patch's boundary basis is its children's skeleton rows outside the
    inner skeleton, child after child, and its `ClassMap` takes the
    children's C_K entries on those rows; its interior is the inner dofs.
    Each child row lands wholly on inner dofs or wholly outside them, and
    an inner row on one inner dof with weight +-1.  The first member gives
    the rows' places and signs on the patch basis, which hold for the
    whole class, as the inner dofs' order and the children's orientations
    follow from the refinement.  A zero-weight entry (padding, or a
    hanging corner's odd bubble) that is left on an inner row or dof is
    moved to the patch's first entry, so that it writes nowhere.
    """
    if not len(kid_pos):
        return [], [], [], []
    key = element_class[kid_pos]
    patch_class, lead = _first_use(key)
    order = np.argsort(patch_class, kind="stable")
    members = np.split(order, np.cumsum(np.bincount(patch_class))[:-1])
    inner_start = np.cumsum(n_inner) - n_inner
    patches, patch_keys, patch_maps, patch_rows = [], [], [], []
    for row, mem in zip(key[lead].tolist(), members):
        kp, m, ni = kid_pos[mem], len(mem), int(n_inner[mem[0]])
        # the children's maps side by side, their rows on the children's
        # skeleton bases laid end to end
        maps = [class_maps[cls] for cls in row]
        r = element_row[kp]
        ids, w = (np.concatenate([getattr(cmap, a)[r[:, k]]
                                  for k, cmap in enumerate(maps)], axis=1)
                  for a in ("ids", "weights"))
        n_skel = np.array([cmap.n_skel for cmap in maps])
        rows = np.concatenate([
            (np.broadcast_to(np.arange(cmap.n_skel), (m, cmap.n_skel))
             if cmap.rows is None else cmap.rows[r[:, k]]) + off
            for k, (cmap, off) in enumerate(zip(
                maps, np.cumsum(n_skel) - n_skel))], axis=1)
        at = inner_at[ids]
        on_inner = (at >= 0) & (w != 0)
        # the first member's rows on inner dofs, and the others
        inner_rows = rows[0][on_inner[0]]
        boundary = np.ones(n_skel.sum(), dtype=bool)
        boundary[inner_rows] = False
        nb = np.count_nonzero(boundary)
        place = np.empty(boundary.size, dtype=int)
        place[inner_rows] = at[0][on_inner[0]]
        place[boundary] = ni + np.arange(nb)
        sign = np.ones(boundary.size)
        sign[inner_rows] = w[0][on_inner[0]]
        keep = ~on_inner
        ids, rows, w, spare = (a[keep].reshape(m, -1) for a in (
            ids, place[rows] - ni, w, ~boundary[rows] | (at >= 0)))
        ids = np.where(spare, ids[:, :1], ids)
        rows = np.where(spare, rows[:, :1], rows)
        interior = inner_ids[inner_start[mem][:, None] + np.arange(ni)]
        _read_only(kp, interior, ids, rows, w, place, sign)
        # children that are scaled copies leave one entry per boundary row
        in_order = all(cmap.rows is None for cmap in maps)
        patches.append(kp)
        patch_keys.append(tuple(class_keys[cls] for cls in row))
        patch_maps.append(ClassMap(interior, ids, None if in_order else rows,
                                   w, nb))
        patch_rows.append((ni, place, sign))
    return patches, patch_keys, patch_maps, patch_rows


def element_full_bmat(layout: DofLayout, material: Material, f, pos: int):
    """Gram Cholesky factor, full local coupling matrix, load, and the
    one-member `ClassMap` (interior dofs, C_K) of the element at `pos`.

    L and B are the element class's read-only matrices from `layout.cache`,
    built on the first request of the study; B's skeleton columns are the
    element's local skeleton dofs.  The first load request of the step for
    a degree computes the loads of every element of that degree and keeps
    them in `layout.loads`.
    """
    cls = layout.element_class[pos]
    kernel = _kernel(layout.cache, layout.class_keys[cls], material)
    if (f, pos) not in layout.loads:
        p = int(layout.element_p[pos])
        rows = layout.degree_groups[p]
        lvecs = local_loads(layout.coords[rows], p + layout.delta_p, f)
        lvecs.setflags(write=False)
        layout.loads.update(((f, k), lvec)
                            for k, lvec in zip(rows.tolist(), lvecs))
    return (kernel.L, kernel.B, layout.loads[f, pos],
            layout.class_maps[cls].member(layout.element_row[pos]))


def _class_members(layout: DofLayout, material: Material, f, cls: int):
    """Class cls's kernel, its members' loads as the columns of a
    (5 ns, m) block, and its `ClassMap`.

    Every member goes through `element_full_bmat` once.
    """
    members = layout.classes[cls]
    lvecs = np.column_stack([element_full_bmat(layout, material, f, k)[2]
                             for k in members.tolist()])
    return (_kernel(layout.cache, layout.class_keys[cls], material), lvecs,
            layout.class_maps[cls])


def _kernel(cache: KernelCache, key: tuple, material: Material) -> ClassKernel:
    """The kernel of the class with class key `key`, from the cache or
    built and cached."""
    kernel = cache.kernels.get((key, material))
    if kernel is None:
        kernel = _class_kernel(key, material, cache)
        cache.kernels[key, material] = kernel
    return kernel


@lru_cache(maxsize=1024)    # bounded, as `_class_key`
def _family(key: tuple) -> tuple[tuple, int]:
    """The shape family of a class key, and the key's exponent e in it.

    The family key is the class key with its vertex offsets divided by
    2^e, e the binary exponent of the largest offset magnitude, so its
    largest offset lies in [0.5, 1); the division is exact.  A key whose
    nonzero offsets span more than 2^64, or whose e lies outside +-256, is
    a family of its own (e = 0): its B could reach subnormal numbers,
    which do not scale exactly.
    """
    p, p_tilde, shape, sides = key
    rel = np.frombuffer(shape, float)
    size = np.abs(rel).max()
    e = int(np.frexp(size)[1])
    if abs(e) > 256 or np.abs(rel[rel != 0]).min() < np.ldexp(size, -64):
        return key, 0
    return (p, p_tilde, np.ldexp(rel, -e).tobytes(), sides), e


def _class_kernel(key: tuple, material: Material,
                  cache: KernelCache) -> ClassKernel:
    """Kernel of the class with class key `key`, on its local skeleton basis.

    The key is the only input: its vertex offsets are the float64 bits of
    coords - coords[0], so every member and step gets the same kernel.
    The Gram factor depends only on p_tilde and the offsets, and every
    class of that shape shares it through `cache.gram_factors`.  B is the
    coupling matrix of the key's shape family (`_family`, built on the
    family's first class and kept in `cache.families`) scaled by powers
    of two: a shape scaled by 2^e scales the (A sigma, tau) block by 4^e,
    as the area, and every other entry by 2^e, as the length, which is
    exact, so B is the one `local_bmat` gives at the key's own offsets.
    """
    p, p_tilde, shape, sides = key
    L = cache.gram_factors.get((p_tilde, shape))
    if L is None:
        rel = np.frombuffer(shape, float).reshape(4, 2)
        try:
            L = gram_factor(local_gram(rel, p_tilde))
        except RuntimeError as err:
            diameter = np.linalg.norm(rel[:, None] - rel, axis=2).max()
            raise RuntimeError(
                f"Gram matrix is not positive definite: p_tilde = {p_tilde}, "
                f"element diameter {diameter:.3e}") from err
        L.setflags(write=False)
        cache.gram_factors[p_tilde, shape] = L
    family, e = _family(key)
    B_hat = cache.families.get((family, material))
    if B_hat is None:
        B_hat = local_bmat(np.frombuffer(family[2], float).reshape(4, 2),
                           p, p_tilde, material, sides)
        B_hat.setflags(write=False)
        cache.families[family, material] = B_hat
    scale = 2.0 ** e
    B = B_hat * scale                   # keeps B_hat's column-major order
    B[:3 * (p_tilde + 1) ** 2, :3 * (p + 1) ** 2] *= scale
    return _condensed(local_stiffness(L, B), 5 * (p + 1) ** 2,
                      "interior block of an element matrix is not positive "
                      "definite", L=L, B=_read_only(B)[0])


def _condensed(K: np.ndarray, ni: int, failure: str, **extra) -> ClassKernel:
    """The read-only condensation blocks of K with its first ni rows and
    columns interior; RuntimeError(failure) when the interior block is not
    positive definite."""
    Kis, Kss = K[:ni, ni:], K[ni:, ni:]
    Kii, info = lapack.dpotrf(K[:ni, :ni], lower=1)
    if info > 0:
        raise RuntimeError(failure)
    if info < 0:
        raise ValueError(f"LAPACK reported an illegal value in {-info}-th "
                         "argument on entry to POTRF")
    A = cholesky_solve(Kii, Kis)
    return ClassKernel(*_read_only(Kii, A, Kss - Kis.T @ A), **extra)


def _patch_kernel(key: tuple, rows: tuple, material: Material,
                  cache: KernelCache) -> ClassKernel:
    """Kernel of the patch class with patch key `key` (its children's class
    keys) on the patch basis `rows`: (ni, place, sign), where child row i,
    counted over the children in order, is `sign[i]` times patch function
    `place[i]`, an inner dof below ni and a boundary row from ni on.

    K = sum_k T_k' S_k T_k is the children's Schur complements on the
    patch basis; its inner block is the patch's inner skeleton.  A failed
    Cholesky factor of that block means the skeleton system is not SPD.
    """
    ni, place, sign = rows
    K = np.zeros((place.max() + 1,) * 2)
    at = 0
    for child in key:
        S = _kernel(cache, child, material).S
        idx, s = place[at:at + len(S)], sign[at:at + len(S)]
        K[np.ix_(idx, idx)] += s[:, None] * S * s
        at += len(S)
    return _condensed(K, ni, "sparse factorization failed; system not SPD")


def dirichlet_values(layout: DofLayout, g_data) -> np.ndarray:
    """Pinned-dof vector interpolating/projecting the boundary displacement.

    g_data maps an (n, 2) array of boundary points to (n, 2) displacements.
    It is called once, at the pinned vertices and at the quadrature points
    and ends of every boundary owner edge with bubbles; the bubble
    coefficients of the edges of one trace degree come from one solve.
    """
    xp = np.zeros(layout.n_dofs)
    if g_data is None:
        return xp
    mesh, vdof = layout.mesh, layout.vertex_dofs
    # the pinned vertices in dof order
    numbered = np.flatnonzero(vdof >= 0)
    numbered = numbered[np.argsort(vdof[numbered])]
    pinned_verts = numbered[layout.pinned[vdof[numbered]]]
    # boundary owners with bubbles, by trace degree q: (bubble bases, ends)
    owner = np.flatnonzero(mesh.boundary & (layout.trace_q >= 2))
    degree = layout.trace_q[owner]
    by_q = {}
    for q in dict.fromkeys(degree.tolist()):
        sel = owner[degree == q]
        by_q[q] = layout.trace_base[sel], mesh.vertices[mesh.ends[sel]]
    # the pinned vertices, then per edge its quadrature points and its ends
    points = [mesh.vertices[pinned_verts]]
    for q, (_, ends) in by_q.items():
        t = gauss_rule(q + 3).points[:, None]
        pts = 0.5 * (1 - t) * ends[:, None, 0] + 0.5 * (1 + t) * ends[:, None, 1]
        points.append(np.concatenate([pts, ends], axis=1).reshape(-1, 2))
    values = np.split(g_data(np.concatenate(points)),
                      np.cumsum([len(pts) for pts in points[:-1]]))
    vdofs = vdof[pinned_verts]
    xp[vdofs] = values[0][:, 0]
    xp[vdofs + 1] = values[0][:, 1]
    for (q, (bases, _)), gv in zip(by_q.items(), values[1:]):
        rule = gauss_rule(q + 3)
        gv = gv.reshape(len(bases), -1, 2)
        vals = edge_basis_eval(q, rule.points)
        resid = (gv[:, :-2] - vals[0][:, None] * gv[:, None, -2]
                 - vals[1][:, None] * gv[:, None, -1])
        bub = vals[2:]
        M = (bub * rule.weights) @ bub.T
        rhs = (bub * rule.weights) @ resid  # (edges, q-1, 2)
        c = np.linalg.solve(M, rhs.transpose(1, 0, 2).reshape(q - 1, -1))
        xp[bases[:, None] + np.arange(2 * (q - 1))] = \
            c.reshape(q - 1, len(bases), 2).transpose(1, 0, 2).reshape(len(bases), -1)
    return xp


def error_indicators(material: Material, f, layout: DofLayout,
                     x: np.ndarray) -> np.ndarray:
    """Elementwise V-norms of the error representation, by position.

    The V-norm of e = G^-1 r is |L^-1 r|, with r = l - B x_K the residual
    and x_K the element's interior dofs and C_K x; each class does one
    triangular solve for all its members.
    """
    out = np.zeros(len(layout.elements))
    for cls, members in enumerate(layout.classes):
        kernel, lvecs, cmap = _class_members(layout, material, f, cls)
        xk = np.concatenate([x[cmap.interior], cmap.gather(x)], axis=1)
        z = lower_solve(kernel.L, lvecs - kernel.B @ xk.T)
        out[members] = np.linalg.norm(z, axis=0)
    return out


@dataclass
class CondensedSystem:
    """Coarse skeleton system left after condensing the element interiors
    and the patches' inner skeletons.

    Column j of `rhs` is load j condensed onto the free coarse dofs, the
    free skeleton dofs outside every patch's inner skeleton; column 0 is
    the DPG load with the Dirichlet lift folded in, the others are the
    extra loads.  `recover` holds one record per unit, children before
    parents: the members' `ClassMap`, Kii^-1 Kis, and Kii^-1 of the
    members' interior loads as an (ni, m, 1 + extra) block.
    """

    S: sp.csc_matrix        # Schur complement on the free coarse dofs
    rhs: np.ndarray         # (n free coarse dofs, 1 + m)
    free: np.ndarray        # ids of the free coarse dofs
    x_pinned: np.ndarray
    recover: list[tuple[ClassMap, np.ndarray, np.ndarray]]

    def expand(self, j: int, xs: np.ndarray) -> np.ndarray:
        """Full dof vector of load j from its free coarse values `xs`: the
        units in reverse, the patches' inner skeletons first.

        Only load 0 takes the Dirichlet values; the others vanish on the
        pinned dofs.
        """
        x = self.x_pinned.copy() if j == 0 else np.zeros(self.x_pinned.size)
        x[self.free] = xs
        for cmap, A, b in reversed(self.recover):
            x[cmap.interior] = (b[:, :, j] - A @ cmap.gather(x).T).T
        return x


def condense(material: Material, f, layout: DofLayout,
             x_pinned: np.ndarray | None = None,
             loads: np.ndarray | None = None) -> CondensedSystem:
    """Statically condense the element interiors and then the patches'
    inner skeletons: one step per unit, children before parents.

    `x_pinned` holds the Dirichlet values on the pinned dofs, and `loads`
    is an optional (n_dofs, m) block of extra right-hand sides; a lift off
    the pinned dofs or a load on them raises ValueError.  The element
    loads enter first: their interior part in the load block, their
    skeleton part as the element class's own condensed load.  A unit, an
    element class or a patch class, then solves its kernel's Kii for the
    loads r on its members' interiors in one call, scatters the condensed
    load -A'r plus its own, writes its C' S C entries and keeps a
    recovery record.  The Dirichlet lift S C x_pinned enters at the
    members that write the coarse matrix, the elements outside every
    patch and the patches; x_pinned vanishes on the inner skeletons.

    Neither the full sparse matrix nor a global skeleton matrix is formed:
    the C' S C entries, numbered by free coarse dof and with the pinned
    rows and columns left out, go into row, column and value arrays
    allocated once for all units, and the CSC matrix is built from them
    in one conversion that sums the duplicates.
    """
    n = layout.n_dofs
    xp = np.zeros(n) if x_pinned is None else x_pinned
    loads = np.zeros((n, 0)) if loads is None else loads
    if np.any(loads[layout.pinned]):
        raise ValueError("extra loads must vanish on the pinned dofs")
    if np.any(xp[~layout.pinned]):
        raise ValueError("x_pinned must vanish off the pinned dofs")
    g = np.column_stack([np.zeros(n), loads])
    # the element interiors are numbered first and never pinned, so the free
    # coarse dofs are the unpinned ids after them outside the inner
    # skeletons; `index` takes a dof to its row of the condensed matrix, -1
    # for an interior, inner or pinned dof
    n_interior = sum(cmap.interior.size for cmap in layout.class_maps)
    coarse = ~layout.pinned
    in_patch = np.zeros(len(layout.elements), dtype=bool)
    for pmap, kids in zip(layout.patch_maps, layout.patches):
        coarse[pmap.interior] = False
        in_patch[kids] = True
    free = n_interior + np.flatnonzero(coarse[n_interior:])
    index = np.full(n, -1, dtype=np.int32)
    index[free] = np.arange(free.size, dtype=np.int32)

    # the units: kernel, map, own condensed load, members writing the
    # coarse matrix
    units = []
    for cls, members in enumerate(layout.classes):
        kernel, lvecs, cmap = _class_members(layout, material, f, cls)
        ni = cmap.interior.shape[1]
        fl = kernel.B.T @ cholesky_solve(kernel.L, lvecs)
        g[cmap.interior, 0] = fl[:ni].T
        units.append((kernel, cmap, fl[ni:], ~in_patch[members]))
    kernels = layout.cache.kernels
    for key, rows, pmap in zip(layout.patch_keys, layout.patch_rows,
                               layout.patch_maps):
        if (key, material) not in kernels:
            kernels[key, material] = _patch_kernel(key, rows, material,
                                                   layout.cache)
        units.append((kernels[key, material], pmap, 0.0,
                      np.ones(len(pmap.ids), dtype=bool)))

    size = sum(np.count_nonzero(w) * cmap.ids.shape[1] ** 2
               for _, cmap, _, w in units)
    rows, cols = np.empty((2, size), dtype=np.int32)
    vals = np.empty(size)
    coo, k = (rows, cols, vals), 0
    recover = []
    for kernel, cmap, own, writes in units:
        b, gs = _eliminate(kernel, g[cmap.interior].transpose(1, 0, 2))
        gs[:, :, 0] += own
        gs[:, writes, 0] -= kernel.S @ cmap.gather(xp)[writes].T
        cmap.scatter(g, gs.transpose(1, 0, 2))
        k = _write_free(cmap, kernel.S, index[cmap.ids], writes, coo, k)
        recover.append((cmap, kernel.A, b))

    S = sp.csc_matrix((vals[:k], (rows[:k], cols[:k])), shape=(free.size,) * 2)
    return CondensedSystem(S=S, rhs=g[free], free=free, x_pinned=xp,
                           recover=recover)


def _eliminate(kernel: ClassKernel, rhs: np.ndarray):
    """Kii^-1 rhs, (ni, m, k), and the condensed load -A' rhs =
    -Kis' Kii^-1 rhs, (n_skel, m, k), of an (ni, m, k) block of the
    members' interior loads."""
    r = rhs.reshape(rhs.shape[0], -1)
    b = cholesky_solve(kernel.Kii, r).reshape(rhs.shape)
    gs = -(kernel.A.T @ r).reshape(-1, *rhs.shape[1:])
    return b, gs


def _write_free(cmap: ClassMap, S: np.ndarray, dof: np.ndarray, members,
                coo: tuple, k: int) -> int:
    """Write the C_K' S C_K entries of the members selected by the mask
    `members` at position k of the row, column and value
    arrays `coo`, numbered by free coarse dof (`dof`, the members' ids in
    that numbering, -1 where interior, inner or pinned); returns the next
    position.

    The members clear of the pinned dofs write every entry in place; the
    others write only the entries of their free rows and columns.
    """
    rows, cols, vals = coo
    whole = members & (dof >= 0).all(axis=1)
    d, nnz = dof[whole], dof.shape[1]
    span = slice(k, k + d.size * nnz)
    block = (len(d), nnz, nnz)
    cmap.outer(S, whole, vals[span].reshape(block))
    rows[span].reshape(block)[...] = d[:, :, None]
    cols[span].reshape(block)[...] = d[:, None, :]
    part = members & ~whole
    d = dof[part]
    keep = (d[:, :, None] >= 0) & (d[:, None, :] >= 0)
    span = slice(span.stop, span.stop + np.count_nonzero(keep))
    rows[span] = np.broadcast_to(d[:, :, None], keep.shape)[keep]
    cols[span] = np.broadcast_to(d[:, None, :], keep.shape)[keep]
    vals[span] = cmap.outer(S, part)[keep]
    return span.stop


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
