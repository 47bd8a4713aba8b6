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
enter the global system as C_K' S_K C_K and C_K' g_K.  The layout builds
each C_K once, as entries in the (x, y) pairs of `ClassMap`, and one
packer (`_class_maps`) lays out the maps of every element and node class.

The class key is (p, p_tilde, vertex offsets from vertex 0, per side: the
trace degree q and the leaves' flux degrees), every input of B and of the
Gram factor; orientation, flux signs and hanging nodes do not split
classes.  A class's kernel (Gram factor, Z = L^-1 B and the interior
condensation blocks) is built whole from the class key and the material
alone (`_class_kernel`); a `KernelCache` keyed by both carries it from
one refinement step to the next, and holds element-level data only.
Condensation, the error estimator and the rank-one border terms do their
dense algebra once per class, with one scatter through the members' C_K
(`ClassMap`), and the loads of a step take one call of f per degree
group.

The refinement forest condenses like an element, one level up at a
time (nested dissection).  A split element's inner skeleton, its centre
and its inner cross at any depth, is carried by its descendants alone.
A node is a split element whose four children are leaves or nodes: its
basis is its inner dofs, then one boundary function per distinct part
of its children's skeleton rows off the inner dofs (a vertex's rows from
two children are one function), one one-member `ClassMap` per child,
and its kernel holds the children's Schur complements summed on that
basis, condensed onto the boundary functions (`_node_kernel`).  A node
class is keyed by its children's keys, so equal subtrees share one
kernel.  A class becomes a node class when it has at least
`NODE_MIN_MEMBERS` (two) members, so that its kernel serves more than
once, and for no other reason: a layout does not depend on what the
cache holds, and a subtree refined anew at every step, as the adaptive
L-shape's chains to its corner are, is left to SuperLU, which factors a
kernel used once faster than a dense node does.  The layout finds the
nodes, children before parents, in array passes per subtree height, and
keeps their C entries after the leaves', so a parent reads every child
alike.  Node kernels live for one `condense`, which frees each after its
unit's step but for the `A` of the recovery.

`condense` takes one step per unit, children before parents: each
element class, then each node class, then each root member's private
dofs, the coarse dofs no other writing member touches (its fluxes on the
domain boundary, which its key does not know), as a unit of one member.
The Dirichlet lift enters once, at the element classes, for every
member, and the units above them condense for values that vanish on the
pinned dofs.  The free coarse dofs are the unpinned skeleton dofs
outside every inner skeleton and private set; the entries go in that
numbering straight into the coarse system, and no global matrix over all
dofs is formed.

The coarse system is dense when its k entries on n coarse dofs give
2 k >= n^2, as on every step of the bench's smooth-h (n = 122 to 250,
k / n^2 near 1) and the first two of lshape-adapt.  `condense` counts k
before any unit writes; each unit then adds its entries into the (n, n)
sum as it writes them (`_add_dense`, which sums node fronts and private
blocks alike), and `solve_condensed` factors the sum in place by dense
Cholesky, 5 to 10 times faster than SuperLU there.  A sparser system, as
on lshape-adapt's later steps (k / n^2 from 0.39 down to 0.11 at
n = 912), keeps its entries for SuperLU.  Method 2 (`rankone`) stays
on SuperLU at any density until one private factor function serves both
routes (ROADMAP items 2 and 4), as the benchmark counts that method's
factorizations by wrapping `splu`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.linalg import blas
from scipy.sparse.linalg import splu

from .basis import _read_only, edge_basis_eval, gauss_rule
from .local import (cholesky_factor, cholesky_solve, gram_factor, local_bmat,
                    local_gram, local_loads, local_stiffness, lower_solve)
from .material import Material
from .mesh import DegreeMap, Mesh, _first_use

# SuperLU options for the SPD condensed skeleton matrix: a symmetric
# minimum-degree ordering of A'+A, with the pivots kept on the diagonal,
# on SuperLU's default supernodes.  Any tuning must stay at or below the
# defaults (relax 10, panel 20): scipy 1.17's SuperLU corrupts the heap
# above them (relax 20 with panel 40 aborted under MALLOC_CHECK_=3 on a
# 122-dof matrix).
SPD_SPLU_OPTIONS = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                        options=dict(SymmetricMode=True))

# A split element whose children are leaves or nodes is a node when its
# class has at least this many members; a kernel used once is left to the
# coarse solve (`_node_classes`)
NODE_MIN_MEMBERS = 2

# the empty interior and the member mask of a one-member map
_NO_INTERIOR, _ONE = _read_only(np.zeros((1, 0), dtype=int), np.ones(1, dtype=bool))


@dataclass(frozen=True)
class ClassKernel:
    """Read-only matrices of one element class, node class or private unit.

    With K split into interior and skeleton blocks, `Kii` is the Cholesky
    factor L of the interior block, `A` = (L L')^-1 Kis for the
    interior-skeleton block Kis, and `S` the Schur complement Kss - Kis' A
    averaged with its transpose, so symmetric to the bit.  For an element,
    K = B'G^-1 B = Z'Z, `L` is the Gram factor (L_tau, L_v), the Cholesky
    factors of the blocks of G = diag(G_tau, G_v, G_v) (`gram_factor`),
    and `Z` = diag(L_tau, L_v, L_v)^-1 B (`lower_solve`), B the coupling
    matrix with its columns in class order.  For a node, K is its
    children's Schur complements summed on the node basis (inner dofs,
    then boundary functions), and `L` and `Z` are None; so for a private
    unit, whose K is its member's unpinned C' S C block (`_private_units`).
    """

    Kii: np.ndarray
    A: np.ndarray
    S: np.ndarray
    L: tuple[np.ndarray, np.ndarray] | None = None
    Z: np.ndarray | None = None


@dataclass
class KernelCache:
    """Element-class data of a study, carried from step to step.

    `kernels` maps (class key, material) to the class's `ClassKernel`.
    `gram_factors` maps (p_tilde, vertex offsets from vertex 0) to the
    Gram factor (L_tau, L_v), the Cholesky factors of the Gram matrix's
    tau block and of its v block, which serves both components
    (`gram_factor`), and `families` maps (family key, material) to the
    coupling matrix of the shape family (`_family`), from which each
    class's B is scaled.  `build_dof_layout` drops every entry its
    classes do not use, so the cache holds one step's classes, shapes and
    families.  Node kernels are never cached: `condense` builds them for
    one solve.
    """

    kernels: dict[tuple, ClassKernel] = field(default_factory=dict)
    gram_factors: dict[tuple, tuple] = field(default_factory=dict)
    families: dict[tuple, np.ndarray] = field(default_factory=dict)

    def retain(self, class_keys) -> None:
        """Keep only the entries of the given class keys."""
        keys = set(class_keys)
        # a class key is (p, p_tilde, vertex offsets, per side: the trace
        # degree q and the leaves' flux degrees); its shape is (p_tilde,
        # offsets), its family the key with the offsets scaled to [0.5, 1)
        shapes = {(key[1], key[2]) for key in class_keys}
        families = {_family(key)[0] for key in class_keys}
        self.kernels = {k: v for k, v in self.kernels.items() if k[0] in keys}
        self.gram_factors = {k: v for k, v in self.gram_factors.items()
                             if k in shapes}
        self.families = {k: v for k, v in self.families.items()
                         if k[0] in families}


@dataclass(frozen=True)
class ClassMap:
    """The constraint maps C_K of a class's members, with their interior
    dofs; for a node class, onto the nodes' boundary functions, with their
    inner dofs; for a node's child or a private unit, onto its dense sum.

    Local skeleton dof `rows[i, t]` of member i takes `weights[i, t]` times
    global dof `ids[i, t]`, and x_K = C_K x sums these over t.  Entries
    come in (x, y) pairs: entry 2 s + c takes local dof 2 r + c to global
    dof g + c.  A member with fewer entries than the class's widest fills
    the rest with spare entries of weight zero, each a copy of its first
    entry of the same component (entry t % 2).  `interior` holds the
    members' interior (or inner) dof ids.
    """

    interior: np.ndarray        # (m, ni)
    ids: np.ndarray             # (m, nnz)
    rows: np.ndarray            # (m, nnz)
    weights: np.ndarray         # (m, nnz)
    n_skel: int                 # local skeleton dofs per member

    def gather(self, x: np.ndarray) -> np.ndarray:
        """The members' local skeleton values C_K x, shape (m, n_skel)."""
        vals = self.weights * x[self.ids]
        m = len(self.ids)
        flat = (np.arange(m)[:, None] * self.n_skel + self.rows).ravel()
        return np.bincount(flat, vals.ravel(),
                           m * self.n_skel).reshape(m, self.n_skel)

    def scatter(self, out: np.ndarray, vals: np.ndarray) -> None:
        """Add C_K' vals[i] of every member i to `out`; `vals` has shape
        (m, n_skel) or (m, n_skel, k) for an (n_dofs, k) `out`."""
        vals = vals[np.arange(len(self.ids))[:, None], self.rows]
        w = self.weights if vals.ndim == 2 else self.weights[..., None]
        np.add.at(out, self.ids, w * vals)

    def outer(self, S: np.ndarray, members: np.ndarray,
              out: np.ndarray | None = None) -> np.ndarray:
        """C_K' S C_K of the selected members as an (m, nnz, nnz) block:
        entry [i, a, b] adds to the global entry (ids[i, a], ids[i, b]).
        Without `out`, the block is weighted in the gather's buffer."""
        w, r = self.weights[members], self.rows[members]
        block = S[r[:, :, None], r[:, None, :]]
        out = np.multiply(w[:, :, None], block,
                          out=block if out is None else out)
        out *= w[:, None, :]
        return out


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
    # nodes (split elements) by node class, children before parents: the
    # members' element ids, the key (the children's keys), the members'
    # inner dofs and boundary map, and the node basis (`_node_kernel`)
    nodes: list[np.ndarray]
    node_keys: list[tuple]
    node_maps: list[ClassMap]
    node_basis: list[tuple]
    in_node: np.ndarray                      # element id -> inside a node
    # class kernels and Gram factors of the study, built on a class's
    # first request and kept for the steps after this one
    cache: KernelCache
    # read-only element loads of this step, (f, position) -> load; the
    # first request for an element's load computes its whole degree group
    loads: dict[tuple, np.ndarray] = field(default_factory=dict, repr=False)

    @property
    def n_free(self) -> int:
        """Unpinned dofs, the element interiors and the nodes' inner
        skeletons included; the condensed system's free dofs
        (`CondensedSystem.free`) are the unpinned skeleton dofs outside
        every node's inner skeleton and every root's private dofs."""
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
    values carry.  The edge basis is hierarchical, so degree q's block is
    the leading (q - 1, q - 1) block of degree q_max's, and one solve per
    half and direction at q_max gives every degree."""
    t = gauss_rule(q_max + 1).points
    full = []
    for half, reverse in [(h, r) for h in (-1, 0, 1) for r in (False, True)]:
        if half < 0:
            full.append(np.diag(_reversal(q_max)[1][2:] if reverse
                                else np.ones(q_max - 1)))
        else:   # the edge functions at the points are T' times the side's
            t_edge = 0.5 * ((-t if reverse else t) + 2 * half - 1)
            full.append(np.triu(np.linalg.solve(
                edge_basis_eval(q_max, t).T, edge_basis_eval(q_max, t_edge).T)[2:, 2:]))
    blocks = []
    for q in range(2, q_max + 1):
        for T in full:
            rows, cols = np.nonzero(T[:q - 1, :q - 1])
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

    # each leaf's entries by row and place, leaf by leaf in layout order,
    # in the (x, y) pairs of `ClassMap`; then packed class by class
    r_max = int(n_rows.max())
    n_at = np.bincount(pos * r_max + row, minlength=n_el * r_max)
    at = (np.cumsum(n_at) - n_at)[pos * r_max + row] + place
    ids, rows = np.empty((2, at.size), dtype=int)
    w = np.empty(at.size)
    ids[at], rows[at], w[at] = dof, row, weight
    count = 2 * n_at.reshape(n_el, r_max).sum(axis=1)
    entries = ((ids[:, None] + np.arange(2)).ravel(), np.repeat(w, 2),
               (2 * rows[:, None] + np.arange(2)).ravel(),
               np.cumsum(count) - count, count, 2 * n_rows)
    class_maps, classes = _class_maps(
        element_class, entries, (np.arange(n), interior_base, ni))
    element_row = np.empty(n_el, dtype=int)
    element_row[np.concatenate(classes)] = _ranges(np.bincount(element_class))[1]
    cache = KernelCache() if cache is None else cache
    dof_node = _cross_nodes(mesh, vdof, trace_base, flux_base, bubbles,
                            fluxes, pinned.size)
    nodes, node_keys, node_maps, node_basis, closed = _node_classes(
        mesh, active, dof_node, entries, element_class, class_keys)
    cache.retain(class_keys)
    return DofLayout(
        mesh=mesh, n_dofs=pinned.size, vertex_dofs=vdof, trace_q=trace_q,
        trace_base=trace_base, flux_p=flux_p, flux_base=flux_base,
        hanging=np.column_stack([hanging, masters]),
        pinned=pinned, delta_p=degrees.delta_p, elements=active, element_p=p,
        interior_base=interior_base, coords=coords,
        element_class=element_class, element_row=element_row,
        degree_groups={int(q): np.flatnonzero(p == q) for q in np.unique(p)},
        classes=classes, class_keys=class_keys, class_maps=class_maps,
        nodes=nodes, node_keys=node_keys, node_maps=node_maps,
        node_basis=node_basis, in_node=np.append(closed, False)[mesh.parent],
        cache=cache)


def _cross_nodes(mesh: Mesh, vdof: np.ndarray, trace_base: np.ndarray,
                 flux_base: np.ndarray, bubbles: np.ndarray,
                 fluxes: np.ndarray, n_dofs: int) -> np.ndarray:
    """The split element whose inner cross carries each dof, or -1 (an
    element interior, or the initial skeleton).

    A split element's inner cross is its centre and its four inner edges,
    which `refine_marked` numbers consecutively after the halves, with the
    halves and midpoints of those edges at any depth: an edge lies on the
    cross of its top ancestor.  Only the split element's descendants touch
    its cross, so the cross is never pinned.
    """
    split = np.flatnonzero(mesh.child >= 0)
    first = mesh.child[split]
    n_edges = len(mesh.ends)
    edge_node = np.full(n_edges, -1)
    edge_node[mesh.sides[first, 1][:, None] + np.arange(4)] = split[:, None]
    top = np.where(mesh.edge_parent >= 0, mesh.edge_parent, np.arange(n_edges))
    while True:     # pointer jumping, to the top ancestor of every edge
        up = top[top]
        if np.array_equal(up, top):
            break
        top = up
    edge_node = edge_node[top]
    vert_node = np.full(len(mesh.vertices), -1)
    halved = np.flatnonzero(mesh.edge_child >= 0)
    vert_node[mesh.ends[mesh.edge_child[halved], 1]] = edge_node[halved]
    vert_node[mesh.verts[first, 2]] = split
    node = np.full(n_dofs, -1)
    numbered = np.flatnonzero(vdof >= 0)
    node[vdof[numbered]] = node[vdof[numbered] + 1] = vert_node[numbered]
    for base, count in ((trace_base, bubbles), (flux_base, fluxes)):
        e, off = _ranges(count)
        node[base[e] + off] = edge_node[e]
    return node


def _class_maps(member_class: np.ndarray, entries: tuple, interior: tuple):
    """Per class id in `member_class`: its `ClassMap` and its members, in order.

    `entries` holds the members' C entries laid end to end in the format
    of `ClassMap` (ids, weights, rows), then by member its first entry,
    entry count and local skeleton dof count; `interior` holds the
    interior ids laid end to end, then by member its first and count.
    """
    ids, w, rows, start, count, n_skel = entries
    inner, i_start, i_count = interior
    order = np.argsort(member_class, kind="stable")
    size = np.bincount(member_class)
    first = np.cumsum(size) - size
    lead = order[first]
    width = np.maximum.reduceat(count[order], first)
    slot, off = _ranges(np.repeat(width, size))
    spare = off >= count[order][slot]
    at = start[order][slot] + np.where(spare, off % 2, off)
    m_ids, m_rows = ids[at], rows[at]
    m_w = np.where(spare, 0.0, w[at])
    slot, off = _ranges(i_count[order])
    m_in = inner[i_start[order][slot] + off]
    _read_only(m_ids, m_rows, m_w, m_in)
    maps, e_at, i_at = [], 0, 0
    for m, wd, nb, ni in zip(size.tolist(), width.tolist(),
                             n_skel[lead].tolist(), i_count[lead].tolist()):
        span = slice(e_at, e_at + m * wd)
        maps.append(ClassMap(m_in[i_at:i_at + m * ni].reshape(m, ni),
                             m_ids[span].reshape(m, wd),
                             m_rows[span].reshape(m, wd),
                             m_w[span].reshape(m, wd), nb))
        e_at, i_at = e_at + m * wd, i_at + m * ni
    return maps, np.split(order, first[1:])


def _node_classes(mesh: Mesh, active: np.ndarray, dof_node: np.ndarray,
                  leaves: tuple, element_class: np.ndarray, class_keys: list):
    """Node classes, children before parents: per class the members' element
    ids, the node key, the `ClassMap` and the node basis (`_node_kernel`);
    then whether each element is a leaf or a node.

    A split element whose children are leaves or nodes has a class keyed
    by the tuple of its children's keys in child order, a class key for a
    leaf and a node key for a node, so equal subtrees share a kernel.  The
    class is a node class when its kernel serves more than once, that is
    when it has at least `NODE_MIN_MEMBERS` members.  `leaves` holds the
    leaves' C_K entries by layout position, as `_class_maps` takes them;
    the nodes' entries and function tags are added after them, so a child
    is read the same way at any height.

    The nodes of one subtree height go in one set of array passes.  A node's
    children's skeleton rows, laid end to end, are each a sum of its inner
    dofs (those with `dof_node` the node) and at most one boundary
    function, the row's part off the inner dofs.  The rows of one vertex
    (tagged 2 v + component: a leaf's corner rows, and the functions they
    give) with no inner part share one function, so the boundary basis
    holds each function once; every other row with a part off the inner
    dofs, a hanging corner on the cross included, has its own.  The
    functions follow their first rows, and the inner dofs their first
    use.  A node's C entries are its functions' first rows' entries off
    the inner dofs; zero weights (padding, or a hanging corner's odd
    bubble) are left out.  A class's basis is its first member's, which
    holds for the whole class, as the cross and the children's
    orientations follow from the refinement.
    """
    ids, w, rows, *leaf_counts = leaves
    n_el = len(mesh.verts)
    unit = np.full(n_el, -1)        # class id, or class count + parent class
    # the entries and functions of every leaf and node: first entry, entry
    # count, function count, first function; a leaf's first eight
    # functions are its corners' and tagged by vertex, the others -1
    start, count, fns, fstart = np.zeros((4, n_el), dtype=int)
    unit[active] = element_class
    start[active], count[active], fns[active] = leaf_counts
    fstart[active] = np.cumsum(fns[active]) - fns[active]
    tags = np.full(int(fns.sum()), -1)
    tags[fstart[active][:, None] + np.arange(8)] = (
        2 * mesh.verts[active][:, :, None] + np.arange(2)).reshape(-1, 8)
    closed = np.zeros(n_el, dtype=bool)     # a leaf or a node
    closed[active] = True
    keys = list(class_keys)
    nodes, node_keys, node_maps, node_basis = [], [], [], []
    # the split elements by height, the depth of their subtree, so that
    # every child comes before its parent
    split = np.flatnonzero(mesh.child >= 0)
    height = np.zeros(n_el, dtype=int)
    for level in range(int(mesh.level[split].max(initial=-1)), -1, -1):
        at = split[mesh.level[split] == level]
        height[at] = 1 + height[mesh.child[at][:, None] + np.arange(4)].max(axis=1)
    heights = height[split]
    for h in range(1, int(heights.max(initial=0)) + 1):
        # the parents whose children are leaves or nodes, by class; a class
        # is a node class when its kernel serves more than once
        parents = split[heights == h]
        kids = mesh.child[parents][:, None] + np.arange(4)
        whole = closed[kids].all(axis=1)
        if not whole.any():
            continue
        parents, kids = parents[whole], kids[whole]
        parent_class, lead = _first_use(unit[kids])
        unit[parents] = len(keys) + parent_class
        new_keys = [tuple(keys[u] for u in units)
                     for units in unit[kids[lead]].tolist()]
        shut = np.bincount(parent_class) >= NODE_MIN_MEMBERS
        keys += new_keys
        closed[parents] = shut[parent_class]
        nd = parents[closed[parents]]
        if not nd.size:
            continue
        n, kid = nd.size, kids[closed[parents]].ravel()
        # the children's entries and rows, node by node and child by child,
        # the rows counted over the pass
        owner, off = _ranges(count[kid])
        at = start[kid][owner] + off
        e_ids, e_w = ids[at], w[at]
        row0 = np.cumsum(fns[kid]) - fns[kid]
        e_rows = rows[at] + row0[owner]
        e_node = owner // 4
        inner = dof_node[e_ids] == nd[e_node]
        nonzero = e_w != 0
        on = inner & nonzero
        r_kid, r_off = _ranges(fns[kid])
        r_node = r_kid // 4
        tag = tags[fstart[kid][r_kid] + r_off]
        # the rows with a part off the inner dofs, and their functions: the
        # vertex's, or the row's own
        has_in, has_off = np.zeros((2, r_kid.size), dtype=bool)
        has_in[e_rows[on]] = True
        has_off[e_rows[nonzero & ~inner]] = True
        out = np.flatnonzero(has_off)
        pure = ~has_in[out]
        shared = pure & (tag[out] >= 0)
        # each row's function in `out`, and each function's first row there
        func, first = _first_use(np.where(
            shared, r_node[out] * 2 * len(mesh.vertices) + tag[out], -1 - out))
        rep = out[first]
        n_fn = np.bincount(r_node[rep], minlength=n)
        f_base = np.cumsum(n_fn) - n_fn
        func -= f_base[r_node[out]]
        # the inner dofs in order of first use
        on_ids, on_node = e_ids[on], e_node[on]
        rank, use = _first_use(on_ids)
        inner_ids = on_ids[use]
        n_in = np.bincount(on_node[use], minlength=n)
        i_base = np.cumsum(n_in) - n_in
        # every node's basis: entries (child row, node function, weight),
        # by row, each row counted in its child and each function in its
        # node, and where each child's entries start among them
        t_row = np.concatenate([e_rows[on], out])
        t = np.argsort(t_row, kind="stable")
        t_row = t_row[t]
        t_bound = np.append(np.searchsorted(t_row, row0), t.size)
        t_row -= np.repeat(row0, np.diff(t_bound))
        t_col = np.concatenate([rank - i_base[on_node],
                                n_in[r_node[out]] + func])[t]
        t_w = np.concatenate([e_w[on], np.ones(out.size)])[t]
        # the nodes' entries and functions, added to those of the nodes
        # below, for their parents
        func_of = np.full(r_kid.size, -1)
        func_of[out] = func
        is_rep = np.zeros(r_kid.size, dtype=bool)
        is_rep[rep] = True
        want = nonzero & ~inner & is_rep[e_rows]
        cnt = np.bincount(e_node[want], minlength=n)
        start[nd], count[nd], fns[nd], fstart[nd] = (
            ids.size + np.cumsum(cnt) - cnt, cnt, n_fn, tags.size + f_base)
        ids, w, rows, tags = (np.concatenate(a) for a in (
            (ids, e_ids[want]), (w, e_w[want]), (rows, func_of[e_rows[want]]),
            (tags, np.where(pure[first], tag[rep], -1))))

        # the node classes' maps, and their members and bases
        maps, groups = _class_maps(
            np.cumsum(shut)[parent_class[closed[parents]]] - 1,
            (ids, w, rows, start[nd], cnt, n_fn), (inner_ids, i_base, n_in))
        _read_only(t_row, t_col, t_w)
        for c, group, cmap in zip(np.flatnonzero(shut).tolist(), groups, maps):
            k = group[0]
            b = t_bound[4 * k:4 * k + 5].tolist()
            nodes.append(_read_only(nd[group])[0])
            node_keys.append(new_keys[c])
            node_maps.append(cmap)
            node_basis.append((int(n_in[k] + n_fn[k]), int(n_in[k]), [
                ClassMap(_NO_INTERIOR, t_col[None, s:e], t_row[None, s:e],
                         t_w[None, s:e], nf) for s, e, nf in
                zip(b, b[1:], fns[kid[4 * k:4 * k + 4]].tolist())]))
    return nodes, node_keys, node_maps, node_basis, closed


def element_full_bmat(layout: DofLayout, material: Material, f, pos: int):
    """Gram factor (L_tau, L_v), Z = L^-1 B of the full local coupling
    matrix B, and load of the element at `pos`.

    L and Z are the element class's read-only matrices from `layout.cache`,
    built on the first request of the study; Z's skeleton columns are the
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
    return kernel.L, kernel.Z, layout.loads[f, pos]


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
    built and cached under its key."""
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
    exact, so B, kept as Z = L^-1 B, is `local_bmat`'s at the key's offsets.
    """
    p, p_tilde, shape, sides = key
    L = cache.gram_factors.get((p_tilde, shape))
    if L is None:
        rel = np.frombuffer(shape, float).reshape(4, 2)
        try:
            L = _read_only(*gram_factor(local_gram(rel, p_tilde)))
        except RuntimeError as err:
            diameter = np.linalg.norm(rel[:, None] - rel, axis=2).max()
            raise RuntimeError(
                f"Gram matrix is not positive definite: p_tilde = {p_tilde}, "
                f"element diameter {diameter:.3e}") from err
        cache.gram_factors[p_tilde, shape] = L
    family, e = _family(key)
    B_hat = cache.families.get((family, material))
    if B_hat is None:
        B_hat = local_bmat(np.frombuffer(family[2], float).reshape(4, 2),
                           p, p_tilde, material, sides)
        B_hat.setflags(write=False)
        cache.families[family, material] = B_hat
    scale = 2.0 ** e
    B = B_hat * scale
    B[:3 * (p_tilde + 1) ** 2, :3 * (p + 1) ** 2] *= scale
    Z, K = local_stiffness(L, B)
    return _condensed(K, 5 * (p + 1) ** 2, "interior block of an element "
                      "matrix is not positive definite", L=L, Z=_read_only(Z)[0])


def _condensed(K: np.ndarray, ni: int, failure: str, **extra) -> ClassKernel:
    """The read-only condensation blocks of K with its first ni rows and
    columns interior; RuntimeError(failure) when the interior block is not
    positive definite."""
    Kis, Kss = K[:ni, ni:], K[ni:, ni:]
    Kii = cholesky_factor(K[:ni, :ni], failure)
    Wt = blas.dtrsm(1.0, Kii, Kis.T, side=1, lower=1, trans_a=1)
    At = blas.dtrsm(1.0, Kii, Wt, side=1, lower=1, overwrite_b=1)
    # Kss - Kis' A, not Kss - W'W: on a four-round hp mesh whose eliminated
    # skeleton block had cond 1.2e7, W'W left the coarse matrix 1.2e-13
    # (relative) off the exact Schur complement, Kis' A 3e-14, as close as
    # one dense LU solve of the global skeleton matrix.  S is formed and
    # symmetrised in the product's buffer, and A overwrites W: each saves
    # a transient array
    S = At @ Kis
    np.subtract(Kss, S, out=S)
    S += S.T
    S *= 0.5
    return ClassKernel(*_read_only(Kii, At.T, S), **extra)


def _node_kernel(basis: tuple, children: list[ClassKernel]) -> ClassKernel:
    """Kernel of a node class on its node basis (n, ni, maps), from its
    children's kernels in child order: the one-member `ClassMap` maps[k]
    takes child k's skeleton rows to the node's n functions, inner dofs
    below ni and boundary functions from ni on.

    K = sum_k T_k' S_k T_k is the children's Schur complements on the node
    basis, each child's added as it comes (`_add_dense`); its inner block
    is the node's inner skeleton.  A failed Cholesky factor of that block
    means the skeleton system is not SPD.
    """
    n, ni, maps = basis
    K = np.zeros((n, n))
    for cmap, child in zip(maps, children):
        _add_dense(K, cmap, child.S, cmap.ids, _ONE)
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

    The V-norm of e = G^-1 r, r = l - B x_K the residual with x_K the
    element's interior dofs and C_K x, is |L^-1 r| = |L^-1 l - Z x_K|,
    one `lower_solve` per class for all its members (`_lower_residual`).
    """
    out = np.zeros(len(layout.elements))
    for cls, members in enumerate(layout.classes):
        kernel, lvecs, cmap = _class_members(layout, material, f, cls)
        xk = np.concatenate([x[cmap.interior], cmap.gather(x)], axis=1)
        out[members] = np.linalg.norm(_lower_residual(kernel, lvecs, xk), axis=0)
    return out


def _lower_residual(kernel: ClassKernel, lvecs: np.ndarray, xk: np.ndarray,
                    first: int = 0) -> np.ndarray:
    """L^-1 (l - B x) = L^-1 l - Z x, (5 ns, m), of an element class's
    members' loads l, (5 ns, m), and values x, (m, n - first), on its
    columns from `first` on, formed in place on L^-1 l."""
    y = lower_solve(kernel.L, lvecs)
    y -= kernel.Z[:, first:] @ xk.T
    return y


@dataclass
class CondensedSystem:
    """Coarse skeleton system left after condensing the element interiors,
    the nodes' inner skeletons and the roots' private dofs.

    Column j of `rhs` is load j condensed onto the free coarse dofs, the
    free skeleton dofs outside every inner skeleton and private set: on
    the last steps of the bench's smooth-h, smooth-m2 and lshape-adapt
    studies 250, 186 and 912 dofs, of 7,298, 4,482 and 2,790.  Column 0 is
    the DPG load with the Dirichlet lift folded in, the others are the
    extra loads.  `recover` holds one record per unit, children before
    parents and the private units last: the members' `ClassMap`,
    Kii^-1 Kis, and Kii^-1 of the members' interior loads, lifted in
    load 0, as an (ni, m, 1 + extra) block.

    The Schur complement on the free coarse dofs is held by density
    (`condense`): a dense system's as the C-ordered (n, n) sum `dense`,
    which `solve_condensed` factors in place, a sparser one's as the
    units' entries `coo`, unsummed; the other is None.  `S`, the CSC
    matrix for SuperLU (the sparse route, and method 2 at any density)
    and the tests, is built on first use from whichever the system holds
    and kept in its place, releasing it, so that the source does not sit
    beside SuperLU's factor; `S` can be assigned.
    """

    coo: tuple | None       # the units' C' S C entries: rows, cols, values
    dense: np.ndarray | None    # their (n, n) sum
    rhs: np.ndarray         # (n free coarse dofs, 1 + m)
    free: np.ndarray        # ids of the free coarse dofs
    x_pinned: np.ndarray
    recover: list[tuple[ClassMap, np.ndarray, np.ndarray]]

    @cached_property
    def S(self) -> sp.csc_matrix:
        """The Schur complement on the free coarse dofs as a CSC matrix,
        built on first use from `dense` or from `coo`, the duplicates
        summed; both are None from then on."""
        held = self.dense if self.coo is None else (self.coo[2], self.coo[:2])
        self.dense = self.coo = None
        return sp.csc_matrix(held, shape=(self.free.size,) * 2)

    def expand(self, j: int, xs: np.ndarray) -> np.ndarray:
        """Full dof vector of load j from its free coarse values `xs`: the
        records in reverse, the roots' private dofs and the nodes' inner
        skeletons first, on values that vanish on the pinned dofs (the
        records hold the lift); load 0 then takes x_pinned."""
        x = np.zeros(self.x_pinned.size)
        x[self.free] = xs
        for cmap, A, b in reversed(self.recover):
            x[cmap.interior] = (b[:, :, j] - A @ cmap.gather(x).T).T
        if j == 0:
            x += self.x_pinned
        return x


def condense(material: Material, f, layout: DofLayout, x_pinned: np.ndarray,
             loads: np.ndarray | None = None) -> CondensedSystem:
    """Statically condense the element interiors, the nodes' inner
    skeletons and the roots' private dofs: one step per unit, children
    before parents.

    `x_pinned` holds the Dirichlet values on the pinned dofs, and `loads`
    is an optional (n_dofs, m) block of extra right-hand sides; a lift off
    the pinned dofs or a load on them raises ValueError.  The element
    loads B'G^-1 (l - B_s C x_pinned) = Z'(L^-1 l - Z_s C x_pinned), with
    the lift on the skeleton columns B_s and Z_s, enter first, one
    `_lower_residual` per class for all members: their interior part in the
    load block, their skeleton part as the element class's own condensed
    load.  The lift takes S C x_pinned off that load and A C x_pinned off
    the interior solution, once for all units.
    A unit, an element class, a node class or a root member's private dofs
    (`_private_units`), then solves its kernel's Kii for the loads r on
    its members' interiors in one call, scatters the condensed load -A'r
    plus its own, writes its C' S C entries and keeps a recovery record.

    Neither the full sparse matrix nor a global skeleton matrix is formed.
    The C' S C entries, numbered by free coarse dof without the pinned
    ones, are counted first; a dense system's units then each add theirs
    into the (n, n) sum through a scratch of their own, and a sparser
    one's fill arrays of exactly that count (`CondensedSystem`).
    """
    n = layout.n_dofs
    loads = np.zeros((n, 0)) if loads is None else loads
    if np.any(loads[layout.pinned]):
        raise ValueError("extra loads must vanish on the pinned dofs")
    if np.any(x_pinned[~layout.pinned]):
        raise ValueError("x_pinned must vanish off the pinned dofs")
    g = np.column_stack([np.zeros(n), loads])
    # the element interiors are numbered first and never pinned, so the free
    # coarse dofs are the unpinned ids after them outside the inner
    # skeletons and the private dofs; `index` takes a dof to its row of the
    # condensed matrix, -1 for an interior, inner, private or pinned dof
    n_interior = sum(cmap.interior.size for cmap in layout.class_maps)
    coarse = ~layout.pinned
    for nmap in layout.node_maps:
        coarse[nmap.interior] = False

    # the units: kernel, map, own condensed load, members writing the
    # coarse matrix (those outside every node); the node kernels, children
    # before parents, from the kernels by class and node key of this call
    units, kernels = [], {}
    for cls, members in enumerate(layout.classes):
        kernel, lvecs, cmap = _class_members(layout, material, f, cls)
        ni = cmap.interior.shape[1]
        fl = kernel.Z.T @ _lower_residual(kernel, lvecs, cmap.gather(x_pinned), ni)
        g[cmap.interior, 0] = fl[:ni].T
        units.append((kernel, cmap, fl[ni:],
                      ~layout.in_node[layout.elements[members]]))
        kernels[layout.class_keys[cls]] = kernel
    for key, basis, nmap, nodes in zip(layout.node_keys, layout.node_basis,
                                       layout.node_maps, layout.nodes):
        kernel = kernels[key] = _node_kernel(basis, [kernels[k] for k in key])
        units.append((kernel, nmap, 0.0, ~layout.in_node[nodes]))
    del kernels     # each node kernel now lives in its unit alone
    units += _private_units(layout, units, coarse)
    free = n_interior + np.flatnonzero(coarse[n_interior:])
    index = np.full(n, -1, dtype=np.int32)
    index[free] = np.arange(free.size, dtype=np.int32)

    sizes = [_free_entries(index[cmap.ids], w) for _, cmap, _, w in units]
    m, k = free.size, sum(sizes)
    dense = np.zeros((m, m)) if 2 * k >= m * m else None
    coo = None if dense is not None else (*np.empty((2, k), np.int32), np.empty(k))
    recover, at = [], 0
    for i, size in enumerate(sizes):
        # the unit leaves the list: only its A outlives its step
        (kernel, cmap, own, writes), units[i] = units[i], None
        if isinstance(kernel, tuple):   # a private unit's, built where used
            kernel = _private_kernel(*kernel)
        b, gs = _eliminate(kernel, g[cmap.interior].transpose(1, 0, 2))
        gs[:, :, 0] += own
        if size and coo is not None:
            at = _write_free(cmap, kernel.S, index[cmap.ids], writes, coo, at)
        elif size:
            _add_dense(dense, cmap, kernel.S, index[cmap.ids], writes)
        cmap.scatter(g, gs.transpose(1, 0, 2))
        recover.append((cmap, kernel.A, b))

    return CondensedSystem(coo=coo, dense=dense, rhs=g[free], free=free,
                           x_pinned=x_pinned, recover=recover)


def _private_units(layout: DofLayout, units: list, coarse: np.ndarray) -> list:
    """One unit per root member with private dofs, the coarse dofs no
    other member writing the coarse matrix touches (its fluxes on the
    domain boundary, which its key does not know).

    The unit's one member has the private dofs as its interior and its
    other distinct unpinned dofs (free coarse dofs) as its map, each of
    weight 1; in place of its kernel it holds the plan (root S, map to its
    dofs, private count) `_private_kernel` builds it from, and its own
    load is 0.  The member leaves its node unit's `writes`, and `coarse`
    drops the private dofs.
    """
    touched = np.bincount(np.concatenate(
        [cmap.ids[writes].ravel() for _, cmap, _, writes in units]),
        minlength=coarse.size)
    private = []
    for (kernel, cmap, _, writes), nodes in zip(units[len(layout.classes):],
                                                layout.nodes):
        for i in np.flatnonzero(layout.mesh.parent[nodes] < 0).tolist():
            ids = cmap.ids[i]
            mine = coarse[ids] & (touched[ids] == 1)
            if not mine.any():
                continue
            # the private dofs' entries, then the unpinned others', by first use
            at = np.concatenate([np.flatnonzero(mine), np.flatnonzero(
                ~mine & ~layout.pinned[ids])])
            col, first = _first_use(ids[at])
            dofs, ni = ids[at][first], np.count_nonzero(mine)
            n = dofs.size - ni
            plan = ClassMap(_NO_INTERIOR, col[None], cmap.rows[i, at][None],
                            cmap.weights[i, at][None], cmap.n_skel)
            private.append((
                (kernel.S, plan, ni),
                ClassMap(dofs[None, :ni], dofs[None, ni:],
                         _read_only(np.arange(n)[None])[0], np.ones((1, n)), n),
                0.0, _ONE))
            writes[i] = False
            coarse[dofs[:ni]] = False
    return private


def _private_kernel(S: np.ndarray, cmap: ClassMap, ni: int) -> ClassKernel:
    """Kernel of a private unit (`_private_units`): C' S C on the map
    `cmap` from its root's rows to its dofs, the first ni interior; the
    rows of a dof taken several times are summed (`_add_dense`)."""
    n = int(cmap.ids.max()) + 1
    if n < cmap.ids.size:
        K = np.zeros((n, n))
        _add_dense(K, cmap, S, cmap.ids, _ONE)
    else:
        K = cmap.outer(S, _ONE)[0]
    return _condensed(K, ni, "sparse factorization failed; system not SPD")


def _eliminate(kernel: ClassKernel, rhs: np.ndarray):
    """Kii^-1 rhs, (ni, m, k), and the condensed load -A' rhs =
    -Kis' Kii^-1 rhs, (n_skel, m, k), of an (ni, m, k) block of the
    members' interior loads."""
    r = rhs.reshape(rhs.shape[0], -1)
    b = cholesky_solve(kernel.Kii, r).reshape(rhs.shape)
    gs = -(kernel.A.T @ r).reshape(-1, *rhs.shape[1:])
    return b, gs


def _free_entries(dof: np.ndarray, members) -> int:
    """Entries `_write_free` writes: per member, its free dofs squared."""
    return int(np.square((dof[members] >= 0).sum(axis=1)).sum())


def _add_dense(out: np.ndarray, cmap: ClassMap, S: np.ndarray,
               dof: np.ndarray, members) -> None:
    """Add the members' C_K' S C_K entries into the C-ordered (n, n) `out`:
    `_write_free` into a scratch, then one `np.add.at` in the order
    written.  Every dense sum goes here: the dense coarse system, a node
    front (`_node_kernel`) and a private block with repeated dofs."""
    size = _free_entries(dof, members)
    part = np.empty(size, np.int64), np.empty(size, np.int32), np.empty(size)
    _write_free(cmap, S, dof, members, part, 0)
    flat, cols, vals = part
    flat *= len(out)
    flat += cols
    np.add.at(out.ravel(), flat, vals)


def _write_free(cmap: ClassMap, S: np.ndarray, dof: np.ndarray, members,
                coo: tuple, k: int) -> int:
    """Write the C_K' S C_K entries of the members selected by the mask
    `members` at position k of the row, column and value arrays `coo`,
    numbered by `dof`, the members' ids in the target's numbering, -1
    where interior, inner or pinned; returns the next position.

    The members clear of the pinned dofs write every entry in place; the
    others write only the entries of their free rows and columns.
    """
    rows, cols, vals = coo
    whole = members & (dof >= 0).all(axis=1)
    d, nnz = dof[whole], dof.shape[1]
    span = slice(k, k + d.size * nnz)
    block = (len(d), nnz, nnz)
    # in place, at half a masked write's peak (`test_whole_member_writes_in_place`)
    cmap.outer(S, whole, vals[span].reshape(block))
    rows[span].reshape(block)[...] = d[:, :, None]
    cols[span].reshape(block)[...] = d[:, None, :]
    part = members & ~whole
    if not part.any():      # every member whole: node fronts, private blocks
        return span.stop
    d = dof[part]
    keep = (d[:, :, None] >= 0) & (d[:, None, :] >= 0)
    span = slice(span.stop, span.stop + np.count_nonzero(keep))
    rows[span] = np.broadcast_to(d[:, :, None], keep.shape)[keep]
    cols[span] = np.broadcast_to(d[:, None, :], keep.shape)[keep]
    vals[span] = cmap.outer(S, part)[keep]
    return span.stop


def solve_condensed(material: Material, f, layout: DofLayout,
                    x_pinned: np.ndarray) -> np.ndarray:
    """Solve with static condensation of the interior (sigma, u) blocks.

    Factorizes only the coarse skeleton system, by dense Cholesky when it
    is dense and by SuperLU when it is sparse, and never forms the full
    sparse matrix, which keeps memory bounded on fine high-order meshes.
    """
    system = condense(material, f, layout, x_pinned)
    # A coarse system of n dofs whose units write k entries is dense when
    # 2 k >= n^2 (`condense` sums it as written): its (n, n) sum then takes
    # no more memory than the k entries the sparse route holds (8 bytes
    # each against 16: two int32 indices and a value).  The sum is factored
    # in place by `dpotrf` on its transpose, which is Fortran-ordered, and
    # solved by `dpotrs`; a sparser system goes to SuperLU.  Both routes on
    # the same entries, from the entries to the coarse solution, best of 30
    # per system on a 2-core x86-64 VM with one BLAS thread:
    #
    #   bench study, step   n        k / n^2           SuperLU    dense
    #   smooth-h 0, 1, 2    122-250  0.57, 1.03, 1.02  0.41-2.9   0.08-0.46 ms
    #   lshape-adapt 0, 1   44, 28   0.54, 1.50        0.13       0.01 ms
    #   lshape-adapt 4      470      0.20 (sparse)     2.4        1.6 ms
    #   lshape-adapt 7      912      0.11 (sparse)     5.4        8.4 ms
    #
    # The two solutions agree to 2e-12 relative, within eps cond(S).  Dense
    # from k >= 0.2 n^2 on (up to n = 470), lshape-adapt's peak RSS rose by
    # 0.7 MB in 3 of 3 bench pairs: the rule is tied to memory, not to the
    # time crossover.
    if system.dense is not None:
        L = cholesky_factor(system.dense.T,
                            "sparse factorization failed; system not SPD")
        return system.expand(0, cholesky_solve(L, system.rhs[:, 0]))
    try:
        lu = splu(system.S, **SPD_SPLU_OPTIONS)
    except RuntimeError as err:
        raise RuntimeError("sparse factorization failed; system not SPD") from err
    return system.expand(0, lu.solve(system.rhs[:, 0]))
