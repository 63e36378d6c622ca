"""Conforming triangulations under newest-vertex bisection.

An element stores its three vertex indices in positive (counter-clockwise)
orientation together with the local index of its refinement edge: local edge
``i`` is the edge opposite local vertex ``i``.  Bisecting an element inserts
the midpoint of its refinement edge and hands both children the inherited
parent edge as their new refinement edge, which is the edge opposite the
newly created vertex.  Conformity needs completion: before an element x is
bisected on its refinement edge r(x), the neighbour P(x) across r(x) is
bisected first whenever it refines another edge.

The initial labeling is the largest edge of each element under one strict
order on edges: length first, then the sorted vertex pair.  It makes every
completion chain terminate, because along a chain the refinement edges
strictly increase in that order.

`refine` works in rounds, one per bisection of a marked element.  A round
bisects only edges of its input mesh (Stevenson, Math. Comp. 2008), and
these form a forest: r(P(x)) is the parent of r(x) when the two differ.  A
target's chain is the path from its refinement edge to a root.  The round
numbers its output as bisecting the targets one at a time in ascending id
order would: an edge e is bisected in the chain of T(e), the smallest
target whose chain passes e, from the root down, so the midpoints are new
vertices in ascending (T(e), depth(e)) order; each bisection appends the two
children of the element on the target's side, then the two of the element
across.  The round is a fixed number of array passes plus three loops with
one pass per chain level: up from the targets to collect the chain edges,
down from the roots for their depths (an edge never reached lies on a cycle
of an incompatible labeling), and up again for T(e).  Round k + 1 bisects
the children of every round-k target; `tests/oracles.py` keeps the
one-at-a-time bisector that the rounds reproduce.
"""

import json

import numpy as np

_EDGE_VERTS = ((1, 2), (2, 0), (0, 1))  # local edge i is opposite local vertex i
_ROTATE = ((0, 1, 2), (1, 2, 0), (2, 0, 1))  # local vertices i, i + 1, i + 2 (mod 3)


class MeshError(ValueError):
    """Invalid mesh input or an operation on a broken mesh."""


def _edge_table(elements, nv):
    """Unique edges plus ownership of the (ne, 3) `elements` on `nv` vertices.

    Returns ``(edges, elem_edges, owners, owner_local)`` where `edges` is
    (nE, 2) sorted vertex pairs in lexicographic order, `elem_edges` maps
    (ne, 3) local edges to edge ids, `owners` is (nE, 2) element ids with
    -1 for a missing second owner, and `owner_local` the matching local
    edge indices.  An edge of more than two owners is a MeshError.

    One sort does it: local edge j of element e is entry 3*e + j of the
    keys ``min*nv + max``, whose order is the pairs' lexicographic order.
    The sort need not be stable, because an edge has at most two entries,
    and swapping each adjacent equal pair that is out of order puts its
    owners in element order.
    """
    pairs = elements[:, _EDGE_VERTS]
    nv = np.int64(nv)
    keys = (np.minimum(pairs[..., 0], pairs[..., 1]) * nv
            + np.maximum(pairs[..., 0], pairs[..., 1])).ravel()
    order = np.argsort(keys)
    keys = keys[order]
    new = np.empty(keys.size, bool)
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    counts = np.diff(starts, append=keys.size)
    edges = np.stack(np.divmod(keys[starts], nv), axis=1)
    if counts.max(initial=0) > 2:
        a, b = edges[np.argmax(counts > 2)].tolist()
        raise MeshError(f"non-conforming input: edge {(a, b)} shared by more than 2 elements")
    dbl = counts == 2
    first = starts[dbl]
    swap = first[order[first] > order[first + 1]]
    order[swap], order[swap + 1] = order[swap + 1], order[swap]
    inverse = np.empty(keys.size, np.int64)
    inverse[order] = np.cumsum(new) - 1
    owners = -np.ones((edges.shape[0], 2), dtype=np.int64)
    owner_local = -np.ones((edges.shape[0], 2), dtype=np.int64)
    owners[:, 0], owner_local[:, 0] = np.divmod(order[starts], 3)
    owners[dbl, 1], owner_local[dbl, 1] = np.divmod(order[first + 1], 3)
    return edges, inverse.reshape(-1, 3), owners, owner_local


class Mesh:
    """Immutable conforming triangulation.

    Attributes
    ----------
    vertices : (nv, 2) float array
    elements : (ne, 3) int array, CCW vertex indices
    refinement_edge : (ne,) int array with values in {0, 1, 2}
    generation : (ne,) int array, bisection depth of each element
    region : (ne,) int array, material tag for piecewise coefficients
    boundary_edges : (nb, 2) int array, read-only, of sorted vertex pairs (all
        Dirichlet): the edge table's single-owner edges
    """

    def __init__(self, vertices, elements, refinement_edge, generation, region):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.elements = np.ascontiguousarray(elements, dtype=np.int64)
        self.refinement_edge = np.ascontiguousarray(refinement_edge, dtype=np.int64)
        self.generation = np.ascontiguousarray(generation, dtype=np.int64)
        self.region = np.ascontiguousarray(region, dtype=np.int64)
        self._cache = {}

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_elements(self):
        return self.elements.shape[0]

    # -- edges -------------------------------------------------------------

    def edge_table(self):
        """The `_edge_table` of this mesh, computed once."""
        if "edge_table" not in self._cache:
            self._cache["edge_table"] = _edge_table(self.elements, self.n_vertices)
        return self._cache["edge_table"]

    @property
    def boundary_edges(self):
        edges, _, owners, _ = self.edge_table()
        return edges[owners[:, 1] < 0]

    # -- serialization -----------------------------------------------------

    def to_json(self, path=None):
        obj = {
            "vertices": self.vertices.tolist(),
            "elements": self.elements.tolist(),
            "boundary": self.boundary_edges.tolist(),
            "region": self.region.tolist(),
        }
        if path is None:
            return json.dumps(obj)
        with open(path, "w") as fh:
            json.dump(obj, fh)
        return None

    def to_vtk(self, path, title="mesh"):
        """Legacy ASCII VTK unstructured-grid export for visualization."""
        lines = [
            "# vtk DataFile Version 3.0",
            title,
            "ASCII",
            "DATASET UNSTRUCTURED_GRID",
            f"POINTS {self.n_vertices} float",
        ]
        lines += [f"{x:.17g} {y:.17g} 0.0" for x, y in self.vertices]
        lines.append(f"CELLS {self.n_elements} {4 * self.n_elements}")
        lines += [f"3 {a} {b} {c}" for a, b, c in self.elements]
        lines.append(f"CELL_TYPES {self.n_elements}")
        lines += ["5"] * self.n_elements
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


class RefineResult:
    """Outcome of a refine() call.

    ancestor -- (ne_new,) old-mesh ancestor id of every new element
                (itself for elements carried over unchanged)
    """

    def __init__(self, mesh, ancestor):
        self.mesh = mesh
        self.ancestor = np.asarray(ancestor, dtype=np.int64)


# The hanging-vertex search's quadtree: a vertex's key interleaves the bits of
# its cell on a 2^30 x 2^30 grid over the vertices' bounding square, and a node
# of at most _LEAF vertices is not split.  Leaves of 4 vertices took as long
# as leaves of 8 on a star of 50,000 spikes and less memory on 2,000 tied
# fans (2-vCPU host).
_DEPTH, _LEAF = 30, 4
_CHUNK = 1 << 14    # pairs tested at once, to bound the temporaries
_SPREAD = ((16, 0x0000FFFF0000FFFF), (8, 0x00FF00FF00FF00FF), (4, 0x0F0F0F0F0F0F0F0F),
           (2, 0x3333333333333333), (1, 0x5555555555555555))
_FOURS = 4 ** np.arange(_DEPTH + 1)    # a key xor of k bit pairs is below _FOURS[k]


def _morton(cells):
    """The keys of (n, 2) cells below 2^30: the bits of the cell's column in the
    even places, those of its row in the odd ones."""
    for shift, mask in _SPREAD:
        cells = (cells | cells << shift) & mask
    return cells[:, 0] | cells[:, 1] << 1


def _hanging_vertex(vertices, edges):
    """First ``(vertex, edge id)`` in (edge, vertex) order with the vertex
    strictly inside the edge, or None.

    Such a vertex lies within 1e-9 |E| + 1e-12 of the edge.  The vertices go
    into a quadtree, each node one range of the vertices sorted by key.  An
    edge starts at the smallest node that holds its box widened by that slack
    and goes down, level by level, into the children that meet the widened
    segment, until a node holds at most _LEAF vertices; only those are tested.
    """
    if not len(edges):
        return None
    pa, pb = vertices[edges[:, 0]], vertices[edges[:, 1]]
    d = pb - pa
    L2 = np.einsum("ij,ij->i", d, d)
    slack = 1e-9 * np.sqrt(L2) + 1e-12
    origin = vertices.min(axis=0)
    width = (vertices.max(axis=0) - origin).max()
    scale = 2.0 ** _DEPTH / width

    def inside(eid, vid):  # the pairs with the vertex strictly inside the edge
        rel = vertices[vid] - pa[eid]
        de = d[eid]
        t = np.einsum("ij,ij->i", rel, de) / L2[eid]
        on_line = np.abs(rel[:, 0] * de[:, 1] - rel[:, 1] * de[:, 0]) <= 1e-12 * np.sqrt(L2[eid])
        hit = on_line & (t > 1e-10) & (t < 1 - 1e-10)
        hit &= (edges[eid, 0] != vid) & (edges[eid, 1] != vid)
        return eid[hit], vid[hit]

    def shared(x):  # the levels two keys share, from their xor
        return _DEPTH - _FOURS.searchsorted(x, "right")

    # the keys of the vertices and of the corners of the edges' widened boxes;
    # the cell is monotone in the point, so a point in a box has a cell in the
    # box's cells
    points = np.concatenate([vertices, np.minimum(pa, pb) - slack[:, None],
                             np.maximum(pa, pb) + slack[:, None]])
    cells = ((points - origin) * scale).astype(np.int64).clip(0, 2 ** _DEPTH - 1)
    key = _morton(cells)
    key, lo, hi = key[:len(vertices)], key[len(vertices):-len(edges)], key[-len(edges):]
    order = np.argsort(key, kind="stable")
    key = key[order]
    # from level `top` on, every node holds at most _LEAF vertices
    top = min(shared(key[_LEAF:] ^ key[:-_LEAF]).max(initial=-1) + 1, _DEPTH)
    # an edge starts at the smallest node holding its widened box
    start = np.minimum(shared(lo ^ hi), top)
    lo = lo >> 2 * (_DEPTH - start)
    # a vertex lies within `margin` of its node's box, rounding included.  A
    # box of half side h meets the widened segment only if its centre c has
    # |(c - pa) x d| <= r and (c - pa) . d within r of [0, |E|^2], where
    # r = (h + margin) (|dx| + |dy|) + slack |E|
    margin = 1 / scale + 2.0 ** -50 * np.abs(vertices).max()
    (px, py), (dx, dy) = (pa - origin).T.copy(), d.T.copy()
    reach, slack_len, half_L2 = np.abs(d).sum(axis=1), slack * np.sqrt(L2), L2 / 2

    def descend(eid, node, child, cx, cy, half):  # the pairs' children that meet the segment
        eid = np.repeat(eid, child[node + 1] - child[node])
        node = _ranges(child[node], child[node + 1])
        ux, uy, ex, ey = cx[node] - px[eid], cy[node] - py[eid], dx[eid], dy[eid]
        r = (half + margin) * reach[eid] + slack_len[eid]
        h = half_L2[eid]
        near = (np.abs(ux * ey - uy * ex) <= r) & (np.abs(ux * ex + uy * ey - h) <= h + r)
        return eid[near], node[near]

    # node k of a level holds the vertices order[first[k]:first[k + 1]], whose
    # keys start with code[k], and has its centre at origin + (cx, cy)[k]
    first, code = np.array([0, key.size]), np.zeros(1, np.int64)
    cx = cy = np.full(1, width / 2)
    eid = node = np.zeros(0, np.int64)
    found = [(eid, node)]
    for level in range(top + 1):
        new = np.flatnonzero(start == level)
        k = np.minimum(code.searchsorted(lo[new]), code.size - 1)
        held = code[k] == lo[new]          # a box with no vertex has no node
        eid, node = np.concatenate((eid, new[held])), np.concatenate((node, k[held]))
        n = first[node + 1] - first[node]
        leaf = (n <= _LEAF) | (level == top)
        e = np.repeat(eid[leaf], n[leaf])
        v = order[_ranges(first[node[leaf]], first[node[leaf] + 1])]
        found += [inside(e[s:s + _CHUNK], v[s:s + _CHUNK]) for s in range(0, e.size, _CHUNK)]
        if level == top:
            break
        # the next level: node k's children are nodes child[k]:child[k + 1]
        prefix = key >> 2 * (_DEPTH - level - 1)
        kids = np.flatnonzero(np.concatenate(([True], prefix[1:] != prefix[:-1], [True])))
        child = kids.searchsorted(first)
        parent = np.repeat(np.arange(code.size), np.diff(child))
        first, code = kids, prefix[kids[:-1]]
        half = width * 2.0 ** -(level + 2)
        cx = cx[parent] + half * (2 * (code & 1) - 1)
        cy = cy[parent] + half * (2 * (code >> 1 & 1) - 1)
        # the edges go down into the children that meet their widened segment,
        # _CHUNK (edge, node) pairs at a time
        eid, node = eid[~leaf], node[~leaf]
        down = [descend(eid[s:s + _CHUNK], node[s:s + _CHUNK], child, cx, cy, half)
                for s in range(0, eid.size, _CHUNK)]
        eid, node = map(np.concatenate, zip((eid[:0], node[:0]), *down))

    eid, vid = (np.concatenate(c) for c in zip(*found))
    if not eid.size:
        return None
    k = np.lexsort((vid, eid))[0]
    return int(vid[k]), int(eid[k])


def build_initial(vertices, triangles, boundary=None, region=None):
    """Construct a mesh from raw arrays, labeling each element's largest edge.

    Edges are ordered strictly by length, then by their sorted vertex pair,
    and every element refines its largest edge in that order.  Completion
    then terminates: along a chain t -> n (n across t's refinement edge,
    refining another edge) n's refinement edge is larger than t's, so the
    refinement edges strictly increase and no chain can close on itself.

    `region` gives one integer material tag per triangle (default all 0).
    Overlap is not detected; without it a vertex inside an edge and that edge
    are on single-owner edges, so `_hanging_vertex` searches only those.
    """
    vertices = np.asarray(vertices, dtype=float)
    triangles = np.asarray(triangles)
    if vertices.ndim != 2 or vertices.shape[1] != 2:
        raise MeshError("vertices must be an (n, 2) array")
    if not np.all(np.isfinite(vertices)):
        raise MeshError("non-finite vertex coordinates")
    if triangles.ndim != 2 or triangles.shape[1] != 3:
        raise MeshError("triangles must be an (n, 3) array")
    if triangles.size and triangles.dtype.kind not in "iu":
        raise MeshError("triangle vertex indices must be integers")
    triangles = triangles.astype(np.int64, copy=False)
    if triangles.min(initial=0) < 0 or triangles.max(initial=-1) >= len(vertices):
        raise MeshError("triangle vertex index out of range")
    repeated = (triangles == np.roll(triangles, 1, axis=1)).any(axis=1)
    if repeated.any():
        raise MeshError(f"triangle {triangles[np.argmax(repeated)].tolist()} has repeated vertices")
    xy = vertices[np.lexsort(vertices.T)]    # equal points end up side by side
    if np.any(np.all(xy[1:] == xy[:-1], axis=1)):
        raise MeshError("duplicate vertex coordinates")
    if not np.bincount(triangles.ravel(), minlength=len(vertices)).all():
        raise MeshError("mesh contains vertices not used by any triangle")

    v = vertices[triangles]
    areas = 0.5 * ((v[:, 1, 0] - v[:, 0, 0]) * (v[:, 2, 1] - v[:, 0, 1])
                   - (v[:, 1, 1] - v[:, 0, 1]) * (v[:, 2, 0] - v[:, 0, 0]))
    if np.any(areas <= 0):
        bad = int(np.argmin(areas))
        raise MeshError(f"element {bad} is inverted or degenerate (signed area {areas[bad]:g})")

    region = np.zeros(len(triangles), np.int64) if region is None else np.asarray(region)
    if region.shape != (len(triangles),):
        raise MeshError(f"region must list one tag per triangle: got {region.size} "
                        f"for {len(triangles)} triangles")
    if region.dtype.kind not in "iu":
        raise MeshError("region tags must be integers")

    edges, elem_edges, owners, _ = table = _edge_table(triangles, len(vertices))
    derived_boundary = edges[owners[:, 1] < 0]
    ends, local = np.unique(derived_boundary, return_inverse=True)
    hanging = _hanging_vertex(vertices[ends], local.reshape(-1, 2))
    if hanging is not None:
        vid, eid = hanging
        a, b = derived_boundary[eid].tolist()
        raise MeshError(f"hanging vertex {ends[vid]} on edge {(a, b)}")

    if boundary is not None:
        boundary = np.asarray(boundary)
        if boundary.size and (boundary.ndim != 2 or boundary.shape[1] != 2):
            raise MeshError("boundary must be an (n, 2) array of vertex pairs")
        if boundary.size and boundary.dtype.kind not in "iu":
            raise MeshError("boundary vertex indices must be integers")
        given = {tuple(e) for e in np.sort(boundary.reshape(-1, 2), axis=1).tolist()}
        if given != {tuple(e) for e in derived_boundary.tolist()}:
            raise MeshError("open or inconsistent boundary: supplied boundary edges "
                            "do not match the mesh's single-owner edges")

    # a stable sort by length keeps ties in vertex-pair order
    lengths = np.linalg.norm(vertices[edges[:, 1]] - vertices[edges[:, 0]], axis=1)
    rank = np.empty(edges.shape[0], np.int64)
    rank[np.argsort(lengths, kind="stable")] = np.arange(edges.shape[0])
    mesh = Mesh(vertices, triangles, np.argmax(rank[elem_edges], axis=1),
                np.zeros(len(triangles), np.int64), region)
    mesh._cache["edge_table"] = table
    return mesh


# ---------------------------------------------------------------------------
# bisection


def _ranges(lo, hi):
    """The concatenation of ``arange(lo[i], hi[i])`` over i."""
    n = hi - lo
    return np.repeat(lo - np.cumsum(n) + n, n) + np.arange(n.sum())


def _rotated(tri, local):
    """Columns p, a, b of triangles `tri` with refinement edge `local`: the
    edge (a, b), opposite p, in counter-clockwise order."""
    return np.take_along_axis(tri, np.array(_ROTATE)[local], axis=1).T


def _bisect_round(mesh, targets):
    """Bisect the sorted unique element ids `targets` once each, with
    completion, in the order the module docstring gives; returns the new mesh
    and the id in `mesh` of each of its elements or their parents.

    A bisected edge e first splits its entry element: the target, or the
    element reached from the chain edge below.  Then the element q across e
    splits if it refines e; else q was split on its own edge before, and its
    child holding e splits.
    """
    ne, nv = mesh.n_elements, mesh.n_vertices
    edges, elem_edges, owners, _ = mesh.edge_table()
    refe, elems = mesh.refinement_edge, mesh.elements
    ids = np.arange(ne)
    ref = elem_edges[ids, refe]
    pair = owners[ref]
    across = np.where(pair[:, 0] == ids, pair[:, 1], pair[:, 0])
    up = np.where(across >= 0, ref[across], -1)
    up[up == ref] = -1
    parent = np.full(edges.shape[0], -1)
    parent[ref] = up

    # the chain edges: walk up from the targets' refinement edges, keeping
    # each edge once per step so that merging chains cost nothing extra
    on_chain = np.zeros(edges.shape[0], bool)
    slot = np.empty(edges.shape[0], np.int64)
    front = ref[targets]
    while front.size:
        front = front[~on_chain[front]]
        slot[front] = np.arange(front.size)
        front = front[slot[front] == np.arange(front.size)]
        on_chain[front] = True
        front = parent[front]
        front = front[front >= 0]
    chain = np.flatnonzero(on_chain)
    # depth: walk down from the roots; an edge never reached lies on a cycle
    kids = chain[parent[chain] >= 0]
    kids = kids[np.argsort(parent[kids], kind="stable")]
    kid_parent = parent[kids]
    depth = np.full(edges.shape[0], -1)
    levels = [chain[parent[chain] < 0]]
    while levels[-1].size:
        depth[levels[-1]] = len(levels) - 1
        f = levels[-1]
        levels.append(kids[_ranges(np.searchsorted(kid_parent, f),
                                   np.searchsorted(kid_parent, f, side="right"))])
    if np.any(depth[chain] < 0):
        raise MeshError("completion does not terminate: incompatible refinement-edge labeling")
    # T(e): the least target below e, passed up one level at a time
    own = np.full(edges.shape[0], ne)
    np.minimum.at(own, ref[targets], targets)
    least = own.copy()
    for f in reversed(levels[1:-1]):
        np.minimum.at(least, parent[f], least[f])
    bis = chain[np.lexsort((depth[chain], least[chain]))]
    nb = bis.size
    rank = np.full(edges.shape[0], -1)
    rank[bis] = np.arange(nb)

    # entry: T(e) where its chain starts, else the element across the chain
    # edge below, which refines e
    entry = np.full(edges.shape[0], -1)
    start = chain[own[chain] == least[chain]]
    entry[start] = least[start]
    climb = kids[least[kids] == least[kid_parent]]
    refowner = np.empty(edges.shape[0], np.int64)
    refowner[ref] = ids
    entry[parent[climb]] = across[refowner[climb]]
    x = entry[bis]
    side = owners[bis]
    q = np.where(side[:, 0] == x, side[:, 1], side[:, 0])
    has_q = q >= 0
    again = has_q & (ref[q] != bis)     # q split on its own edge: its child holds e
    mids = nv + np.arange(nb)

    # the splits in order, two children each: per edge its entry element,
    # then the element across, which is q or, split again, q's child
    # (p, a, mq) holding q's edge (p, a) or (p, mq, b) holding (b, p)
    n_q = has_q.astype(np.int64)
    at_x = np.arange(nb) + np.cumsum(n_q) - n_q
    at_q = at_x[has_q] + 1
    tri = np.empty((nb + n_q.sum(), 3), np.int64)
    tri[at_x], tri[at_q] = elems[x], elems[q[has_q]]
    local = np.empty(tri.shape[0], np.int64)
    local[at_x], local[at_q] = refe[x], refe[q[has_q]]
    qa = q[again]
    p, a, b = _rotated(elems[qa], refe[qa])
    mq = nv + rank[ref[qa]]
    c1 = bis[again] == elem_edges[qa, (refe[qa] + 2) % 3]
    tri[at_x[again] + 1] = np.where(c1[:, None], np.stack([p, a, mq], 1), np.stack([p, mq, b], 1))
    local[at_x[again] + 1] = np.where(c1, 2, 1)
    root = np.empty(tri.shape[0], np.int64)
    root[at_x], root[at_q] = x, q[has_q]
    gen = mesh.generation[root] + 1
    gen[at_x[again] + 1] += 1
    mid = np.empty(tri.shape[0], np.int64)
    mid[at_x], mid[at_q] = mids, mids[has_q]
    p, a, b = _rotated(tri, local)
    children = np.stack([np.stack([p, a, mid], 1), np.stack([p, mid, b], 1)], 1).reshape(-1, 3)

    # survivors: input elements never split, children not split again
    keep_old = np.ones(ne, bool)
    keep_old[root] = False
    keep_new = np.ones(children.shape[0], bool)
    first = np.empty(ne, np.int64)              # each split element's first child
    first[x], first[q[has_q & ~again]] = 2 * at_x, 2 * at_x[has_q & ~again] + 2
    keep_new[first[qa] + 1 - c1] = False
    ancestor = np.concatenate([ids[keep_old], np.repeat(root, 2)[keep_new]])
    vertices = np.concatenate([mesh.vertices, 0.5 * (mesh.vertices[edges[bis, 0]]
                                                     + mesh.vertices[edges[bis, 1]])])
    return Mesh(vertices, np.concatenate([elems[keep_old], children[keep_new]]),
                np.concatenate([refe[keep_old], np.tile([2, 1], tri.shape[0])[keep_new]]),
                np.concatenate([mesh.generation[keep_old], np.repeat(gen, 2)[keep_new]]),
                mesh.region[ancestor]), ancestor


def _count(name, value, least):
    """`value` as an int, or a MeshError unless it is an integer >= `least`."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)) \
            or value < least:
        raise MeshError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _marked_ids(marked, n):
    """The sorted unique element ids listed in `marked`, all checked.  A
    sorted int64 array, as `dorfler_mark` gives, is taken without a copy."""
    if not isinstance(marked, np.ndarray):
        marked = list(marked)
    ids = np.asarray(marked).ravel()
    if ids.dtype.kind == "b":
        raise MeshError("marked is a boolean mask; pass element ids (np.flatnonzero(mask))")
    if ids.size and ids.dtype.kind not in "iu":
        entries = ids.tolist() if isinstance(marked, np.ndarray) else marked
        bad = next((v for v in entries if not isinstance(v, (int, np.integer))), entries[0])
        raise MeshError(f"marked entry {bad!r} is not an integer element id")
    if np.any(ids[1:] <= ids[:-1]):
        ids = np.unique(ids)
    if ids.size and (ids[0] < 0 or ids[-1] >= n):
        bad = ids[0] if ids[0] < 0 else ids[-1]
        raise MeshError(f"marked element id {bad} out of range for {n} elements")
    return ids.astype(np.int64, copy=False)


def refine(mesh, marked, b=1):
    """Bisect every marked element `b` times, keeping the mesh conforming.

    Completion bisections count: a marked element split as a side effect of a
    neighbour's completion still gets its remaining rounds applied to its
    children.  Round k bisects each marked element's descendants k - 1
    generations down that are still unsplit.
    """
    b = _count("b", b, 1)
    targets = _marked_ids(marked, mesh.n_elements)
    ancestor = np.arange(mesh.n_elements)
    if not targets.size:
        return RefineResult(mesh, ancestor)
    is_marked = np.zeros(mesh.n_elements, bool)
    is_marked[targets] = True
    new = mesh
    for k in range(b):
        if k:
            targets = np.flatnonzero(is_marked[ancestor]
                                     & (new.generation - mesh.generation[ancestor] == k))
        if targets.size:
            new, parent = _bisect_round(new, targets)
            ancestor = ancestor[parent]
    return RefineResult(new, ancestor)


def uniform_refine(mesh, rounds=1):
    for _ in range(_count("rounds", rounds, 0)):
        mesh = refine(mesh, np.arange(mesh.n_elements)).mesh
    return mesh

