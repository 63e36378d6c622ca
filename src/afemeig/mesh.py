"""Conforming triangulations under newest-vertex bisection.

An element stores its three vertex indices in positive (counter-clockwise)
orientation together with the local index of its refinement edge: local edge
``i`` is the edge opposite local vertex ``i``.  Bisecting an element inserts
the midpoint of its refinement edge and hands both children the inherited
parent edge as their new refinement edge, which is the edge opposite the
newly created vertex.  Conformity is maintained by recursively bisecting the
neighbour across the refinement edge first whenever its own refinement edge
disagrees (implemented with an explicit stack, so chains of any length are
fine).

The initial labeling is the largest edge of each element under one strict
order on edges: length first, then the sorted vertex pair.  It makes every
completion chain terminate, because along a chain the refinement edges
strictly increase in that order.

Refinement works on the element-neighbour array: a bisection rewires the
pointers of its two children and of the parent's two outer neighbours in
O(1).  Each `refine` call still has an O(elements) cost on top: it converts
the input mesh's arrays to Python lists, and `freeze` assembles the new
mesh's arrays by numpy indexing.
"""

import itertools
import json

import numpy as np

_EDGE_VERTS = ((1, 2), (2, 0), (0, 1))  # local edge i is opposite local vertex i
_ROTATE = ((0, 1, 2), (1, 2, 0), (2, 0, 1))  # local vertices i, i + 1, i + 2 (mod 3)


class MeshError(ValueError):
    """Invalid mesh input or an operation on a broken mesh."""


def _unique_edges(pairs, nv):
    """What ``np.unique(pairs, axis=0, return_inverse=True, return_counts=True)``
    returns for (n, 2) int pairs sorted within each row, with every entry below
    `nv`.  It sorts the 1-D keys ``a*nv + b``, whose order is the rows'
    lexicographic order, which is far cheaper than a row-wise unique."""
    nv = np.int64(nv)
    keys, inverse, counts = np.unique(pairs[:, 0] * nv + pairs[:, 1],
                                      return_inverse=True, return_counts=True)
    return np.stack(np.divmod(keys, nv), axis=1), inverse, counts


class Mesh:
    """Immutable conforming triangulation.

    Attributes
    ----------
    vertices : (nv, 2) float array
    elements : (ne, 3) int array, CCW vertex indices
    refinement_edge : (ne,) int array with values in {0, 1, 2}
    generation : (ne,) int array, bisection depth of each element
    region : (ne,) int array, material tag for piecewise coefficients
    boundary_edges : (nb, 2) int array of sorted vertex pairs (all Dirichlet)
    """

    def __init__(self, vertices, elements, refinement_edge, generation, region,
                 boundary_edges):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.elements = np.ascontiguousarray(elements, dtype=np.int64)
        self.refinement_edge = np.ascontiguousarray(refinement_edge, dtype=np.int64)
        self.generation = np.ascontiguousarray(generation, dtype=np.int64)
        self.region = np.ascontiguousarray(region, dtype=np.int64)
        self.boundary_edges = np.ascontiguousarray(boundary_edges, dtype=np.int64)
        self._cache = {}

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_elements(self):
        return self.elements.shape[0]

    # -- derived geometry -------------------------------------------------

    def signed_areas(self):
        v = self.vertices[self.elements]
        d1 = v[:, 1] - v[:, 0]
        d2 = v[:, 2] - v[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    def edge_lengths(self):
        """Per-element local edge lengths, shape (ne, 3)."""
        v = self.vertices[self.elements]
        out = np.empty((self.n_elements, 3))
        for i, (a, b) in enumerate(_EDGE_VERTS):
            out[:, i] = np.linalg.norm(v[:, b] - v[:, a], axis=1)
        return out

    def diameters(self):
        return self.edge_lengths().max(axis=1)

    def edge_table(self):
        """Unique edges plus ownership.

        Returns ``(edges, elem_edges, owners, owner_local)`` where `edges` is
        (nE, 2) sorted vertex pairs in lexicographic order, `elem_edges` maps
        (ne, 3) local edges to edge ids, `owners` is (nE, 2) element ids with
        -1 for a missing second owner, and `owner_local` the matching local
        edge indices.
        """
        if "edge_table" in self._cache:
            return self._cache["edge_table"]
        ne = self.n_elements
        pairs = self.elements[:, _EDGE_VERTS].reshape(-1, 2)
        pairs = np.sort(pairs, axis=1)
        edges, inverse, counts = _unique_edges(pairs, self.n_vertices)
        elem_edges = inverse.reshape(ne, 3)
        if counts.max(initial=0) > 2:
            bad = int(np.argmax(counts))
            raise MeshError(f"edge {tuple(edges[bad])} shared by more than 2 elements")
        owners = -np.ones((edges.shape[0], 2), dtype=np.int64)
        owner_local = -np.ones((edges.shape[0], 2), dtype=np.int64)
        order = np.argsort(inverse, kind="stable")
        elem_of = order // 3
        local_of = order % 3
        starts = np.zeros(edges.shape[0], dtype=np.int64)
        starts[1:] = np.cumsum(counts)[:-1]
        owners[:, 0] = elem_of[starts]
        owner_local[:, 0] = local_of[starts]
        dbl = counts == 2
        owners[dbl, 1] = elem_of[starts[dbl] + 1]
        owner_local[dbl, 1] = local_of[starts[dbl] + 1]
        self._cache["edge_table"] = (edges, elem_edges, owners, owner_local)
        return self._cache["edge_table"]

    def element_neighbors(self):
        """(ne, 3) neighbour element id across each local edge, -1 on boundary."""
        if "neighbors" in self._cache:
            return self._cache["neighbors"]
        edges, elem_edges, owners, owner_local = self.edge_table()
        nbr = -np.ones((self.n_elements, 3), dtype=np.int64)
        for s in range(2):
            mask = owners[:, s] >= 0
            other = owners[mask, 1 - s]
            nbr[owners[mask, s], owner_local[mask, s]] = other
        self._cache["neighbors"] = nbr
        return nbr

    def shape_regularity(self):
        """max over elements of diameter / inscribed-ball diameter."""
        lens = self.edge_lengths()
        areas = self.signed_areas()
        if np.any(areas <= 0):
            raise MeshError("degenerate or inverted element")
        h = lens.max(axis=1)
        perim = lens.sum(axis=1)
        rho = 4.0 * areas / perim  # inradius = area / semi-perimeter
        return float(np.max(h / rho))

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

    refined_set -- ids of old-mesh elements that are no longer present
    ancestor    -- (ne_new,) old-mesh ancestor id of every new element
                   (itself for elements carried over unchanged)
    """

    def __init__(self, mesh, refined_set, ancestor):
        self.mesh = mesh
        self.refined_set = frozenset(refined_set)
        self.ancestor = np.asarray(ancestor, dtype=np.int64)


# Up to this many vertex-edge pairs, testing every pair is faster than
# importing scipy.spatial (~0.1 s) and querying a k-d tree: in fresh
# processes the two cost the same, 0.1-0.13 s, at 0.45-0.66 million pairs
# (2-vCPU VM, numpy 2.4.6, scipy 1.17.1), with ~80 bytes of temporaries a pair.
_ALL_PAIRS_MAX = 1 << 19


def _hanging_vertex(vertices, edges):
    """First ``(vertex, edge id)`` with the vertex strictly inside the edge, or
    None.  Such a vertex lies within half the edge length of its midpoint, so
    on large meshes only the vertices a k-d tree finds there are tested."""
    pa, pb = vertices[edges[:, 0]], vertices[edges[:, 1]]
    d = pb - pa
    L2 = np.einsum("ij,ij->i", d, d)
    if edges.shape[0] * vertices.shape[0] <= _ALL_PAIRS_MAX:
        eid, vid = np.divmod(np.arange(edges.shape[0] * vertices.shape[0]), vertices.shape[0])
    else:
        from scipy.spatial import cKDTree
        near = cKDTree(vertices).query_ball_point(0.5 * (pa + pb),
                                                  0.5 * np.sqrt(L2) * (1 + 1e-9) + 1e-12,
                                                  return_sorted=True)
        eid = np.repeat(np.arange(edges.shape[0]), [len(c) for c in near])
        vid = np.fromiter(itertools.chain.from_iterable(near), np.int64, eid.size)
    rel = vertices[vid] - pa[eid]
    de = d[eid]
    t = np.einsum("ij,ij->i", rel, de) / L2[eid]
    on_line = np.abs(rel[:, 0] * de[:, 1] - rel[:, 1] * de[:, 0]) <= 1e-12 * np.sqrt(L2[eid])
    hit = on_line & (t > 1e-10) & (t < 1 - 1e-10) & np.all(edges[eid] != vid[:, None], axis=1)
    if not hit.any():
        return None
    k = np.argmax(hit)  # pairs run in (edge, vertex) order
    return int(vid[k]), int(eid[k])


def build_initial(vertices, triangles, boundary=None, region=None):
    """Construct a mesh from raw arrays, labeling each element's largest edge.

    Edges are ordered strictly by length, then by their sorted vertex pair,
    and every element refines its largest edge in that order.  Completion
    then terminates: along a chain t -> n (n across t's refinement edge,
    refining another edge) n's refinement edge is larger than t's, so the
    refinement edges strictly increase and no chain can close on itself.

    `region` gives one integer material tag per triangle (default all 0).
    """
    vertices = np.asarray(vertices, dtype=float)
    triangles = np.asarray(triangles, dtype=np.int64)
    if vertices.ndim != 2 or vertices.shape[1] != 2:
        raise MeshError("vertices must be an (n, 2) array")
    if not np.all(np.isfinite(vertices)):
        raise MeshError("non-finite vertex coordinates")
    if triangles.ndim != 2 or triangles.shape[1] != 3:
        raise MeshError("triangles must be an (n, 3) array")
    if triangles.min(initial=0) < 0 or triangles.max(initial=-1) >= len(vertices):
        raise MeshError("triangle vertex index out of range")
    repeated = (triangles == np.roll(triangles, 1, axis=1)).any(axis=1)
    if repeated.any():
        raise MeshError(f"triangle {triangles[np.argmax(repeated)].tolist()} has repeated vertices")
    uniq = np.unique(vertices, axis=0)
    if uniq.shape[0] != vertices.shape[0]:
        raise MeshError("duplicate vertex coordinates")
    used = np.unique(triangles)
    if used.size != vertices.shape[0]:
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

    pairs = np.sort(triangles[:, _EDGE_VERTS].reshape(-1, 2), axis=1)
    edges, inverse, counts = _unique_edges(pairs, len(vertices))
    if np.any(counts > 2):
        bad = edges[counts > 2][0]
        raise MeshError(f"non-conforming input: edge {tuple(bad)} has {counts.max()} owners")
    derived_boundary = edges[counts == 1]

    hanging = _hanging_vertex(vertices, edges)
    if hanging is not None:
        vid, eid = hanging
        a, b = edges[eid]
        raise MeshError(f"hanging vertex {vid} on edge {(int(a), int(b))}")

    if boundary is not None:
        given = {tuple(sorted(map(int, e))) for e in np.asarray(boundary).reshape(-1, 2)}
        derived = {tuple(e) for e in derived_boundary.tolist()}
        if given != derived:
            raise MeshError("open or inconsistent boundary: supplied boundary edges "
                            "do not match the mesh's single-owner edges")

    # a stable sort by length keeps ties in vertex-pair order
    lengths = np.linalg.norm(vertices[edges[:, 1]] - vertices[edges[:, 0]], axis=1)
    rank = np.empty(edges.shape[0], np.int64)
    rank[np.argsort(lengths, kind="stable")] = np.arange(edges.shape[0])
    return Mesh(vertices, triangles, np.argmax(rank[inverse.reshape(-1, 3)], axis=1),
                np.zeros(len(triangles), np.int64), region, derived_boundary)


# ---------------------------------------------------------------------------
# bisection


class _RefineWork:
    """Mutable append-only refinement workspace over the neighbour array.

    Element "tokens" are never reused: bisecting a token marks it dead and
    appends two children.  Tokens < ne_old are the elements of the input
    mesh; ``root`` maps every token to its input-mesh ancestor.  ``nbr[t][i]``
    is the token across local edge ``i`` of `t` (-1 on the boundary).  The
    completion stack of a terminating labeling never holds a token twice, so
    a stack taller than the token count means an incompatible labeling.
    """

    def __init__(self, mesh):
        self.mesh = mesh
        self.ne_old = mesh.n_elements
        self.verts = mesh.vertices.tolist()
        self.elems = mesh.elements.tolist()
        self.refe = mesh.refinement_edge.tolist()
        self.gen = mesh.generation.tolist()
        self.nbr = mesh.element_neighbors().tolist()
        self.alive = [True] * self.ne_old
        self.root = list(range(self.ne_old))
        self.children = {}

    def _split(self, tok, mid):
        """Replace `tok` by its two children across its refinement edge,
        using existing midpoint vertex id `mid`.  Each child's local edge 0
        (its half of the bisected edge) still points at tok's neighbour
        there; the caller links it to the partner's child."""
        v, nb = self.elems[tok], self.nbr[tok]
        i, j, k = _ROTATE[self.refe[tok]]
        p, a, b = v[i], v[j], v[k]
        n_ab, n_bp, n_pa = nb[i], nb[j], nb[k]
        c1 = len(self.elems)
        c2 = c1 + 1
        self.elems += [(p, a, mid), (p, mid, b)]
        self.refe += [2, 1]          # edges (p, a) and (b, p), opposite the new vertex
        self.gen += [self.gen[tok] + 1] * 2
        self.root += [self.root[tok]] * 2
        self.nbr += [[n_ab, c2, n_pa], [n_ab, n_bp, c1]]
        self.alive[tok] = False
        self.alive += [True, True]
        for n, c in ((n_pa, c1), (n_bp, c2)):
            if n >= 0:
                row = self.nbr[n]
                row[row.index(tok)] = c
        self.children[tok] = (c1, c2)
        return c1, c2

    def bisect_conforming(self, tok):
        """Bisect `tok`, recursively pre-bisecting incompatible neighbours."""
        nbr, refe, alive = self.nbr, self.refe, self.alive
        stack = [tok]
        while stack:
            t = stack[-1]
            if not alive[t]:
                stack.pop()
                continue
            partner = nbr[t][refe[t]]
            if partner >= 0 and nbr[partner][refe[partner]] != t:
                if len(stack) > len(self.elems):
                    raise MeshError("completion does not terminate: incompatible "
                                    "refinement-edge labeling")
                stack.append(partner)
                continue
            stack.pop()
            v, (_, j, k) = self.elems[t], _ROTATE[refe[t]]
            va, vb = self.verts[v[j]], self.verts[v[k]]
            mid = len(self.verts)
            self.verts.append((0.5 * (va[0] + vb[0]), 0.5 * (va[1] + vb[1])))
            c1, c2 = self._split(t, mid)
            if partner >= 0:
                d1, d2 = self._split(partner, mid)
                # the partner runs the shared edge the other way: d2 holds the
                # half that c1 holds, d1 the half of c2
                nbr[c1][0], nbr[d2][0] = d2, c1
                nbr[c2][0], nbr[d1][0] = d1, c2

    def freeze(self):
        """Produce the new Mesh plus (refined_set, ancestor array)."""
        mesh, ne_old = self.mesh, self.ne_old
        alive = np.array(self.alive)
        tokens = np.flatnonzero(alive)

        def rows(old, new):
            """The input mesh's rows followed by those of the appended tokens."""
            return np.concatenate([old, np.array(new, old.dtype).reshape((-1,) + old.shape[1:])])

        elements = rows(mesh.elements, self.elems[ne_old:])[tokens]
        # a split never changes which slots of a surviving element lie on the
        # boundary, so the input mesh's neighbour array serves for old tokens
        t, local = np.nonzero(rows(mesh.element_neighbors(), self.nbr[ne_old:])[tokens] < 0)
        pairs = np.sort(elements[t[:, None], np.array(_EDGE_VERTS)[local]], axis=1)
        ancestor = rows(np.arange(ne_old), self.root[ne_old:])[tokens]
        new_mesh = Mesh(rows(mesh.vertices, self.verts[mesh.n_vertices:]), elements,
                        rows(mesh.refinement_edge, self.refe[ne_old:])[tokens],
                        rows(mesh.generation, self.gen[ne_old:])[tokens],
                        mesh.region[ancestor], _unique_edges(pairs, len(self.verts))[0])
        refined = np.flatnonzero(~alive[:ne_old]).tolist()
        return new_mesh, refined, ancestor


def refine(mesh, marked, b=1):
    """Bisect every marked element `b` times, keeping the mesh conforming.

    Completion bisections count: a marked element split as a side effect of a
    neighbour's completion still gets its remaining rounds applied to its
    children.
    """
    if b < 1:
        raise MeshError("b must be a positive integer")
    targets = sorted(set(int(t) for t in marked))
    if targets and (targets[0] < 0 or targets[-1] >= mesh.n_elements):
        raise MeshError("marked element id out of range")
    if not targets:
        return RefineResult(mesh, set(), np.arange(mesh.n_elements))
    work = _RefineWork(mesh)
    for _ in range(b):
        for tok in targets:
            if work.alive[tok]:
                work.bisect_conforming(tok)
        targets = sorted(c for tok in targets for c in work.children[tok])
    return RefineResult(*work.freeze())


def uniform_refine(mesh, rounds=1):
    for _ in range(rounds):
        mesh = refine(mesh, range(mesh.n_elements)).mesh
    return mesh


def from_json(source):
    """Build a mesh from the JSON exchange format (string, path, or dict)."""
    if isinstance(source, dict):
        obj = source
    elif isinstance(source, str) and source.lstrip().startswith("{"):
        obj = json.loads(source)
    else:
        with open(source) as fh:
            obj = json.load(fh)
    return build_initial(np.array(obj["vertices"], float),
                         np.array(obj["elements"], np.int64),
                         boundary=obj.get("boundary"), region=obj.get("region"))
