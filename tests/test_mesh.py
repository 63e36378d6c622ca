import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import afemeig.mesh
from afemeig import (MeshError, RefineResult, build_initial, get_problem, harmonic_oscillator,
                     refine, uniform_refine)
from afemeig.mesh import _EDGE_VERTS, _ROTATE, Mesh, _edge_table, _hanging_vertex

from conftest import lshape_mesh, perturbed, square_mesh
from oracles import (edge_lengths, element_neighbors, reference_edge_table,
                     reference_hanging_vertex, reference_refine, refined_set, shape_regularity,
                     signed_areas, validate_mesh)

ROOT = Path(__file__).resolve().parents[1]


def test_build_square_diagonal_refinement_edges():
    m = square_mesh()
    assert m.n_vertices == 4 and m.n_elements == 2
    # the only shared edge is the diagonal; both elements must refine it
    for t in range(2):
        a, b = _EDGE_VERTS[m.refinement_edge[t]]
        edge = {m.elements[t, a], m.elements[t, b]}
        assert edge == {0, 2}


def test_build_single_triangle_longest_edge():
    m = build_initial([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    assert m.n_elements == 1
    assert m.refinement_edge[0] == 0  # hypotenuse is opposite vertex 0


def test_build_lshape_conforming():
    m = lshape_mesh()
    assert m.n_vertices == 8 and m.n_elements == 6
    edges, _, owners, _ = m.edge_table()
    n_owners = (owners >= 0).sum(axis=1)
    interior = n_owners == 2
    # derived by enumerating edges: every interior edge has exactly 2 owners
    assert np.all(n_owners[~interior] == 1)
    assert interior.sum() == edges.shape[0] - m.boundary_edges.shape[0]
    validate_mesh(m)


# three triangles on the edge (0, 1), all counter-clockwise
_FIN_VERTS = [(0, 0), (1, 0), (0.5, 1), (0.5, -1), (0.6, 2)]
_FIN_TRIS = [(0, 1, 2), (1, 0, 3), (0, 1, 4)]

# four triangles around the origin, slit along the positive x-axis
_SLIT_VERTS = [(0, 0), (1, 0), (0, 1), (-1, 0), (0, -1)]
_SLIT_TRIS = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5)]
_SQUARE = dict(vertices=[(0, 0), (1, 0), (1, 1), (0, 1)], triangles=[(0, 1, 2), (0, 2, 3)])
_THREE_OWNERS = "non-conforming input: edge (0, 1) shared by more than 2 elements"


@pytest.mark.parametrize("bad, kind", [
    (dict(vertices=[(0, 0), (1, 0), (0, 1)], triangles=[(0, 2, 1)]), "inverted"),
    (dict(vertices=[(0, 0), (1, 0), (0, 1), (5, 5)], triangles=[(0, 1, 2)]), "unused"),
    (dict(vertices=[(0, 0), (1, 0), (0, 1), (1, 1), (2, 0)],
          triangles=[(0, 1, 2), (1, 3, 2), (1, 4, 3)],
          boundary=[(0, 1)]), "boundary"),
    (dict(vertices=_FIN_VERTS, triangles=_FIN_TRIS), "fin"),
    # a crack along (0, 0)-(1, 0): vertices 1 and 5 are one point, once as -0.0
    (dict(vertices=_SLIT_VERTS + [(1.0, 0.0)], triangles=_SLIT_TRIS), "duplicate"),
    (dict(vertices=_SLIT_VERTS + [(1.0, -0.0)], triangles=_SLIT_TRIS), "duplicate"),
    # a glued segment: the lower triangle's edge (3, 4) overlaps edge (0, 1)
    (dict(vertices=[(0, 0), (2, 0), (1, 1), (1, 0), (-1, 0), (0, -1)],
          triangles=[(0, 1, 2), (3, 4, 5)]), "hanging"),
    # a pinch: the lower triangle touches edge (0, 1) with its vertex 3 only
    (dict(vertices=[(0, 0), (2, 0), (1, 1), (1, 0), (0, -1), (2, -1)],
          triangles=[(0, 1, 2), (3, 4, 5)]), "hanging"),
    # indices that an int cast used to truncate, or a reshape to re-pair
    (dict(_SQUARE, triangles=[(0, 1, 2.7), (0, 2, 3)]), "fraction"),
    (dict(_SQUARE, boundary=[(0.5, 1), (1, 2), (2, 3), (3, 0)]), "fraction"),
    (dict(_SQUARE, boundary=[(0, 1, 2), (2, 3, 0)]), "triples"),
])
def test_build_rejects_bad_input(bad, kind):
    message = {"inverted": "inverted", "unused": "not used", "boundary": "boundary",
               "fin": re.escape(_THREE_OWNERS), "duplicate": "duplicate vertex coordinates",
               "hanging": re.escape("hanging vertex 3 on edge (0, 1)"),
               "fraction": "vertex indices must be integers",
               "triples": re.escape("boundary must be an (n, 2) array")}[kind]
    with pytest.raises(MeshError, match=message):
        build_initial(**bad)


def test_edge_table_rejects_edge_with_three_owners():
    mesh = Mesh(_FIN_VERTS, _FIN_TRIS, np.zeros(3), np.zeros(3), np.zeros(3))
    with pytest.raises(MeshError) as err:
        mesh.edge_table()
    assert str(err.value) == _THREE_OWNERS


def _assert_same_edge_table(elements, nv):
    try:
        want = reference_edge_table(elements)
    except MeshError as err:
        with pytest.raises(MeshError) as got:
            afemeig.mesh._edge_table(elements, nv)
        assert str(got.value) == str(err)
        return
    got = afemeig.mesh._edge_table(elements, nv)
    for g, w in zip(got, want, strict=True):
        assert g.dtype == np.int64 and np.array_equal(g, w)


# random triples on a few vertices: edges of one, two and more owners, so
# that the one-sort table also meets the owners in every order
@given(st.integers(3, 8), st.integers(1, 12), st.integers(0, 2 ** 32 - 1))
def test_edge_table_matches_rowwise_unique_on_random_triples(nv, ne, seed):
    rng = np.random.default_rng(seed)
    elements = np.array([rng.choice(nv, 3, replace=False) for _ in range(ne)], np.int64)
    _assert_same_edge_table(elements, nv)


@pytest.mark.parametrize("name", ["lshape-random", "square-uniform", "oscillator", "tied-fan",
                                  "fin"])
def test_edge_table_matches_rowwise_unique_on_meshes(name):
    if name == "fin":      # the ">2 owners" message
        elements, nv = np.array(_FIN_TRIS), len(_FIN_VERTS)
    else:
        mesh = {"lshape-random": lambda: _randomly_refined_lshape(1, 8),
                "square-uniform": lambda: square_mesh(6),
                "oscillator": lambda: refine(harmonic_oscillator().initial_mesh(), [0, 3]).mesh,
                "tied-fan": lambda: build_initial(*_tied_fans(1))}[name]()
        elements, nv = mesh.elements, mesh.n_vertices
    _assert_same_edge_table(elements, nv)


def test_build_rejects_hanging_vertex():
    # vertex 4 sits in the middle of edge (1, 2) of the left triangle
    verts = [(0, 0), (1, 0), (0, 1), (1, 1), (0.5, 0.5)]
    tris = [(0, 1, 4), (0, 4, 2), (1, 3, 2)]
    with pytest.raises(MeshError, match="hanging"):
        build_initial(verts, tris)


def test_build_accepts_vertex_collinear_outside_edge():
    # vertex 2 is on the line through edge (0, 1) but beyond its end
    verts = [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)]
    tris = [(0, 1, 4), (0, 4, 3), (1, 2, 5), (1, 5, 4)]
    assert build_initial(verts, tris).n_elements == 4


def _grid(n):
    """Vertices and triangles of the unit square cut into n x n squares."""
    x = np.linspace(0.0, 1.0, n + 1)
    verts = np.stack(np.meshgrid(x, x), axis=-1).reshape(-1, 2)
    idx = np.arange((n + 1) ** 2).reshape(n + 1, n + 1)
    a, b, c, d = (idx[:-1, :-1].ravel(), idx[:-1, 1:].ravel(),
                  idx[1:, 1:].ravel(), idx[1:, :-1].ravel())
    tris = np.concatenate([np.stack([a, b, c], 1), np.stack([a, c, d], 1)])
    return verts, tris


def _single_owner_search(verts, tris):
    """`_hanging_vertex` and its all-pairs oracle on the single-owner edges of
    `tris` and their end vertices, as `build_initial` searches them."""
    edges, _, owners, _ = _edge_table(np.asarray(tris), len(verts))
    ends, local = np.unique(edges[owners[:, 1] < 0], return_inverse=True)
    args = np.asarray(verts, float)[ends], local.reshape(-1, 2)
    return _hanging_vertex(*args), reference_hanging_vertex(*args)


@pytest.mark.parametrize("n", [2, 182])
def test_build_hanging_vertex_on_grid(n):
    verts, tris = _grid(n)
    # the search pairs the 4n single-owner edges with their 4n end vertices
    assert _single_owner_search(verts, tris) == (None, None)
    assert build_initial(verts, tris).n_elements == 2 * n * n
    # put a vertex on the diagonal (0, n + 2) of triangle n * n, off its
    # midpoint, and cut the other half of square 0 at it
    new = verts.shape[0]
    verts = np.vstack([verts, [0.9 / n, 0.9 / n]])
    a, b, c = tris[0]
    tris = np.vstack([[(a, b, new), (b, c, new)], tris[1:]])
    found, oracle = _single_owner_search(verts, tris)
    assert found == oracle and found is not None
    with pytest.raises(MeshError, match=rf"hanging vertex {new} on edge \(0, {n + 2}\)"):
        build_initial(verts, tris)


@given(st.sampled_from([1.0, 0.1]), st.booleans(), st.integers(2, 60), st.integers(1, 40),
       st.integers(0, 2 ** 32 - 1))
def test_hanging_vertex_matches_all_pairs_oracle(step, offset, nv, ne, seed):
    # lattice points are exactly collinear, multiples of 0.1 only up to
    # rounding, and an offset of 1e6 puts every coordinate on a grid of
    # 1.2e-10, far coarser than the search's 1e-12 tolerances
    rng = np.random.default_rng(seed)
    verts = rng.integers(-4, 5, (nv, 2)) * step
    if offset:
        verts = verts + rng.choice([-1e6, 1e6], 2)
    verts = rng.permutation(np.unique(verts, axis=0))   # ids not in coordinate order
    assume(len(verts) >= 2)
    edges = np.array([rng.choice(len(verts), 2, replace=False) for _ in range(ne)])
    assert _hanging_vertex(verts, edges) == reference_hanging_vertex(verts, edges)


def test_hanging_vertex_just_outside_the_edges_box():
    # vertex 2 lies 5e-13 below edge (0, 1), whose y spans [0, 1e-13], yet
    # within 1e-12 of its line.  With y from -5 to 5, y = 0 is a border
    # between quadtree cells: only the box's slack reaches vertex 2's cells
    verts = np.array([(0, 0), (1, 1e-13), (0.5, -5e-13)]
                     + [(x, y) for x in (0.25, 0.5, 0.75) for y in (-5, 5)])
    edges = np.array([(0, 1)])
    assert len(verts) > afemeig.mesh._LEAF     # the root is split
    assert _hanging_vertex(verts, edges) == reference_hanging_vertex(verts, edges) == (2, 0)


def test_hanging_vertex_in_a_cluster_finer_than_the_quadtree():
    # five vertices within 4e-11 share one cell of the quadtree's 2^30 x 2^30
    # grid over the unit square, so its deepest node holds more than _LEAF
    verts = np.array([(k * 1e-11, 0) for k in range(5)] + [(1, 1)])
    edges = np.array([(5, 0), (0, 4)])
    assert 5 > afemeig.mesh._LEAF
    assert _hanging_vertex(verts, edges) == reference_hanging_vertex(verts, edges) == (1, 1)


def _star(n):
    """A hub fan of n triangles on the unit circle and n spikes out to radius
    10: 2n elements, whose 2n single-owner edges are the spikes' sides, about
    9 long and slanted every way."""
    th = 2 * np.pi * np.arange(n) / n
    verts = np.vstack([(0, 0), np.c_[np.cos(th), np.sin(th)],
                       10 * np.c_[np.cos(th + np.pi / n), np.sin(th + np.pi / n)]])
    i, j = np.arange(n), (np.arange(n) + 1) % n
    tris = np.vstack([np.c_[np.zeros(n, int), 1 + i, 1 + j], np.c_[1 + i, 1 + n + i, 1 + j]])
    return verts, tris


@pytest.mark.parametrize("chunk", [afemeig.mesh._CHUNK, 1])
@pytest.mark.parametrize("t", [1e-3, 0.5, 0.999])
def test_hanging_vertex_on_a_star_spike(t, chunk, monkeypatch):
    # a small triangle outside spike 100 touches its side (101, 401) at the
    # fraction t from the hub, near either end or at the middle; the search
    # tests its candidate pairs `chunk` at a time
    monkeypatch.setattr(afemeig.mesh, "_CHUNK", chunk)
    n = 300
    verts, tris = _star(n)
    a, b = verts[101], verts[401]
    m = a + t * (b - a)
    along = (b - a) / np.linalg.norm(b - a) * 1e-4
    normal = np.array([-along[1], along[0]])
    normal *= np.sign(normal @ (a - verts[102]))     # away from the spike
    new = len(verts)
    verts = np.vstack([verts, m, m + normal - along, m + normal + along])
    p, q, r = verts[new:]
    ccw = (q - p)[0] * (r - p)[1] > (q - p)[1] * (r - p)[0]
    tris = np.vstack([tris, (new, new + 1, new + 2) if ccw else (new, new + 2, new + 1)])
    found, oracle = _single_owner_search(verts, tris)
    assert found == oracle and found is not None
    with pytest.raises(MeshError, match=rf"hanging vertex {new} on edge \(101, 401\)"):
        build_initial(verts, tris)


def test_star_search_work_grows_near_linearly(monkeypatch):
    # the vertex-edge pairs and quadtree nodes the search visits, as sized by
    # its calls of _ranges: 94,816 and 479,320, an n log n growth.  Testing
    # the vertices in each edge's x or y range would visit 0.87 n^2 pairs,
    # 16 times more for 4 times the spikes
    work = []
    ranges = afemeig.mesh._ranges
    monkeypatch.setattr(afemeig.mesh, "_ranges",
                        lambda lo, hi: work.append(int((hi - lo).sum())) or ranges(lo, hi))
    counts = []
    for n in (1000, 4000):
        work.clear()
        assert build_initial(*_star(n)).n_elements == 2 * n
        counts.append(sum(work))
    assert counts[1] < 6 * counts[0], counts


def test_star_of_1e5_elements_imports_within_1_s_and_250_mb():
    # a fresh process, for its peak RSS: 0.5-0.8 s and 82 MB over the arrays
    # (2-vCPU host), where the scipy.spatial k-d tree took 7.7 s and 80 MB and
    # a descent that held a whole level's (edge, child) pairs 128 MB
    script = ("import resource, sys, time\n"
              "from afemeig import build_initial\n"
              "from test_mesh import _star\n"
              "verts, tris = _star(50000)\n"
              "rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
              "start = time.perf_counter()\n"
              "build_initial(verts, tris)\n"
              "print(time.perf_counter() - start,\n"
              "      (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss) / 1024)\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seconds, rss_mb = map(float, proc.stdout.split())
    assert seconds < 1.0 and rss_mb < 250, (seconds, rss_mb)


def test_build_initial_hands_its_edge_table_to_the_mesh(monkeypatch):
    # the import's edge table is the mesh's: neither edge_table() nor the
    # first refinement computes it again
    verts, tris = _grid(3)
    nv = []
    def spy(elements, n):
        nv.append(n)
        return edge_table(elements, n)
    edge_table = afemeig.mesh._edge_table
    monkeypatch.setattr(afemeig.mesh, "_edge_table", spy)
    mesh = build_initial(verts, tris)
    seeded = mesh.edge_table()
    uniform_refine(mesh)
    assert nv.count(mesh.n_vertices) == 1
    fresh = Mesh(mesh.vertices, mesh.elements, mesh.refinement_edge, mesh.generation,
                 mesh.region).edge_table()
    for got, want in zip(seeded, fresh, strict=True):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


def test_bisect_boundary_triangle():
    m = build_initial([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    m2 = refine(m, [0]).mesh
    assert m2.n_elements == 2
    assert m2.n_vertices == 4
    assert np.allclose(signed_areas(m2), 0.25)
    with pytest.raises(MeshError, match="out of range"):
        refine(m, [99])


def test_validate_mesh_finds_a_hanging_midpoint():
    # the square's first element bisected on the diagonal, its neighbour not
    m = square_mesh()
    p, a, b = m.elements[0, list(_ROTATE[m.refinement_edge[0]])]
    mid = 0.5 * (m.vertices[a] + m.vertices[b])
    hanging = Mesh(np.vstack([m.vertices, mid]), [(p, a, 4), (p, 4, b), m.elements[1]],
                   [2, 1, m.refinement_edge[1]], [1, 1, 0], [0, 0, 0])
    validate_mesh(m)
    with pytest.raises(MeshError, match="hanging vertex at the midpoint of edge"):
        validate_mesh(hanging)


def test_bisect_compatible_pair():
    m = square_mesh()
    m2 = refine(m, [0]).mesh
    assert m2.n_elements == 4
    assert m2.n_vertices == 5
    validate_mesh(m2)


def test_bisect_children_halve_area():
    m = lshape_mesh()
    areas = signed_areas(m)
    m2 = refine(m, [2]).mesh
    # children of every bisected parent have half its area
    assert np.isclose(sorted(signed_areas(m2))[0], areas[2] / 2)


@pytest.mark.parametrize("call, message", [
    (lambda m: refine(m, [2.7]), "marked entry 2.7 is not an integer"),
    (lambda m: refine(m, np.array([0.0, 1.0])), "marked entry 0.0 is not an integer"),
    (lambda m: refine(m, np.ones(m.n_elements, bool)), "boolean mask"),
    (lambda m: refine(m, [-1]), "id -1 out of range for 4 elements"),
    (lambda m: refine(m, [0], b=2.5), "b must be an integer >= 1, got 2.5"),
    (lambda m: refine(m, [0], b=0), "b must be an integer >= 1, got 0"),
    (lambda m: uniform_refine(m, -2), "rounds must be an integer >= 0, got -2"),
    (lambda m: uniform_refine(m, 1.0), "rounds must be an integer >= 0, got 1.0"),
], ids=["float", "float-array", "mask", "negative", "b-float", "b-zero", "rounds-negative",
        "rounds-float"])
def test_refine_rejects_bad_arguments(call, message):
    with pytest.raises(MeshError, match=message):
        call(square_mesh(1))


def test_refine_accepts_id_containers():
    m = square_mesh(1)
    want = reference_refine(m, [1, 3])
    for marked in ([3, 1, 3], {1, 3}, range(1, 4, 2), np.array([[1], [3]], np.int32),
                   (np.int64(1), np.int64(3))):
        _assert_same_refinement(refine(m, marked), want)


def test_refine_empty_marked_is_identity():
    m = square_mesh(2)
    res = refine(m, set())
    assert res.mesh is m
    assert refined_set(res) == frozenset()
    assert np.array_equal(res.ancestor, np.arange(m.n_elements))


def test_refine_result_takes_ancestor_array():
    m = square_mesh()
    assert RefineResult(m, [1, 0]).ancestor.tolist() == [1, 0]
    with pytest.raises(TypeError):  # a child -> parent dict is not an ancestor array
        RefineResult(m, {0: 0, 1: 1})


def test_refine_completion_on_square():
    m = square_mesh()
    res = refine(m, {0}, b=1)
    # the neighbour shares the marked element's refinement edge: both split
    assert refined_set(res) == {0, 1}
    assert res.mesh.n_elements == 4
    assert set(res.ancestor.tolist()) == {0, 1}


def test_refined_set_is_old_minus_survivors():
    m = square_mesh(3)
    rng = np.random.default_rng(7)
    marked = set(rng.choice(m.n_elements, size=4, replace=False).tolist())
    res = refine(m, marked, b=1)
    refined = refined_set(res)
    assert marked <= refined
    survivors = set(res.ancestor.tolist()) - refined
    assert survivors == set(range(m.n_elements)) - refined


def test_refine_b2_bisects_twice():
    m = square_mesh()
    res = refine(m, {0}, b=2)
    validate_mesh(res.mesh)
    # the marked half-square (area 1/2) splits into four grandchildren
    assert np.isclose(signed_areas(res.mesh).min(), 0.125)
    assert res.mesh.generation.max() == 2


def test_nested_children_inside_parent():
    m = lshape_mesh(1)
    res = refine(m, {3, 5}, b=1)
    verts = res.mesh.vertices
    old = m.vertices[m.elements]
    for child, parent in enumerate(res.ancestor):
        tri = old[parent]
        b = np.stack([tri[1] - tri[0], tri[2] - tri[0]], axis=1)
        for v in verts[res.mesh.elements[child]]:
            xi = np.linalg.solve(b, v - tri[0])
            assert xi.min() >= -1e-12 and xi.sum() <= 1 + 1e-12


def test_element_patch():
    m = square_mesh(4)
    nbr = element_neighbors(m)
    interior = int(np.nonzero((nbr >= 0).all(axis=1))[0][0])
    assert len(set(nbr[interior].tolist())) == 3
    # corner element of the initial L-shape has two boundary edges
    ml = lshape_mesh()
    corner = 0
    assert (element_neighbors(ml)[corner] >= 0).sum() == 1
    # symmetry of the neighbour relation
    for t in range(m.n_elements):
        for s in nbr[t][nbr[t] >= 0]:
            assert t in nbr[s]


def test_edge_lengths_equal_one_norm_per_local_edge():
    # the one-pass lengths are those of np.linalg.norm over each local edge
    # vector, bit for bit, on a mesh of mixed sizes and orientations whose
    # vertices are not dyadic, so that the squares and sums round
    mesh = get_problem("oscillator").initial_mesh()
    mesh = perturbed(refine(mesh, np.arange(0, mesh.n_elements, 3), b=2).mesh)
    v = mesh.vertices[mesh.elements]
    expected = np.column_stack([np.linalg.norm(v[:, b] - v[:, a], axis=1)
                                for a, b in _EDGE_VERTS])
    got = edge_lengths(mesh)
    assert got.shape == (mesh.n_elements, 3)
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


def test_shape_regularity_closed_forms():
    eq = build_initial([(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)], [(0, 1, 2)])
    assert np.isclose(shape_regularity(eq), math.sqrt(3))
    ri = build_initial([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    # h / (2r) with r = (a + b - c) / 2 for a right triangle
    assert np.isclose(shape_regularity(ri), math.sqrt(2) / (2 - math.sqrt(2)))


def test_shape_regularity_stable_under_bisection():
    m = square_mesh()
    early = set()
    mm = m
    for k in range(10):
        mm = uniform_refine(mm)
        val = round(shape_regularity(mm), 10)
        if k < 2:
            early.add(val)
        else:
            assert val in early


def test_shape_regularity_below_level3_max():
    m = lshape_mesh()
    level3 = max(shape_regularity(uniform_refine(m, k)) for k in range(4))
    rng = np.random.default_rng(3)
    mm = uniform_refine(m, 2)
    for _ in range(8):
        marked = set(rng.choice(mm.n_elements, size=max(1, mm.n_elements // 5),
                                replace=False).tolist())
        mm = refine(mm, marked).mesh
        assert shape_regularity(mm) <= level3 + 1e-12


def test_random_marking_fuzz_conformity_and_complexity():
    mesh = lshape_mesh(1)
    n0 = mesh.n_elements
    rng = np.random.default_rng(42)
    total_marked = 0
    ratios = []
    for _ in range(20):
        k = max(1, mesh.n_elements // 6)
        marked = set(rng.choice(mesh.n_elements, size=k, replace=False).tolist())
        res = refine(mesh, marked)
        validate_mesh(res.mesh)
        assert marked <= refined_set(res)
        mesh = res.mesh
        total_marked += len(marked)
        ratios.append((mesh.n_elements - n0) / total_marked)
    # completion cost stays proportional to the cumulative marked count
    assert max(ratios) < 6.0
    assert max(ratios[10:]) <= max(ratios[:10]) * 1.5


@settings(max_examples=25)
@given(st.lists(st.integers(min_value=0, max_value=10 ** 6), min_size=0, max_size=6),
       st.integers(min_value=0, max_value=3))
def test_refine_conformity_property(raw_marks, rounds):
    mesh = square_mesh(2 + rounds % 2)
    marked = {m % mesh.n_elements for m in raw_marks}
    res = refine(mesh, marked)
    validate_mesh(res.mesh)
    assert refined_set(res) <= set(range(mesh.n_elements))
    assert marked <= refined_set(res)


def _assert_same_refinement(got, want):
    """`got` and `want` agree byte for byte: every mesh array, the ancestor
    array and the refined set."""
    for name in ("vertices", "elements", "refinement_edge", "generation", "region"):
        g, w = getattr(got.mesh, name), getattr(want.mesh, name)
        assert (g.dtype, g.shape) == (w.dtype, w.shape) and g.tobytes() == w.tobytes(), name
    assert got.ancestor.dtype == want.ancestor.dtype
    assert got.ancestor.tobytes() == want.ancestor.tobytes()
    assert refined_set(got) == refined_set(want)


_FUZZ_MESHES = {
    "square": lambda: square_mesh(1),
    "lshape": lambda: lshape_mesh(),
    "oscillator": lambda: harmonic_oscillator().initial_mesh(),
    "tied-fan": lambda: build_initial(*_tied_fans(1)),
}


# the number of examples follows the Hypothesis profile (see conftest.py)
@given(st.sampled_from(sorted(_FUZZ_MESHES)), st.sampled_from([1, 2, 3]),
       st.lists(st.one_of(st.just("uniform"), st.floats(0.02, 0.5)), min_size=1, max_size=4),
       st.integers(0, 2 ** 32 - 1))
def test_refine_matches_reference_bisector(name, b, steps, seed):
    # each step marks a random share of the elements, or all of them, and
    # refines the previous step's mesh, so later steps see mixed generations
    mesh, rng = _FUZZ_MESHES[name](), np.random.default_rng(seed)
    for share in steps:
        if share == "uniform":
            marked = np.arange(mesh.n_elements)
        else:
            size = max(1, int(share * mesh.n_elements))
            marked = rng.choice(mesh.n_elements, size=size, replace=False)
        got = refine(mesh, marked, b=b)
        _assert_same_refinement(got, reference_refine(mesh, marked, b=b))
        mesh = got.mesh
        if mesh.n_elements > 3000:
            break


def test_generation_increments():
    m = square_mesh()
    res = refine(m, {0, 1})
    assert np.all(res.mesh.generation == 1)


def test_json_round_trip(tmp_path):
    # a written mesh reads back through a file: spec whose "mesh" entry is its path
    m = lshape_mesh(1)
    two = build_initial(m.vertices, m.elements, region=np.arange(m.n_elements) % 2)
    for name, mesh in (("mesh", m), ("two", two)):
        path = tmp_path / f"{name}.json"
        mesh.to_json(path)
        spec = tmp_path / f"{name}_spec.json"
        spec.write_text(json.dumps({"mesh": str(path)}))
        again = get_problem(f"file:{spec}").initial_mesh()
        assert np.allclose(mesh.vertices, again.vertices)
        assert np.array_equal(mesh.elements, again.elements)
        assert np.array_equal(mesh.region, again.region)
    obj = json.loads(m.to_json())
    assert set(obj) == {"vertices", "elements", "boundary", "region"}


@pytest.mark.parametrize("region, message", [
    ([0, 1, 0], "one tag per triangle: got 3 for 2 triangles"),
    ([0, 1.5], "must be integers"),
    (["0", "1"], "must be integers"),
])
def test_build_rejects_bad_region(region, message):
    with pytest.raises(MeshError, match=message):
        build_initial([(0, 0), (1, 0), (1, 1), (0, 1)], [(0, 1, 2), (0, 2, 3)],
                      region=region)


def test_vtk_export(tmp_path):
    m = square_mesh(1)
    path = tmp_path / "mesh.vtk"
    m.to_vtk(path)
    text = path.read_text().splitlines()
    assert text[0].startswith("# vtk DataFile")
    assert f"POINTS {m.n_vertices} float" in text
    assert f"CELLS {m.n_elements} {4 * m.n_elements}" in text


# a regular hexagon cut into six triangles around its centre
_FAN_VERTS = [(0, 0), (1, 0), (0.5, math.sqrt(3) / 2), (-0.5, math.sqrt(3) / 2),
              (-1, 0), (-0.5, -math.sqrt(3) / 2), (0.5, -math.sqrt(3) / 2)]
_FAN_TRIS = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 6), (0, 6, 1)]


def test_incompatible_labeling_detected_and_repaired():
    # every edge of the regular hexagon fan has length 1 up to rounding, so a
    # labeling by length alone could cycle; the strict edge order cannot
    m = build_initial(_FAN_VERTS, _FAN_TRIS)
    for tok in range(m.n_elements):
        validate_mesh(refine(m, [tok]).mesh)


def test_incompatible_labeling_fails_fast():
    # on the fan above, label each triangle with the spoke it shares with the
    # next one: completion then cycles, and must stop with an error
    zeros = np.zeros(6, np.int64)
    # local edge 1 is (v2, v0), the spoke to the next triangle
    m = Mesh(_FAN_VERTS, _FAN_TRIS, np.ones(6, np.int64), zeros, zeros)
    start = time.perf_counter()
    for tok in range(m.n_elements):
        with pytest.raises(MeshError, match="does not terminate"):
            refine(m, [tok])
    with pytest.raises(MeshError, match="does not terminate"):
        refine(m, range(m.n_elements), b=2)
    assert time.perf_counter() - start < 1.0


def test_incompatible_labeling_fails_fast_at_scale():
    # 2,000 copies of the cyclic fan above, side by side
    n = 2000
    verts = np.concatenate([np.array(_FAN_VERTS) + (2.5 * k, 0.0) for k in range(n)])
    tris = np.concatenate([np.array(_FAN_TRIS) + 7 * k for k in range(n)])
    zeros = np.zeros(6 * n, np.int64)
    m = Mesh(verts, tris, np.ones(6 * n, np.int64), zeros, zeros)
    for b in (1, 2):
        start = time.perf_counter()
        with pytest.raises(MeshError, match="does not terminate"):
            refine(m, range(m.n_elements), b=b)
        assert time.perf_counter() - start < 1.0


# twelve integer points on the circle of radius 5: every spoke has length
# exactly 5, longer than every rim edge, so each fan triangle ties its two
# spokes, and "lowest local index" would label a 12-cycle around the hub
_RIM5 = [(5, 0), (4, 3), (3, 4), (0, 5), (-3, 4), (-4, 3), (-5, 0), (-4, -3),
         (-3, -4), (0, -5), (3, -4), (4, -3)]


def _tied_fans(m):
    """`m` disjoint 12-triangle fans side by side."""
    one = np.array([(0, 0)] + _RIM5, float)
    verts = np.concatenate([one + (11.0 * k, 0.0) for k in range(m)])
    tris = np.array([(0, 1 + i, 1 + (i + 1) % 12) for i in range(12)])
    return verts, np.concatenate([tris + 13 * k for k in range(m)])


def test_tied_spoke_fan_labeling_terminates():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = build_initial(*_tied_fans(1))
    for tok in range(m.n_elements):
        validate_mesh(refine(m, [tok]).mesh)
    validate_mesh(refine(m, range(m.n_elements), b=2).mesh)


def test_tied_spoke_fans_build_in_linear_time():
    # longest-edge labels plus cycle-repair sweeps took about 7 s for these 24k
    # elements, quadratic in their number; the strict edge order takes 0.4 s
    # (2-vCPU host)
    verts, tris = _tied_fans(2000)
    start = time.perf_counter()
    build_initial(verts, tris)
    assert time.perf_counter() - start < 1.25


def test_import_does_not_load_scipy_spatial():
    # a fresh process, since other tests may import scipy.spatial themselves
    script = ("import sys\n"
              "from afemeig import build_initial\n"
              "from test_mesh import _tied_fans\n"
              "print('scipy.spatial' in sys.modules)\n"
              "build_initial(*_tied_fans(2000))\n"
              "print('scipy.spatial' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


def _digest(arrays):
    h = hashlib.sha256()
    for arr in arrays:
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _mesh_digest(mesh):
    return _digest((mesh.vertices, mesh.elements, mesh.refinement_edge, mesh.generation,
                    mesh.region, mesh.boundary_edges))


def _randomly_refined_lshape(b, rounds):
    mesh = lshape_mesh(1)
    rng = np.random.default_rng(5)
    for _ in range(rounds):
        marked = rng.choice(mesh.n_elements, size=max(1, mesh.n_elements // 5), replace=False)
        mesh = refine(mesh, marked, b=b).mesh
    return mesh


# Dörfler marking breaks ties by element id, so refinement must keep producing
# the same vertex and element numbering, not only the same triangles.
@pytest.mark.parametrize("b, rounds, digest", [
    (1, 12, "d67712873ca550f9762c1c9cabf1b3d32c4e638899ef0b4ca8c68924a6b779cf"),
    (2, 5, "7dbb853a7b289378440390dfd84ed8123f9cf28bf47cd82089f3896442284f5c"),
    # round k + 1 bisects the children of every round-k target, also of a
    # target that completion had split in an earlier round
    (3, 4, "5527c4fd6b3d88669fdd69af56bfe689a9c62a6122f42fc0569e5621b74b1d33"),
])
def test_refine_output_is_pinned(b, rounds, digest):
    assert _mesh_digest(_randomly_refined_lshape(b, rounds)) == digest


# P2 dof numbering, the estimator's edge loop and the neighbour array all
# follow the edge table's order
@pytest.mark.parametrize("b, rounds, digest", [
    (1, 12, "2e838d191b95a597cbddc879e45501faf65b7fcc0f2dedeaf637afcca801a50d"),
    (2, 5, "631524b4a710b0f8ae929251f4aa990368276c58727eff4011c8eec657fda7ad"),
    (3, 4, "c355eccf0df951a8b0abe5b7241ed325611f3a34d99665cb4c385fc4b4e6dbbb"),
])
def test_edge_table_is_pinned(b, rounds, digest):
    assert _digest(_randomly_refined_lshape(b, rounds).edge_table()) == digest


def test_uniform_refine_output_is_pinned():
    assert _mesh_digest(uniform_refine(lshape_mesh(1), 4)) == \
        "d7070144e009ffe818cfabaae4134e65ff7ade870afbb3b43b78a38d4e55f06c"
