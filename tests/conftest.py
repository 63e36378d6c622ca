import os

import hypothesis
import numpy as np
import pytest

from afemeig import Coefficients, build_initial, build_space, uniform_refine
from afemeig.cases import sine_solution, sine_source  # noqa: F401 - shared with the tests
from afemeig.mesh import Mesh

# "suite" for the tier-1 run; CI runs the mesh tests again under "ci", a
# deeper search for the properties that leave max_examples to the profile
hypothesis.settings.register_profile("suite", deadline=None, max_examples=60)
hypothesis.settings.register_profile("ci", deadline=None, max_examples=500)
hypothesis.settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "suite"))


def square_mesh(rounds=0):
    m = build_initial([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)],
                      [(0, 1, 2), (0, 2, 3)])
    return uniform_refine(m, rounds) if rounds else m


def lshape_mesh(rounds=0):
    m = build_initial(
        [(-1, -1), (0, -1), (-1, 0), (0, 0), (1, 0), (-1, 1), (0, 1), (1, 1)],
        [(0, 1, 3), (0, 3, 2), (2, 3, 6), (2, 6, 5), (3, 4, 7), (3, 7, 6)])
    return uniform_refine(m, rounds) if rounds else m


def two_region_square(rounds):
    """square_mesh(rounds) with region tag 1 on the elements right of x = 1/2."""
    m = square_mesh(rounds)
    centroids = m.vertices[m.elements].mean(axis=1)
    return Mesh(m.vertices, m.elements, m.refinement_edge, m.generation,
                (centroids[:, 0] > 0.5).astype(int))


def perturbed(mesh, seed=0):
    """`mesh` with each interior vertex moved by a random offset of at most
    0.15 of the shortest edge per coordinate, too little to invert an
    element; no two elements keep equal or mirrored Jacobians, so no
    symmetry of B^-1 can hide a transposed product."""
    v = mesh.vertices
    edges = mesh.edge_table()[0]
    h = np.linalg.norm(v[edges[:, 1]] - v[edges[:, 0]], axis=1).min()
    interior = np.ones(mesh.n_vertices, bool)
    interior[mesh.boundary_edges] = False
    rng = np.random.default_rng(seed)
    moved = v.copy()
    moved[interior] += rng.uniform(-0.15 * h, 0.15 * h, (interior.sum(), 2))
    return Mesh(moved, mesh.elements, mesh.refinement_edge, mesh.generation,
                mesh.region)


@pytest.fixture(scope="session")
def laplace_coeffs():
    return Coefficients(a=1.0, c=0.0)


@pytest.fixture(scope="session")
def p1_square_space():
    return build_space(square_mesh(5), 1)


@pytest.fixture(scope="session")
def p2_square_space():
    return build_space(square_mesh(4), 2)
