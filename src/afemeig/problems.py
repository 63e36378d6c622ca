"""Built-in model problems with analytic ground truth, at 2D desk scale.

square      -- Laplace on the unit square: lambda = pi^2 (m^2 + n^2) with
               product-sine eigenfunctions; cluster 2 is the first double one.
oscillator  -- quantum harmonic oscillator -1/2 Lap + 1/2 |x|^2 truncated to a
               box; lambda = nx + ny + 1 with Hermite-Gaussian eigenfunctions,
               so the leading clusters have sizes 1, 2, 3.
lshape      -- Laplace on the L-shaped domain; the reentrant corner makes the
               first eigenfunction singular.  No closed form: a frozen
               extrapolated reference value stands in for analytic truth.

Custom problems load from JSON: a mesh (inline or file path) plus coefficient
descriptors (constant A, polynomial or radial c).
"""

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .fem import Coefficients
from .gap import ExactEigenspace
from .mesh import build_initial


@dataclass
class ProblemSpec:
    name: str
    vertices: np.ndarray
    triangles: np.ndarray
    coefficients: Coefficients
    exact_clusters: list = None
    reference_values: list = None  # (cluster_index, lambda_ref, provenance)
    boundary: list = None          # vertex pairs checked against the mesh's own
    region: list = None            # one material tag per triangle, default all 0

    def initial_mesh(self):
        return build_initial(self.vertices, self.triangles, boundary=self.boundary,
                             region=self.region)


def square_laplace():
    """-Laplace on (0,1)^2 with homogeneous Dirichlet data."""
    two_pi2 = 2.0 * math.pi ** 2
    five_pi2 = 5.0 * math.pi ** 2

    def sine(m, n):
        def fn(p):
            sx, cx = np.sin(m * np.pi * p[:, 0]), np.cos(m * np.pi * p[:, 0])
            sy, cy = np.sin(n * np.pi * p[:, 1]), np.cos(n * np.pi * p[:, 1])
            return np.stack([2.0 * sx * sy, 2.0 * m * np.pi * cx * sy,
                             2.0 * n * np.pi * sx * cy])

        return fn

    clusters = [
        ExactEigenspace(two_pi2, [sine(1, 1)]),
        ExactEigenspace(five_pi2, [sine(1, 2), sine(2, 1)]),
    ]
    return ProblemSpec(
        name="square",
        vertices=np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]),
        triangles=np.array([(0, 1, 2), (0, 2, 3)]),
        coefficients=Coefficients(a=1.0, c=0.0),
        exact_clusters=clusters,
        reference_values=[(1, two_pi2, "separation of variables"),
                          (2, five_pi2, "separation of variables")],
    )


def _hermite_norm(n):
    return 1.0 / math.sqrt(2.0 ** n * math.factorial(n) * math.sqrt(math.pi))


def _hermite(n, t):
    """Physicists' H_n(t) and H_n'(t) = 2n H_{n-1}(t) by the three-term
    recurrence H_{k+1} = 2t H_k - 2k H_{k-1}."""
    if n == 0:
        return np.ones_like(t), np.zeros_like(t)
    prev, h = np.ones_like(t), 2.0 * t
    for k in range(1, n):
        prev, h = h, 2.0 * t * h - 2.0 * k * prev
    return h, 2.0 * n * prev


def harmonic_oscillator(box_half_width=5.5):
    """-1/2 Lap + 1/2 |x|^2 on the square box (-L, L)^2.

    In 2D the spectrum is nx + ny + 1, so the leading multiplicities are
    1, 2, 3; the 3D operator instead has lambda_n = n + 1/2 (ground state
    3/2) with multiplicities n(n+1)/2.  The whole-space eigenfunctions are
    restricted to the box; their boundary values ~ exp(-L^2/2) set a floor
    (~1e-6 at L = 5.5) below which computed gaps stop being meaningful.
    """
    L = float(box_half_width)

    def member(nx, ny):
        # psi_nx(x) psi_ny(y), with psi_n = H_n exp(-t^2/2) / sqrt(2^n n! sqrt(pi))
        norm = _hermite_norm(nx) * _hermite_norm(ny)

        def fn(p):
            x, y = np.ascontiguousarray(p[:, 0]), np.ascontiguousarray(p[:, 1])
            (hx, dx), (hy, dy) = _hermite(nx, x), _hermite(ny, y)
            g = x * x
            g += y * y
            g *= -0.5
            np.exp(g, out=g)
            g *= norm
            dx -= x * hx            # psi_n' = (H_n' - t H_n) exp(-t^2/2)
            dy -= y * hy
            hy *= g
            out = np.empty((3, x.size))
            np.multiply(hx, hy, out=out[0])
            np.multiply(dx, hy, out=out[1])
            hx *= g
            np.multiply(hx, dy, out=out[2])
            return out

        return fn

    clusters = [
        ExactEigenspace(1.0, [member(0, 0)]),
        ExactEigenspace(2.0, [member(1, 0), member(0, 1)]),
        ExactEigenspace(3.0, [member(2, 0), member(1, 1), member(0, 2)]),
    ]
    return ProblemSpec(
        name="oscillator",
        vertices=np.array([(-L, -L), (L, -L), (L, L), (-L, L), (0.0, 0.0)]),
        triangles=np.array([(0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 0, 4)]),
        coefficients=Coefficients(a=0.5, c=lambda p: 0.5 * (p[:, 0] ** 2 + p[:, 1] ** 2)),
        exact_clusters=clusters,
        reference_values=[(1, 1.0, "2D quantum harmonic oscillator"),
                          (2, 2.0, "2D quantum harmonic oscillator"),
                          (3, 3.0, "2D quantum harmonic oscillator")],
    )


# First Dirichlet eigenvalue of -Laplace on (-1,1)^2 \ [0,1]x[-1,0], frozen
# from a Richardson-extrapolated adaptive P2 reference run (>1e6 dofs); agrees
# with published benchmark digits.
LSHAPE_LAMBDA1 = 9.6397238


def lshape_laplace():
    """-Laplace on the L-shaped domain; singular first eigenfunction."""
    return ProblemSpec(
        name="lshape",
        vertices=np.array([(-1.0, -1.0), (0.0, -1.0), (-1.0, 0.0), (0.0, 0.0),
                           (1.0, 0.0), (-1.0, 1.0), (0.0, 1.0), (1.0, 1.0)]),
        triangles=np.array([(0, 1, 3), (0, 3, 2), (2, 3, 6),
                            (2, 6, 5), (3, 4, 7), (3, 7, 6)]),
        coefficients=Coefficients(a=1.0, c=0.0),
        exact_clusters=None,
        reference_values=[(1, LSHAPE_LAMBDA1, "extrapolated reference run")],
    )


_REGISTRY = {
    "square": square_laplace,
    "oscillator": harmonic_oscillator,
    "lshape": lshape_laplace,
}


def _number(value):
    # bool is an int to Python, but "A": true is no coefficient
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _coefficient_from_descriptor(desc):
    """Coefficient field from a JSON descriptor.

    A: number (scalar multiple of identity) or {"regions": {tag: 2x2 list}}.
    c: number, {"type": "polynomial", "terms": [[coef, i, j], ...]} meaning
    sum coef x^i y^j, or {"type": "radial", "scale": s, "power": p} meaning
    s * |x|^p.  A malformed descriptor raises a ValueError naming its field.
    """
    field = "A"
    try:
        a_desc = desc.get("A", 1.0)
        if isinstance(a_desc, dict):
            a = {int(tag): np.array(mat, float) for tag, mat in a_desc["regions"].items()}
        else:
            a = _number(a_desc)
        field = "c"
        c_desc = desc.get("c", 0.0)
        if isinstance(c_desc, dict):
            kind = c_desc["type"]
            if kind == "polynomial":
                terms = [(float(c), int(i), int(j)) for c, i, j in c_desc["terms"]]

                def c(p, _terms=terms):
                    out = np.zeros(p.shape[0])
                    for coef, i, j in _terms:
                        out += coef * p[:, 0] ** i * p[:, 1] ** j
                    return out
            elif kind == "radial":
                scale, power = _number(c_desc["scale"]), _number(c_desc["power"])

                def c(p, _s=scale, _p=power):
                    return _s * np.hypot(p[:, 0], p[:, 1]) ** _p
            else:
                raise ValueError(f"unknown type {kind!r}")
        else:
            c = _number(c_desc)
    except KeyError as exc:
        raise ValueError(f"coefficient {field}: no {exc.args[0]!r} entry") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise ValueError(f"coefficient {field}: {exc}") from None
    return Coefficients(a=a, c=c)


def _reference_values(entries):
    """A spec's reference values as (cluster position, eigenvalue, provenance)
    tuples; a malformed entry raises a ValueError that names it."""
    if not isinstance(entries, list):
        raise ValueError(f"reference_values: expected a list, got {entries!r}")
    out = []
    for entry in entries:
        # type(...) is int also rejects true/false, which are ints to Python
        pos, value, note = entry if isinstance(entry, list) and len(entry) == 3 else [None] * 3
        if not (type(pos) is int and pos >= 1 and isinstance(note, str)
                and type(value) in (int, float) and math.isfinite(value) and value > 0):
            raise ValueError(f"reference_values entry {entry!r}: expected [cluster "
                             "position: int >= 1, eigenvalue: finite and > 0, "
                             "provenance: string]")
        if any(pos == seen for seen, _, _ in out):
            raise ValueError(f"reference_values entry {entry!r}: cluster position "
                             f"{pos} is listed twice")
        out.append((pos, float(value), note))
    return out


def _entry(obj, key, where):
    try:
        return obj[key]
    except KeyError:
        raise ValueError(f"{where}: no {key!r} entry") from None


def from_json(path):
    """Problem spec from a JSON file; a missing `mesh`, `vertices` or
    `elements` entry raises a ValueError that names it.  A `mesh` entry that
    is a relative path is read relative to the spec's directory."""
    with open(path) as fh:
        obj = json.load(fh)
    mesh_obj = _entry(obj, "mesh", "problem spec")
    if isinstance(mesh_obj, str):
        mesh_path = os.path.join(os.path.dirname(path), mesh_obj)
        try:
            with open(mesh_path) as fh:
                mesh_obj = json.load(fh)
        except FileNotFoundError:
            raise FileNotFoundError(f"problem spec {path}: its \"mesh\" entry "
                                    f"{mesh_obj!r} names no file ({mesh_path})") from None
    return ProblemSpec(
        name=obj.get("name", "custom"),
        vertices=np.array(_entry(mesh_obj, "vertices", "mesh"), float),
        triangles=np.array(_entry(mesh_obj, "elements", "mesh")),
        coefficients=_coefficient_from_descriptor(obj.get("coefficients", {})),
        exact_clusters=None,
        reference_values=_reference_values(obj["reference_values"])
        if "reference_values" in obj else None,
        boundary=mesh_obj.get("boundary"),
        region=mesh_obj.get("region"),
    )


def get_problem(name):
    """Resolve a problem by registry name, 'file:<spec.json>' or ProblemSpec."""
    if isinstance(name, ProblemSpec):
        return name
    if not isinstance(name, str):
        raise ValueError(f"problem must be a registry name, file:<spec.json> or "
                         f"a ProblemSpec, got {name!r}")
    if name.startswith("file:"):
        return from_json(name[5:])
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise ValueError(f"unknown problem {name!r}; "
                         f"choose from {sorted(_REGISTRY)} or file:<spec.json>") from None
