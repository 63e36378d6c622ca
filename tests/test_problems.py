import json
import math
import time

import numpy as np
import pytest

from afemeig import (AfemConfig, MeshError, build_space, get_problem, harmonic_oscillator,
                     lshape_laplace, run_afem, square_laplace)
from afemeig.mesh import uniform_refine

from oracles import rule_points, signed_areas, triangle_rule_subdivided, validate_mesh

_SQUARE = {"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]],
           "elements": [[0, 1, 2], [0, 2, 3]],
           "boundary": [[0, 1], [1, 2], [2, 3], [0, 3]]}


def _exact_grams(prob, rounds=10):
    """Quadrature b- and a-Grams of every exact cluster basis."""
    mesh = uniform_refine(prob.initial_mesh(), rounds)
    space = build_space(mesh, 1)
    rule = triangle_rule_subdivided(space, 6, 1)
    xq = rule_points(rule)
    flat = xq.reshape(-1, 2)
    wdet = rule.wts[None, :] * rule.det[:, None]
    co = prob.coefficients
    cq = co.c_at(xq)
    out = []
    for cl in prob.exact_clusters:
        rows = [np.asarray(f(flat)).reshape(3, *xq.shape[:2]) for f in cl.basis]
        vals = [r[0] for r in rows]
        grads = [r[1:].transpose(1, 2, 0) for r in rows]
        q = cl.dim
        B = np.empty((q, q))
        G = np.empty((q, q))
        for i in range(q):
            for j in range(q):
                B[i, j] = np.einsum("eq,eq,eq->", vals[i], vals[j], wdet)
                G[i, j] = co.a * np.einsum("eqi,eqi,eq->", grads[i], grads[j], wdet) \
                    + np.einsum("eq,eq,eq->", cq * vals[i], vals[j], wdet)
        out.append((cl, B, G))
    return out


def test_square_eigenvalues():
    prob = square_laplace()
    assert prob.exact_clusters[0].value == pytest.approx(2 * math.pi ** 2)
    assert prob.exact_clusters[0].value == pytest.approx(19.7392088, abs=1e-6)
    assert prob.exact_clusters[1].value == pytest.approx(5 * math.pi ** 2)
    assert prob.exact_clusters[1].value == pytest.approx(49.3480220, abs=1e-6)
    assert prob.exact_clusters[1].dim == 2


def test_square_basis_b_orthonormal():
    for cl, B, G in _exact_grams(square_laplace(), rounds=8):
        assert np.abs(B - np.eye(cl.dim)).max() <= 1e-8
        rq = np.diag(G) / np.diag(B)
        assert np.abs(rq - cl.value).max() / cl.value <= 1e-6


def test_oscillator_spectrum_and_basis():
    prob = harmonic_oscillator()
    values = [cl.value for cl in prob.exact_clusters]
    dims = [cl.dim for cl in prob.exact_clusters]
    assert values == [1.0, 2.0, 3.0]
    assert dims == [1, 2, 3]
    for cl, B, G in _exact_grams(prob, rounds=10):
        assert np.abs(B - np.eye(cl.dim)).max() <= 1e-8
        rq = np.diag(G) / np.diag(B)
        assert np.abs(rq - cl.value).max() / cl.value <= 1e-5  # box truncation


def test_oscillator_members_match_hermite_class():
    # psi_nx(x) psi_ny(y) with psi_n = H_n(x) exp(-x^2/2) / sqrt(2^n n! sqrt(pi))
    # built from numpy's Hermite class; rows 1-2 of the same call, the
    # gradient, against central differences of row 0
    rng = np.random.default_rng(3)
    pts = rng.uniform(-5.5, 5.5, (400, 2))
    members = [f for cl in harmonic_oscillator().exact_clusters for f in cl.basis]
    orders = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]

    def psi(n, x):
        coeff = np.zeros(n + 1)
        coeff[n] = 1.0
        norm = 1.0 / math.sqrt(2.0 ** n * math.factorial(n) * math.sqrt(math.pi))
        return norm * np.polynomial.hermite.Hermite(coeff)(x) * np.exp(-0.5 * x ** 2)

    h = 1e-5
    for fn, (nx, ny) in zip(members, orders):
        want = psi(nx, pts[:, 0]) * psi(ny, pts[:, 1])
        rows = fn(pts)
        assert rows.shape == (3, len(pts))
        np.testing.assert_allclose(rows[0], want, rtol=1e-13, atol=0)
        for axis in range(2):
            step = np.zeros(2)
            step[axis] = h
            central = (fn(pts + step)[0] - fn(pts - step)[0]) / (2 * h)
            np.testing.assert_allclose(rows[1 + axis], central, rtol=0, atol=1e-8)


def test_oscillator_box_matches_half_width():
    prob = harmonic_oscillator(box_half_width=4.0)
    assert prob.vertices[:, 0].min() == -4.0
    assert prob.vertices[:, 1].max() == 4.0


def test_lshape_reference_and_area():
    prob = lshape_laplace()
    mesh = prob.initial_mesh()
    assert signed_areas(mesh).sum() == pytest.approx(3.0)
    assert prob.exact_clusters is None
    idx, lam_ref, note = prob.reference_values[0]
    assert idx == 1
    assert lam_ref == pytest.approx(9.6397238, abs=1e-7)


def test_registry_and_errors():
    assert get_problem("square").name == "square"
    assert get_problem("oscillator").name == "oscillator"
    assert get_problem("lshape").name == "lshape"
    with pytest.raises(ValueError):
        get_problem("nonsense")


@pytest.mark.parametrize("problem", [3, None, ["square"], b"square"],
                         ids=["int", "none", "list", "bytes"])
def test_non_string_problem_rejected(problem):
    message = "problem must be a registry name, file:<spec.json> or a ProblemSpec"
    with pytest.raises(ValueError, match=message):
        get_problem(problem)
    with pytest.raises(ValueError, match=message):
        run_afem(AfemConfig(problem=problem))


def test_problem_from_json(tmp_path):
    spec = {
        "name": "weighted-box",
        "mesh": _SQUARE,
        "coefficients": {"A": 2.0,
                         "c": {"type": "radial", "scale": 0.5, "power": 2}},
        "reference_values": [[1, 40.0, "made up"]],
    }
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(spec))
    prob = get_problem(f"file:{path}")
    assert prob.name == "weighted-box"
    assert prob.reference_values == [(1, 40.0, "made up")]
    assert prob.coefficients.a == 2.0
    pts = np.array([[1.0, 1.0], [0.0, 2.0]])
    assert np.allclose(prob.coefficients.c_at(pts), [1.0, 2.0])
    validate_mesh(prob.initial_mesh())


def test_polynomial_coefficient_descriptor(tmp_path):
    spec = {
        "mesh": {"vertices": [[0, 0], [1, 0], [0, 1]], "elements": [[0, 1, 2]]},
        "coefficients": {"c": {"type": "polynomial",
                               "terms": [[1.0, 2, 0], [3.0, 0, 1]]}},
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(spec))
    prob = get_problem(f"file:{path}")
    pts = np.array([[2.0, 1.0]])
    assert prob.coefficients.c_at(pts)[0] == pytest.approx(4.0 + 3.0)


def test_problem_from_json_checks_boundary(tmp_path):
    path = tmp_path / "open.json"
    path.write_text(json.dumps({"mesh": dict(_SQUARE, boundary=[[0, 1], [1, 2]])}))
    with pytest.raises(MeshError, match="open or inconsistent boundary"):
        get_problem(f"file:{path}").initial_mesh()


@pytest.mark.parametrize("A", [-1.0, 0.0])
def test_nonpositive_diffusion_fails_fast(tmp_path, A):
    # a negative A gives a negative spectrum that cluster detection merges
    # into one cluster, and A = 0 a singular stiffness matrix: both used to
    # run for tens of seconds before they failed or were stopped
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"mesh": _SQUARE, "coefficients": {"A": A}}))
    start = time.perf_counter()
    with pytest.raises(MeshError, match="coefficient a is not positive"):
        run_afem(AfemConfig(problem=f"file:{path}", max_dof=300))
    assert time.perf_counter() - start < 1.0


def test_non_finite_coefficient_in_spec_fails_when_loaded(tmp_path):
    # Python's json reads a bare NaN token; it used to fail only inside the
    # eigensolve, with scipy's "array must not contain infs or NaNs"
    path = tmp_path / "spec.json"
    path.write_text('{"mesh": %s, "coefficients": {"c": NaN}}' % json.dumps(_SQUARE))
    with pytest.raises(MeshError, match="coefficient c is not finite"):
        get_problem(f"file:{path}")


_EYE = [[1.0, 0.0], [0.0, 1.0]]


@pytest.mark.parametrize("coefficients, message", [
    ({"A": {"0": _EYE}}, "coefficient A: no 'regions' entry"),
    ({"A": {"regions": {"1.5": _EYE}}}, "coefficient A: invalid literal for int"),
    ({"A": True}, "coefficient A: expected a number, got True"),
    ({"c": {"terms": [[1.0, 2, 0]]}}, "coefficient c: no 'type' entry"),
    ({"c": {"type": "polynomial"}}, "coefficient c: no 'terms' entry"),
    ({"c": {"type": "radial", "scale": 1.0}}, "coefficient c: no 'power' entry"),
], ids=["A-without-regions", "A-tag-not-integer", "A-bool", "c-without-type",
        "c-polynomial-without-terms", "c-radial-without-power"])
def test_malformed_coefficient_descriptor_names_its_field(tmp_path, coefficients, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"mesh": _SQUARE, "coefficients": coefficients}))
    with pytest.raises(ValueError, match=message):
        get_problem(f"file:{path}")


def test_cli_malformed_coefficient_descriptor_exits_1(tmp_path, capsys):
    from afemeig.cli import main
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"mesh": _SQUARE, "coefficients": {"A": {"0": _EYE}}}))
    assert main(["run", "--problem", f"file:{path}"]) == 1
    assert "coefficient A: no 'regions' entry" in capsys.readouterr().err


@pytest.mark.parametrize("spec, message", [
    ({"coefficients": {"A": 1.0}}, "problem spec: no 'mesh' entry"),
    ({"mesh": {"elements": _SQUARE["elements"]}}, "mesh: no 'vertices' entry"),
    ({"mesh": {"vertices": _SQUARE["vertices"]}}, "mesh: no 'elements' entry"),
], ids=["no-mesh", "no-vertices", "no-elements"])
def test_spec_missing_mesh_entry_names_it(tmp_path, capsys, spec, message):
    # these used to fail with the bare key name, "afem: error: 'mesh'"
    from afemeig.cli import main
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    with pytest.raises(ValueError, match=message):
        get_problem(f"file:{path}")
    assert main(["run", "--problem", f"file:{path}"]) == 1
    assert f"afem: error: {message}" in capsys.readouterr().err


def test_spec_mesh_path_is_relative_to_the_spec(tmp_path, monkeypatch):
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "m.json").write_text(json.dumps(_SQUARE))
    (tmp_path / "sub" / "spec.json").write_text(json.dumps({"mesh": "m.json"}))
    monkeypatch.chdir(tmp_path)
    assert get_problem("file:sub/spec.json").initial_mesh().n_elements == 2


def test_spec_missing_mesh_file_names_spec_and_entry(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"mesh": "gone.json"}))
    with pytest.raises(FileNotFoundError) as info:
        get_problem(f"file:{path}")
    assert str(path) in str(info.value) and "\"mesh\" entry 'gone.json'" in str(info.value)


def test_problem_from_json_reads_region_tags(tmp_path):
    eye = [[1.0, 0.0], [0.0, 1.0]]
    path = tmp_path / "regions.json"
    path.write_text(json.dumps({"mesh": dict(_SQUARE, region=[0, 1]),
                                "coefficients": {"A": {"regions": {"0": eye, "1": eye}}}}))
    assert get_problem(f"file:{path}").initial_mesh().region.tolist() == [0, 1]
    path.write_text(json.dumps({"mesh": dict(_SQUARE, region=[0, 1]),
                                "coefficients": {"A": {"regions": {"0": eye}}}}))
    with pytest.raises(MeshError, match=r"no coefficient matrix for region tags \[1\]"):
        run_afem(AfemConfig(problem=f"file:{path}", max_dof=300))
