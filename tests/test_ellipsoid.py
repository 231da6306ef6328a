import numpy as np
import pytest

from reachsep.ellipsoid import (
    DegenerateDirectionError,
    Ellipsoid,
    affine_map,
    containment_block,
    contains,
    minkowski_sum_external,
    psd_sqrt,
    support,
)


def random_psd(rng, n, scale=1.0):
    A = rng.standard_normal((n, n))
    return scale * (A @ A.T) / n


def random_ellipsoid(rng, n, scale=1.0):
    return Ellipsoid(rng.standard_normal(n), random_psd(rng, n, scale))


# ---------------------------------------------------------------- construction


def test_shape_is_symmetrized():
    M = np.array([[1.0, 1e-11], [0.0, 1.0]])
    e = Ellipsoid(np.zeros(2), M)
    assert np.array_equal(e.shape, e.shape.T)


def test_asymmetric_shape_rejected():
    with pytest.raises(ValueError):
        Ellipsoid(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_negative_eigenvalue_rejected():
    with pytest.raises(ValueError):
        Ellipsoid(np.zeros(2), np.diag([1.0, -1e-3]))


def test_point_and_singular_shapes_allowed():
    Ellipsoid.point([1.0, 2.0])
    Ellipsoid(np.zeros(2), np.diag([1.0, 0.0]))


def test_sqrt_shape_computed_once_and_read_only(monkeypatch):
    e = random_ellipsoid(np.random.default_rng(3), 4)
    W = e.sqrt_shape()
    assert np.array_equal(W, psd_sqrt(e.shape))
    assert not W.flags.writeable
    with pytest.raises(ValueError):
        W[0, 0] = 1.0
    calls = []
    monkeypatch.setattr(np.linalg, "eigh", lambda *a: calls.append(a))
    assert e.sqrt_shape() is W
    e.boundary_points(5, 0)
    assert calls == []


# ---------------------------------------------------------------- support


def test_support_unit_ball_unit_direction():
    val, pt = support(Ellipsoid.ball([0.0, 0.0], 1.0), [0.6, 0.8])
    assert val == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(pt, [0.6, 0.8], atol=1e-12)


def test_support_axis_aligned():
    e = Ellipsoid([1.0, 2.0], np.diag([4.0, 9.0]))
    val, pt = support(e, [0.0, 1.0])
    assert val == pytest.approx(5.0, abs=1e-12)
    assert pt[1] == pytest.approx(5.0, abs=1e-12)


def test_support_zero_direction_rejected():
    with pytest.raises(ValueError):
        support(Ellipsoid.ball([0.0, 0.0], 1.0), [0.0, 0.0])


def test_support_dominates_sampled_boundary():
    # oracle: support value must dominate <l, x> over sampled boundary points,
    # and the returned maximizer must attain it on the boundary
    rng = np.random.default_rng(7)
    for _ in range(5):
        n = rng.integers(2, 6)
        e = random_ellipsoid(rng, n)
        l = rng.standard_normal(n)
        val, pt = support(e, l)
        samples = e.boundary_points(100_000, rng)
        gaps = val - samples @ l
        assert gaps.min() >= -1e-9
        assert l @ pt == pytest.approx(val, abs=1e-10)
        # pt lies in the ellipsoid: support in every probe direction confirms
        for _ in range(20):
            m = rng.standard_normal(n)
            assert m @ pt <= support(e, m)[0] + 1e-9


def test_support_sublinear_and_homogeneous():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = rng.integers(2, 7)
        e = random_ellipsoid(rng, n)
        l1, l2 = rng.standard_normal(n), rng.standard_normal(n)
        s12 = support(e, l1 + l2)[0]
        assert s12 <= support(e, l1)[0] + support(e, l2)[0] + 1e-10
        a = float(rng.uniform(0.1, 10.0))
        assert support(e, a * l1)[0] == pytest.approx(a * support(e, l1)[0], abs=1e-10)


# ---------------------------------------------------------------- affine map


def test_affine_identity():
    rng = np.random.default_rng(3)
    e = random_ellipsoid(rng, 3)
    out = affine_map(e, np.eye(3), np.zeros(3))
    assert np.allclose(out.center, e.center)
    assert np.allclose(out.shape, e.shape)


def test_affine_scaling_shift():
    out = affine_map(Ellipsoid.ball([0.0, 0.0], 1.0), np.diag([2.0, 3.0]), [1.0, 0.0])
    assert np.allclose(out.center, [1.0, 0.0])
    assert np.allclose(out.shape, np.diag([4.0, 9.0]))


def test_affine_dimension_mismatch():
    with pytest.raises(ValueError):
        affine_map(Ellipsoid.ball([0.0, 0.0], 1.0), np.eye(3))


def test_affine_support_duality():
    # support(T e + b, l) == support(e, T'l) + <l, b>
    rng = np.random.default_rng(19)
    for _ in range(5):
        n, m = rng.integers(2, 5), rng.integers(2, 5)
        e = random_ellipsoid(rng, n)
        T = rng.standard_normal((m, n))
        b = rng.standard_normal(m)
        img = affine_map(e, T, b)
        for _ in range(100):
            l = rng.standard_normal(m)
            lhs = support(img, l)[0]
            rhs = support(e, T.T @ l)[0] if np.any(T.T @ l) else float((T.T @ l) @ e.center)
            assert lhs == pytest.approx(rhs + l @ b, abs=1e-10)


# ---------------------------------------------------------------- Minkowski sum


def test_minkowski_balls_exact():
    s = minkowski_sum_external(Ellipsoid.ball([0.0, 0.0], 1.0), Ellipsoid.ball([0.0, 0.0], 2.0), [1.0, 0.0])
    assert np.allclose(s.shape, 9.0 * np.eye(2), atol=1e-12)


def test_minkowski_point_summand_is_translation():
    rng = np.random.default_rng(5)
    e = random_ellipsoid(rng, 3)
    s = minkowski_sum_external(e, Ellipsoid.point([1.0, 2.0, 3.0]), [1.0, 0.0, 0.0])
    assert np.allclose(s.center, e.center + [1.0, 2.0, 3.0])
    assert np.allclose(s.shape, e.shape)


def test_minkowski_degenerate_direction_raises():
    e1 = Ellipsoid(np.zeros(2), np.diag([1.0, 0.0]))
    e2 = Ellipsoid(np.zeros(2), np.diag([1.0, 0.0]))
    with pytest.raises(DegenerateDirectionError):
        minkowski_sum_external(e1, e2, [0.0, 1.0])


def test_minkowski_support_dominance_and_tightness():
    # oracle: result support >= sum of summand supports everywhere, equal at l
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = rng.integers(2, 6)
        e1, e2 = random_ellipsoid(rng, n), random_ellipsoid(rng, n)
        l = rng.standard_normal(n)
        s = minkowski_sum_external(e1, e2, l)
        for _ in range(200):
            m = rng.standard_normal(n)
            assert support(s, m)[0] >= support(e1, m)[0] + support(e2, m)[0] - 1e-9
        assert support(s, l)[0] == pytest.approx(support(e1, l)[0] + support(e2, l)[0], abs=1e-10)


# ---------------------------------------------------------------- containment


def test_contains_concentric_balls():
    ok, lam = contains(Ellipsoid.ball([0.0, 0.0], 1.0), Ellipsoid(np.zeros(2), 0.25 * np.eye(2)))
    assert ok
    assert 0.25 - 1e-6 <= lam <= 1.0
    # lam = 0.5 is a valid witness in its own right
    G = containment_block(Ellipsoid.ball([0.0, 0.0], 1.0), np.zeros(2), 0.5 * np.eye(2), 0.5)
    assert np.linalg.eigvalsh(G).min() >= -1e-12


def test_contains_self_boundary_case():
    rng = np.random.default_rng(31)
    M = random_psd(rng, 3) + 0.5 * np.eye(3)
    e = Ellipsoid(rng.standard_normal(3), M)
    ok, lam = contains(e, e)
    assert ok
    assert lam == pytest.approx(1.0, abs=1e-6)


def test_contains_singular_outer_rejected():
    with pytest.raises(ValueError):
        contains(Ellipsoid(np.zeros(2), np.diag([1.0, 0.0])), Ellipsoid.ball([0.0, 0.0], 0.1))


def test_contains_matches_sampling_oracle():
    # oracle: inner is contained iff all sampled inner boundary points have
    # outer norm <= 1
    outer = Ellipsoid.ball([0.0, 0.0], 1.0)
    rng = np.random.default_rng(41)
    Minv = np.linalg.inv(outer.shape)
    for center, shape, expect in [
        (np.array([0.9, 0.0]), 0.04 * np.eye(2), None),
        (np.array([0.5, 0.0]), 0.04 * np.eye(2), True),
        (np.array([0.95, 0.0]), 0.04 * np.eye(2), False),
    ]:
        inner = Ellipsoid(center, shape)
        ok, lam = contains(outer, inner)
        pts = inner.boundary_points(100_000, rng)
        d = pts - outer.center
        sampled_ok = bool((np.einsum("ij,jk,ik->i", d, Minv, d) <= 1.0 + 1e-9).all())
        if expect is not None:
            assert sampled_ok is expect
        assert ok == sampled_ok
        if ok:
            G = containment_block(outer, inner.center, psd_sqrt(inner.shape), lam)
            assert np.linalg.eigvalsh(G).min() >= -1e-8


def test_contains_monotone_in_inner_shape():
    rng = np.random.default_rng(47)
    outer = Ellipsoid(rng.standard_normal(3), random_psd(rng, 3) + np.eye(3))
    inner = Ellipsoid(outer.center + 0.1, 0.2 * np.eye(3))
    ok, _ = contains(outer, inner)
    assert ok
    smaller = Ellipsoid(inner.center, 0.5 * inner.shape)
    ok2, _ = contains(outer, smaller)
    assert ok2
