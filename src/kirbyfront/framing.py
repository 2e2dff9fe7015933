"""Numeric checks for the explicit framing matrices.

Two families of special orthogonal matrices arise when identifying the
normal-framing twist induced by the double stabilization:

* ``frame_rotation(p, t)``: an n x n rotation attached to a point
  (p, t) of S^(n-2) x [0, pi], restricting to the familiar 2t-rotation
  when n = 2 and equal to the identity at t = 0;

* ``frame_extension(p, r, t)``: an (n+1) x (n+1) extension over disk
  coordinates (p, r, t) whose first column is the degree-one stereographic
  map (f(r), g(r) r cos t, g(r) r sin t p) and whose trailing n x n block
  at r = 1 reproduces ``frame_rotation``.

The radial profiles are pinned to f(r) = 2 r^2 - 1 and
g(r) = 2 sqrt(1 - r^2), which satisfy f^2 + (g r)^2 = 1, f(0) = -1 and
f(1) = 1 exactly.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

__all__ = [
    "f_profile",
    "g_profile",
    "frame_rotation",
    "frame_extension",
    "stereographic_point",
    "FramingReport",
    "framing_map_check",
]


def f_profile(r):
    return 2.0 * r * r - 1.0


def g_profile(r):
    return 2.0 * np.sqrt(max(0.0, 1.0 - r * r))


def frame_rotation(p, t):
    """The n x n special orthogonal matrix attached to (p, t).

    p is a unit vector in R^(n-1) (a point of S^(n-2)), t in [0, pi].
    """
    p = np.asarray(p, dtype=float).reshape(-1)
    k = p.size
    c, s = np.cos(2.0 * t), np.sin(2.0 * t)
    st = np.sin(t)
    m = np.empty((k + 1, k + 1))
    m[0, 0] = c
    m[0, 1:] = -s * p
    m[1:, 0] = s * p
    m[1:, 1:] = np.eye(k) - 2.0 * st * st * np.outer(p, p)
    return m


def frame_extension(p, r, t):
    """The (n+1) x (n+1) extension over the disk coordinates (p, r, t)."""
    p = np.asarray(p, dtype=float).reshape(-1)
    k = p.size
    f = f_profile(r)
    g = g_profile(r)
    ct, st = np.cos(t), np.sin(t)
    m = np.empty((k + 2, k + 2))
    m[0, 0] = f
    m[0, 1] = -g * r * ct
    m[0, 2:] = g * r * st * p
    m[1, 0] = g * r * ct
    m[1, 1] = f * ct * ct - st * st
    m[1, 2:] = -(f + 1.0) * st * ct * p
    m[2:, 0] = g * r * st * p
    m[2:, 1] = (f + 1.0) * st * ct * p
    m[2:, 2:] = np.eye(k) - (f + 1.0) * st * st * np.outer(p, p)
    return m


def stereographic_point(p, r, t):
    """The degree-one map (p, r, t) -> S^n used to normalize the extension."""
    p = np.asarray(p, dtype=float).reshape(-1)
    f = f_profile(r)
    g = g_profile(r)
    return np.concatenate(([f, g * r * np.cos(t)], g * r * np.sin(t) * p))


@dataclass
class FramingReport:
    n: int
    samples: int
    tol: float
    seed: int
    max_rotation_orth: float = 0.0
    max_rotation_det: float = 0.0
    max_rotation_base: float = 0.0
    max_extension_orth: float = 0.0
    max_extension_det: float = 0.0
    max_first_column: float = 0.0
    max_boundary_match: float = 0.0
    worst: dict = field(default_factory=dict)
    passed: bool = True

    def as_dict(self):
        return asdict(self)


def _orth_residual(m):
    return float(np.max(np.abs(m.T @ m - np.eye(m.shape[0]))))


def _unit_vector(rng, k):
    while True:
        v = rng.normal(size=k)
        norm = np.linalg.norm(v)
        if norm > 1e-8:
            return v / norm


def framing_map_check(n, samples=1000, tol=1e-9, seed=0):
    """Sample-based verification of both matrix families.

    Checks, per sample: orthogonality residual ||M^T M - I||_inf and
    |det M - 1| below tol for both matrices; rotation at t = 0 equal to the
    identity; first column of the extension equal to the stereographic
    point; and the trailing n x n block of the extension at r = 1 equal to
    the rotation matrix.
    """
    if not (2 <= n <= 8):
        raise ValueError("n must be between 2 and 8")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    rng = np.random.default_rng(seed)
    report = FramingReport(n=n, samples=samples, tol=tol, seed=seed)

    def track(field_name, value, where):
        value = float(value)
        if value > getattr(report, field_name):
            setattr(report, field_name, value)
            report.worst[field_name] = where
        if value >= tol:
            report.passed = False

    for idx in range(samples):
        p = _unit_vector(rng, n - 1)
        t = float(rng.uniform(0.0, np.pi))
        r = float(rng.uniform(0.0, 1.0))
        where = {"sample": idx, "t": t, "r": r}

        rot = frame_rotation(p, t)
        track("max_rotation_orth", _orth_residual(rot), where)
        track("max_rotation_det", abs(np.linalg.det(rot) - 1.0), where)
        base = frame_rotation(p, 0.0)
        track("max_rotation_base", np.max(np.abs(base - np.eye(n))), where)

        ext = frame_extension(p, r, t)
        track("max_extension_orth", _orth_residual(ext), where)
        track("max_extension_det", abs(np.linalg.det(ext) - 1.0), where)
        track(
            "max_first_column",
            np.max(np.abs(ext[:, 0] - stereographic_point(p, r, t))),
            where,
        )
        boundary = frame_extension(p, 1.0, t)
        track(
            "max_boundary_match",
            np.max(np.abs(boundary[1:, 1:] - rot)),
            where,
        )
    return report
