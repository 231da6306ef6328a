"""Static SVG rendering of run artifacts.

Reads the CSV/JSON files a pipeline run leaves in its output directory and
writes four vector-graphic files: the initial tube overlay, the final tube
overlay, the control-set ellipses (original and both shrunk sets) and the
separation-versus-time curve.  Output is deterministic: fixed viewport,
six-decimal coordinates, no timestamps.
"""

import json
from pathlib import Path

import numpy as np

from .ellipsoid import psd_sqrt

COLORS = {"A": "#d62728", "B": "#1f77b4", "original": "#bcbd22"}


class MissingArtifactError(FileNotFoundError):
    """A required run artifact is not present in the output directory."""


def _require(out: Path, name: str) -> Path:
    p = out / name
    if not p.exists():
        raise MissingArtifactError(f"missing run artifact '{name}' in {out}")
    return p


class _Canvas:
    """Minimal SVG canvas mapping data coordinates to a fixed viewport."""

    def __init__(self, xlim, ylim, width=640, height=480, margin=50):
        self.width, self.height, self.margin = width, height, margin
        self.xlim, self.ylim = xlim, ylim
        self.parts = []

    def _map(self, x, y):
        sx = (self.width - 2 * self.margin) / max(self.xlim[1] - self.xlim[0], 1e-12)
        sy = (self.height - 2 * self.margin) / max(self.ylim[1] - self.ylim[0], 1e-12)
        return (self.margin + (x - self.xlim[0]) * sx,
                self.height - self.margin - (y - self.ylim[0]) * sy)

    def polyline(self, pts, stroke, width=1.0, opacity=1.0, close=False, fill="none"):
        pts = np.asarray(pts, dtype=float)
        mapped = np.column_stack(self._map(pts[:, 0], pts[:, 1]))
        mapped = " ".join(["%.6f,%.6f"] * pts.shape[0]) % tuple(mapped.ravel().tolist())
        tag = "polygon" if close else "polyline"
        self.parts.append(
            f'<{tag} points="{mapped}" fill="{fill}" stroke="{stroke}" '
            f'stroke-width="{width:.6f}" stroke-opacity="{opacity:.6f}" fill-opacity="0.08"/>')

    def line(self, p0, p1, stroke, width=1.0, dash=None):
        x0, y0 = self._map(*p0)
        x1, y1 = self._map(*p1)
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(f'<line x1="{x0:.6f}" y1="{y0:.6f}" x2="{x1:.6f}" y2="{y1:.6f}" '
                          f'stroke="{stroke}" stroke-width="{width:.6f}"{d}/>')

    def text(self, x, y, s, size=12, anchor="start"):
        px, py = self._map(x, y)
        self.parts.append(f'<text x="{px:.6f}" y="{py:.6f}" font-size="{size}" '
                          f'font-family="sans-serif" text-anchor="{anchor}">{s}</text>')

    def axes(self, xlabel, ylabel):
        self.line((self.xlim[0], self.ylim[0]), (self.xlim[1], self.ylim[0]), "#000000")
        self.line((self.xlim[0], self.ylim[0]), (self.xlim[0], self.ylim[1]), "#000000")
        self.text(self.xlim[1], self.ylim[0], xlabel, anchor="end")
        self.text(self.xlim[0], self.ylim[1], ylabel)

    def write(self, path: Path):
        body = "\n".join(self.parts)
        path.write_text(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
            f'height="{self.height}" viewBox="0 0 {self.width} {self.height}">\n'
            f'{body}\n</svg>\n')


def _read_tubes(path: Path, plane):
    """-> [(aircraft, dirs (D, 2), values (T, D))], one entry per aircraft
    in file order: its directions restricted to the plane axes, which are
    the same at every time, and its support values, times ascending."""
    rows = path.read_text().splitlines()[1:]
    if not rows:
        return []
    names = np.loadtxt(rows, delimiter=",", usecols=0, dtype=str, ndmin=1)
    # per row: t_s, dir_index, dir_x, dir_y, dir_z, support_value
    table = np.loadtxt(rows, delimiter=",", usecols=range(1, 7), ndmin=2)
    tubes = []
    for aircraft in dict.fromkeys(names):
        own = table[names == aircraft]
        own = own[np.argsort(own[:, 0], kind="stable")]
        n_times = 1 + np.count_nonzero(np.diff(own[:, 0]))
        n_dirs = own.shape[0] // n_times
        if n_dirs * n_times != own.shape[0] or (
                own[:, 2:5].reshape(n_times, n_dirs, 3) != own[:n_dirs, 2:5]).any():
            raise ValueError(f"{path}: aircraft {aircraft}'s times have unequal direction sets")
        tubes.append((aircraft, own[:n_dirs, 2:5][:, list(plane)], own[:, 5].reshape(n_times, -1)))
    return tubes


def _silhouettes(dirs, vals):
    """Polygon vertices (T, V, 2) of the support-halfspace intersections in
    the plane, one polygon per row of vals; None below three vertices."""
    keep = np.linalg.norm(dirs, axis=1) > 1e-9
    dirs, vals = dirs[keep], vals[:, keep]
    if dirs.shape[0] < 3:
        return None
    order = np.argsort(np.arctan2(dirs[:, 1], dirs[:, 0]))
    (ax, ay), va = dirs[order].T, vals[:, order]
    # each vertex solves the 2x2 system of two adjacent halfspaces, by Cramer's rule
    bx, by, vb = np.roll(ax, -1), np.roll(ay, -1), np.roll(va, -1, axis=1)
    det = ax * by - ay * bx
    keep = np.abs(det) >= 1e-12
    pts = np.stack([va * by - vb * ay, ax * vb - bx * va], axis=2)[:, keep] / det[keep, None]
    return pts if pts.shape[1] >= 3 else None


def _tube_svg(tube_path: Path, plane, labels, out_path: Path):
    polys = []
    for aircraft, dirs, vals in _read_tubes(tube_path, plane):
        pts = _silhouettes(dirs, vals)
        if pts is not None:
            polys += [(aircraft, poly) for poly in pts]
    if not polys:
        return False
    allpts = np.vstack([p for _, p in polys])
    lo, hi = allpts.min(axis=0), allpts.max(axis=0)
    pad = 0.05 * np.maximum(hi - lo, 1e-6)
    c = _Canvas((lo[0] - pad[0], hi[0] + pad[0]), (lo[1] - pad[1], hi[1] + pad[1]))
    for aircraft, poly in polys:
        c.polyline(poly, COLORS.get(aircraft, "#555555"), width=0.8, opacity=0.55, close=True)
    c.axes(*labels)
    c.write(out_path)
    return True


def _ellipse_pts(center, shape, n=64):
    L = psd_sqrt(np.asarray(shape, dtype=float))
    ang = 2.0 * np.pi * np.arange(n) / n
    circ = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    return np.asarray(center, dtype=float) + circ @ L.T


def emit_plots(out_dir) -> list:
    """Render SVG figures from run artifacts; returns the written paths.

    Raises MissingArtifactError when a required input file is absent.  A tube
    figure whose CSV carries fewer than three directions has no silhouettes,
    and is skipped with a warning.
    """
    import sys

    out = Path(out_dir)
    scenario = json.loads(_require(out, "scenario.json").read_text())
    solution = json.loads(_require(out, "solution.json").read_text())
    tubes_initial = _require(out, "tubes_initial.csv")
    tubes_final = _require(out, "tubes.csv")
    separation_csv = _require(out, "separation.csv")
    plane = tuple(scenario["plane"])
    axis_names = ["x [m]", "y [m]", "z [m]"]
    labels = (axis_names[plane[0]], axis_names[plane[1]])
    written = []

    for path, name in [(tubes_initial, "initial_tubes.svg"), (tubes_final, "final_tubes.svg")]:
        if _tube_svg(path, plane, labels, out / name):
            written.append(out / name)
        else:
            print(f"warning: no tube silhouettes for {name} (fewer than three directions)",
                  file=sys.stderr)

    # control-set ellipses in the configured control plane
    cp = tuple(scenario["control_plane"])
    groups = []
    for name in ("A", "B"):
        ac = solution["aircraft"][name]
        M = np.array(ac["original_control_shape"])[np.ix_(cp, cp)]
        c0 = np.array(ac["original_control_center"])[list(cp)]
        groups.append(("original", _ellipse_pts(c0, M)))
        Q = np.array(ac["Q"])
        qc = np.array(ac["q"])[list(cp)]
        groups.append((name, _ellipse_pts(qc, (Q @ Q)[np.ix_(cp, cp)])))
    allpts = np.vstack([g[1] for g in groups])
    lo, hi = allpts.min(axis=0), allpts.max(axis=0)
    pad = 0.05 * np.maximum(hi - lo, 1e-9)
    c = _Canvas((lo[0] - pad[0], hi[0] + pad[0]), (lo[1] - pad[1], hi[1] + pad[1]))
    for kind, pts in groups:
        c.polyline(pts, COLORS[kind], width=1.2, opacity=0.9, close=True)
    c.axes(f"u[{cp[0]}]", f"u[{cp[1]}]")
    path = out / "control_sets.svg"
    c.write(path)
    written.append(path)

    # separation curve
    rows = separation_csv.read_text().strip().splitlines()[1:]
    ts = np.array([float(r.split(",")[0]) for r in rows])
    ss = np.array([float(r.split(",")[1]) for r in rows])
    d = float(scenario["required_separation_m"])
    lo_y = min(ss.min(), 0.0)
    hi_y = max(ss.max(), d) * 1.05
    c = _Canvas((ts.min(), ts.max()), (lo_y, hi_y))
    c.polyline(np.stack([ts, ss], axis=1), "#2ca02c", width=1.5)
    c.line((ts.min(), d), (ts.max(), d), "#d62728", width=1.0, dash="6,4")
    c.text(ts.max(), d, "required", anchor="end")
    c.axes("t [s]", "separation [m]")
    path = out / "separation.svg"
    c.write(path)
    written.append(path)
    return written
