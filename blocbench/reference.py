"""Independent reference computations, written from the paper.

Nothing in this module calls ``repro.core``: Eq. 10 (phase-offset
cancellation), Eq. 17 (the per-anchor likelihood over candidate
positions), the per-anchor normalisation and sum, local maxima, and the
Eq. 18 score are re-derived here with plain numpy so the benchmark can
check the program's answers against a computation made apart from it.
Inputs are plain arrays; the caller pulls antenna positions out of the
observations' anchor descriptors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

#: Speed of light [m/s].
SPEED_OF_LIGHT = 299_792_458.0


def eq10_alpha(tag: np.ndarray, master: np.ndarray, master_index: int) -> np.ndarray:
    """Eq. 10: ``alpha_ij = h_ij * conj(H_i0) * conj(h_00)``.

    ``tag`` and ``master`` are the measured tag->anchor and
    master->anchor channels, shape ``(I, J, K)``.  The master anchor has
    no overheard response, so its rows use ``h_0j * conj(h_00)``.
    """
    tag = np.asarray(tag, dtype=complex)
    master = np.asarray(master, dtype=complex)
    h00 = tag[master_index, 0, :]
    alpha = tag * np.conj(h00)[None, None, :]
    for i in range(tag.shape[0]):
        if i != master_index:
            alpha[i] = alpha[i] * np.conj(master[i, 0, :])[None, :]
    return alpha


def eq17_complex(
    alpha_anchor: np.ndarray,
    frequencies_hz: np.ndarray,
    elements: np.ndarray,
    reference: np.ndarray,
    baseline_m: float,
    points: np.ndarray,
) -> np.ndarray:
    """Eq. 17 before the magnitude, for one anchor.

    ``sum_j sum_k alpha_jk exp(+j 2 pi f_k / c * (|x - p_j| - |x - p_00|
    - d_i0))`` at every candidate ``x`` in ``points`` (shape ``(N, 2)``);
    ``elements`` holds the anchor's antenna positions ``(J, 2)``,
    ``reference`` the master's antenna 0 and ``baseline_m`` the anchor's
    known distance ``d_i0`` to it.
    """
    k = 2.0 * np.pi * np.asarray(frequencies_hz, dtype=float) / SPEED_OF_LIGHT
    points = np.asarray(points, dtype=float)
    r0 = np.hypot(points[:, 0] - reference[0], points[:, 1] - reference[1])
    total = np.zeros(points.shape[0], dtype=complex)
    for j, element in enumerate(np.asarray(elements, dtype=float)):
        rel = np.hypot(points[:, 0] - element[0], points[:, 1] - element[1])
        rel = rel - r0 - baseline_m
        total += np.exp(1j * np.outer(rel, k)) @ alpha_anchor[j]
    return total


@dataclass
class ReferenceGrid:
    """Candidate positions: the anchors' bounding box plus a margin."""

    x0: float
    y0: float
    num_x: int
    num_y: int
    resolution: float

    @classmethod
    def around(cls, anchor_xy: np.ndarray, margin: float, resolution: float) -> "ReferenceGrid":
        lo = anchor_xy.min(axis=0) - margin
        hi = anchor_xy.max(axis=0) + margin
        num_x = int(round((hi[0] - lo[0]) / resolution)) + 1
        num_y = int(round((hi[1] - lo[1]) / resolution)) + 1
        return cls(float(lo[0]), float(lo[1]), num_x, num_y, resolution)

    def points(self) -> np.ndarray:
        xs = self.x0 + self.resolution * np.arange(self.num_x)
        ys = self.y0 + self.resolution * np.arange(self.num_y)
        gx, gy = np.meshgrid(xs, ys)
        return np.column_stack([gx.ravel(), gy.ravel()])


def combined_map(
    tag: np.ndarray,
    master: np.ndarray,
    master_index: int,
    frequencies_hz: np.ndarray,
    elements: Sequence[np.ndarray],
    grid: ReferenceGrid,
) -> np.ndarray:
    """Eq. 10 then Eq. 17 per anchor, each normalised to peak 1, summed.

    ``elements[i]`` is anchor ``i``'s antenna positions ``(J, 2)``.
    Returns the map with shape ``(num_y, num_x)``.
    """
    alpha = eq10_alpha(tag, master, master_index)
    reference = np.asarray(elements[master_index][0], dtype=float)
    points = grid.points()
    combined = np.zeros(points.shape[0])
    for i, anchor_elements in enumerate(elements):
        anchor_elements = np.asarray(anchor_elements, dtype=float)
        baseline = float(np.hypot(*(anchor_elements[0] - reference)))
        magnitude = np.abs(
            eq17_complex(
                alpha[i, : anchor_elements.shape[0]],
                frequencies_hz,
                anchor_elements,
                reference,
                baseline,
                points,
            )
        )
        peak = magnitude.max()
        if peak > 0:
            combined += magnitude / peak
    return combined.reshape(grid.num_y, grid.num_x)


def strong_local_maxima(values: np.ndarray, min_relative: float) -> List[Tuple[int, int]]:
    """3x3 local maxima at or above ``min_relative`` of the global maximum."""
    padded = np.pad(values, 1, mode="constant", constant_values=-np.inf)
    is_max = np.ones(values.shape, dtype=bool)
    rows, cols = values.shape
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            if dr or dc:
                shifted = padded[1 + dr : 1 + dr + rows, 1 + dc : 1 + dc + cols]
                is_max &= values >= shifted
    is_max &= values >= min_relative * values.max()
    return [(int(r), int(c)) for r, c in zip(*np.nonzero(is_max))]


def near_strong_peak(
    position: Tuple[float, float],
    values: np.ndarray,
    grid: ReferenceGrid,
    min_relative: float,
) -> Tuple[bool, float]:
    """Whether ``position`` lies within one grid cell of a strong maximum.

    Returns ``(ok, distance_m)`` to the nearest qualifying maximum; one
    cell means the cell diagonal, the furthest a sub-grid refinement of
    half a cell per axis can move off a node (with margin).
    """
    best = np.inf
    for row, col in strong_local_maxima(values, min_relative):
        x = grid.x0 + col * grid.resolution
        y = grid.y0 + row * grid.resolution
        best = min(best, float(np.hypot(position[0] - x, position[1] - y)))
    return best <= grid.resolution * np.sqrt(2.0) + 1e-9, best


def negentropy(window: np.ndarray) -> float:
    """``log N - Shannon entropy`` of a non-negative window (peakiness)."""
    w = np.asarray(window, dtype=float).ravel()
    total = w.sum()
    if total <= 0:
        return 0.0
    p = w[w > 0] / total
    return float(np.log(w.size) + np.sum(p * np.log(p)))


def eq18_score(
    value: float,
    row: int,
    col: int,
    position: Tuple[float, float],
    values: np.ndarray,
    anchor_xy: np.ndarray,
    distance_weight: float,
    entropy_weight: float,
    entropy_window: int,
) -> float:
    """Eq. 18: ``p * exp(b H - a sum_i d_i)`` for one peak.

    ``H`` is the negentropy of the ``entropy_window``-square window of
    the map around the peak (clipped at the borders) and ``sum_i d_i``
    the distance from the peak to every anchor centre.
    """
    half = entropy_window // 2
    window = values[max(0, row - half) : row + half + 1, max(0, col - half) : col + half + 1]
    distance_sum = float(
        np.hypot(anchor_xy[:, 0] - position[0], anchor_xy[:, 1] - position[1]).sum()
    )
    return float(value * np.exp(entropy_weight * negentropy(window) - distance_weight * distance_sum))
