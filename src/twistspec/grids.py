"""Sampled functions on weighted 1D grids."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError


@dataclass
class GridFunction:
    """Function samples on a 1D grid with per-node measure weights.

    `pieces` marks the [start, stop) index ranges of the connected grid
    components (one per interval of the underlying domain); finite
    differences never reach across a piece boundary.
    """
    nodes: np.ndarray
    values: np.ndarray
    node_weights: np.ndarray
    pieces: list[tuple[int, int]] = field(default_factory=list)

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        self.node_weights = np.asarray(self.node_weights, dtype=float)
        n = len(self.nodes)
        if len(self.values) != n or len(self.node_weights) != n:
            raise DomainError("GridFunction: fields must have equal length")
        if np.any(self.node_weights <= 0):
            raise DomainError("GridFunction: node weights must be positive")
        if not self.pieces:
            self.pieces = [(0, n)]

    @property
    def mass(self) -> float:
        return float(np.sum(self.node_weights))

    def weighted_mean(self) -> float:
        return float(np.dot(self.node_weights, self.values))

    def gradient(self) -> np.ndarray:
        """Central differences per piece (one-sided at piece ends)."""
        out = np.empty_like(self.values)
        for (a, b) in self.pieces:
            x = self.nodes[a:b]
            v = self.values[a:b]
            out[a:b] = np.gradient(v, x)
        return out

    def gradient_energy(self) -> float:
        """int |u'|^2 d gamma by node-weight quadrature of the FD gradient."""
        g = self.gradient()
        return float(np.dot(self.node_weights, g * g))

    def with_values(self, values: np.ndarray) -> "GridFunction":
        return GridFunction(self.nodes, np.asarray(values, dtype=float),
                            self.node_weights, list(self.pieces))
