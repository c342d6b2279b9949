"""A vectorised, definition-level SCAN oracle for many (ε, µ) points.

``core.validate.brute_force_scan`` takes 0.3-0.7 s per point on the
stand-ins, too slow to check every cold read of a run.  This oracle
counts each arc's closed-neighbourhood overlap once per graph (one sparse
product) and then answers any point with array operations.  It uses
nothing of the program but its result type; every run checks it against
``brute_force_scan`` at the warm points before it is trusted.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

#: Rows of the adjacency matrix squared at a time, which bounds the
#: product's memory (tens of MB on the stand-ins).
ROWS_PER_BLOCK = 2048


class ScanOracle:
    """Exact SCAN clusterings of one graph at any (ε, µ)."""

    def __init__(self, graph) -> None:
        n = graph.num_vertices
        self.n = n
        self.src = np.repeat(np.arange(n, dtype=np.int64), graph.degrees)
        self.dst = np.asarray(graph.dst, dtype=np.int64)
        adjacency = sparse.csr_matrix(
            (np.ones(self.dst.size, dtype=np.int64), self.dst, graph.offsets),
            shape=(n, n),
        )
        overlaps = []
        for lo in range(0, n, ROWS_PER_BLOCK):
            rows = adjacency[lo : lo + ROWS_PER_BLOCK]
            # (rows @ A) masked to the arcs of ``rows``; adding ``rows``
            # keeps arcs with no common neighbour, so the data lines up
            # with ``dst``.
            block = ((rows @ adjacency).multiply(rows) + rows).tocsr()
            block.sort_indices()
            overlaps.append(block.data - 1)
        # |N(u) ∩ N(v)| + 2: u and v are in both closed neighbourhoods.
        self.closed = np.concatenate(overlaps) + 2
        degrees = np.asarray(graph.degrees, dtype=np.int64)
        self.closed_sizes = (degrees[self.src] + 1) * (degrees[self.dst] + 1)

    def scan(self, eps: float, mu: int):
        """The clustering at (ε, µ): an arc is similar when its overlap
        ``c`` meets ``c ≥ ε·√((d(u)+1)(d(v)+1))``, decided exactly in
        integers with ε as the program's fraction ``p/q``."""
        from repro.core.result import ClusteringResult
        from repro.types import CORE, NONCORE, ScanParams

        params = ScanParams(eps, mu)
        p, q = params.eps_fraction.numerator, params.eps_fraction.denominator
        similar = self.closed * self.closed * (q * q) >= (p * p) * self.closed_sizes
        core = np.bincount(self.src[similar], minlength=self.n) >= mu
        linked = similar & core[self.src] & core[self.dst]
        _, component = connected_components(
            sparse.csr_matrix(
                (np.ones(int(linked.sum())), (self.src[linked], self.dst[linked])),
                shape=(self.n, self.n),
            ),
            directed=False,
        )
        cores = np.flatnonzero(core)
        # A cluster's id is its smallest core, as in brute_force_scan.
        smallest = np.full(self.n, self.n, dtype=np.int64)
        np.minimum.at(smallest, component[cores], cores)
        labels = np.full(self.n, -1, dtype=np.int64)
        labels[cores] = smallest[component[cores]]
        attached = similar & core[self.src] & ~core[self.dst]
        pairs = np.unique(
            np.stack([labels[self.src[attached]], self.dst[attached]], axis=1),
            axis=0,
        )
        return ClusteringResult(
            algorithm="oracle",
            params=params,
            roles=np.where(core, CORE, NONCORE).astype(np.int8),
            core_labels=labels,
            noncore_pairs=pairs,
        )
