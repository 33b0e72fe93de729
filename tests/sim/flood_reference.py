"""Reference neighbor-max for the flood-kernel tests.

A per-row Python loop over the CSR: it shares no code with either kernel
it checks (the batched slot-major take and the scalar ``reduceat``).
"""

import numpy as np


def reference_neighbor_max(indptr, indices, values):
    """``out[v] = max(values[u] for u in N(v))`` row by row, any trailing shape."""
    out = np.empty_like(values)
    for v in range(indptr.shape[0] - 1):
        out[v] = values[indices[indptr[v] : indptr[v + 1]]].max(axis=0)
    return out
