"""A fixed reference loop that measures how fast the machine runs right now.

On a shared machine the speed of a core drifts by tens of percent over
minutes, with other tenants' load. The runner times this loop before the
first command and after every command; scaling a command's time by the
mean of the two loop times around it cancels most of that drift, because
the loop and the library slow down together. The loop mixes what the
workloads do: small numpy solves called from Python, LAPACK SVD and
symmetric eigenvalues on mid-sized matrices, a matrix product that uses
every BLAS thread, and building and parsing JSON text. It does not touch
spurious_lens, so no change to the library can move it.
"""

from __future__ import annotations

import json
import time

import numpy as np

# The loop's median time on a 2-vCPU Intel Xeon at 2.1 GHz with two BLAS
# threads; normalized times are expressed in seconds of that machine.
REFERENCE_S = 0.02

_MATRIX = np.random.default_rng(0).standard_normal((200, 200))
_SMALL = np.eye(20) + 0.1 * _MATRIX[:20, :20]
# Large enough that BLAS splits the product across its threads.
_WIDE = np.random.default_rng(1).standard_normal((400, 400))
_SYM = _WIDE[:250, :250] + _WIDE[:250, :250].T
_ONES = np.ones(20)
# Bound at import, so a tracer that wraps numpy.linalg does not see the loop.
_svd = np.linalg.svd
_eigvalsh = np.linalg.eigvalsh
_solve = np.linalg.solve


def _loop() -> float:
    t = time.perf_counter()
    for _ in range(150):
        x = _solve(_SMALL @ _SMALL.T, _ONES)
        np.allclose(_SMALL @ x, _ONES)
    _svd(_MATRIX[:120])
    _WIDE @ _WIDE
    _eigvalsh(_SYM)
    text = json.dumps(_MATRIX[:12].tolist())
    json.loads(text)
    "".join(format(v, ".17g") for v in _MATRIX[12:24].flat)
    return time.perf_counter() - t


def calibrate() -> float:
    """Median wall time of three runs of the reference loop, in seconds."""
    return sorted(_loop() for _ in range(3))[1]
