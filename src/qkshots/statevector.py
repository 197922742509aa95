"""Dense statevector engine: Hadamard layers and one-qubit reductions.

Conventions used throughout the package:

* qubit ``k`` is the k-th least-significant bit of the basis-state index,
* ``Z|0> = +|0>``, so the Z eigenvalue of basis state ``b`` on qubit ``k``
  is ``+1`` when bit ``k`` of ``b`` is 0 and ``-1`` otherwise,
* global phase is never normalised away; every downstream quantity
  (overlap magnitudes, reduced matrices) is insensitive to it.

States are pure: the rows of (rows, 2**n) amplitude blocks, which
:func:`walsh_hadamard` transforms in place and :func:`qubit_components`
reduces to (rows, n, 3) one-qubit components. The engine has no qubit
limit: a row of n qubits takes 2**n * 16 bytes, and the command line is
the only place that bounds n.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

# qubits per Kronecker factor of :func:`walsh_hadamard`; larger groups trade
# fewer matrix products for 2**g multiply-adds per amplitude each
HADAMARD_GROUP_BITS = 4


class ConfigurationError(ValueError):
    """Invalid run configuration (qubit counts, strategies, probabilities)."""


# unnormalised Hadamard matrices on g = 0..HADAMARD_GROUP_BITS qubits, and
# the same with Re and Im riding along as interleaved columns
_HADAMARD = [
    reduce(np.kron, [[[1.0, 1.0], [1.0, -1.0]]] * g, np.ones((1, 1)))
    for g in range(HADAMARD_GROUP_BITS + 1)
]
_HADAMARD_RE_IM = [np.kron(h, np.eye(2)) for h in _HADAMARD]


def walsh_hadamard(block: np.ndarray, n_qubits: int) -> None:
    """Apply an unnormalised Hadamard gate to every qubit of every row of a
    C-contiguous (rows, 2**n) amplitude block, in place. A Hadamard layer
    is this transform times ``2**(-n/2)``.

    ``H^{⊗n}`` is the Kronecker product of one Hadamard matrix per group
    of at most ``HADAMARD_GROUP_BITS`` qubits, and each factor is one real
    matrix product on the float64 view of the block (Re and Im interleaved),
    ping-ponging between the block and one scratch buffer.
    """
    src = view = block.view(np.float64)
    dst = np.empty_like(view)
    g = min(n_qubits, HADAMARD_GROUP_BITS)
    # index b = high * 2**g + low, and float index 2 * low + (0: Re, 1: Im)
    np.matmul(
        src.reshape(-1, 2 ** (g + 1)), _HADAMARD_RE_IM[g],
        out=dst.reshape(-1, 2 ** (g + 1)),
    )
    done = g
    while done < n_qubits:
        g = min(n_qubits - done, HADAMARD_GROUP_BITS)
        src, dst = dst, src
        # index b = high * 2**(done+g) + group * 2**done + low
        shape = (-1, 2**g, 2 ** (done + 1))
        np.matmul(_HADAMARD[g], src.reshape(shape), out=dst.reshape(shape))
        done += g
    if dst is not view:
        view[...] = dst


def qubit_components(block: np.ndarray, n_qubits: int) -> np.ndarray:
    """(rows, n, 3) one-qubit reduced-matrix components of every row of a
    (rows, 2**n) amplitude block: per qubit, the |0> population and the
    real and imaginary parts of the upper off-diagonal entry."""
    rows = block.shape[0]
    out = np.empty((rows, n_qubits, 3))
    # index b = high * 2**(k+1) + bit_k * 2**k + low
    probs = block.real**2 + block.imag**2
    for k in range(n_qubits):
        out[:, k, 0] = probs.reshape(rows, -1, 2, 2**k)[:, :, 0].sum(axis=(1, 2))
    del probs  # freed before the conjugate is made: one of them at a time
    conj = block.conj()
    for k in range(n_qubits):
        ket = block.reshape(rows, -1, 2, 2**k)[:, :, 0]
        bra = conj.reshape(rows, -1, 2, 2**k)[:, :, 1]
        coherence = np.einsum("rhl,rhl->r", ket, bra)
        out[:, k, 1] = coherence.real
        out[:, k, 2] = coherence.imag
    return out
