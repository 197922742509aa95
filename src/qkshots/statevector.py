"""Dense statevector engine: Hadamard layers and one-qubit reductions.

Conventions used throughout the package:

* qubit ``k`` is the k-th least-significant bit of the basis-state index,
* ``Z|0> = +|0>``, so the Z eigenvalue of basis state ``b`` on qubit ``k``
  is ``+1`` when bit ``k`` of ``b`` is 0 and ``-1`` otherwise,
* global phase is never normalised away; every downstream quantity
  (overlap magnitudes, reduced matrices) is insensitive to it.

States are pure. The embedding works in place on (rows, 2**n) amplitude
blocks; a :class:`StateVector` is an immutable copy of one row, as
``feature_map.embed`` returns it and :func:`reduce_to_qubit` reads it.
Memory is the only hard limit, enforced by a configurable qubit cap
(default 14, i.e. 16384 amplitudes).
"""

from __future__ import annotations

from functools import reduce

import numpy as np

DEFAULT_QUBIT_CAP = 14

# qubits per Kronecker factor of :func:`walsh_hadamard`; larger groups trade
# fewer matrix products for 2**g multiply-adds per amplitude each
HADAMARD_GROUP_BITS = 4

_NORM_TOL = 1e-10
_HERMITICITY_TOL = 1e-10
_EIGENVALUE_TOL = -1e-10


class ConfigurationError(ValueError):
    """Invalid run configuration (qubit counts, strategies, probabilities)."""


class StateVector:
    """Pure state of ``n_qubits`` qubits as ``2**n_qubits`` complex amplitudes.

    The amplitude array is made read-only on construction; treat instances
    as immutable values that are safe to share across threads.
    """

    __slots__ = ("n_qubits", "amplitudes")

    def __init__(self, n_qubits: int, amplitudes) -> None:
        if n_qubits < 1:
            raise ConfigurationError(f"n_qubits must be >= 1, got {n_qubits}")
        amps = np.array(amplitudes, dtype=complex, copy=True)
        if amps.shape != (2**n_qubits,):
            raise ValueError(
                f"expected {2**n_qubits} amplitudes for {n_qubits} qubits, "
                f"got shape {amps.shape}"
            )
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if abs(norm_sq - 1.0) > _NORM_TOL:
            raise ValueError(f"state is not normalised: sum |a|^2 = {norm_sq!r}")
        amps.setflags(write=False)
        self.n_qubits = n_qubits
        self.amplitudes = amps

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StateVector(n_qubits={self.n_qubits})"


class ReducedDensityMatrix:
    """One-qubit reduced density matrix, as :func:`reduce_to_qubit` returns it.

    Its three real components are the ``|0>`` population (the real
    diagonal entry ``entries[0, 0]``) and the real and imaginary parts of
    the upper off-diagonal entry.
    """

    __slots__ = ("entries",)

    def __init__(self, entries) -> None:
        mat = np.array(entries, dtype=complex, copy=True)
        if mat.shape != (2, 2):
            raise ValueError(f"expected a 2x2 matrix, got shape {mat.shape}")
        if np.max(np.abs(mat - mat.conj().T)) > _HERMITICITY_TOL:
            raise ValueError("matrix is not Hermitian within tolerance")
        trace = mat[0, 0].real + mat[1, 1].real
        if abs(trace - 1.0) > _NORM_TOL:
            raise ValueError(f"trace must be 1, got {trace!r}")
        # the smaller eigenvalue of a Hermitian 2x2 matrix
        half_trace = 0.5 * trace
        det = (mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]).real
        if half_trace - np.sqrt(max(half_trace**2 - det, 0.0)) < _EIGENVALUE_TOL:
            raise ValueError("matrix has a significantly negative eigenvalue")
        mat.setflags(write=False)
        self.entries = mat

    @property
    def components(self) -> tuple[float, float, float]:
        """(population, Re offdiag, Im offdiag)."""
        off = self.entries[0, 1]
        return (float(self.entries[0, 0].real), float(off.real), float(off.imag))


def check_qubit_count(n_qubits: int, cap: int | None = None) -> None:
    """Raise :class:`ConfigurationError` when ``n_qubits`` is outside
    ``[1, cap]``; the cap (default ``DEFAULT_QUBIT_CAP``) bounds memory use."""
    limit = DEFAULT_QUBIT_CAP if cap is None else cap
    if not 1 <= n_qubits <= limit:
        raise ConfigurationError(
            f"n_qubits must be in [1, {limit}], got {n_qubits}"
        )


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


def reduce_to_qubit(state: StateVector, k: int) -> ReducedDensityMatrix:
    """Trace out all qubits except ``k`` in O(2**n), without forming the full
    density matrix."""
    n = state.n_qubits
    if not 0 <= k < n:
        raise IndexError(f"qubit index {k} out of range for {n} qubits")
    # index b = high * 2**(k+1) + bit_k * 2**k + low
    blocks = state.amplitudes.reshape(2 ** (n - 1 - k), 2, 2**k)
    rho = np.einsum("hil,hjl->ij", blocks, blocks.conj())
    return ReducedDensityMatrix(rho)


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
