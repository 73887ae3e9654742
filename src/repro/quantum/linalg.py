"""Tensor-contraction kernels shared by states and simulators.

All functions use the package's little-endian convention: qubit 0 is the
least significant bit of a computational basis index. A state vector of
``n`` qubits reshaped to ``[2] * n`` therefore has tensor axis ``n - 1 - q``
for qubit ``q`` (numpy orders axes most-significant first).

Gate matrices are little-endian over their *own* qubit list: for an
instruction applying gate ``G`` to ``(q_a, q_b)``, gate-qubit 0 (the LSB of
the gate's basis index) is ``q_a``.

These are the scalar kernels: one state, one operator, every axis moved
back after each contraction. They run the per-task advance loops (the
naive reference path) and are the oracle the batched runner is tested
against. Branch batches do not come through here: they run as compiled
plan steps (:func:`repro.simulators.segments.apply_plan`), which perform
the same per-slice GEMMs with the same matrices but leave axes wherever
the last contraction put them.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

__all__ = [
    "apply_unitary_to_statevector",
    "apply_unitary_to_density",
    "apply_kraus_to_density",
    "apply_superop_to_density",
    "kraus_to_superoperator",
    "expand_unitary",
    "basis_index_bits",
    "bits_to_index",
]


def _front_axes(targets: Sequence[int], num_qubits: int) -> Tuple[int, ...]:
    """State-tensor axes for ``targets`` ordered gate-MSB first.

    The gate matrix reshaped to ``[2] * 2k`` has its first output axis equal
    to gate-qubit ``k-1`` (most significant); this returns the matching state
    axes so a single ``moveaxis`` aligns them.
    """
    return tuple(num_qubits - 1 - q for q in reversed(targets))


def apply_unitary_to_statevector(
    state: np.ndarray,
    matrix: np.ndarray,
    targets: Sequence[int],
    num_qubits: int,
) -> np.ndarray:
    """Apply a ``k``-qubit unitary to ``targets`` of an ``n``-qubit vector."""
    k = len(targets)
    axes = _front_axes(targets, num_qubits)
    tensor = state.reshape([2] * num_qubits)
    tensor = np.moveaxis(tensor, axes, range(k))
    shape = tensor.shape
    tensor = matrix @ tensor.reshape(2**k, -1)
    tensor = np.moveaxis(tensor.reshape(shape), range(k), axes)
    return tensor.reshape(2**num_qubits)


def _apply_left(
    rho: np.ndarray,
    matrix: np.ndarray,
    targets: Sequence[int],
    num_qubits: int,
) -> np.ndarray:
    """``matrix @ rho`` contracted on the row (ket) indices of ``targets``."""
    dim = 2**num_qubits
    k = len(targets)
    axes = _front_axes(targets, num_qubits)
    tensor = rho.reshape([2] * num_qubits + [dim])
    tensor = np.moveaxis(tensor, axes, range(k))
    shape = tensor.shape
    tensor = matrix @ tensor.reshape(2**k, -1)
    return np.moveaxis(tensor.reshape(shape), range(k), axes).reshape(dim, dim)


def apply_unitary_to_density(
    rho: np.ndarray,
    matrix: np.ndarray,
    targets: Sequence[int],
    num_qubits: int,
) -> np.ndarray:
    """Apply ``U rho U^dagger`` on ``targets`` of a density matrix.

    The column side reuses the fast row-side kernel through the identity
    ``sigma U^dagger = (U sigma^dagger)^dagger``.
    """
    sigma = _apply_left(rho, matrix, targets, num_qubits)
    return _apply_left(
        sigma.conj().T, matrix, targets, num_qubits
    ).conj().T


def kraus_to_superoperator(kraus_ops: Sequence[np.ndarray]) -> np.ndarray:
    """Superoperator ``S = sum_k K otimes K*`` of a Kraus channel.

    Index convention: the combined index ``(r, c) = r * 2^k + c`` pairs the
    row (ket) and column (bra) indices, matching the axis grouping used by
    :func:`apply_superop_to_density`.
    """
    first = np.asarray(kraus_ops[0], dtype=complex)
    dim = first.shape[0]
    superop = np.zeros((dim * dim, dim * dim), dtype=complex)
    for op in kraus_ops:
        op = np.asarray(op, dtype=complex)
        superop += np.kron(op, op.conj())
    return superop


def apply_superop_to_density(
    rho: np.ndarray,
    superop: np.ndarray,
    targets: Sequence[int],
    num_qubits: int,
) -> np.ndarray:
    """Apply a precomputed channel superoperator in one contraction.

    This is the fast path for noisy simulation: one ``(4^k, 4^k)`` matmul
    per channel application instead of two matmuls per Kraus operator.
    """
    dim = 2**num_qubits
    k = len(targets)
    row_axes = _front_axes(targets, num_qubits)
    col_axes = tuple(a + num_qubits for a in row_axes)
    tensor = rho.reshape([2] * (2 * num_qubits))
    tensor = np.moveaxis(tensor, row_axes + col_axes, range(2 * k))
    shape = tensor.shape
    tensor = superop @ tensor.reshape(4**k, -1)
    tensor = np.moveaxis(
        tensor.reshape(shape), range(2 * k), row_axes + col_axes
    )
    return tensor.reshape(dim, dim)


def apply_kraus_to_density(
    rho: np.ndarray,
    kraus_ops: Sequence[np.ndarray],
    targets: Sequence[int],
    num_qubits: int,
) -> np.ndarray:
    """Apply a CPTP channel ``sum_k K rho K^dagger`` on ``targets``.

    Converts to the superoperator form; callers that apply the same channel
    repeatedly should precompute it with :func:`kraus_to_superoperator` and
    call :func:`apply_superop_to_density` directly.
    """
    if len(kraus_ops) == 1:
        return apply_unitary_to_density(
            rho, kraus_ops[0], targets, num_qubits
        )
    return apply_superop_to_density(
        rho, kraus_to_superoperator(kraus_ops), targets, num_qubits
    )


def expand_unitary(
    matrix: np.ndarray,
    targets: Sequence[int],
    num_qubits: int,
) -> np.ndarray:
    """Embed a ``k``-qubit unitary into the full ``2^n``-dim space.

    Prefer the streaming kernels above for simulation; this dense form is
    used by :class:`~repro.quantum.operators.Operator` and by tests that
    cross-check the streaming kernels.
    """
    dim = 2**num_qubits
    out = np.zeros((dim, dim), dtype=complex)
    k = len(targets)
    mask = sum(1 << q for q in targets)
    rest = [q for q in range(num_qubits) if q not in targets]
    for env in range(2 ** len(rest)):
        base = 0
        for pos, q in enumerate(rest):
            if env >> pos & 1:
                base |= 1 << q
        indices = []
        for sub in range(2**k):
            idx = base
            for pos, q in enumerate(targets):
                if sub >> pos & 1:
                    idx |= 1 << q
            indices.append(idx)
        idx_arr = np.asarray(indices)
        out[np.ix_(idx_arr, idx_arr)] = matrix
    assert mask >= 0  # mask retained for clarity; targets validated upstream
    return out


def basis_index_bits(index: int, num_qubits: int) -> Tuple[int, ...]:
    """Little-endian bit tuple of a basis index: element q is qubit q's bit."""
    return tuple(index >> q & 1 for q in range(num_qubits))


def bits_to_index(bits: Sequence[int]) -> int:
    """Inverse of :func:`basis_index_bits`."""
    return sum(bit << q for q, bit in enumerate(bits))
