"""Readout-error mitigation.

Standard post-processing on IBM machines: the per-qubit assignment
(confusion) matrices are calibrated, and the measured distribution is
multiplied by their inverse to undo classical readout bias. Mitigation
sharpens QVF by removing the readout component of the noise floor —
useful when separating *propagated fault* effects from *measurement*
effects in a campaign.

:class:`MitigatedReadoutBackend` lifts the post-processing into the
campaign engine: it wraps any backend and mitigates every result against
the noise model's readout confusion, so a scenario with
``mitigation: true`` scores QVF from corrected distributions. Pairing
such a scenario with its raw twin and diffing through
:func:`mitigation_delta` yields the mitigated-vs-raw QVF delta columns.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Sequence

import numpy as np

from ..quantum.circuit import Instruction, QuantumCircuit
from ..quantum.gates import Measure
from ..simulators.backend import (
    BranchBatch,
    BranchSlots,
    SimulationSnapshot,
    supports_batched_branches,
)
from ..simulators.noise import NoiseModel, ReadoutError
from ..simulators.sampler import Result

__all__ = [
    "mitigate_readout",
    "mitigate_readout_rows",
    "mitigation_matrix",
    "mitigation_delta",
    "MitigatedReadoutBackend",
    "BatchedMitigatedReadoutBackend",
]


def mitigation_matrix(
    errors: Sequence[Optional[ReadoutError]],
) -> np.ndarray:
    """Inverse of the tensor-product confusion matrix.

    ``errors[q]`` is qubit q's readout error (None = ideal). The result
    acts on probability vectors indexed little-endian.
    """
    matrix = np.array([[1.0]])
    for error in errors:  # qubit 0 first -> kron new qubit on the left
        confusion = (
            error.matrix if error is not None and not error.is_trivial()
            else np.eye(2)
        )
        matrix = np.kron(confusion, matrix)
    return np.linalg.inv(matrix)


def mitigate_readout(
    probabilities: Mapping[str, float],
    errors: Sequence[Optional[ReadoutError]],
) -> Dict[str, float]:
    """Undo per-qubit readout confusion on a measured distribution.

    ``probabilities`` maps bitstrings (highest qubit leftmost) to values.
    The distribution goes through :func:`mitigate_readout_rows` as one
    dense row; the result holds its nonzero entries in ascending key
    order.
    """
    num_qubits = len(errors)
    row = np.zeros((1, 2**num_qubits))
    for bitstring, value in probabilities.items():
        if len(bitstring) != num_qubits:
            raise ValueError(
                f"bitstring {bitstring!r} does not match {num_qubits} qubits"
            )
        row[0, int(bitstring, 2)] = value
    mitigated = mitigate_readout_rows(row, errors)[0]
    return {
        format(int(index), f"0{num_qubits}b"): float(mitigated[index])
        for index in np.nonzero(mitigated)[0]
    }


def mitigate_readout_rows(
    rows: np.ndarray,
    errors: Sequence[Optional[ReadoutError]],
) -> np.ndarray:
    """Undo per-qubit readout confusion on ``(B, 2**len(errors))`` rows.

    Column ``k`` of a row is the probability of bitstring ``k``. Each
    row, one at a time, is multiplied by the inverse confusion matrix,
    clipped onto the simplex (inversion can turn sampled data into small
    negative quasi-probabilities), renormalised, and cut to 0.0 wherever
    it is not above ``1e-12``.
    """
    inverse = mitigation_matrix(errors)
    out = np.zeros(rows.shape)
    for corrected, row in zip(out, rows):
        mitigated = np.clip(inverse @ row, 0.0, None)
        total = mitigated.sum()
        if total > 0:
            mitigated = mitigated / total
        np.copyto(corrected, mitigated, where=mitigated > 1e-12)
    return out


class MitigatedReadoutBackend:
    """A backend whose every result is readout-mitigated before scoring.

    Wraps an inner backend and a :class:`NoiseModel`: after each ``run``
    the clbit-to-qubit measurement map of the executed circuit selects
    the per-qubit :class:`ReadoutError` objects, and the distribution is
    corrected through :func:`mitigate_readout` (one dense row of
    :func:`mitigate_readout_rows`, the correction the batched wrapper
    applies to every row of a batch) before it reaches the caller.
    Campaigns over this backend therefore score QVF from mitigated
    distributions with no change to the campaign engine.

    Over a batch-capable inner backend (the exact simulators, a
    calibrated machine's density matrix among them) construction returns
    a :class:`BatchedMitigatedReadoutBackend`, which the engine runs
    batched. Over any other (the trajectory simulator, the emulator) the
    wrapper implements only the plain ``run`` protocol, so executors
    drive it through the naive per-task loop: exact,
    strategy-independent, and (for inner backends marked
    ``per_run_seeding``, whose seed argument is forwarded) deterministic
    across kill/resume boundaries as well. Either way ``run`` is the
    inner ``run`` (the simulators' one distribution path) followed by
    :func:`mitigate_readout`; the per-task loop and the fault-free QVF
    score through it.
    """

    def __new__(cls, backend=None, noise_model=None):
        # Unpickling calls __new__ without arguments, on the final class.
        if cls is MitigatedReadoutBackend and supports_batched_branches(backend):
            cls = BatchedMitigatedReadoutBackend
        return super().__new__(cls)

    def __init__(self, backend, noise_model: Optional[NoiseModel]) -> None:
        self.backend = backend
        self.noise_model = noise_model
        self.name = f"mitigated({getattr(backend, 'name', 'backend')})"

    @property
    def per_run_seeding(self) -> bool:
        """Whether the inner backend accepts a per-``run`` seed."""
        return bool(getattr(self.backend, "per_run_seeding", False))

    def _errors(
        self, instructions: Iterable[Instruction], num_clbits: int
    ) -> Sequence[Optional[ReadoutError]]:
        """Per-clbit readout errors, routed through the measure map of
        the executed ``instructions``."""
        errors: list = [None] * num_clbits
        if self.noise_model is None:
            return errors
        for inst in instructions:
            if isinstance(inst.gate, Measure):
                clbit = inst.clbits[0]
                if 0 <= clbit < num_clbits:
                    errors[clbit] = self.noise_model.readout_error(
                        inst.qubits[0]
                    )
        return errors

    def run(
        self,
        circuit: QuantumCircuit,
        shots: Optional[int] = None,
        seed=None,
    ) -> Result:
        """Run on the inner backend, then invert its readout confusion."""
        if seed is not None and self.per_run_seeding:
            result = self.backend.run(circuit, shots=shots, seed=seed)
        else:
            result = self.backend.run(circuit, shots=shots)
        errors = self._errors(circuit, result.num_clbits)
        if all(error is None for error in errors):
            return result
        return Result(
            mitigate_readout(result.probabilities, errors),
            num_clbits=result.num_clbits,
            shots=result.shots,
            metadata={**result.metadata, "mitigated": True},
        )


class BatchedMitigatedReadoutBackend(MitigatedReadoutBackend):
    """Readout mitigation over a batch-capable backend, itself batch-capable.

    Snapshots, tail compilers and branch batches come from the inner
    backend; like the simulators it has no per-branch path of its own.
    Each probability row of a batch is then corrected through
    :func:`mitigate_readout_rows`, so the engine scores the same values,
    bit for bit, as the per-task loop scores the mitigated ``run``
    results of the whole faulty circuits. Build it through
    :class:`MitigatedReadoutBackend`.
    """

    def prefix_snapshot(
        self,
        circuit: QuantumCircuit,
        stop: Optional[int] = None,
        base: Optional[SimulationSnapshot] = None,
    ) -> SimulationSnapshot:
        return self.backend.prefix_snapshot(circuit, stop=stop, base=base)

    def run_branches_from_snapshot(
        self,
        snapshot: SimulationSnapshot,
        circuit: QuantumCircuit,
        slots: BranchSlots,
        shots: Optional[int] = None,
        plan: Optional[object] = None,
        basis_tile: Optional[int] = None,
    ) -> BranchBatch:
        batch = self.backend.run_branches_from_snapshot(
            snapshot, circuit, slots, shots=shots, plan=plan,
            basis_tile=basis_tile,
        )
        # Slots are unitary, so the branches measure what ``circuit`` does.
        errors = self._errors(circuit, batch.num_clbits)
        if all(error is None for error in errors):
            return batch
        probabilities = mitigate_readout_rows(batch.result_probabilities(), errors)
        return BranchBatch(
            probabilities=probabilities,
            present=probabilities > 1e-12,
            key_width=batch.key_width,
            num_clbits=batch.num_clbits,
            shots=batch.shots,
            metadata={**batch.metadata, "mitigated": True},
        )

    def tail_compiler(self, circuit: QuantumCircuit):
        return self.backend.tail_compiler(circuit)

    def branch_state_nbytes(self, num_qubits: int) -> int:
        return self.backend.branch_state_nbytes(num_qubits)

    @property
    def basis_responses(self) -> Optional[int]:
        return getattr(self.backend, "basis_responses", None)


def mitigation_delta(raw, mitigated) -> Dict[str, object]:
    """Mitigated-vs-raw QVF delta columns for twin campaigns.

    ``raw`` and ``mitigated`` are :class:`~repro.faults.campaign.
    CampaignResult` objects from the same scenario run with the
    mitigation flag off and on: identical task enumeration, so their
    record tables align row by row. Returns the aligned fault columns
    plus ``qvf_raw`` / ``qvf_mitigated`` / ``qvf_delta`` arrays
    (``delta = mitigated - raw``; negative means mitigation lowered the
    apparent corruption) and the mean delta.
    """
    raw_table, mitigated_table = raw.table, mitigated.table
    if len(raw_table) != len(mitigated_table):
        raise ValueError(
            f"campaigns do not align: {len(raw_table)} raw records vs "
            f"{len(mitigated_table)} mitigated"
        )
    for column in ("theta", "phi", "position", "qubit"):
        if not np.array_equal(
            raw_table.column(column), mitigated_table.column(column)
        ):
            raise ValueError(
                f"campaigns do not align on the {column!r} column; "
                f"mitigation deltas need twin scenarios differing only "
                f"in the mitigation flag"
            )
    qvf_raw = raw_table.column("qvf")
    qvf_mitigated = mitigated_table.column("qvf")
    delta = qvf_mitigated - qvf_raw
    return {
        "theta": raw_table.column("theta"),
        "phi": raw_table.column("phi"),
        "position": raw_table.column("position"),
        "qubit": raw_table.column("qubit"),
        "qvf_raw": qvf_raw,
        "qvf_mitigated": qvf_mitigated,
        "qvf_delta": delta,
        "mean_delta": float(delta.mean()) if delta.size else 0.0,
    }
