"""A naive reference for campaign records: one dense simulation per task.

For every task the oracle rebuilds the whole faulty circuit and evolves
a dense ``2**n`` statevector or ``2**n x 2**n`` density matrix through
full-size matrices: each gate's unitary embedded in the whole space,
then the Kraus operators the noise model attaches to that gate, and
resets as their Kraus pair. It folds readout confusion into the final
diagonal, marginalises onto the classical register and scores Eqs. 1-2
of the paper.

It shares circuit construction and the noise model's channels with the
engine, and nothing else: no simulator, segment, executor or scoring
code, and no snapshots, batching, plans or caching. The engine's
contract is stated against it: single-fault records on the response
basis lie within 1e-12 QVF of :func:`oracle_qvfs`.
"""

from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.quantum.gates import Barrier, Measure, Reset

__all__ = ["embed", "faulty_circuit", "oracle_distribution", "oracle_qvfs"]

RESET_KRAUS = (
    np.array([[1, 0], [0, 0]], dtype=complex),
    np.array([[0, 1], [0, 0]], dtype=complex),
)


def embed(matrix, targets: Sequence[int], num_qubits: int) -> np.ndarray:
    """``matrix`` acting on ``targets`` as a full ``2**n x 2**n`` matrix.

    Little-endian: qubit q is bit q of a basis index, and bit ``pos`` of
    the gate's own index is ``targets[pos]``.
    """
    index = np.arange(2**num_qubits)
    sub = np.zeros_like(index)
    for pos, qubit in enumerate(targets):
        sub |= ((index >> qubit) & 1) << pos
    rest = index & ~sum(1 << qubit for qubit in targets)
    full = np.asarray(matrix, dtype=complex)[sub[:, None], sub[None, :]]
    return np.where(rest[:, None] == rest[None, :], full, 0)


def faulty_circuit(circuit, task):
    """``circuit`` with the task's injector gates spliced in after its
    point: the fault, then a pair's second fault, then a cluster's
    extra faults."""
    faulty = circuit.copy(name=f"{circuit.name}~oracle")
    position = task.point.position + 1
    faults = [(task.point.qubit, task.fault)]
    if task.second_fault is not None:
        faults.append((task.second_qubit, task.second_fault))
    faults.extend(task.extra_faults)
    for offset, (qubit, fault) in enumerate(faults):
        faulty.insert(position + offset, fault.as_gate(), [qubit])
    return faulty


def _noise_kraus(noise_model, name: str, qubits: Tuple[int, ...]):
    """``(kraus, targets)`` of the channel a gate carries: on all its
    qubits when the arities match, else a one-qubit channel per qubit."""
    channel = None if noise_model is None else noise_model.channel_for(
        name, qubits
    )
    if channel is None:
        return []
    if channel.num_qubits == len(qubits):
        return [(channel.kraus, qubits)]
    assert channel.num_qubits == 1, channel.name
    return [(channel.kraus, (qubit,)) for qubit in qubits]


def _evolve(circuit, noise_model, density: bool):
    """The final dense state and the ``{clbit: qubit}`` measure map."""
    num_qubits = circuit.num_qubits
    dim = 2**num_qubits
    state = np.zeros((dim, dim) if density else dim, dtype=complex)
    state[(0, 0) if density else 0] = 1.0
    measures: Dict[int, int] = {}
    for inst in circuit.instructions:
        gate, qubits = inst.gate, tuple(inst.qubits)
        if isinstance(gate, Barrier):
            continue
        if isinstance(gate, Measure):
            measures[inst.clbits[0]] = qubits[0]
            continue
        if isinstance(gate, Reset):
            ops = [(RESET_KRAUS, qubits)]
        else:
            ops = [((gate.matrix,), qubits)]
            ops += _noise_kraus(noise_model, inst.name, qubits)
        for kraus, targets in ops:
            full = [embed(k, targets, num_qubits) for k in kraus]
            if density:
                state = sum(k @ state @ k.conj().T for k in full)
            else:
                assert len(full) == 1, "a statevector takes unitaries only"
                state = full[0] @ state
    return state, measures


def oracle_distribution(circuit, noise_model=None, density=False):
    """The clbit distribution of ``circuit``, as ``{bitstring: p}``.

    Without measurements it is the qubit distribution, keyed by all
    ``n`` qubits.
    """
    num_qubits = circuit.num_qubits
    state, measures = _evolve(circuit, noise_model, density)
    probs = np.real(np.diag(state)) if density else np.abs(state) ** 2
    probs = np.clip(probs, 0.0, None)
    probs = probs / probs.sum()
    if noise_model is not None:
        for qubit in sorted(set(measures.values())):
            confusion = noise_model.readout_confusion(qubit)
            if confusion is not None:
                probs = np.real(embed(confusion, (qubit,), num_qubits)) @ probs
    if not measures:
        return {
            format(index, f"0{num_qubits}b"): float(p)
            for index, p in enumerate(probs)
        }
    width = circuit.num_clbits
    out: Dict[str, float] = {}
    for index, p in enumerate(probs):
        bits = ["0"] * width
        for clbit, qubit in measures.items():
            bits[width - 1 - clbit] = str(index >> qubit & 1)
        key = "".join(bits)
        out[key] = out.get(key, 0.0) + float(p)
    return out


def _qvf(distribution: Dict[str, float], correct_states) -> float:
    """Eq. 1 (Michelson contrast of the correct states against the
    strongest wrong one), then Eq. 2."""
    correct = set(correct_states)
    p_a = sum(distribution.get(state, 0.0) for state in correct)
    p_b = max(
        (p for state, p in distribution.items() if state not in correct),
        default=0.0,
    )
    contrast = 0.0 if p_a + p_b <= 0 else (p_a - p_b) / (p_a + p_b)
    return 1.0 - (contrast + 1.0) / 2.0


def oracle_qvfs(
    plan,
    noise_model=None,
    density: bool = False,
    tasks: Optional[Iterable] = None,
) -> np.ndarray:
    """Exact QVF of each of ``plan``'s tasks (or of ``tasks``), each
    from its own dense simulation of the whole faulty circuit."""
    tasks = plan.tasks if tasks is None else tasks
    return np.array(
        [
            _qvf(
                oracle_distribution(
                    faulty_circuit(plan.circuit, task), noise_model, density
                ),
                plan.correct_states,
            )
            for task in tasks
        ]
    )
