"""Monte-Carlo quantum-trajectory simulator.

An independent implementation of noisy execution: instead of evolving the
full density matrix, each *trajectory* carries a pure state and samples one
Kraus operator per noisy gate (with Born probabilities ``||K |psi>||^2``).
Averaging trajectories converges to the density-matrix result — which makes
this backend both a scalability option (statevector memory instead of
density-matrix memory) and a cross-check: the test suite verifies the two
engines agree within Monte-Carlo error, so a bug in either shows up as a
divergence.

A run evolves its trajectories together, as one ``(T, 2**n)`` statevector
stack (tiled to :data:`TRAJECTORY_TILE_BYTES`), with the segment runner's
per-slice GEMMs. The random stream is that of one trajectory after
another: the circuit fixes how many uniforms a trajectory draws (one per
noise-channel application and one per reset), so the run draws all of
them up front in trajectory-major order, and each Kraus pick is
``Generator.choice``'s own inverse-CDF search on its uniform. Branch
weights, the pick and the renormalisation stay per row, so every
trajectory is bit-identical to evolving it alone.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..quantum.circuit import QuantumCircuit
from ..quantum.gates import Barrier, Measure, Reset
from ..quantum.states import format_bitstring
from .noise import NoiseModel
from .sampler import Result
from .segments import RESET_KRAUS, PlanStep, compile_steps, run_steps

__all__ = ["TrajectorySimulator", "TRAJECTORY_TILE_BYTES"]

# Largest complex128 statevector stack a run holds at once: a tile's
# trajectories times the Kraus count of its widest draw (each draw holds
# every candidate branch). A circuit too wide for the budget runs one
# trajectory at a time, which is the memory of evolving trajectories one
# by one.
TRAJECTORY_TILE_BYTES = 1 << 22

# One step of a trajectory program: ``(steps, None, None)`` applies a run
# of gates to every row; ``(None, kraus, targets)`` is a Kraus draw.
_Op = Tuple[
    Optional[Tuple[PlanStep, ...]],
    Optional[Sequence[np.ndarray]],
    Optional[Tuple[int, ...]],
]


class TrajectorySimulator:
    """Sampled noisy execution via quantum trajectories.

    The campaign engine drives it through the per-task loop (one ``run``
    per injection); the batching is inside ``run``, across the task's
    trajectories.
    """

    name = "trajectory_simulator"

    per_run_seeding = True
    """Marker consumed by the campaign executors: ``run`` accepts a
    ``seed`` argument — anything ``np.random.default_rng`` takes, a
    ``Generator`` included, which is then drawn from directly — that
    overrides the instance RNG for that single call. Executors pass the
    task's own ``(plan.seed, task.index)`` generator and score its shots
    from the same generator afterwards, so every task's draws are
    independent of execution order — Serial/Batched/Parallel and
    fresh-vs-resumed runs all sample the same realizations per task."""

    def __init__(
        self,
        noise_model: Optional[NoiseModel] = None,
        trajectories: int = 256,
        seed: Optional[int] = None,
    ) -> None:
        if trajectories < 1:
            raise ValueError("at least one trajectory is required")
        self.noise_model = noise_model
        self.trajectories = int(trajectories)
        self._rng = np.random.default_rng(seed)
        self._kraus_cache: Dict[tuple, tuple] = {}

    def __getstate__(self) -> dict:
        # Pool workers get the configuration; the step cache is keyed by
        # object identities, which do not survive pickling anyway.
        return {**self.__dict__, "_kraus_cache": {}}

    # ------------------------------------------------------------------
    def run(
        self,
        circuit: QuantumCircuit,
        shots: Optional[int] = None,
        seed=None,
    ) -> Result:
        rng = np.random.default_rng(seed) if seed is not None else self._rng
        num_qubits = circuit.num_qubits
        dim = 2**num_qubits
        program = self._compile(circuit)
        draws = sum(kraus is not None for _, kraus, _ in program)
        uniforms = rng.random(self.trajectories * draws).reshape(
            self.trajectories, draws
        )
        widest = max(
            (len(kraus) for _, kraus, _ in program if kraus is not None),
            default=1,
        )
        tile = max(1, TRAJECTORY_TILE_BYTES // (16 * dim * widest))
        accumulated = np.zeros(dim)
        for start in range(0, self.trajectories, tile):
            states = self._evolve(
                program, uniforms[start : start + tile], num_qubits
            )
            for state in states:
                accumulated += np.abs(state) ** 2
        probs = accumulated / self.trajectories

        probs = self._apply_readout(probs, circuit, num_qubits)
        distribution = self._marginalize(probs, circuit)
        return Result(
            distribution,
            num_clbits=circuit.num_clbits or num_qubits,
            shots=shots,
            metadata={
                "backend": self.name,
                "trajectories": self.trajectories,
                "noise_model": self.noise_model.name
                if self.noise_model
                else None,
            },
        )

    # ------------------------------------------------------------------
    def _compile(self, circuit: QuantumCircuit) -> List[_Op]:
        """The circuit as runs of gates and Kraus draws, in circuit order.

        Gates between two draws compile into one step list. A noise
        channel matching the gate's arity is one draw on all its qubits;
        a one-qubit channel on a wider gate is one draw per qubit; a
        reset is a draw over the Kraus pair ``|0><0|``, ``|0><1|``.
        """
        num_qubits = circuit.num_qubits
        noise = self.noise_model
        program: List[_Op] = []
        gates: list = []
        measured: Set[int] = set()

        def flush() -> None:
            if gates:
                program.append(
                    (compile_steps(gates, num_qubits, False), None, None)
                )
                gates.clear()

        def draw(kraus: Sequence[np.ndarray], targets: Tuple[int, ...]) -> None:
            flush()
            program.append((None, kraus, targets))

        for inst in circuit:
            if isinstance(inst.gate, Barrier):
                continue
            if isinstance(inst.gate, Measure):
                measured.add(inst.qubits[0])
                continue
            touched = set(inst.qubits) & measured
            if touched:
                raise ValueError(
                    f"gate {inst.name} on already-measured qubit(s) {touched}"
                )
            if isinstance(inst.gate, Reset):
                draw(RESET_KRAUS, (inst.qubits[0],))
                continue
            gates.append(("unitary", tuple(inst.qubits), inst.gate.matrix))
            if noise is None:
                continue
            channel = noise.channel_for(inst.name, inst.qubits)
            if channel is None:
                continue
            if channel.num_qubits == len(inst.qubits):
                draw(channel.kraus, tuple(inst.qubits))
            elif channel.num_qubits == 1:
                for qubit in inst.qubits:
                    draw(channel.kraus, (qubit,))
            else:
                raise ValueError(
                    f"channel {channel.name!r} arity mismatch on {inst.name}"
                )
        flush()
        return program

    def _evolve(
        self, program: Sequence[_Op], uniforms: np.ndarray, num_qubits: int
    ) -> np.ndarray:
        """Run one tile of trajectories from |0...0>; row ``t`` of
        ``uniforms`` holds trajectory ``t``'s draws, in circuit order.
        Returns the final ``(tile, 2**n)`` statevector stack.

        A draw applies all ``k`` Kraus operators at once: each state is
        repeated ``k`` times and row ``t * k + j`` gets operator ``j``,
        so trajectory ``t``'s candidate branches are ``k`` adjacent rows.
        """
        size = uniforms.shape[0]
        states = np.zeros((size, 2**num_qubits), dtype=complex)
        states[:, 0] = 1.0
        column = 0
        for steps, kraus, targets in program:
            if kraus is None:
                states = run_steps(states, steps)
                continue
            k = len(kraus)
            candidates = run_steps(
                np.repeat(states, k, axis=0),
                self._draw_steps(kraus, targets, num_qubits, size),
            )
            for row in range(size):
                states[row] = _pick_branch(
                    candidates[row * k : (row + 1) * k], uniforms[row, column]
                )
            column += 1
        return states

    def _draw_steps(
        self,
        kraus: Sequence[np.ndarray],
        targets: Tuple[int, ...],
        num_qubits: int,
        size: int,
    ) -> Tuple[PlanStep, ...]:
        """Compiled steps applying ``kraus`` to ``size`` repeated states.

        Every task of a campaign draws from the same channels, so the
        steps compile once per tile size. The cache keys by the operator
        tuple's identity and holds the tuple, so a key cannot outlive it.
        """
        key = (id(kraus), targets, num_qubits, size)
        cached = self._kraus_cache.get(key)
        if cached is None or cached[0] is not kraus:
            operators = np.stack([np.asarray(op, dtype=complex) for op in kraus])
            steps = compile_steps(
                [("unitary", targets, np.tile(operators, (size, 1, 1)))],
                num_qubits,
                False,
            )
            cached = self._kraus_cache[key] = (kraus, steps)
        return cached[1]

    # ------------------------------------------------------------------
    def _apply_readout(
        self, probs: np.ndarray, circuit: QuantumCircuit, num_qubits: int
    ) -> np.ndarray:
        if self.noise_model is None:
            return probs
        measured = {
            inst.qubits[0]
            for inst in circuit
            if isinstance(inst.gate, Measure)
        }
        if not measured:
            return probs
        tensor = probs.reshape([2] * num_qubits)
        for qubit in measured:
            confusion = self.noise_model.readout_confusion(qubit)
            if confusion is None:
                continue
            axis = num_qubits - 1 - qubit
            tensor = np.moveaxis(
                np.tensordot(confusion, tensor, axes=([1], [axis])), 0, axis
            )
        return tensor.reshape(-1)

    @staticmethod
    def _marginalize(
        probs: np.ndarray, circuit: QuantumCircuit
    ) -> Dict[str, float]:
        num_qubits = circuit.num_qubits
        measure_map = {
            inst.clbits[0]: inst.qubits[0]
            for inst in circuit
            if isinstance(inst.gate, Measure)
        }
        if not measure_map:
            return {
                format_bitstring(i, num_qubits): float(p)
                for i, p in enumerate(probs)
                if p > 1e-14
            }
        num_clbits = circuit.num_clbits
        out: Dict[str, float] = {}
        for index, prob in enumerate(probs):
            if prob <= 1e-14:
                continue
            bits = ["0"] * num_clbits
            for clbit, qubit in measure_map.items():
                bits[num_clbits - 1 - clbit] = str(index >> qubit & 1)
            key = "".join(bits)
            out[key] = out.get(key, 0.0) + float(prob)
        return out


def _pick_branch(candidates: Sequence[np.ndarray], uniform: float) -> np.ndarray:
    """One trajectory's Kraus pick: Born weights, ``Generator.choice``'s
    inverse-CDF search on ``uniform``, then renormalisation."""
    weights = np.asarray([np.vdot(branch, branch).real for branch in candidates])
    total = weights.sum()
    if total <= 0:
        raise RuntimeError("channel annihilated the state")
    if not math.isfinite(total):
        # Generator.choice rejects these probabilities as well.
        raise ValueError(f"Kraus branch weights are not finite: {weights}")
    cdf = (weights / total).cumsum()
    cdf /= cdf[-1]
    chosen = candidates[int(cdf.searchsorted(uniform, side="right"))]
    return chosen / np.linalg.norm(chosen)
