"""Logical/physical qubit tracking through transpiled fault campaigns.

QuFI injects faults into the circuit a machine *actually executes* — the
gate list left after layout, routing and basis lowering — and the paper
"keeps track of the logical and physical qubits throughout the
transpiling process" so results can be attributed to either frame. This
module is that bookkeeping for the campaign pipeline:

* the campaign runs over a **wire** frame: the transpiled circuit's
  qubit indices, optionally compacted so idle device qubits do not
  inflate the simulated state;
* every wire maps statically to the **physical** qubit it occupies on
  the device (:meth:`LayoutMap.physical_qubit`);
* the **logical** (pre-transpilation) qubit sitting on a wire changes
  over the circuit as router-inserted SWAPs permute the layout;
  :meth:`LayoutMap.logical_at` answers "whose state did this fault
  corrupt?" per injection position.

:func:`map_transpiled` turns a
:class:`~repro.transpiler.transpile.TranspileResult` into a campaign
circuit plus its :class:`LayoutMap`; the map round-trips through plain
dicts (:meth:`LayoutMap.to_metadata`) so stored campaigns stay
frame-convertible without re-running the transpiler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..quantum.circuit import QuantumCircuit
from ..transpiler.topology import CouplingMap
from ..transpiler.transpile import TranspileResult

__all__ = ["LayoutMap", "TranspiledCircuit", "map_transpiled"]

NO_QUBIT = -1
"""Sentinel for "no qubit in this frame" (idle wire, untranspiled record)."""


@dataclass(frozen=True)
class LayoutMap:
    """Frame translation table for one transpiled campaign circuit.

    ``wire_to_physical[w]`` is the device qubit wire ``w`` denotes —
    the identity when the circuit was not compacted. ``logical_by_
    position[p][w]`` is the logical qubit whose state occupies wire
    ``w`` immediately *after* instruction ``p`` executes (the instant a
    fault spliced after position ``p`` lands), or :data:`NO_QUBIT` when
    the wire holds no program state at that moment.
    """

    wire_to_physical: Tuple[int, ...]
    initial_logical: Tuple[int, ...]
    logical_by_position: Tuple[Tuple[int, ...], ...]
    couples: Tuple[Tuple[int, int], ...]
    machine: str
    swap_count: int
    optimization_level: int

    # ------------------------------------------------------------------
    # Frame queries
    # ------------------------------------------------------------------
    @property
    def num_wires(self) -> int:
        """Width of the campaign circuit this map describes."""
        return len(self.wire_to_physical)

    def physical_qubit(self, wire: int) -> int:
        """The device qubit campaign wire ``wire`` denotes."""
        return self.wire_to_physical[wire]

    def wire_of_physical(self, physical: int) -> Optional[int]:
        """The campaign wire for a device qubit (``None`` if unused)."""
        try:
            return self.wire_to_physical.index(physical)
        except ValueError:
            return None

    def logical_at(self, position: int, wire: int) -> int:
        """Logical qubit on ``wire`` right after instruction ``position``.

        ``position = -1`` queries the initial layout (before the first
        instruction). Returns :data:`NO_QUBIT` when the wire carries no
        program qubit at that moment (a routing-path intermediate).
        """
        if position < 0:
            return self.initial_logical[wire]
        return self.logical_by_position[position][wire]

    def wire_of_logical(self, position: int, logical: int) -> int:
        """Inverse of :meth:`logical_at` (``NO_QUBIT`` if absent)."""
        snapshot = (
            self.initial_logical
            if position < 0
            else self.logical_by_position[position]
        )
        for wire, occupant in enumerate(snapshot):
            if occupant == logical:
                return wire
        return NO_QUBIT

    # ------------------------------------------------------------------
    # Serialization (campaign metadata)
    # ------------------------------------------------------------------
    def to_metadata(self) -> Dict[str, object]:
        """Plain-JSON form stored in ``CampaignResult.metadata``.

        The per-position snapshot matrix is O(instructions x wires) but
        almost entirely redundant: occupancy only changes at SWAPs. What
        is stored is the initial occupancy plus the **swap schedule** —
        ``[position, wire_a, wire_b]`` triples, derived by diffing
        consecutive snapshots — from which :meth:`from_metadata` replays
        the identical snapshots. O(swaps) instead of O(circuit) ints in
        every campaign artefact.
        """
        swaps: List[List[int]] = []
        previous = self.initial_logical
        for position, snapshot in enumerate(self.logical_by_position):
            if snapshot != previous:
                changed = [
                    wire
                    for wire in range(len(snapshot))
                    if snapshot[wire] != previous[wire]
                ]
                swaps.append([position, changed[0], changed[1]])
            previous = snapshot
        return {
            "machine": self.machine,
            "wire_to_physical": list(self.wire_to_physical),
            "initial_logical": list(self.initial_logical),
            "num_positions": len(self.logical_by_position),
            "swaps": swaps,
            "couples": [list(pair) for pair in self.couples],
            "swap_count": self.swap_count,
            "optimization_level": self.optimization_level,
        }

    @classmethod
    def from_metadata(cls, data: Dict[str, object]) -> "LayoutMap":
        """Rehydrate a map written by :meth:`to_metadata`."""
        initial = tuple(int(q) for q in data["initial_logical"])
        swap_at = {
            int(position): (int(a), int(b))
            for position, a, b in data["swaps"]
        }
        snapshots: List[Tuple[int, ...]] = []
        current = list(initial)
        for position in range(int(data["num_positions"])):
            swap = swap_at.get(position)
            if swap is not None:
                a, b = swap
                current[a], current[b] = current[b], current[a]
            snapshots.append(tuple(current))
        return cls(
            wire_to_physical=tuple(data["wire_to_physical"]),
            initial_logical=initial,
            logical_by_position=tuple(snapshots),
            couples=tuple(
                (int(a), int(b)) for a, b in data["couples"]
            ),
            machine=data["machine"],
            swap_count=int(data["swap_count"]),
            optimization_level=int(data["optimization_level"]),
        )


@dataclass(frozen=True)
class TranspiledCircuit:
    """A campaign-ready transpiled circuit with its frame bookkeeping."""

    circuit: QuantumCircuit
    layout: LayoutMap


def _compact_wires(
    circuit: QuantumCircuit, compact: bool
) -> Tuple[QuantumCircuit, Tuple[int, ...]]:
    """Relabel ``circuit`` onto its used wires (or keep device indices).

    Returns the campaign circuit and ``wire_to_physical``. Compaction
    keeps simulation cost proportional to the qubits the routed circuit
    actually touches instead of the whole device; calibrated noise, the
    emulator's drifted calibrations included, follows through
    ``noise_model_from_calibration(..., wires=...)``. Every campaign
    compacts; device indices serve as the uncompacted reference frame.
    """
    if not compact:
        return circuit, tuple(range(circuit.num_qubits))
    used = circuit.qubits_used()
    if len(used) == circuit.num_qubits:
        return circuit, tuple(range(circuit.num_qubits))
    physical_to_wire = {physical: wire for wire, physical in enumerate(used)}
    out = QuantumCircuit(len(used), circuit.num_clbits, circuit.name)
    for inst in circuit:
        out.append(
            inst.gate,
            [physical_to_wire[q] for q in inst.qubits],
            inst.clbits,
        )
    return out, tuple(used)


def _walk_layout(
    circuit: QuantumCircuit,
    initial: Tuple[int, ...],
) -> Tuple[Tuple[int, ...], ...]:
    """Per-position wire -> logical snapshots over ``circuit``.

    Starts from the initial occupancy and applies every SWAP gate's
    permutation; all SWAPs in a transpiled circuit are router-inserted
    (program SWAPs are decomposed by basis lowering — enforced by
    :class:`~repro.scenarios.spec.TranspileSpec`), so each one moves
    logical state between the two wires it touches.
    """
    current = list(initial)
    snapshots: List[Tuple[int, ...]] = []
    for inst in circuit:
        if inst.name == "swap":
            a, b = inst.qubits
            current[a], current[b] = current[b], current[a]
        snapshots.append(tuple(current))
    return tuple(snapshots)


def map_transpiled(
    result: TranspileResult,
    machine: str = "device",
    compact: bool = True,
) -> TranspiledCircuit:
    """Build the campaign circuit + :class:`LayoutMap` for ``result``.

    The final occupancy reached by walking the circuit's SWAPs is
    validated against the transpiler's ``final_layout`` — a mismatch
    means the circuit contains SWAPs that are not routing SWAPs (or the
    transpiler's bookkeeping broke), either of which would silently
    corrupt logical-frame attribution.
    """
    circuit, wire_to_physical = _compact_wires(result.circuit, compact)
    physical_to_wire = {
        physical: wire for wire, physical in enumerate(wire_to_physical)
    }

    initial = [NO_QUBIT] * circuit.num_qubits
    for logical in range(result.initial_layout.num_qubits):
        physical = result.initial_layout.physical(logical)
        wire = physical_to_wire.get(physical)
        if wire is None:
            raise ValueError(
                f"initial layout places logical q{logical} on unused "
                f"physical Q{physical}"
            )
        initial[wire] = logical
    initial_logical = tuple(initial)

    snapshots = _walk_layout(circuit, initial_logical)

    final = snapshots[-1] if snapshots else initial_logical
    for logical in range(result.final_layout.num_qubits):
        physical = result.final_layout.physical(logical)
        wire = physical_to_wire.get(physical)
        if wire is None or final[wire] != logical:
            raise ValueError(
                f"layout walk disagrees with the transpiler's final "
                f"layout for logical q{logical} (expected physical "
                f"Q{physical}); the circuit contains non-routing SWAPs"
            )

    couples = _physical_couples(result.coupling, wire_to_physical)
    layout = LayoutMap(
        wire_to_physical=wire_to_physical,
        initial_logical=initial_logical,
        logical_by_position=snapshots,
        couples=couples,
        machine=machine,
        swap_count=result.swap_count,
        optimization_level=result.optimization_level,
    )
    return TranspiledCircuit(circuit=circuit, layout=layout)


def _physical_couples(
    coupling: CouplingMap, wire_to_physical: Sequence[int]
) -> Tuple[Tuple[int, int], ...]:
    """Campaign-wire pairs that sit on coupled device qubits.

    This is the double-fault candidate set of a transpiled campaign
    (Sec. IV-C): a strike reaches a wire and, attenuated, its physical
    neighbours — expressed directly in the frame injections use.
    """
    physical_to_wire = {
        physical: wire for wire, physical in enumerate(wire_to_physical)
    }
    couples = []
    for phys_a, phys_b in coupling.edges:
        wire_a = physical_to_wire.get(phys_a)
        wire_b = physical_to_wire.get(phys_b)
        if wire_a is not None and wire_b is not None:
            couples.append(tuple(sorted((wire_a, wire_b))))
    return tuple(sorted(set(couples)))
