"""Physical-machine emulator — the paper's scenario (3) surrogate.

We cannot reserve IBM-Q Jakarta offline, so this emulator reproduces the
property Fig. 11 actually measures: a physical run differs from the
noise-model simulation because (a) the machine's noise has drifted since the
calibration snapshot and (b) results come from finite sampling, not exact
distributions. Each :meth:`run` draws a drifted calibration of the whole
device, executes the exact density-matrix simulation under it, then
samples ``shots`` outcomes. Like every other calibrated engine, it runs
the routed circuit on its used wires: ``wires`` names the device qubit
each wire occupies, and the drifted model is remapped onto them by
:func:`~repro.machines.fake.noise_model_from_calibration`.
The paper's claim — QVF deltas below ~0.05 between simulation and hardware —
is exactly what the comparison benchmark checks against this emulator.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..quantum.circuit import QuantumCircuit
from ..simulators.density_matrix import DensityMatrixSimulator
from ..simulators.sampler import DEFAULT_SHOTS, Result
from .fake import FakeBackend, noise_model_from_calibration

__all__ = ["PhysicalMachineEmulator"]


class PhysicalMachineEmulator:
    """Wraps a :class:`FakeBackend` with calibration drift and shot noise.

    ``wires[w]`` is the device qubit that wire ``w`` of the circuits it
    runs occupies (a routed, compacted circuit's
    ``LayoutMap.wire_to_physical``); without it, circuits run in the
    device frame, wire ``q`` on device qubit ``q``.
    """

    def __init__(
        self,
        backend: FakeBackend,
        drift_scale: float = 0.08,
        seed: Optional[int] = None,
        wires: Optional[Sequence[int]] = None,
    ) -> None:
        self.backend = backend
        self.drift_scale = float(drift_scale)
        self.wires = None if wires is None else tuple(int(q) for q in wires)
        self.name = f"{backend.name}_physical"
        # Per-run child generators are spawned from this sequence: run k
        # of a seeded emulator draws from child k, whatever else consumed
        # randomness in between. A shared Generator here would make
        # concurrent scenarios interleave draws nondeterministically.
        self._seed_seq = np.random.SeedSequence(seed)

    def reseed(self, seed: Optional[int]) -> None:
        """Restart the per-run seed source (worker copies must diverge).

        The campaign engine calls this on pickled backend copies so each
        worker chunk derives its own run children instead of replaying
        the parent's.
        """
        self._seed_seq = np.random.SeedSequence(seed)

    @property
    def num_qubits(self) -> int:
        return self.backend.num_qubits

    @property
    def coupling(self):
        return self.backend.coupling

    def run(
        self,
        circuit: QuantumCircuit,
        shots: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> Result:
        """One 'hardware' execution: drifted noise + multinomial sampling.

        Each unseeded run draws from its own child generator (run index
        ``k`` uses child ``k`` of the emulator's seed sequence), so a
        seeded emulator's k-th run is reproducible regardless of how
        runs interleave with other consumers — the property suite-level
        scheduling relies on. An explicit ``seed`` pins one run fully.
        """
        if seed is not None:
            rng = np.random.default_rng(seed)
        else:
            rng = np.random.default_rng(self._seed_seq.spawn(1)[0])
        shots = shots or DEFAULT_SHOTS
        drifted = self.backend.calibration.drifted(rng, self.drift_scale)
        noise_model = noise_model_from_calibration(
            drifted, self.backend.coupling, wires=self.wires
        )
        exact = DensityMatrixSimulator(noise_model).run(circuit)
        counts = exact.sample_counts(shots, rng)
        result = Result.from_counts(counts, exact.num_clbits)
        result.metadata.update(
            {
                "backend": self.name,
                "machine": self.backend.name,
                "drift_scale": self.drift_scale,
                "shots": shots,
                "sampled": True,
            }
        )
        return result

    def __repr__(self) -> str:
        return (
            f"PhysicalMachineEmulator({self.backend.name!r}, "
            f"drift={self.drift_scale})"
        )
