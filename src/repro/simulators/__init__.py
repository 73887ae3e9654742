"""Execution backends: ideal statevector, exact noisy density matrix.

Scenario mapping (paper Sec. IV-B):

1. ``StatevectorSimulator`` — simulation without external noise;
2. ``DensityMatrixSimulator`` with a :class:`NoiseModel` — simulation of a
   physical machine over its calibrated noise;
3. :class:`repro.machines.PhysicalMachineEmulator` — drifting-calibration
   surrogate for execution on real hardware.
"""

from .backend import (
    Backend,
    BatchedSnapshotBackend,
    BranchBatch,
    BranchSlots,
    SimulationSnapshot,
    supports_batched_branches,
)
from .density_matrix import DensityMatrixSimulator
from .segments import FusedSegment, SegmentCompiler, TailPlan
from .noise import (
    NoiseModel,
    QuantumChannel,
    ReadoutError,
    amplitude_damping_channel,
    bit_flip_channel,
    depolarizing_channel,
    phase_damping_channel,
    phase_flip_channel,
    thermal_relaxation_channel,
)
from .sampler import DEFAULT_SHOTS, Counts, Result
from .statevector import StatevectorSimulator
from .trajectory import TrajectorySimulator

__all__ = [
    "Backend",
    "BatchedSnapshotBackend",
    "SimulationSnapshot",
    "BranchBatch",
    "BranchSlots",
    "SegmentCompiler",
    "TailPlan",
    "FusedSegment",
    "supports_batched_branches",
    "StatevectorSimulator",
    "DensityMatrixSimulator",
    "TrajectorySimulator",
    "NoiseModel",
    "QuantumChannel",
    "ReadoutError",
    "depolarizing_channel",
    "bit_flip_channel",
    "phase_flip_channel",
    "amplitude_damping_channel",
    "phase_damping_channel",
    "thermal_relaxation_channel",
    "Counts",
    "Result",
    "DEFAULT_SHOTS",
]
