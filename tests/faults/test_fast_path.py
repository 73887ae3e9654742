"""The float32 fused fast path: golden tolerance and waiver enforcement.

The fast path (tentpole d) compiles segments in ``complex64`` — and
contracts through ``opt_einsum`` where installed — in exchange for the
bit-identity guarantee. These tests pin both sides of that trade: QVF
values stay within an explicit tolerance of the exact path on all six
benchmark algorithms, and the spec layer refuses the fast path until
bit-identity is explicitly waived.
"""

import numpy as np
import pytest

from repro.algorithms import (
    bernstein_vazirani,
    deutsch_jozsa,
    ghz,
    grover,
    qft,
    qpe,
)
from repro.faults import BatchedExecutor, QuFI, SerialExecutor, fault_grid
from repro.scenarios import ScenarioSpec
from repro.scenarios.factory import light_noise_model
from repro.simulators import DensityMatrixSimulator, StatevectorSimulator

ALGORITHM_BUILDERS = [
    bernstein_vazirani,
    deutsch_jozsa,
    qft,
    ghz,
    grover,
    qpe,
]

FAULTS = fault_grid(step_deg=90)

# Single precision carries ~7 significant digits; a full tail of 3-qubit
# contractions loses a few. 1e-4 on a [0, 1] metric is comfortably above
# the observed error (~1e-6) and far below any QVF effect the paper
# interprets (Sec. V works in steps of ~0.1).
QVF_TOLERANCE = 1e-4


class TestGoldenTolerance:
    @pytest.mark.parametrize(
        "builder", ALGORITHM_BUILDERS, ids=lambda b: b.__name__
    )
    def test_float32_within_tolerance_statevector(self, builder):
        spec = builder(3)
        exact = QuFI(
            StatevectorSimulator(), executor=SerialExecutor()
        ).run_campaign(spec, faults=FAULTS)
        fast = QuFI(
            StatevectorSimulator(),
            executor=BatchedExecutor(precision="float32"),
        ).run_campaign(spec, faults=FAULTS)
        np.testing.assert_allclose(
            fast.qvf_values(), exact.qvf_values(), atol=QVF_TOLERANCE
        )

    @pytest.mark.parametrize(
        "builder", ALGORITHM_BUILDERS, ids=lambda b: b.__name__
    )
    def test_float32_within_tolerance_noisy_density(self, builder):
        spec = builder(3)
        backend = DensityMatrixSimulator(light_noise_model(3))
        exact = QuFI(backend, executor=SerialExecutor()).run_campaign(
            spec, faults=FAULTS
        )
        fast = QuFI(
            DensityMatrixSimulator(light_noise_model(3)),
            executor=BatchedExecutor(precision="float32"),
        ).run_campaign(spec, faults=FAULTS)
        np.testing.assert_allclose(
            fast.qvf_values(), exact.qvf_values(), atol=QVF_TOLERANCE
        )

    def test_float32_plans_actually_compile_narrow(self):
        """The fast path must really run complex64 segments (a silent
        fall-back to complex128 would make the tolerance test vacuous)."""
        backend = StatevectorSimulator()
        compiler = backend.tail_compiler(
            qft(3).circuit, dtype=np.complex64, pack=True
        )
        plan = compiler.tail_plan(0)
        assert plan.dtype == np.dtype(np.complex64)
        assert all(s.matrix.dtype == np.complex64 for s in plan.segments)

    def test_executor_float32_compiles_narrow_packed_plans(self):
        """Executor precision alone selects the fast path (the waiver
        is enforced where campaigns are declared: the spec)."""
        executor = BatchedExecutor(precision="float32")
        compiler = executor._tail_compiler(
            StatevectorSimulator(), qft(3).circuit
        )
        assert compiler.dtype == np.dtype(np.complex64)
        assert compiler.pack


class TestWaiverEnforcement:
    """float32 is rejected wherever a spec still claims bit-identity."""

    def test_spec_rejects_float32_with_bit_identity(self):
        with pytest.raises(ValueError, match="waives the bit-identity"):
            ScenarioSpec(
                algorithm="ghz", fused=True, precision="float32"
            )

    def test_spec_rejects_float32_without_fusion(self):
        with pytest.raises(ValueError, match="set fused=true"):
            ScenarioSpec(
                algorithm="ghz", precision="float32", bit_identical=False
            )

    def test_spec_accepts_waived_float32(self):
        spec = ScenarioSpec(
            algorithm="ghz",
            fused=True,
            precision="float32",
            bit_identical=False,
        )
        assert spec.precision == "float32"

    def test_spec_rejects_unknown_precision(self):
        with pytest.raises(ValueError, match="unknown precision"):
            ScenarioSpec(algorithm="ghz", fused=True, precision="float16")

    def test_executors_reject_unknown_precision(self):
        with pytest.raises(ValueError, match="precision must be one of"):
            SerialExecutor(precision="double")
