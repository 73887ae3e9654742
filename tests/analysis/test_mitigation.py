"""Readout-error mitigation."""

import numpy as np
import pytest

from repro.analysis.mitigation import (
    mitigate_readout,
    mitigate_readout_rows,
    mitigation_matrix,
)
from repro.quantum import QuantumCircuit
from repro.simulators import (
    DensityMatrixSimulator,
    NoiseModel,
    ReadoutError,
)


class TestMitigationMatrix:
    def test_identity_for_ideal_readout(self):
        matrix = mitigation_matrix([None, None])
        assert np.allclose(matrix, np.eye(4))

    def test_inverts_confusion(self):
        error = ReadoutError(0.1, 0.05)
        matrix = mitigation_matrix([error])
        assert np.allclose(matrix @ error.matrix, np.eye(2), atol=1e-12)

    def test_trivial_error_treated_as_ideal(self):
        matrix = mitigation_matrix([ReadoutError(0.0, 0.0)])
        assert np.allclose(matrix, np.eye(2))


class TestMitigateReadout:
    def test_recovers_exact_distribution(self):
        """Mitigation exactly undoes the simulator's readout confusion."""
        error = ReadoutError(0.08, 0.12)
        model = NoiseModel()
        model.add_readout_error(error, 0)
        model.add_readout_error(error, 1)
        qc = QuantumCircuit(2, 2).h(0).cx(0, 1).measure_all()
        noisy = DensityMatrixSimulator(model).run(qc).get_probabilities()
        clean = DensityMatrixSimulator().run(qc).get_probabilities()
        mitigated = mitigate_readout(noisy, [error, error])
        for key in set(clean) | set(mitigated):
            assert mitigated.get(key, 0) == pytest.approx(
                clean.get(key, 0), abs=1e-9
            )

    def test_per_qubit_errors_differ(self):
        errors = [ReadoutError(0.05, 0.0), ReadoutError(0.0, 0.2)]
        model = NoiseModel()
        for qubit, error in enumerate(errors):
            model.add_readout_error(error, qubit)
        qc = QuantumCircuit(2, 2).x(1).measure_all()
        noisy = DensityMatrixSimulator(model).run(qc).get_probabilities()
        mitigated = mitigate_readout(noisy, errors)
        assert mitigated == pytest.approx({"10": 1.0}, abs=1e-9)

    def test_improves_qvf(self):
        """Mitigation lowers the fault-free QVF noise floor."""
        from repro.algorithms import bernstein_vazirani
        from repro.faults import qvf_from_probabilities

        error = ReadoutError(0.04, 0.08)
        model = NoiseModel()
        for qubit in range(4):
            model.add_readout_error(error, qubit)
        spec = bernstein_vazirani(4)
        noisy = (
            DensityMatrixSimulator(model)
            .run(spec.circuit)
            .get_probabilities()
        )
        raw_qvf = qvf_from_probabilities(noisy, spec.correct_states)
        mitigated = mitigate_readout(noisy, [error] * 3)
        mitigated_qvf = qvf_from_probabilities(mitigated, spec.correct_states)
        assert mitigated_qvf < raw_qvf
        assert mitigated_qvf == pytest.approx(0.0, abs=1e-9)

    def test_clipping_handles_quasi_probabilities(self):
        """Sampled counts can invert to small negatives; clipping repairs."""
        error = ReadoutError(0.3, 0.3)
        sampled = {"0": 0.31, "1": 0.69}  # inconsistent with the confusion
        mitigated = mitigate_readout(sampled, [error])
        assert all(value >= 0 for value in mitigated.values())
        assert sum(mitigated.values()) == pytest.approx(1.0)

    def test_bitstring_width_validated(self):
        with pytest.raises(ValueError, match="does not match"):
            mitigate_readout({"001": 1.0}, [ReadoutError(0.1, 0.1)])


class TestMitigateReadoutRows:
    ERRORS = [ReadoutError(0.1, 0.3), None, ReadoutError(0.25, 0.05)]

    @staticmethod
    def rows():
        """Exact rows, a sparse row and rows that clip."""
        rows = np.random.default_rng(12).dirichlet(np.ones(8), size=6)
        rows[1, [0, 3, 5]] = 0.0
        rows[1] /= rows[1].sum()
        rows[2] = np.eye(8)[4]
        rows[3] = [0.5, 0, 0, 0, 0, 0, 0, 0.5]
        return rows

    def test_each_row_is_the_one_row_call(self):
        """A batch's rows equal the per-run correction bit for bit: a
        one-row call, read as a dictionary of its nonzero entries in
        ascending key order."""
        rows = self.rows()
        corrected = mitigate_readout_rows(rows, self.ERRORS)
        for row, got in zip(rows, corrected):
            want = mitigate_readout(
                {format(k, "03b"): v for k, v in enumerate(row) if v > 0},
                self.ERRORS,
            )
            assert list(want) == sorted(want)
            expected = np.zeros(8)
            for key, value in want.items():
                expected[int(key, 2)] = value
            assert got.tobytes() == expected.tobytes()

    def test_rows_equal_the_naive_inverse(self):
        """Against the confusion matrix solved row by row, clipped,
        renormalised and cut at 1e-12."""
        confusion = np.eye(1)
        for error in self.ERRORS:
            matrix = np.eye(2) if error is None else error.matrix
            confusion = np.kron(matrix, confusion)
        want = []
        for row in self.rows():
            solved = np.clip(np.linalg.solve(confusion, row), 0.0, None)
            solved /= solved.sum()
            want.append(np.where(solved > 1e-12, solved, 0.0))
        np.testing.assert_allclose(
            mitigate_readout_rows(self.rows(), self.ERRORS),
            want,
            rtol=0,
            atol=1e-12,
        )
