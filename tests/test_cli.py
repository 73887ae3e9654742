"""Command-line interface tests (direct main() invocation)."""

import json
import os

import pytest

from repro.cli import build_parser, main
from repro.faults import CampaignResult
from repro.scenarios.cache import write_result_store


def assert_store_is_plain_result(store_path, plain_output, tmp_path):
    """A completed checkpoint holds the bytes ``write_result_store``
    writes for the plain run's result (read back from its JSON)."""
    plain_store = str(tmp_path / "plain.qfs")
    write_result_store(plain_store, CampaignResult.load(plain_output))
    with open(store_path, "rb") as a, open(plain_store, "rb") as b:
        assert a.read() == b.read()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["campaign", "--algorithm", "shor", "--output", "x.json"]
            )


class TestCircuits:
    def test_lists_all_algorithms(self, capsys):
        assert main(["circuits"]) == 0
        out = capsys.readouterr().out.split()
        assert set(out) == {"bv", "dj", "qft", "ghz", "grover", "qpe"}


class TestQasm:
    def test_emits_valid_qasm(self, capsys):
        assert main(["qasm", "--algorithm", "bv", "--width", "4"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("OPENQASM 2.0;")
        assert "qreg q[4];" in out

    def test_roundtrips_through_parser(self, capsys):
        from repro.quantum import circuit_from_qasm

        main(["qasm", "--algorithm", "ghz", "--width", "3"])
        out = capsys.readouterr().out
        circuit = circuit_from_qasm(out)
        assert circuit.num_qubits == 3


class TestCampaign:
    def test_runs_and_saves_json(self, tmp_path, capsys):
        output = str(tmp_path / "bv.json")
        code = main(
            [
                "campaign",
                "--algorithm",
                "bv",
                "--width",
                "3",
                "--grid-step",
                "90",
                "--noise",
                "none",
                "--output",
                output,
            ]
        )
        assert code == 0
        with open(output) as handle:
            data = json.load(handle)
        assert data["circuit_name"] == "bernstein_vazirani_3q"
        assert len(data["records"]) > 0
        stdout = capsys.readouterr().out
        assert "mean QVF" in stdout

    def test_noisy_campaign_with_shots(self, tmp_path):
        output = str(tmp_path / "noisy.json")
        code = main(
            [
                "campaign",
                "--algorithm",
                "ghz",
                "--width",
                "3",
                "--grid-step",
                "90",
                "--noise",
                "light",
                "--shots",
                "256",
                "--seed",
                "1",
                "--output",
                output,
            ]
        )
        assert code == 0
        with open(output) as handle:
            data = json.load(handle)
        assert data["metadata"]["shots"] == 256


class TestExportFormats:
    def _run(self, output, *extra):
        return main(
            [
                "campaign",
                "--algorithm",
                "bv",
                "--width",
                "3",
                "--grid-step",
                "90",
                "--noise",
                "none",
                "--output",
                output,
                *extra,
            ]
        )

    def test_export_npz_round_trips(self, tmp_path):
        from repro.faults import CampaignResult

        json_path = str(tmp_path / "bv.json")
        npz_path = str(tmp_path / "bv.npz")
        assert self._run(json_path) == 0
        assert self._run(npz_path, "--export", "npz") == 0
        from_json = CampaignResult.load(json_path)
        from_npz = CampaignResult.load(npz_path)
        assert from_npz.records == from_json.records
        assert from_npz.circuit_name == from_json.circuit_name

    def test_export_csv_has_one_row_per_record(self, tmp_path):
        json_path = str(tmp_path / "bv.json")
        csv_path = str(tmp_path / "bv.csv")
        assert self._run(json_path) == 0
        assert self._run(csv_path, "--export", "csv") == 0
        with open(json_path) as handle:
            records = json.load(handle)["records"]
        lines = open(csv_path).read().splitlines()
        assert lines[0].startswith("theta,phi,lam,position,qubit")
        assert len(lines) == len(records) + 1

    def test_report_reads_npz(self, tmp_path, capsys):
        npz_path = str(tmp_path / "bv.npz")
        assert self._run(npz_path, "--export", "npz") == 0
        capsys.readouterr()
        assert main(["report", "--input", npz_path]) == 0
        assert "# QuFI campaign report" in capsys.readouterr().out

    def test_report_reads_checkpoint(self, tmp_path, capsys):
        ckpt = str(tmp_path / "bv.ckpt")
        out = str(tmp_path / "bv.json")
        assert self._run(out, "--checkpoint", ckpt) == 0
        capsys.readouterr()
        assert main(["report", "--input", ckpt]) == 0
        assert "# QuFI campaign report" in capsys.readouterr().out


class TestCampaignExecutors:
    def test_default_engine_matches_pooled_records(self, tmp_path, capsys):
        """Without --workers the campaign runs the in-process engine,
        recorded as the serial strategy; --workers 2 runs the same
        engine in a pool and reproduces its records."""

        def run(path, *extra):
            code = main(
                [
                    "campaign",
                    "--algorithm",
                    "bv",
                    "--width",
                    "3",
                    "--grid-step",
                    "90",
                    "--noise",
                    "light",
                    "--output",
                    path,
                    *extra,
                ]
            )
            assert code == 0
            with open(path) as handle:
                return json.load(handle)

        serial = run(str(tmp_path / "serial.json"))
        assert "serial executor" in capsys.readouterr().out
        assert serial["metadata"]["executor"] == "serial"
        pooled = run(str(tmp_path / "pooled.json"), "--workers", "2")
        assert pooled["metadata"]["executor"] == "parallel"
        assert pooled["records"] == serial["records"]

    @pytest.mark.parametrize("flag", ["--batched", "--fused"])
    def test_removed_engine_flags_are_rejected(self, tmp_path, flag):
        with pytest.raises(SystemExit):
            main(
                [
                    "campaign",
                    "--algorithm",
                    "bv",
                    "--output",
                    str(tmp_path / "x.json"),
                    flag,
                ]
            )

    def test_workers_flag_runs_parallel_campaign(self, tmp_path, capsys):
        output = str(tmp_path / "par.json")
        code = main(
            [
                "campaign",
                "--algorithm",
                "bv",
                "--width",
                "3",
                "--grid-step",
                "90",
                "--noise",
                "none",
                "--workers",
                "2",
                "--output",
                output,
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "parallel executor" in stdout
        with open(output) as handle:
            data = json.load(handle)
        assert data["metadata"]["executor"] == "parallel"

    def test_workers_must_be_positive(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "campaign",
                    "--algorithm",
                    "bv",
                    "--width",
                    "3",
                    "--workers",
                    "0",
                    "--output",
                    str(tmp_path / "x.json"),
                ]
            )

    def test_checkpoint_flag_resumes(self, tmp_path, capsys):
        checkpoint = str(tmp_path / "ck.json")
        output = str(tmp_path / "out.json")
        plain_output = str(tmp_path / "plain.json")
        campaign = [
            "campaign",
            "--algorithm",
            "bv",
            "--width",
            "3",
            "--grid-step",
            "90",
            "--noise",
            "none",
        ]
        args = campaign + ["--checkpoint", checkpoint, "--output", output]
        assert main(args) == 0
        with open(output) as handle:
            first = json.load(handle)
        # Re-running resumes from the checkpoint: same campaign size.
        assert main(args) == 0
        with open(output) as handle:
            second = json.load(handle)
        assert len(second["records"]) == len(first["records"])
        # ... and the same campaign as the run without a checkpoint.
        assert main(campaign + ["--output", plain_output]) == 0
        with open(plain_output) as handle:
            plain = json.load(handle)
        assert second["metadata"] == plain["metadata"]
        assert second["records"] == plain["records"]
        assert_store_is_plain_result(checkpoint, plain_output, tmp_path)


class TestPhysicsFlags:
    def run_campaign(self, tmp_path, *extra):
        output = str(tmp_path / "out.json")
        args = ["campaign", *extra, "--output", output]
        assert main(args) == 0
        with open(output) as handle:
            return json.load(handle)

    def test_qec_campaign(self, tmp_path):
        data = self.run_campaign(
            tmp_path,
            "--algorithm", "qec",
            "--qec-distance", "3",
            "--noise", "none",
            "--grid-step", "90",
            "--seed", "7",
        )
        assert data["metadata"]["qec"]["code"] == "bit_flip"
        assert data["metadata"]["qec"]["distance"] == 3
        assert data["circuit_name"].startswith("qec-bit_flip")

    def test_strike_campaign(self, tmp_path):
        data = self.run_campaign(
            tmp_path,
            "--algorithm", "bv",
            "--width", "3",
            "--noise", "light",
            "--seed", "11",
            "--strike-count", "8",
        )
        assert data["metadata"]["fault_source"] == "strike_sampling"
        assert data["metadata"]["strike"]["count"] == 8

    def test_correlated_strike_campaign(self, tmp_path):
        data = self.run_campaign(
            tmp_path,
            "--algorithm", "bv",
            "--width", "3",
            "--noise", "light",
            "--seed", "11",
            "--strike-count", "2",
            "--strike-k", "2",
        )
        assert data["metadata"]["strike"]["k"] == 2
        assert data["metadata"]["cluster_size"] == 2
        assert data["metadata"]["mode"] == "double"

    def test_trajectory_mitigated_campaign(self, tmp_path):
        data = self.run_campaign(
            tmp_path,
            "--algorithm", "ghz",
            "--width", "2",
            "--noise", "light",
            "--backend", "trajectory",
            "--trajectories", "16",
            "--grid-step", "90",
            "--seed", "5",
            "--mitigate",
        )
        assert data["metadata"]["mitigation"] is True
        assert data["backend_name"] == "mitigated(trajectory_simulator)"

    def test_strike_without_seed_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="seed"):
            self.run_campaign(
                tmp_path,
                "--algorithm", "bv",
                "--width", "3",
                "--strike-count", "8",
            )

    def test_checkpoint_runs_correlated_strikes(self, tmp_path):
        """k>=2 strikes checkpoint like any campaign: same records as
        the run without --checkpoint."""
        strike = (
            "--algorithm", "bv",
            "--width", "3",
            "--seed", "11",
            "--strike-count", "2",
            "--strike-k", "2",
        )
        plain = self.run_campaign(tmp_path, *strike)
        plain_output = str(tmp_path / "plain.json")
        with open(plain_output, "w") as handle:
            json.dump(plain, handle)
        checkpoint = str(tmp_path / "ck.ckpt")
        checkpointed = self.run_campaign(
            tmp_path, *strike, "--checkpoint", checkpoint
        )
        assert checkpointed["records"] == plain["records"]
        assert checkpointed["metadata"] == plain["metadata"]
        assert checkpointed["metadata"]["cluster_size"] == 2
        assert_store_is_plain_result(checkpoint, plain_output, tmp_path)

    def test_qec_checkpoint_matches_plain_run(self, tmp_path):
        plain = self.run_campaign(
            tmp_path,
            "--algorithm", "qec",
            "--noise", "none",
            "--grid-step", "90",
            "--seed", "7",
        )
        checkpointed = self.run_campaign(
            tmp_path,
            "--algorithm", "qec",
            "--noise", "none",
            "--grid-step", "90",
            "--seed", "7",
            "--checkpoint", str(tmp_path / "qec.ckpt"),
        )
        key = lambda r: (r["position"], r["qubit"], r["theta"], r["phi"])
        plain_rows = sorted(
            (key(r), r["qvf"]) for r in plain["records"]
        )
        ckpt_rows = sorted(
            (key(r), r["qvf"]) for r in checkpointed["records"]
        )
        assert plain_rows == ckpt_rows
        assert checkpointed["metadata"]["qec"] == plain["metadata"]["qec"]


class TestCampaignTranspile:
    def _run(self, tmp_path, *extra):
        output = str(tmp_path / "out.json")
        code = main(
            [
                "campaign",
                "--algorithm",
                "ghz",
                "--width",
                "3",
                "--grid-step",
                "90",
                "--noise",
                "light",
                "--transpile-to",
                "jakarta",
                "--output",
                output,
                *extra,
            ]
        )
        return code, output

    def test_transpile_to_records_frames(self, tmp_path, capsys):
        from repro.faults import CampaignResult

        code, output = self._run(tmp_path)
        assert code == 0
        result = CampaignResult.load(output)
        assert result.has_frames()
        layout = result.layout_map()
        assert layout is not None
        assert layout.machine == "jakarta"
        assert result.qubits("physical") == sorted(layout.wire_to_physical)

    def test_transpiled_report_shows_both_frames(self, tmp_path, capsys):
        code, output = self._run(tmp_path)
        assert code == 0
        capsys.readouterr()
        assert main(["report", "--input", output]) == 0
        out = capsys.readouterr().out
        assert "transpiled onto `jakarta`" in out
        assert "## Per physical qubit" in out
        assert "## Per logical qubit" in out

    def test_transpiled_checkpoint_resume_keeps_frames(self, tmp_path):
        from repro.faults import CampaignResult

        ckpt = str(tmp_path / "ghz.ckpt")
        code, output = self._run(tmp_path, "--checkpoint", ckpt)
        assert code == 0
        # The checkpoint store itself must be frame-convertible — after
        # a kill it can be the only artefact a campaign leaves behind.
        from_ckpt = CampaignResult.load(ckpt)
        assert from_ckpt.table.has_frame_info()
        assert from_ckpt.layout_map() is not None
        assert from_ckpt.layout_map().machine == "jakarta"
        # Resuming a completed checkpoint recomputes nothing and the
        # frame columns survive the store round trip.
        code, output = self._run(tmp_path, "--checkpoint", ckpt)
        assert code == 0
        loaded = CampaignResult.load(output)
        assert loaded.has_frames()
        assert loaded.layout_map() == from_ckpt.layout_map()

    def test_checkpoint_refuses_mixed_routings(self, tmp_path):
        """Same circuit, same machine, different optimization level:
        positions and frame attribution differ, so resuming must refuse
        rather than silently mix the two routings."""
        ckpt = str(tmp_path / "ghz.ckpt")
        code, _ = self._run(tmp_path, "--checkpoint", ckpt)
        assert code == 0
        with pytest.raises(ValueError, match="different\\s+transpilation"):
            self._run(
                tmp_path, "--checkpoint", ckpt, "--transpile-level", "0"
            )

    def test_unknown_transpile_machine_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                [
                    "campaign",
                    "--algorithm",
                    "bv",
                    "--transpile-to",
                    "osaka",
                    "--output",
                    "x.json",
                ]
            )


class TestSuite:
    SPEC = {
        "name": "cli-suite",
        "scenarios": [
            {
                "algorithm": "bv",
                "width": 3,
                "noise": "none",
                "grid_step_deg": 90.0,
                "executor": "serial",
                "label": "bv3",
            },
            {
                "algorithm": ["ghz", "qft"],
                "width": 3,
                "noise": "light",
                "grid_step_deg": 90.0,
                "label": "{algorithm}3-light",
            },
            {
                "algorithm": "bv",
                "width": 3,
                "noise": "none",
                "grid_step_deg": 90.0,
                "executor": "serial",
                "label": "bv3-dup",
            },
        ],
    }

    def _write_spec(self, tmp_path):
        path = str(tmp_path / "suite.json")
        with open(path, "w") as handle:
            json.dump(self.SPEC, handle)
        return path

    def test_list_expands_and_marks_duplicates(self, tmp_path, capsys):
        assert main(["suite", "list", self._write_spec(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "cli-suite: 4 scenarios" in out
        assert "ghz3-light" in out and "qft3-light" in out
        assert "(dup)" in out and "computed once" in out

    def test_run_writes_manifest_and_report_reads_it(self, tmp_path, capsys):
        spec = self._write_spec(tmp_path)
        manifest = str(tmp_path / "out")
        assert main(["suite", "run", spec, "--manifest", manifest]) == 0
        out = capsys.readouterr().out
        assert "4/4 scenarios (3 computed, 1 reused)" in out
        assert "complete" in out
        with open(manifest + "/manifest.json") as handle:
            data = json.load(handle)
        assert [e["status"] for e in data["scenarios"]] == ["done"] * 4

        assert main(["suite", "report", "--manifest", manifest]) == 0
        report = capsys.readouterr().out
        assert "# QuFI suite report — cli-suite" in report
        assert "bv3-dup" in report

    def test_max_campaigns_halts_then_resumes(self, tmp_path, capsys):
        spec = self._write_spec(tmp_path)
        halted = str(tmp_path / "halted")
        fresh = str(tmp_path / "fresh")
        assert main(["suite", "run", spec, "--manifest", fresh]) == 0
        assert (
            main(
                [
                    "suite",
                    "run",
                    spec,
                    "--manifest",
                    halted,
                    "--max-campaigns",
                    "1",
                ]
            )
            == 0
        )
        assert "halted (resumable)" in capsys.readouterr().out
        assert main(["suite", "run", spec, "--manifest", halted]) == 0
        # Resume-after-halt converges to the identical manifest.
        with open(fresh + "/manifest.json") as a, open(
            halted + "/manifest.json"
        ) as b:
            assert a.read() == b.read()


class TestAdaptiveCampaign:
    BASE = [
        "campaign",
        "--algorithm",
        "ghz",
        "--width",
        "3",
        "--grid-step",
        "30",
        "--noise",
        "none",
        "--adaptive",
        "--adaptive-coarse",
        "3",
        "--adaptive-threshold",
        "0.2",
    ]

    def test_adaptive_run_reports_savings(self, tmp_path, capsys):
        output = str(tmp_path / "ghz.json")
        assert main(self.BASE + ["--output", output]) == 0
        out = capsys.readouterr().out
        assert "adaptive [refine]" in out
        assert "% of the full grid" in out
        with open(output) as handle:
            data = json.load(handle)
        assert data["metadata"]["adaptive"]["mode"] == "refine"

    def test_round_capped_checkpoint_resumes(self, tmp_path, capsys):
        """The CI smoke scenario: one round, then resume to completion —
        byte-identical to a single uninterrupted run."""
        capped = str(tmp_path / "capped.ckpt")
        fresh = str(tmp_path / "fresh.ckpt")
        out_a = str(tmp_path / "a.json")
        out_b = str(tmp_path / "b.json")
        assert (
            main(
                self.BASE
                + [
                    "--adaptive-rounds",
                    "1",
                    "--checkpoint",
                    capped,
                    "--output",
                    out_a,
                ]
            )
            == 0
        )
        assert "stopped by max-rounds" in capsys.readouterr().out
        assert (
            main(self.BASE + ["--checkpoint", capped, "--output", out_a])
            == 0
        )
        assert (
            main(self.BASE + ["--checkpoint", fresh, "--output", out_b])
            == 0
        )
        with open(capped, "rb") as a, open(fresh, "rb") as b:
            assert a.read() == b.read()

    def test_importance_mode_flag(self, tmp_path, capsys):
        output = str(tmp_path / "imp.json")
        code = main(
            [
                "campaign",
                "--algorithm",
                "ghz",
                "--width",
                "3",
                "--noise",
                "none",
                "--seed",
                "7",
                "--adaptive",
                "--adaptive-mode",
                "importance",
                "--adaptive-samples",
                "8",
                "--adaptive-rounds",
                "2",
                "--output",
                output,
            ]
        )
        assert code == 0
        assert "adaptive [importance]" in capsys.readouterr().out

    def test_over_budget_coarse_round_fails(self, tmp_path):
        with pytest.raises(ValueError, match="cannot fund"):
            main(
                self.BASE
                + [
                    "--max-injections",
                    "5",
                    "--output",
                    str(tmp_path / "x.json"),
                ]
            )


class TestSuiteBudgetFlags:
    SPEC = {
        "name": "cli-budget",
        "scenarios": [
            {
                "algorithm": "bv",
                "width": 3,
                "noise": "none",
                "grid_step_deg": 90.0,
                "executor": "serial",
                "label": f"s{i}",
                "seed": i,
            }
            for i in range(2)
        ],
    }

    def _write_spec(self, tmp_path):
        path = str(tmp_path / "suite.json")
        with open(path, "w") as handle:
            json.dump(self.SPEC, handle)
        return path

    def test_reject_exits_with_report(self, tmp_path):
        spec = self._write_spec(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "suite",
                    "run",
                    spec,
                    "--manifest",
                    str(tmp_path / "m"),
                    "--budget-injections",
                    "1",
                ]
            )
        assert "exceeds its budget" in str(excinfo.value)

    def test_truncate_prints_report_and_runs_prefix(self, tmp_path, capsys):
        spec = self._write_spec(tmp_path)
        code = main(
            [
                "suite",
                "run",
                spec,
                "--manifest",
                str(tmp_path / "m"),
                "--budget-injections",
                "100",
                "--budget-action",
                "truncate",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "OVER BUDGET" in out
        assert "halted (resumable)" in out


class TestReport:
    def test_report_from_saved_campaign(self, tmp_path, capsys):
        output = str(tmp_path / "dj.json")
        main(
            [
                "campaign",
                "--algorithm",
                "dj",
                "--width",
                "3",
                "--grid-step",
                "90",
                "--noise",
                "none",
                "--output",
                output,
            ]
        )
        capsys.readouterr()  # clear campaign stdout
        assert main(["report", "--input", output, "--top", "3"]) == 0
        report = capsys.readouterr().out
        assert "# QuFI campaign report" in report
        assert "deutsch_jozsa_3q" in report
        assert "| 3 |" in report and "| 4 |" not in report


class TestSuiteShardingFlags:
    SPEC = TestSuite.SPEC

    def _write_spec(self, tmp_path):
        path = str(tmp_path / "suite.json")
        with open(path, "w") as handle:
            json.dump(self.SPEC, handle)
        return path

    def test_jobs_run_matches_sequential_manifest(self, tmp_path, capsys):
        spec = self._write_spec(tmp_path)
        seq = str(tmp_path / "seq")
        shard = str(tmp_path / "shard")
        assert (
            main(["suite", "run", spec, "--manifest", seq, "--no-cache"])
            == 0
        )
        assert (
            main(
                [
                    "suite",
                    "run",
                    spec,
                    "--manifest",
                    shard,
                    "--jobs",
                    "2",
                    "--cache-dir",
                    str(tmp_path / "cache"),
                ]
            )
            == 0
        )
        assert "complete" in capsys.readouterr().out
        with open(seq + "/manifest.json") as a, open(
            shard + "/manifest.json"
        ) as b:
            assert a.read() == b.read()

    def test_warm_cache_run_reports_store_hits(self, tmp_path, capsys):
        spec = self._write_spec(tmp_path)
        cache = str(tmp_path / "cache")
        assert (
            main(
                [
                    "suite", "run", spec,
                    "--manifest", str(tmp_path / "m1"),
                    "--cache-dir", cache,
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert (
            main(
                [
                    "suite", "run", spec,
                    "--manifest", str(tmp_path / "m2"),
                    "--cache-dir", cache,
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "0 computed" in out
        assert "3 from cache" in out

    def test_jobs_must_be_positive(self, tmp_path):
        spec = self._write_spec(tmp_path)
        with pytest.raises(SystemExit, match="--jobs"):
            main(
                [
                    "suite", "run", spec,
                    "--manifest", str(tmp_path / "m"),
                    "--jobs", "0",
                ]
            )


class TestCacheCommand:
    SPEC = TestSuite.SPEC

    def _warm_cache(self, tmp_path):
        spec = str(tmp_path / "suite.json")
        with open(spec, "w") as handle:
            json.dump(self.SPEC, handle)
        cache = str(tmp_path / "cache")
        assert (
            main(
                [
                    "suite", "run", spec,
                    "--manifest", str(tmp_path / "m"),
                    "--cache-dir", cache,
                ]
            )
            == 0
        )
        return cache

    def test_list_shows_entries_and_total(self, tmp_path, capsys):
        cache = self._warm_cache(tmp_path)
        capsys.readouterr()
        assert main(["cache", "list", cache]) == 0
        out = capsys.readouterr().out
        assert "3 entries" in out
        assert "bv3" in out and "records=" in out and "hits=" in out

    def test_verify_clean_and_corrupt(self, tmp_path, capsys):
        cache = self._warm_cache(tmp_path)
        capsys.readouterr()
        assert main(["cache", "verify", cache]) == 0
        assert "0 corrupt" in capsys.readouterr().out
        victim = next(
            name for name in os.listdir(cache) if name.endswith(".qfs")
        )
        with open(os.path.join(cache, victim), "r+b") as handle:
            handle.write(b"garbage!")
        assert main(["cache", "verify", cache]) == 1
        out = capsys.readouterr().out
        assert "CORRUPT" in out and "1 corrupt" in out

    def test_prune_by_size_accepts_units(self, tmp_path, capsys):
        cache = self._warm_cache(tmp_path)
        capsys.readouterr()
        assert main(["cache", "prune", cache, "--max-bytes", "1KB"]) == 0
        out = capsys.readouterr().out
        assert "evicted" in out and "pruned" in out
        assert main(["cache", "list", cache]) == 0
        assert "0 entries" in capsys.readouterr().out

    def test_cache_dir_falls_back_to_env(self, tmp_path, capsys, monkeypatch):
        cache = self._warm_cache(tmp_path)
        capsys.readouterr()
        monkeypatch.setenv("REPRO_CACHE", cache)
        assert main(["cache", "list"]) == 0
        assert "3 entries" in capsys.readouterr().out

    def test_no_cache_dir_anywhere_fails(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        with pytest.raises(SystemExit, match="REPRO_CACHE"):
            main(["cache", "list"])
