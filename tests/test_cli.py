"""Command-line interface."""

import json
import os
import signal
import subprocess
import sys
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.cli import main

#: A scenario file written by an earlier release: it carries the retired
#: ``chunk_rows``, ``reduce_at`` and ``simulation`` fields.
PARENT_SCENARIO = Path(__file__).parent / "engine" / "data" / "parent_scenario.json"


def _repro_process(*args, **popen):
    """``python -m repro <args>`` in a child process, this tree's source."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        env=env, text=True, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        **popen,
    )


class TestArtifacts:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "x86_64" in out and "armv7-a" in out

    def test_table5(self, capsys):
        assert main(["table5"]) == 0
        out = capsys.readouterr().out
        assert "rsa-2048" in out and "AMD" in out

    def test_fig4_summary(self, capsys):
        assert main(["fig4"]) == 0
        out = capsys.readouterr().out
        assert "sweet region" in out
        assert "36380" in out.replace(",", "")

    def test_fig5_no_overlap(self, capsys):
        assert main(["fig5"]) == 0
        out = capsys.readouterr().out
        overlap_line = next(
            line for line in out.splitlines() if "overlap region" in line
        )
        assert "| no" in overlap_line

    def test_fig3_r2(self, capsys):
        assert main(["fig3"]) == 0
        out = capsys.readouterr().out
        assert "r^2" in out

    def test_fig10(self, capsys):
        assert main(["fig10"]) == 0
        out = capsys.readouterr().out
        assert "5%" in out and "50%" in out

    def test_workload_override(self, capsys):
        assert main(["fig4", "--workload", "blackscholes"]) == 0
        assert "blackscholes" in capsys.readouterr().out


class TestCsvExport:
    def test_fig4_csv(self, tmp_path, capsys):
        target = tmp_path / "fig4.csv"
        assert main(["fig4", "--csv", str(target)]) == 0
        assert target.exists()
        header = target.read_text().splitlines()[0]
        assert header == "time_ms,energy_j,n_arm,n_amd"

    def test_table5_csv_is_written_and_deterministic(self, tmp_path, capsys):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["table5", "--csv", str(first)]) == 0
        assert main(["table5", "--csv", str(second)]) == 0
        lines = first.read_text().splitlines()
        assert lines[0] == "Program,PPR unit,AMD node,ARM node,winner"
        assert any(line.startswith("rsa-2048,") for line in lines)
        assert first.read_bytes() == second.read_bytes()

    def test_fig6_csv(self, tmp_path, capsys):
        target = tmp_path / "fig6.csv"
        assert main(["fig6", "--csv", str(target)]) == 0
        assert target.exists()
        assert "ARM 128:AMD 0" in target.read_text()


class TestErrors:
    def test_unknown_artifact_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["table9"])

    def test_unknown_workload_rejected(self):
        with pytest.raises(KeyError):
            main(["fig4", "--workload", "nope"])

    @pytest.mark.parametrize(
        "flags", [["--simulation", "reference"], ["--chunk-rows", "4"]]
    )
    def test_retired_flags_rejected(self, flags, capsys):
        with pytest.raises(SystemExit):
            main(["table3", *flags])
        assert "unrecognized arguments" in capsys.readouterr().err


class TestExtensionCommands:
    def test_reduce(self, capsys):
        assert main(["reduce"]) == 0
        out = capsys.readouterr().out
        assert "36,380" in out
        assert "frontier preserved" in out

    def test_sensitivity(self, capsys):
        assert main(["sensitivity", "--workload", "memcached"]) == 0
        out = capsys.readouterr().out
        assert "io_bandwidth_bytes_s" in out

    def test_threeway(self, capsys):
        assert main(["threeway"]) == 0
        out = capsys.readouterr().out
        assert "Atom" in out and "work share" in out

    def test_plot_flag(self, capsys):
        assert main(["fig4", "--plot"]) == 0
        out = capsys.readouterr().out
        assert "Pareto frontier" in out
        assert "|" in out  # a canvas was drawn


class TestScenarioArtifact:
    def test_scenario_from_file(self, tmp_path, capsys):
        from repro.engine import Scenario

        path = tmp_path / "exp.json"
        path.write_text(
            Scenario(
                workload="ep", max_a=2, max_b=2, stages=("frontier",), name="mini"
            ).to_json()
        )
        assert main(["scenario", "--file", str(path)]) == 0
        out = capsys.readouterr().out
        assert "mini" in out
        assert "frontier" in out

    def test_scenario_requires_file(self, capsys):
        assert main(["scenario"]) == 2
        assert "--file" in capsys.readouterr().err

    def test_scenario_csv_and_cache_dir(self, tmp_path, capsys):
        from repro.engine import Scenario

        path = tmp_path / "exp.json"
        path.write_text(Scenario(workload="ep", max_a=2, max_b=2).to_json())
        csv = tmp_path / "space.csv"
        cache_dir = tmp_path / "cache"
        assert main(
            ["scenario", "--file", str(path), "--csv", str(csv),
             "--cache-dir", str(cache_dir)]
        ) == 0
        assert csv.exists() and csv.read_text().startswith("time_ms")
        assert any(cache_dir.iterdir())  # results persisted for later runs

    def test_scenario_verbose_emits_engine_events(self, tmp_path, capsys):
        from repro.engine import Scenario

        path = tmp_path / "exp.json"
        path.write_text(Scenario(workload="ep", max_a=2, max_b=2).to_json())
        assert main(["scenario", "--file", str(path), "--verbose"]) == 0
        assert "[engine]" in capsys.readouterr().err


class TestStreamingFlags:
    def test_fig4_streaming_matches_materialized_summary(self, capsys):
        assert main(["fig4"]) == 0
        materialized = capsys.readouterr().out
        assert main(["fig4", "--space-mode", "streaming",
                     "--memory-budget-mb", "2"]) == 0
        streaming = capsys.readouterr().out
        assert streaming == materialized  # same counts, frontier, regions

    def test_fig4_streaming_csv_exports_frontier(self, tmp_path, capsys):
        csv = tmp_path / "fig4.csv"
        assert main(["fig4", "--space-mode", "streaming",
                     "--csv", str(csv)]) == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "time_ms,energy_j,n_arm,n_amd"
        assert 1 < len(lines) < 100  # frontier rows, not the 36k cloud

    def test_scenario_streaming_with_spill(self, tmp_path, capsys):
        from repro.engine import Scenario

        path = tmp_path / "exp.json"
        path.write_text(
            Scenario(workload="ep", max_a=2, max_b=2,
                     stages=("frontier",)).to_json()
        )
        spill = tmp_path / "spill"
        assert main(
            ["scenario", "--file", str(path), "--space-mode", "streaming",
             "--memory-budget-mb", "1", "--spill-dir", str(spill)]
        ) == 0
        out = capsys.readouterr().out
        assert "streaming" in out
        assert (spill / "meta.json").exists()
        assert (spill / "times_s.npy").exists()

    def test_fig10_streaming(self, capsys):
        assert main(["fig10"]) == 0
        materialized = capsys.readouterr().out
        assert main(["fig10", "--space-mode", "streaming"]) == 0
        assert capsys.readouterr().out == materialized


class TestStoreFlags:
    def _scenario_file(self, tmp_path, **kw):
        from repro.engine import Scenario

        path = tmp_path / "exp.json"
        base = dict(workload="ep", max_a=2, max_b=2,
                    stages=("frontier", "regions"), name="cli-store")
        base.update(kw)
        path.write_text(Scenario(**base).to_json())
        return path

    def test_explain_prints_plan_without_running(self, tmp_path, capsys):
        path = self._scenario_file(tmp_path)
        assert main(["scenario", "--file", str(path), "--explain"]) == 0
        out = capsys.readouterr().out
        assert "Stage plan" in out
        assert "calibrate:arm-cortex-a9" in out
        assert "miss" in out
        # A dry run: no timings table, no configurations count.
        assert "configurations" not in out

    def test_store_dir_round_trip(self, tmp_path, capsys):
        path = self._scenario_file(tmp_path)
        store = tmp_path / "store"
        assert main(["scenario", "--file", str(path),
                     "--store-dir", str(store)]) == 0
        cold = capsys.readouterr().out
        assert "stages from store     | none" in cold
        assert (store / "store.sqlite").exists()

        assert main(["scenario", "--file", str(path),
                     "--store-dir", str(store)]) == 0
        warm = capsys.readouterr().out
        assert "frontier" in warm and "space" in warm
        assert "stages from store     | none" not in warm

        assert main(["scenario", "--file", str(path),
                     "--store-dir", str(store), "--explain"]) == 0
        explain = capsys.readouterr().out
        assert "hit" in explain and "miss" not in explain

    def test_per_stage_cache_rows(self, tmp_path, capsys):
        path = self._scenario_file(tmp_path)
        assert main(["scenario", "--file", str(path)]) == 0
        out = capsys.readouterr().out
        assert "cache[calibrate]" in out
        assert "cache[space]" in out

    def test_serve_requires_store_dir(self, capsys):
        assert main(["serve"]) == 2
        assert "--store-dir" in capsys.readouterr().err


class TestRetiredFieldsReachUsers:
    """Python hides a library's DeprecationWarning outside ``__main__``;
    the CLI and ``repro serve`` must still say which fields they drop."""

    def test_scenario_file_names_retired_fields_once(self):
        proc = _repro_process(
            "scenario", "--file", str(PARENT_SCENARIO), "--explain"
        )
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        assert err.count("chunk_rows") == 1
        assert "the memory budget alone sizes streaming blocks" in err
        assert "reduce_at" in err and "simulation" in err

    def test_serve_logs_retired_fields_of_a_posted_run(self, tmp_path):
        proc = _repro_process(
            "serve", "--store-dir", str(tmp_path / "store"),
            "--port", "0", "--runners", "0",
        )
        try:
            banner = proc.stdout.readline()
            port = int(banner.split("http://")[1].split(":")[1].split()[0])
            spec = json.loads(PARENT_SCENARIO.read_text())
            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/v1/runs",
                data=json.dumps({"scenario": spec}).encode(),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                assert response.status == 202
        finally:
            proc.send_signal(signal.SIGTERM)
            _, err = proc.communicate(timeout=60)
        assert "chunk_rows" in err
        assert "the memory budget alone sizes streaming blocks" in err


class TestRuntimeNumbers:
    """Seconds and sizes must be finite and above zero; a bad value is a
    usage error (exit code 2), not a traceback or a doomed run."""

    @pytest.mark.parametrize(
        "flag", ["--task-timeout-s", "--lease-s", "--memory-budget-mb"]
    )
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1"])
    def test_bad_values_exit_2(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["scenario", f"{flag}={value}"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert flag in err and "finite number above zero" in err

    @pytest.mark.parametrize(
        "flag", ["--task-timeout-s", "--lease-s", "--memory-budget-mb"]
    )
    def test_positive_values_parse(self, flag, capsys):
        # A good value gets past parsing to the command's own check.
        assert main(["scenario", flag, "1.5"]) == 2
        assert "scenario requires --file" in capsys.readouterr().err
