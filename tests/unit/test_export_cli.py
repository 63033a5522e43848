"""Tests for results export and the CLI."""

import csv
import json

import pytest

from repro.cli import build_parser, main
from repro.core.export import EXPORT_FILES, export_dataset, export_summary


class TestExport:
    @pytest.fixture(scope="class")
    def exported(self, small_dataset, tmp_path_factory):
        out = tmp_path_factory.mktemp("export")
        counts = export_dataset(small_dataset, out)
        return out, counts

    def test_all_files_written(self, exported):
        out, counts = exported
        for name in EXPORT_FILES:
            assert (out / name).exists(), name
            assert counts[name] >= 1

    def test_bids_csv_matches_dataset(self, exported, small_dataset):
        out, counts = exported
        expected = sum(len(a.bids) for a in small_dataset.personas.values())
        assert counts["bids.csv"] == expected
        with (out / "bids.csv").open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == expected
        assert float(rows[0]["cpm"]) > 0

    def test_sync_events_have_uids(self, exported):
        out, _ = exported
        with (out / "sync_events.csv").open() as handle:
            rows = list(csv.DictReader(handle))
        assert rows
        assert all(r["uid"] for r in rows)

    def test_summary_json_structure(self, exported):
        out, _ = exported
        summary = json.loads((out / "summary.json").read_text())
        assert summary["cookie_sync"]["amazon_outbound"] == 0
        assert "vanilla" in summary["bid_summaries"]
        assert summary["policy_availability"]["total_skills"] == 54

    def test_summary_function_direct(self, small_dataset):
        summary = export_summary(small_dataset)
        assert set(summary["significance_vs_vanilla"]) == {
            p.name
            for p in (a.persona for a in small_dataset.interest_personas)
        }

    def test_export_creates_directory(self, small_dataset, tmp_path):
        target = tmp_path / "nested" / "dir"
        export_dataset(small_dataset, target)
        assert (target / "summary.json").exists()


class TestCli:
    def test_version_command(self, capsys):
        assert main(["version"]) == 0
        assert capsys.readouterr().out.strip()

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_small_exports(self, tmp_path, capsys):
        # Use an even smaller footprint than --small via monkey knobs is
        # overkill; --small finishes in a few seconds.
        code = main(["run", "--small", "--seed", "7", "--out", str(tmp_path / "r")])
        assert code == 0
        assert (tmp_path / "r" / "bids.csv").exists()
        assert "exported" in capsys.readouterr().out

    def test_run_segments_store_matches_memory(self, tmp_path, capsys):
        mem = tmp_path / "mem"
        seg = tmp_path / "seg"
        assert main(["run", "--small", "--seed", "7", "--out", str(mem)]) == 0
        code = main(
            [
                "run", "--small", "--seed", "7",
                "--store", "segments",
                "--store-dir", str(tmp_path / "store"),
                "--out", str(seg),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "segment store" in out
        for name in sorted(p.name for p in mem.iterdir()):
            assert (mem / name).read_bytes() == (seg / name).read_bytes(), name

    def test_run_segments_rejects_cache_flag(self, tmp_path):
        # --cache no longer exists: argparse rejects it before any run.
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "run", "--small", "--seed", "7", "--cache",
                    "--store", "segments", "--out", str(tmp_path / "x"),
                ]
            )
        assert excinfo.value.code == 2
        assert not (tmp_path / "x").exists()

    def test_tables_small(self, capsys):
        assert main(["tables", "--small", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "Table 5" in out and "Table 7" in out
        assert "partners syncing with Amazon" in out

    def test_defend(self, capsys):
        assert main(["defend", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "breakage rate" in out

    def test_sync_small(self, capsys):
        assert main(["sync", "--small", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "partners syncing with Amazon" in out

    def test_audio(self, capsys):
        assert main(["audio", "--hours", "0.5", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "Pandora" in out

    def test_policheck(self, capsys):
        assert main(["policheck", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "Table 13" in out and "voice recording" in out
