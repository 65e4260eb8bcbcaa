"""``python -m repro.harness stream`` subcommand smoke tests."""

from __future__ import annotations

import json

import pytest

from repro.harness.streamcli import main

FAST = ["--nodes", "4", "--seed", "3", "--duration", "4"]


class TestTail:
    def test_tail_prints_channel_and_entries(self, capsys):
        assert main(["tail", *FAST, "--count", "3"]) == 0
        out = capsys.readouterr().out
        assert "dproc.monitor" in out
        assert "deliver" in out

    def test_tail_json(self, capsys):
        assert main(["tail", *FAST, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "dproc.monitor" in doc
        assert doc["dproc.monitor"][0]["seq"] > 0


class TestStats:
    def test_stats_verifies_against_telemetry(self, capsys):
        assert main(["stats", *FAST]) == 0
        out = capsys.readouterr().out
        assert "match the live telemetry" in out

    def test_stats_json(self, capsys):
        assert main(["stats", *FAST, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["channels"]["dproc.monitor"]["submits"] > 0
        assert doc["verification_errors"] == []


class TestReconcile:
    def test_clean_run_exits_zero(self, capsys):
        assert main(["reconcile", *FAST]) == 0
        assert "missing:        0" in capsys.readouterr().out

    def test_faulted_run_attributes_and_exits_zero(self, capsys):
        assert main(["reconcile", "--nodes", "8", "--seed", "11",
                     "--duration", "12", "--faults", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert doc["counts"]["missing"] == 0
        assert sum(doc["dropped_by_fault"].values()) \
            == doc["counts"]["dropped"] > 0


class TestTrimAndDumpLoad:
    def test_dump_then_load_round_trips(self, tmp_path, capsys):
        target = str(tmp_path / "dump")
        assert main(["tail", *FAST, "--dump", target]) == 0
        first = capsys.readouterr().out
        assert main(["tail", "--load", target]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_load_reconciles_without_a_cluster(self, tmp_path,
                                               capsys):
        target = str(tmp_path / "dump")
        main(["tail", *FAST, "--dump", target])
        capsys.readouterr()
        assert main(["reconcile", "--load", target,
                     "--duration", "4"]) == 0

    def test_reconcile_refuses_a_trimmed_dump(self, tmp_path, capsys):
        from repro.stream import ChannelStream, StreamBroker
        broker = StreamBroker()
        broker.streams["dproc.monitor"] = st = ChannelStream(
            "dproc.monitor", max_len=4)
        for i in range(10):
            st.append(kind="submit", source="alan", dest="",
                      time=float(i), submitted_at=float(i), size=1.0)
        broker.dump(tmp_path)
        with pytest.raises(SystemExit) as exit_:
            main(["reconcile", "--load", str(tmp_path),
                  "--duration", "10"])
        assert exit_.value.code == 2
        assert "fell off" in capsys.readouterr().err
        assert main(["tail", "--load", str(tmp_path)]) == 0
        assert "4 entries, seq 7..10, 6 trimmed" \
            in capsys.readouterr().out


class TestArgs:
    def test_unknown_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            main(["vacuum"])
