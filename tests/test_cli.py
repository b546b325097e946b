"""Tests for the experiment CLI."""

import pytest

from repro.cli import EXPERIMENTS, main, run_experiment


class TestCli:
    def test_list_covers_all_experiments(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for experiment_id in EXPERIMENTS:
            assert experiment_id in output

    def test_run_a2_prints_table(self, capsys):
        assert main(["run", "a2"]) == 0
        output = capsys.readouterr().out
        assert "sync (exit per call)" in output
        assert "async + user threads (SCONE)" in output

    def test_run_unknown_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "zz"])

    def test_run_experiment_returns_result(self):
        # A2 is the cheapest registered experiment (~0.15 s, virtual
        # clock only): the return shape is what is under test.
        rows = run_experiment("a2")
        assert len(rows) == 3

    def test_every_experiment_is_registered_with_callable(self):
        import importlib

        for experiment_id, (module_name, function_name, description) in (
            EXPERIMENTS.items()
        ):
            module = importlib.import_module(module_name)
            assert callable(getattr(module, function_name)), experiment_id
            assert description


class TestGateColumnsByName:
    """The gate finds its columns by header name, not by position."""

    @staticmethod
    def _fake_a10(monkeypatch, header, scale=1.0):
        """Gate only A10, served from its baseline with the columns in
        ``header`` order and the gated metric scaled by ``scale``."""
        import json
        import os
        import types

        from benchmarks import _harness
        from repro import cli

        path = os.path.join(_harness._OUT_DIR, "gate_a10.json")
        with open(path, "r", encoding="utf-8") as handle:
            stored = json.load(handle)
        rows = []
        for row in stored["rows"]:
            named = dict(zip(stored["header"], row))
            named["virtual_ms/pub"] *= scale
            rows.append(tuple(named.get(name, 0.0) for name in header))
        module = types.SimpleNamespace(A10_HEADER=tuple(header))
        monkeypatch.setattr(cli, "GATE_SPECS", {"a10": cli.GATE_SPECS["a10"]})
        monkeypatch.setattr(
            cli, "_load", lambda _id: (module, lambda smoke: rows)
        )
        return cli

    REORDERED = ("mode", "speedup_vs_seed", "matched/pub",
                 "envelopes/pub", "virtual_ms/pub")

    def test_reordered_header_gates_the_same_column(self, monkeypatch, capsys):
        cli = self._fake_a10(monkeypatch, self.REORDERED)
        assert cli.run_gate() == 0
        assert "virtual_ms/pub" in capsys.readouterr().out
        # ...and a regression in the *named* column still fails, even
        # though position 1 (what an index-keyed gate would read) now
        # holds speedup_vs_seed.
        cli = self._fake_a10(monkeypatch, self.REORDERED, scale=1.5)
        assert cli.run_gate() == 1

    def test_missing_metric_name_fails_loudly(self, monkeypatch):
        cli = self._fake_a10(
            monkeypatch, ("mode", "ms/pub", "envelopes/pub")
        )
        with pytest.raises(SystemExit, match="virtual_ms/pub"):
            cli.run_gate()
