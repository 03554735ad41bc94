"""The DRAM command types the command-level model issues and counts."""

from __future__ import annotations

from enum import Enum


class CommandType(Enum):
    """The LPDDR4 command classes the command-level model issues."""

    ACTIVATE = "ACT"
    PRECHARGE = "PRE"
    READ = "RD"
    WRITE = "WR"
    REFRESH = "REF"
