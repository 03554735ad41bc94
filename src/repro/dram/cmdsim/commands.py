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

    # Enum's default __hash__ runs in Python; command kinds key the
    # per-command ``command_counts`` updates, and identity hashing (members
    # are singletons) makes those lookups C-level, as for ``QueueClass``.
    __hash__ = object.__hash__
