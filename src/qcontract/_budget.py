"""Coarse work budget shared by the enumeration-heavy operations.

The budget counts coarse steps (orbit elements visited, matrix rows reduced,
words expanded), not machine instructions.  A charge that would exceed it
raises BudgetExceeded and counts nothing, so a caller charges a closed-form
count before it builds anything.  No command line exists yet
(``qcontract.cli`` is declared in pyproject.toml but not written), so the
exception propagates to whoever called the check.
"""
from __future__ import annotations

import os

DEFAULT_BUDGET = 10_000_000


class BudgetExceeded(RuntimeError):
    pass


class Budget:
    __slots__ = ("limit", "used")

    def __init__(self, limit: int | None = None):
        if limit is None:
            limit = int(os.environ.get("QCONTRACT_BUDGET", DEFAULT_BUDGET))
        self.limit = limit
        self.used = 0

    def charge(self, n: int = 1) -> None:
        used = self.used + n
        if used > self.limit:
            raise BudgetExceeded(f"work budget exhausted: {self.used} + {n} > {self.limit}")
        self.used = used


_active = Budget()


def active_budget() -> Budget:
    return _active


def set_budget(limit: int | None) -> Budget:
    """Install a fresh budget (None reads QCONTRACT_BUDGET or the default)."""
    global _active
    _active = Budget(limit)
    return _active


def charge(n: int = 1) -> None:
    _active.charge(n)
