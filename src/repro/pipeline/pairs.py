"""Typed flow-pair keys.

Every pipeline mapping — datasets, trained models, reports — is keyed
by :class:`FlowPairKey`, a frozen, hashable value object naming one
ordered flow pair.  Plain tuples and ``"A|B"`` strings are not keys:
they neither compare equal to one nor find one in a dict.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

#: Separator used by ``str(key)``.
PAIR_SEPARATOR = "|"


@dataclass(frozen=True)
class FlowPairKey:
    """Identity of one ordered flow pair ``(F_first | F_second)``."""

    first: str
    second: str

    def __post_init__(self):
        for label, value in (("first", self.first), ("second", self.second)):
            if not isinstance(value, str) or not value:
                raise ConfigurationError(
                    f"FlowPairKey.{label} must be a non-empty string, got {value!r}"
                )

    def __str__(self):
        return f"{self.first}{PAIR_SEPARATOR}{self.second}"

    def label(self) -> str:
        """Human-facing form used in report headers."""
        return f"({self.first} | {self.second})"
