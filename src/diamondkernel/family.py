"""Forbidden-family descriptors.

A family holds at most one s-diamond item and at most one clique item.  The
plain diamond is the 1-diamond (an edge plus two non-adjacent common
neighbors of its endpoints); the general s-diamond is an edge joined to an
independent set of s+1 vertices.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import FamilyError


@dataclass(frozen=True)
class FamilySpec:
    """Family items: SDiamond(s) when sdiamond is set, Clique(t) when clique is set."""

    sdiamond: int | None = None
    clique: int | None = None

    def __post_init__(self):
        if self.sdiamond is None and self.clique is None:
            raise FamilyError("family must contain at least one pattern")
        if self.sdiamond is not None and self.sdiamond < 1:
            raise FamilyError(f"s-diamond needs s >= 1, got {self.sdiamond}")
        if self.clique is not None and self.clique < 3:
            raise FamilyError(f"clique needs t >= 3, got {self.clique}")

    @classmethod
    def diamond(cls) -> "FamilySpec":
        return cls(sdiamond=1)

    @classmethod
    def diamond_kt(cls, t: int) -> "FamilySpec":
        return cls(sdiamond=1, clique=t)

    @classmethod
    def s_diamond(cls, s: int) -> "FamilySpec":
        return cls(sdiamond=s)

    @property
    def smallest_pattern(self) -> int:
        """The vertex count of the family's smallest pattern: s + 3 or t."""
        return min(t for t in (self.sdiamond and self.sdiamond + 3, self.clique) if t)

    def kernelizable(self) -> bool:
        """True for the two families the kernelizers support."""
        return self.sdiamond == 1 and (self.clique is None or self.clique >= 4)

    def require_kernelizable(self) -> None:
        if not self.kernelizable():
            raise FamilyError(
                f"family {self.token()} is not supported by the kernelizer "
                "(needs the plain diamond, optionally with a clique of size >= 4)")

    def token(self) -> str:
        """File-format token, e.g. 'diamond', '2-diamond', 'diamond,k4'."""
        parts = []
        if self.sdiamond is not None:
            parts.append("diamond" if self.sdiamond == 1 else f"{self.sdiamond}-diamond")
        if self.clique is not None:
            parts.append(f"k{self.clique}")
        return ",".join(parts)

    @classmethod
    def parse_token(cls, token: str) -> "FamilySpec":
        sdiamond = None
        clique = None
        for item in token.split(","):
            item = item.strip().lower()
            if item == "diamond":
                value, slot = 1, "sdiamond"
            elif m := re.fullmatch(r"([0-9]+)-diamond", item):
                value, slot = int(m.group(1)), "sdiamond"
            elif m := re.fullmatch(r"k([0-9]+)", item):
                value, slot = int(m.group(1)), "clique"
            else:
                raise FamilyError(f"unrecognized family item {item!r}")
            if slot == "sdiamond":
                if sdiamond is not None:
                    raise FamilyError("at most one s-diamond item allowed")
                sdiamond = value
            else:
                if clique is not None:
                    raise FamilyError("at most one clique item allowed")
                clique = value
        return cls(sdiamond=sdiamond, clique=clique)
