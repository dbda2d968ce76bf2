"""Runtime configuration with environment-file plumbing.

A JSON file named by the QECC_CONFIG environment variable supplies
defaults; command-line flags override individual fields.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields, replace
from typing import Optional

from .arith import InvalidInputError

ENV_VAR = "QECC_CONFIG"
MODES = ("exact", "float")


@dataclass(frozen=True)
class Config:
    mode: str = "exact"
    float_tolerance: float = 1e-10
    max_d: int = 13
    max_n: int = 64
    oracle_term_cap: int = 200_000

    def check(self) -> "Config":
        check_mode(self.mode, self.float_tolerance)
        # `type(x) is int`, since bool is an int: JSON true is not the cap 1.
        for name in ("max_d", "max_n", "oracle_term_cap"):
            value = getattr(self, name)
            if type(value) is not int or value <= 0:
                raise InvalidInputError(
                    f"{name} must be a positive integer, got {value!r}")
        return self


def check_mode(mode: str, tolerance: float) -> None:
    """Refuse a mode but exact or float, and a tolerance outside (0, 1e-3]."""
    if mode not in MODES:
        raise InvalidInputError(f"mode must be exact or float, got {mode!r}")
    if type(tolerance) not in (int, float) or not 0 < tolerance <= 1e-3:
        raise InvalidInputError(
            f"float tolerance must lie in (0, 1e-3], got {tolerance!r}")


def check_scale(d: int, N: Optional[int], max_d: int, max_n: int) -> None:
    """Refuse (d, N) beyond the caps; N=None checks d alone (`family`,
    whose N = (d-1)**2 follows from d)."""
    if d > max_d or (N is not None and N > max_n):
        where = f"d={d}" if N is None else f"d={d}, N={N}"
        raise InvalidInputError(
            f"({where}) exceeds caps (d<={max_d}, N<={max_n})")


def load_config(path: str | None = None) -> Config:
    """Defaults, overlaid with the QECC_CONFIG file (or an explicit path)."""
    path = path or os.environ.get(ENV_VAR)
    config = Config()
    if not path:
        return config
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InvalidInputError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise InvalidInputError(f"config {path} is not a JSON object")
    known = {f.name for f in fields(Config)}
    unknown = set(data) - known
    if unknown:
        raise InvalidInputError(f"unknown config keys: {sorted(unknown)}")
    return replace(config, **data).check()
