"""Sampled parameter-to-value maps, the unit of output for sweeps."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ValidationError


@dataclass(frozen=True)
class RateCurve:
    """A sampled map parameter -> extended-real value.

    ``meta`` carries a provenance tag under ``"kind"`` plus any aligned
    per-point extras a producer wants to ship to the CLI (alpha levels,
    raw probabilities, ...).
    """

    params: tuple
    values: tuple
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        params = tuple(float(p) for p in self.params)
        values = tuple(float(v) for v in self.values)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "values", values)
        if len(params) != len(values):
            raise ValidationError("params and values must align")
        for a, b in zip(params, params[1:]):
            if not a < b:
                raise ValidationError("params must be strictly increasing")
        for p in params:
            if not math.isfinite(p):
                raise ValidationError("params must be finite")

    def __len__(self) -> int:
        return len(self.params)
