"""Numerical tolerances used by every validator and verdict in the package; how each threshold
scales is listed on :class:`ToleranceConfig`, and no range of N is claimed for the defaults."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .errors import ValidationError

__all__ = ["ToleranceConfig", "DEFAULT_TOL"]


@dataclass(frozen=True)
class ToleranceConfig:
    """Tolerance bundle threaded through validation and verdict code, and how each is scaled.

    herm   -- absolute: max-abs entry of A - A^dag, for states and Choi matrices
    trace  -- absolute: |trace - 1| of a state
    psd    -- absolute: eigenvalues in [-psd, 0) are numerical zeros, lower is an error
    recon  -- x N: isometry orthonormality and overlap in verify_block_structure (tol.recon * n)
    eq     -- absolute: entropy gaps, the 1 + eq cap on sum M^dag M, classical residuals, a state's
              block coupling; x N: channel-class and block-factor residuals (x dL: left unitary)
    fix    -- absolute: fixed-point residuals and the spectral gap; x N: the canonical cut
              (n * tol.fix); relative: the link threshold (x the largest weight), span membership
    group  -- relative: eigenvalue gaps below group x max(1, spread) are grouped as degenerate
    """

    herm: float = 1e-9
    trace: float = 1e-9
    psd: float = 1e-10
    recon: float = 1e-10
    eq: float = 1e-8
    fix: float = 1e-7
    group: float = 1e-6

    def __post_init__(self) -> None:
        for name, value in self.as_dict().items():
            if not 0.0 <= value < 1.0:
                raise ValidationError(f"tolerance {name}={value!r} must lie in [0, 1)")

    def replace(self, **changes: float) -> "ToleranceConfig":
        return dataclasses.replace(self, **changes)

    def as_dict(self) -> dict[str, float]:
        return dataclasses.asdict(self)


DEFAULT_TOL = ToleranceConfig()
