"""Numerical tolerances used by every validator and verdict in the package; how each threshold
scales is listed on :class:`ToleranceConfig`, and no range of N is claimed for the defaults."""

from __future__ import annotations

import dataclasses

from .errors import ValidationError

__all__ = ["ToleranceConfig", "DEFAULT_TOL"]

# the four fixed thresholds: reports print them beside the three a caller sets
_HERM_TOL, _TRACE_TOL, _RECON_TOL, _GROUP_RTOL = 1e-9, 1e-9, 1e-10, 1e-6


@dataclasses.dataclass(frozen=True)
class ToleranceConfig:
    """The three settable thresholds of the verdicts, and how each of the seven is scaled.

    herm   -- fixed (_HERM_TOL), absolute: max-abs entry of A - A^dag, for states and Choi matrices
    trace  -- fixed (_TRACE_TOL), absolute: |trace - 1| of a state
    psd    -- absolute: eigenvalues in [-psd, 0) are numerical zeros, lower is an error
    recon  -- fixed (_RECON_TOL), x N: isometry orthonormality and overlap in verify_block_structure
    eq     -- absolute: entropy gaps, the 1 + eq cap on sum M^dag M, classical residuals, a state's
              block coupling; x N: channel-class and block-factor residuals (x dL: left unitary)
    fix    -- absolute: fixed-point residuals and the spectral gap; x N: the canonical cut
              (n * tol.fix); relative: the link threshold (x the largest weight), span membership
    group  -- fixed (_GROUP_RTOL), relative: eigenvalue gaps below group x max(1, spread) merge
    """

    psd: float = 1e-10
    eq: float = 1e-8
    fix: float = 1e-7

    def __post_init__(self) -> None:
        for name, value in dataclasses.asdict(self).items():
            if not 0.0 <= value < 1.0:
                raise ValidationError(f"tolerance {name}={value!r} must lie in [0, 1)")

    def replace(self, **changes: float) -> "ToleranceConfig":
        return dataclasses.replace(self, **changes)

    def as_dict(self) -> dict[str, float]:
        """All seven thresholds, the fixed four included, in the order every report prints them."""
        return {"herm": _HERM_TOL, "trace": _TRACE_TOL, "psd": self.psd, "recon": _RECON_TOL,
                "eq": self.eq, "fix": self.fix, "group": _GROUP_RTOL}


DEFAULT_TOL = ToleranceConfig()
