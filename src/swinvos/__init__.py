"""Windowed-attention video object segmentation at desk scale.

Submodules: ``config`` (``ModelConfig``, variants, option choices),
``engine`` (tensors + reverse-mode autodiff), ``attention`` (2D/3D
shifted-window blocks), ``encoders``, ``memread`` (dense + top-k
multi-scale memory read), ``decoder``, ``model`` (assembly, memory bank,
training), ``checkpoint`` (binary save/load), ``data`` (synthetic videos +
PPM/PGM I/O), ``metrics`` (J / F), ``gradsuite`` (per-op gradient checks),
``errors``, ``cli``.

Submodules load on demand (``from swinvos import engine``), so importing
``swinvos.cli`` does not load numpy before ``--threads`` caps BLAS.
"""

from .errors import (
    ConfigError,
    DataError,
    DimensionError,
    NumericError,
    SwinVosError,
    UsageError,
)

__all__ = [
    "SwinVosError",
    "ConfigError",
    "DataError",
    "DimensionError",
    "NumericError",
    "UsageError",
]

__version__ = "0.1.0"
