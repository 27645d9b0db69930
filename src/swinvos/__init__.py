"""Windowed-attention video object segmentation at desk scale.

Subpackages: ``engine`` (tensors + reverse-mode autodiff), ``attention``
(2D/3D shifted-window blocks), ``encoders``, ``memread`` (dense + top-k
multi-scale memory read), ``decoder``, ``model`` (assembly, memory bank,
training), ``data`` (synthetic videos + PPM/PGM I/O), ``metrics`` (J / F),
``cli``.

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
