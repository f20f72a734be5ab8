"""Data predictors: mask-aware spline interpolation (SZ3/CliZ) and Lorenzo."""

from repro.prediction.coefficients import (
    CUBIC_TABLE,
    LINEAR_TABLE,
    MATRIX_B,
    MATRIX_M,
    cubic_coefficients,
    linear_coefficients,
)
from repro.prediction.interpolation import (
    InterpResult,
    InterpSpec,
    interp_compress,
    interp_decompress,
    interpolation_steps,
    max_level,
)
from repro.prediction.lorenzo import lorenzo_compress, lorenzo_decompress, lorenzo_prediction_errors

__all__ = [
    "CUBIC_TABLE",
    "LINEAR_TABLE",
    "MATRIX_M",
    "MATRIX_B",
    "cubic_coefficients",
    "linear_coefficients",
    "InterpSpec",
    "InterpResult",
    "interp_compress",
    "interp_decompress",
    "interpolation_steps",
    "max_level",
    "lorenzo_compress",
    "lorenzo_decompress",
    "lorenzo_prediction_errors",
]
