"""Least squares scaled binary quantization.

Vectors are approximated by sums of scaled sign planes (1-bit, 2-bit
foldable, ternary, and greedy k-bit forms), matrices by rank-1 scale fields
times a sign matrix, and the quantized forms dot and multiply through
bit-packed XNor/popcount kernels without dequantizing.  Analysis helpers
measure reconstruction angles and trace the fixed-point condition curves
behind the solvers.
"""

from .analysis import (
    AngleMetric,
    ConditionCurve,
    Intersection,
    SweepReport,
    SweepRow,
    angle,
    condition_curve,
    emit_report,
    normal_condition_curve,
    normal_split_mse,
    parse_method,
    run_sweep,
)
from .bitkernel import (
    WORD_BITS,
    PackedQuantizedVector,
    QuantizedDotResult,
    load_packed,
    pack_quantization,
    quantized_dot,
    quantized_matmul,
    save_packed,
    unpack_quantization,
)
from .errors import (
    ConvergenceError,
    DimensionOverflowError,
    MalformedHeaderError,
    NonFiniteValueError,
    TensorFileError,
)
from .quantizers import (
    LloydQuantizer,
    QuantizationObjective,
    ScaledBinaryQuantization,
    foldable_planes,
    lloyd_to_scaled_binary,
    objective,
    quantize_greedy,
    quantize_lloyd,
    quantize_ls1,
    quantize_ls2,
    quantize_ternary,
    reconstruct,
    sign,
)
from .rank1 import (
    EnergyProfile,
    Rank1Factorization,
    channel_mean_rank1,
    energy_profile,
    rank1_binary,
    reconstruct_rank1,
    residual_fro2,
)
from .rng import SplitMix64
from .tensor import (
    SyntheticSpec,
    as_float_matrix,
    as_float_vector,
    generate,
    load_tensor,
    save_tensor,
)

__version__ = "0.1.0"

__all__ = [
    "AngleMetric",
    "ConditionCurve",
    "ConvergenceError",
    "DimensionOverflowError",
    "EnergyProfile",
    "Intersection",
    "LloydQuantizer",
    "MalformedHeaderError",
    "NonFiniteValueError",
    "PackedQuantizedVector",
    "QuantizationObjective",
    "QuantizedDotResult",
    "Rank1Factorization",
    "ScaledBinaryQuantization",
    "SplitMix64",
    "SweepReport",
    "SweepRow",
    "SyntheticSpec",
    "TensorFileError",
    "WORD_BITS",
    "angle",
    "as_float_matrix",
    "as_float_vector",
    "channel_mean_rank1",
    "condition_curve",
    "emit_report",
    "energy_profile",
    "foldable_planes",
    "generate",
    "load_packed",
    "load_tensor",
    "lloyd_to_scaled_binary",
    "normal_condition_curve",
    "normal_split_mse",
    "objective",
    "pack_quantization",
    "parse_method",
    "quantize_greedy",
    "quantize_lloyd",
    "quantize_ls1",
    "quantize_ls2",
    "quantize_ternary",
    "quantized_dot",
    "quantized_matmul",
    "rank1_binary",
    "reconstruct",
    "reconstruct_rank1",
    "residual_fro2",
    "run_sweep",
    "save_packed",
    "save_tensor",
    "sign",
    "unpack_quantization",
]
