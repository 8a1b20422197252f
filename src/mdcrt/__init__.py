"""Exact reconstruction of integer vectors from remainders under
integer-matrix moduli, robust variants tolerating bounded remainder
errors, and a sub-Nyquist multidimensional frequency-estimation harness
built on top of them.
"""

__version__ = "0.1.0"

from .errors import (
    ConditionViolatedError,
    EnumerationCapError,
    InconsistentSystemError,
    MdcrtError,
    ShapeError,
    SingularMatrixError,
)
from .intmat import (
    IntMat,
    IntVec,
    SmithForm,
    adjugate,
    det,
    inv_rational,
    inv_unimodular,
    is_unimodular,
    smith,
    solve_integer,
)
from .divisibility import (
    BezoutCert,
    GcrdCert,
    circulant2_coprime,
    commutes,
    gcld,
    gcrd,
    hermite_canonical,
    is_left_coprime,
    is_right_coprime,
    lclm,
    lcrm,
    lcrm_list,
    left_divides,
)
from .residue import (
    Residue,
    folding_vector,
    in_fpd,
    mod_reduce,
    residue_set,
    uniform_residue,
)
from .crt import (
    CcSolver,
    CrtSolution,
    ResidueSystem,
    crt_cc,
    crt_diagonalized,
    crt_explicit,
    crt_general,
    crt_pair,
    scalar_crt,
)
from .lattice import Norm, cvp, lattice_member, lattices_equal, min_distance
from .robust import (
    ErrorModel,
    RobustModuli,
    RobustTrace,
    default_robust_cases,
    error_bound_lattice,
    error_bound_smith,
    folding_vectors_lattice,
    folding_vectors_smith,
    operator_norm_upper,
    range_contains,
    recover_folding_vectors,
    robust_reconstruct,
    robustness_sweep,
    robustness_trials,
    sample_error,
    sample_in_range,
)
from .freqest import (
    DftSpectrum,
    FrequencyEstimate,
    SignalModel,
    SignalSamples,
    default_sweep_cases,
    detect_remainder,
    estimate_frequency,
    md_dft,
    sample_signal,
    sampling_plan,
    snr_sweep,
)
