"""Numerics for transfer operators, equilibrium states, ergodic optimization
and phase transitions on subshifts of finite type."""

__version__ = "0.1.0"

from .shiftspace import (
    CylinderFunction,
    CylinderMeasure,
    ShiftModel,
    ShiftSpaceError,
    Word,
    admissible_words,
    alpha_power,
    birkhoff,
    full_shift,
    golden_mean_shift,
    integrate,
    point_mass,
    preimages,
)
from .transfer import (
    ConvergenceError,
    RpfSolution,
    TransferOperator,
    apply,
    cond_expectation,
    pressure,
    quasi_basis,
    rpf_solve,
)
from .kms import (
    F_op,
    GaugeSpec,
    KmsResult,
    gibbs_state,
    kms_check,
    kms_iterate,
    lambda_cocycle,
    projection_steps,
    random_start,
)
from .monomial import (
    AlgebraContext,
    AlgebraElement,
    Monomial,
    adjoint,
    expectation_G,
    gauge,
    multiply,
    reduce_level,
    represent,
    state_eval,
)
from .ergopt import (
    GroundSet,
    Optimum,
    brute_force_max_mean,
    cohomologous_tilt,
    conditional_minima,
    ground_support_test,
    m_value,
    subaction,
)

# loaded with scipy on first use, and read from thermoshift.renewal on every access
_RENEWAL = {"PressureCurve", "RenewalModel", "eigenmeasure_masses", "pressure_at",
            "phase_transition_report", "pressure_curve", "tower_pressure_oracle", "zeta"}


def __getattr__(name: str):
    if name in _RENEWAL:
        from . import renewal
        return getattr(renewal, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
