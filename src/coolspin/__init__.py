"""Exact simulation of polarization boosting and algorithmic cooling.

The package models ensembles of coupled spin-1/2 nuclei as population
vectors over computational basis states, applies reversible logic to pump
polarization into chosen spins, bounds what any such circuit can achieve,
compiles the boost to an idealized selective-pulse sequence, and predicts
the readout spectra that certify the result.
"""
from .bounds import (
    Decomposition,
    ProjectionResult,
    decompose,
    entropy_bound_kmax,
    max_projection,
)
from .compiler import (
    CircuitIR,
    compile_circuit,
    format_circuit,
    lower_toffoli_phase,
    parse_circuit,
)
from .cooling import (
    BoostReport,
    CoolingPlan,
    PlanResult,
    Round,
    boost_exact,
    conditional_polarization_after_cnot,
    plan_rounds,
    simulate_plan,
)
from .errors import CapacityError, CoolspinError, InfeasibleError
from .gates import Gate, boost_circuit, circuit_permutation, gate_permutation, lower_fredkin
from .operators import iz_diag, iz_operator, iz_product_diag, iz_product_operator
from .propagator import (
    permutation_unitary,
    phase_pattern_equal,
    simulate_sequence,
    verify_permutation,
)
from .pulses import (
    Delay,
    DurationModel,
    FrameShift,
    PulseSequence,
    SelectivePulse,
    coupled_delay_s,
    standard_toffoli_s,
)
from .spectra import Spectrum, line_frequencies, mean_enhancement, readout
from .states import (
    PopulationState,
    Unitary,
    apply_permutation,
    permute_vector,
    polarization,
    thermal_state,
)
from .system import SpinSystem, example_system, example_system_path
from .thermo import entropy_binary, entropy_deficit, thermal_polarization

__version__ = "0.1.0"

__all__ = [
    "BoostReport",
    "CapacityError",
    "CircuitIR",
    "CoolingPlan",
    "CoolspinError",
    "Decomposition",
    "Delay",
    "DurationModel",
    "FrameShift",
    "Gate",
    "InfeasibleError",
    "PlanResult",
    "PopulationState",
    "ProjectionResult",
    "PulseSequence",
    "Round",
    "SelectivePulse",
    "Spectrum",
    "SpinSystem",
    "Unitary",
    "apply_permutation",
    "boost_circuit",
    "boost_exact",
    "circuit_permutation",
    "compile_circuit",
    "conditional_polarization_after_cnot",
    "coupled_delay_s",
    "decompose",
    "entropy_binary",
    "entropy_bound_kmax",
    "entropy_deficit",
    "example_system",
    "example_system_path",
    "format_circuit",
    "gate_permutation",
    "iz_diag",
    "iz_operator",
    "iz_product_diag",
    "iz_product_operator",
    "line_frequencies",
    "lower_fredkin",
    "lower_toffoli_phase",
    "max_projection",
    "mean_enhancement",
    "parse_circuit",
    "permutation_unitary",
    "permute_vector",
    "phase_pattern_equal",
    "plan_rounds",
    "polarization",
    "readout",
    "simulate_plan",
    "simulate_sequence",
    "standard_toffoli_s",
    "thermal_polarization",
    "thermal_state",
    "verify_permutation",
    "__version__",
]
