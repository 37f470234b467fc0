"""Numerical toolkit for the excitation-swap (Fermi two-atom) problem on
periodic harmonic chains and linear ion traps."""

__version__ = "0.1.0"

from .amplitude import (
    AmplitudeTrace,
    bare_amplitude,
    windowed_amplitude,
)
from .causality import (
    CausalityTrace,
    LightconeEstimate,
    anticommutator,
    causality_trace,
    commutator,
    lightcone_estimate,
    nominal_causal_time,
)
from .cloud import CloudSnapshot, excitation_distribution, single_site_distributions
from .dressing import (
    DressingScheme,
    ExpansionTerm,
    SpinPattern,
    StateExpansion,
    dressed_amplitude,
    dressed_ground_state,
    g_min,
    initial_dressed_state,
    static_dressing_amplitude,
)
from .errors import (
    FermiLatticeError,
    InvalidParametersError,
    NumericalFailureError,
    SchemaError,
    UnsupportedConfigurationError,
)
from .ion2 import (
    PulseSpec,
    ThermalGroundState,
    displaced_number_overlap,
    swap_probability,
    swap_probability_full,
    symplectic_temperature,
)
from .modes import (
    BasisKind,
    ChainParams,
    ModeBasis,
    Scenario,
    TrapParams,
    build_harmonic_chain,
    build_ion_trap,
    equilibrium_positions,
)
from .openings import OpeningFunction
from .oracle import (
    AdiabaticReport,
    EvolutionResult,
    FockSpace,
    HamiltonianAction,
    adiabatic_dressing_check,
    build_hamiltonian,
    converged_swap_amplitude,
    evolve,
    evolve_static,
    exact_swap_amplitude,
    expansion_to_vector,
    residual_slope,
)
