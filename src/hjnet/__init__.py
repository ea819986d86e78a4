"""Time-dependent Hamilton-Jacobi equations on compact networks.

A numpy library for solving u_t + H_gamma(s, u') = 0 on the arcs of a
network, coupled through continuity and a per-vertex flux limiter, with a
monotone finite-difference arc solver, the slope-cap transform handling the
limiter, a network solver that marches all arcs together and caps every
vertex at its limiter step by step, and a verification suite that turns the
well-posedness theory (comparison, contraction, stability, finite speed of
propagation) into executable checks.
"""

from .arc_solver import (
    ArcField,
    BoundaryMode,
    Grid2D,
    constrained,
    free,
    max_subsolution,
    propagation_window,
    subsolution_residual,
    supersolution_residual,
)
from .hamiltonians import (
    ArcHamiltonian,
    HamiltonianFamily,
    abs_hamiltonian,
    c_gamma,
    evaluate,
    family_from_edges,
    momentum_lipschitz,
    positive_shift,
    quadratic_hamiltonian,
    reverse_hamiltonian,
    sampled_hamiltonian,
    sublevel_width,
    sublevel_widths,
    subsolution_level,
)
from .network import (
    Arc,
    Network,
    build_network,
    incident_arcs,
    validate_flux_limiter,
)
from .network_solver import (
    NetworkSolution,
    Scenario,
    SolveParams,
    calibrate_epsilon,
    compute_m0,
    contraction_check,
    default_epsilon,
    plan_solve,
    restart_check,
    shift_check,
    solve,
    solve_ensemble,
    stability_sweep,
    validate_scenario,
    verify,
    with_resolution,
)
from .semidiscrete import (
    VertexTraceSet,
    discr_compare,
    discr_residual,
    f_gamma,
    f_x,
)
from .slope_cap import TimeSeries, apply_g, apply_g_bruteforce, contact_set

__version__ = "0.1.0"
