"""Energy-based entanglement certification for spin Hamiltonians.

Certified brackets on the minimum separable energy, entanglement gaps,
witness operators, gap temperatures, and the lattice/XY machinery to
reproduce the reference tables at desk scale.
"""

from .operators import (
    HermitianOperator,
    LanczosError,
    MatrixFreeOperator,
    Spectrum,
    eig,
    ground_energy,
    kron,
    lanczos_ground,
    operator_from_json,
    operator_to_json,
    partial_trace,
    partial_transpose,
    permute_subsystems,
    regroup,
)
from .models import (
    CouplingSpec,
    ces_hamiltonian,
    choi_hamiltonian,
    coupling_from_identifier,
    from_identifier,
    heisenberg_pair,
    max_entangled_projector_hamiltonian,
    symmetric_projector_hamiltonian,
    upb_hamiltonian,
    xxz_pair,
    xy_pair,
)
from .lattices import (
    AssembledLattice,
    LatticeSpec,
    REFERENCE_ENERGIES,
    assemble,
    bond_energy_decomposition,
    star_ground_energy_heisenberg,
)
from .sdp import PPTResult, solve_ppt_sdp, solve_ppt_sdp_batch
from .separability import (
    GapReport,
    ProductState,
    SepBracket,
    bipartite_lattice_sep_energy,
    build_witness,
    cluster_sep_energy,
    entanglement_gap,
    geometric_overlap,
    ppt_lower,
    seesaw_upper,
    sep_bracket,
)
from .thermo import (
    ThermalCurve,
    bound_entanglement_window,
    entanglement_gap_temperature,
    gibbs_state,
    scaled_gap_temperature,
    temperature_comparison,
    thermal_curve,
    thermal_energy,
)
from .xy import (
    XYPoint,
    xy_chain_energy_extrema,
    xy_gap_surface,
    xy_sep_energy,
    xy_sep_energy_numeric,
)
from .twoqubit import (
    SearchResult,
    afm_reference_temperature,
    e2_bounds,
    family_hamiltonian,
    random_search,
)
from .tables import chain_energy_extrapolation, table1_report, table2_report

__version__ = "0.1.0"
