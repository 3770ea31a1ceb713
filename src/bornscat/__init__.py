"""Born-series scattering engine for potentials with one-sided spectral support.

The package builds potentials whose Fourier transform vanishes on the
half-space u.p < alpha, runs the Born iteration for scalar and
electromagnetic waves on uniform grids, and checks that the scattering
series truncates at the predicted order.
"""

from .grids import (
    DirectionSet,
    Grid,
    SampledField,
    Space,
    forward_ft,
    inverse_ft,
    load_field,
    make_grid,
    nudft,
    plane_wave,
    save_field,
    snap_to_momentum_lattice,
    sphere_directions,
    transverse_basis,
)
from .potentials import (
    PotentialSpec,
    PotentialSum,
    SupportReport,
    potential_spectrum,
    potential_value,
    sample_potential,
    spec_from_dict,
    spec_to_dict,
    verify_support,
)
from .scalar import (
    BornTerm,
    DivergenceError,
    ExactnessReport,
    OnShellRecord,
    ScatterConfig,
    VerificationReport,
    amplitude_factor,
    born_orders,
    born_series,
    born_step,
    exactness_order,
    green_factor,
    incident_term,
    make_scatter_config,
    on_shell_numerator,
    propagate,
    verify_convolution_support,
    verify_exactness,
    verify_order_bands,
    verify_spectral_floor,
    write_on_shell_csv,
)
from .em import (
    MaterialTensors,
    apply_material,
    certify_materials,
    default_polarization,
    em_born_series,
    em_born_step,
    em_kernel_apply,
    em_on_shell_numerator,
    incident_six_field,
    material_from_entries,
    material_from_scalar,
    verify_em_exactness,
    verify_em_order_bands,
    verify_em_spectral_floor,
    write_em_on_shell_csv,
)
from .oracle import (
    ConvergedSolution,
    FarFieldFit,
    QuadratureResult,
    SeriesConvergenceError,
    asymptotic_fit,
    converged_solution,
    em_quad_second_order,
    quad_second_order,
    slow_dft,
)

__version__ = "0.1.0"
