"""Extremal quasiconformal maps on Cantor-type disk packings.

Construction, exact evaluation (map, inverse, Jacobian, Jacobian p-mass),
desk-scale verification of the dimension-distortion and Hölder claims, and
the Cauchy-transform nonremovability counterexample.
"""

from .geometry import (
    ENUMERATION_CAP,
    CantorQCError,
    ConstructionParams,
    Disk,
    DiskPacking,
    EnumerationCapError,
    Location,
    PackingError,
    ParameterError,
    Region,
    Similarity,
    build_packing,
    derive_params,
    generation_centers,
    generation_disks,
    image_map,
    locate,
    source_map,
)
from .nonremovable import (
    CounterexampleReport,
    CounterexampleSpec,
    DiscreteMeasure,
    ImageIFS,
    build_counterexample,
    cauchy_transform,
    cauchy_transform_batch,
    frostman_measure,
    max_admissible_epsilon,
    removability_threshold,
    verify_counterexample,
)
from .qcmap import (
    Descend,
    Final,
    GluedMapSpec,
    GluedPiece,
    LpMassEstimate,
    LpMassReport,
    MapResult,
    base_step,
    glued_map,
    jacobian,
    jacobian_batch,
    lp_mass_closed_form,
    lp_mass_monte_carlo,
    make_glued_spec,
    phi,
    phi_batch,
    phi_inverse,
    phi_inverse_batch,
    phi_map_fn,
    terminal_info,
    unresolved_area,
)
from .verify import (
    DimensionEstimate,
    GrowthReport,
    HolderConfig,
    HolderReport,
    PackingConditionReport,
    box_dimension,
    generation_disk_growth,
    holder_estimate,
    holder_pair_table,
    integral_growth_check,
    packing_condition_check,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
