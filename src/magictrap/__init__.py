"""Magic trapping conditions for polar molecules in DC + laser fields.

Dressed rigid-rotor states, their dynamic polarizability tensors, and the
field strengths / polarization angles at which trap potentials of two
internal states coincide.
"""

__version__ = "0.1.0"

from .angular import c_tensor_element, f_factor, three_j
from .lattice import (
    BeamConfig,
    LatticePlan,
    SeparationOfScalesError,
    plan_paper_lattice,
    plan_to_json,
    validate_plan,
)
from .magic import (
    CrossingReport,
    DegenerateDifferenceError,
    MagicAngleReport,
    NoCrossingError,
    RefinementError,
    SweepGrid,
    emit_figure_data,
    find_magic_field,
    find_magic_fields,
    magic_angle,
    magic_field_polarization_invariance,
    sweep,
)
from .polarizability import (
    MAGIC_ANGLE_DEG,
    PolarizabilityTensor,
    PolarizationVector,
    StarkShift,
    alpha_eff,
    alpha_tensor_closed_form,
    alpha_tensor_sos,
    stark_shift,
)
from .stark import (
    StarkEigensystem,
    StateLabel,
    alignment,
    check_convergence,
    solve,
)
from .units import (
    AU_POL_TO_MHZ_PER_W_CM2,
    DEBYE_KVCM_TO_MHZ,
    MoleculeFileError,
    MoleculeSpec,
    alpha_lambda_at,
    bundled_molecule_names,
    load_molecule,
)

__all__ = [
    "__version__",
    "three_j", "c_tensor_element", "f_factor",
    "MoleculeSpec", "MoleculeFileError",
    "load_molecule", "bundled_molecule_names", "alpha_lambda_at",
    "DEBYE_KVCM_TO_MHZ", "AU_POL_TO_MHZ_PER_W_CM2",
    "StateLabel", "StarkEigensystem", "solve", "alignment", "check_convergence",
    "PolarizationVector", "PolarizabilityTensor", "StarkShift",
    "alpha_tensor_closed_form", "alpha_tensor_sos",
    "alpha_eff", "stark_shift",
    "MAGIC_ANGLE_DEG",
    "SweepGrid", "CrossingReport", "MagicAngleReport",
    "NoCrossingError", "DegenerateDifferenceError", "RefinementError",
    "sweep", "emit_figure_data", "find_magic_field", "find_magic_fields",
    "magic_field_polarization_invariance", "magic_angle",
    "BeamConfig", "LatticePlan", "SeparationOfScalesError",
    "plan_paper_lattice", "validate_plan", "plan_to_json",
]
