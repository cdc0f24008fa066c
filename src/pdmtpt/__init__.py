"""Position-dependent-mass trigonometric Poschl-Teller wells in closed form.

The package builds two kinds of objects and keeps them honest against each
other:

* exactly solvable deformed wells (full spectrum and all bound states in
  closed form), in :mod:`pdmtpt.tpt_exact`;
* quasi-exactly solvable extensions (lowest two states in closed form, the
  potential fixed by its top coefficients), in :mod:`pdmtpt.tpt_extended`;

with the intertwining algebra in :mod:`pdmtpt.dsusy_core`, the exact
rational helpers in :mod:`pdmtpt.combinatorics`, and an independent
finite-difference eigensolver oracle in :mod:`pdmtpt.numeric_verify`.
"""

from .combinatorics import (
    SumIndex,
    binomial,
    double_factorial,
    f_poly,
    gegenbauer,
    jacobi,
    s_sum,
)
from .dsusy_core import (
    BoundaryCheck,
    CompatibilityError,
    DeformingFunction,
    EvenTrigPoly,
    Family,
    GapSignError,
    GeneratingPair,
    TrigLaurentPoly,
    companion_from_generator,
    compatibility_gap,
    f_value,
    hermiticity_boundary_check,
    make_generating_pair,
    partner_potential,
    psi0_numeric,
    psi1_numeric,
    split_superpotentials,
)
from .numeric_verify import (
    FlattenedProblem,
    NumericSpectrum,
    count_nodes,
    g_domain,
    inner_product,
    interior_samples,
    mass_flatten,
    mass_unflatten,
    residual,
    solve_spectrum,
)
from .tpt_exact import (
    ExactOneParam,
    ExactTwoParam,
    energy_one_param,
    energy_two_param,
    potential_one_param,
    potential_two_param,
    superpotentials_one_param,
    superpotentials_two_param,
    wavefn_one_param,
    wavefn_two_param,
)
from .tpt_extended import (
    ClosedFormWavefunction,
    ExtendedOneParamSpec,
    ExtendedTwoParamSpec,
    InternalConsistencyError,
    build_one_param,
    build_two_param,
    closed_form_wavefunction,
    expand_and_resum_one_param,
    expand_and_resum_two_param,
    generating_pair,
    potential_value,
)

__version__ = "0.1.0"

__all__ = [
    "SumIndex",
    "binomial",
    "double_factorial",
    "f_poly",
    "gegenbauer",
    "jacobi",
    "s_sum",
    "BoundaryCheck",
    "CompatibilityError",
    "DeformingFunction",
    "EvenTrigPoly",
    "Family",
    "GapSignError",
    "GeneratingPair",
    "TrigLaurentPoly",
    "companion_from_generator",
    "compatibility_gap",
    "f_value",
    "hermiticity_boundary_check",
    "make_generating_pair",
    "partner_potential",
    "psi0_numeric",
    "psi1_numeric",
    "split_superpotentials",
    "FlattenedProblem",
    "NumericSpectrum",
    "count_nodes",
    "g_domain",
    "inner_product",
    "interior_samples",
    "mass_flatten",
    "mass_unflatten",
    "residual",
    "solve_spectrum",
    "ExactOneParam",
    "ExactTwoParam",
    "energy_one_param",
    "energy_two_param",
    "potential_one_param",
    "potential_two_param",
    "superpotentials_one_param",
    "superpotentials_two_param",
    "wavefn_one_param",
    "wavefn_two_param",
    "ClosedFormWavefunction",
    "ExtendedOneParamSpec",
    "ExtendedTwoParamSpec",
    "InternalConsistencyError",
    "build_one_param",
    "build_two_param",
    "closed_form_wavefunction",
    "expand_and_resum_one_param",
    "expand_and_resum_two_param",
    "generating_pair",
    "potential_value",
    "__version__",
]
