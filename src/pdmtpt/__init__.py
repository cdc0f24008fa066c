"""Position-dependent-mass trigonometric Poschl-Teller wells in closed form.

The package builds two kinds of objects and keeps them honest against each
other:

* exactly solvable deformed wells (the full spectrum in closed form), in
  :mod:`pdmtpt.tpt_exact`; their Gegenbauer and Jacobi eigenfunctions are
  test references, in tests/references.py;
* quasi-exactly solvable extensions (lowest two states in closed form, the
  potential fixed by its top coefficients), in :mod:`pdmtpt.tpt_extended`;

with the intertwining algebra in :mod:`pdmtpt.dsusy_core`, the exact
rational helpers in :mod:`pdmtpt.combinatorics`, and an independent
finite-difference eigensolver oracle in :mod:`pdmtpt.numeric_verify`.
The top level re-exports only the builders, `potential_value` and
`solve_spectrum`; everything else is imported from its module.

The closed forms are scalar Python.  Importing the package, and building or
checking a well, loads neither NumPy nor SciPy; NumPy loads at the first
array evaluation (a potential or wavefunction on a grid, the oracle), and
SciPy's compiled LAPACK module, without the `scipy.linalg` package, only
inside `solve_spectrum`.
"""

from .numeric_verify import solve_spectrum
from .tpt_extended import build_one_param, build_two_param, potential_value

__version__ = "0.1.0"

__all__ = [
    "build_one_param",
    "build_two_param",
    "potential_value",
    "solve_spectrum",
    "__version__",
]
