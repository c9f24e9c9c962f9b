"""qkoorn: exact symbolic Koornwinder / Macdonald difference operators.

Commuting q-difference operators in n torus variables over a six
half-parameter rational coefficient field, their joint eigenfunctions
(Koornwinder's multivariable Askey-Wilson polynomials), closed-form spectra,
the q -> 1 differential degeneration, and the classical-family
specializations, all in exact arithmetic.
"""

from .errors import (DegenerateNorm, DenominatorVanishes, NotDivisible,
                     NotEigenfunction, NotInvariant, QKoornError,
                     ZeroDenominator)
from .laurent import LaurentRat, exact_divide, torus_vars
from .operators import (IDENTITY, OperatorSpec, ParamMap, apply_operator,
                        commutator_on_basis, operator_matrix)
from .ratfield import JACOBI_VARS, KOORN_VARS, QQ, ParamPoly, ParamRat
from .spectra import (cp_check, eigenvalue_An, eigenvalue_Ern,
                      eigenvalue_jacobi, F_solve, hc_lift, monotonicity_check)
from .weights import (dominance_leq, expand_in_monomials, linear_refinement,
                      monomial_symmetric, weights_below, worbit)

__version__ = "0.1.0"
