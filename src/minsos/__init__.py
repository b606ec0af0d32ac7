"""minsos: low-rank sum-of-squares certificates on surfaces of minimal degree.

The package computes Gram spectrahedra of nonnegative quadratic forms on
rational normal scrolls, the Veronese surface, and cones over rational
normal curves; enumerates all rank-3 Gram matrices by polynomial homotopy
continuation; classifies them as psd / indefinite / complex; and factors
psd symmetric matrices of binary forms as B B^T with few columns.

The top level exports what the three jobs need: the inputs and samplers,
the job entry points, their results and checks, and the base error.  Every
other name is reached through the module that defines it, for example
``minsos.factorization.rank_reduce`` or ``minsos.errors.NotPSD``.
"""

from .biform import BinaryForm, TermPoly
from .binary_sos import enumerate_two_squares
from .cones import enumerate_cone
from .enumerator import CountReport, enumerate_rank
from .errors import MinsosError
from .factorization import FactorResult, SymMatrixPoly, factor, factor_residual
from .gram import GramSpace, Representation, build_gram_space, verify_representation
from .sampling import random_dyad_matrix, random_nonneg_binary, random_positive_form
from .surfaces import cone_rnc, expected_counts, scroll, veronese

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # inputs and samplers
    "BinaryForm",
    "TermPoly",
    "SymMatrixPoly",
    "scroll",
    "cone_rnc",
    "veronese",
    "random_positive_form",
    "random_dyad_matrix",
    "random_nonneg_binary",
    # the jobs
    "build_gram_space",
    "enumerate_rank",
    "enumerate_cone",
    "enumerate_two_squares",
    "factor",
    # results and checks
    "GramSpace",
    "CountReport",
    "FactorResult",
    "Representation",
    "verify_representation",
    "factor_residual",
    "expected_counts",
    "MinsosError",
]
