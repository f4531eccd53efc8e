"""Certified amoeba approximation for Laurent polynomials.

The log-magnitude image of a polynomial's zero set is approximated from
outside: one term dominating all the others at a point proves the point
lies in the complement, and folding the polynomial with roots of unity
sharpens that test geometrically fast.  The fold is computed by
Dandelin-Graeffe root squaring rather than iterated resultants: each
doubling step multiplies the running product P = E + O by its sign-flipped
twin E - O, computed as the two half-size squarings E^2 - O^2.  Exponent
vectors are packed into integer keys once per fold, and every squaring is a
real one: a Gaussian half A + iB costs A^2, B^2 and (A + B)^2.
"""

from .bench import BenchResult
from .cycres import (
    BaselineTimeout,
    TermBudgetError,
    estimate_result_terms,
    iterated_resultant_baseline,
    quick_cyclic_resultant,
)
from .gaussian import GaussianRational
from .gridsolver import (
    GridSpec,
    MembershipRecord,
    approximate_amoeba,
    records_to_csv,
    records_to_jsonl,
)
from .lopsided import (
    TAU,
    Certificate,
    CertificateError,
    TermTable,
    choose_level,
    is_lopsided,
    order_from_certificate,
)
from .newton import newton
from .poly import LaurentPoly, ParseError, format_poly, parse
from .semialg import Raster, SemiAlgSystem, semialg_description

__version__ = "0.1.0"

__all__ = [
    "BaselineTimeout",
    "BenchResult",
    "Certificate",
    "CertificateError",
    "GaussianRational",
    "GridSpec",
    "LaurentPoly",
    "MembershipRecord",
    "ParseError",
    "Raster",
    "SemiAlgSystem",
    "TAU",
    "TermBudgetError",
    "TermTable",
    "approximate_amoeba",
    "choose_level",
    "estimate_result_terms",
    "format_poly",
    "is_lopsided",
    "iterated_resultant_baseline",
    "newton",
    "order_from_certificate",
    "parse",
    "quick_cyclic_resultant",
    "records_to_csv",
    "records_to_jsonl",
    "semialg_description",
    "__version__",
]
