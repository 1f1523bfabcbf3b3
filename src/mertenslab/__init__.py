"""mertenslab: numerical workbench for Mertens-function arithmetic.

A segmented Moebius and von Mangoldt sieve, Selberg-weight Dirichlet convolutions,
checkpointed summatory functions, exact-identity checks with remainder
tracking, and zero-interval statistics of the normalized smoothed sum
H(x) = e^{-sqrt(x)} F(e^{sqrt(x)}).
"""

__version__ = "0.1.0"

from .errors import CapabilityError, CrossCheckError, RangeError

__all__ = ["CapabilityError", "CrossCheckError", "RangeError", "__version__"]
