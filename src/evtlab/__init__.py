"""evtlab: a numerical laboratory for extreme-value theory.

Exact quantile transforms and maxima sampling, the affine attraction
criterion with its index estimate and limit law, prescribed-limit nonlinear
normalizers, the geometric law's oscillating-maxima demonstrator, and the
KS machinery and seeded streams that verify all of it.  The package exports
each module's ``__all__``, the only list of its public names.
"""

# evtlab.geometric is dist's law factory, not the submodule: the submodule
# binds the name only when first loaded, and dist loads it before its own
# star import rebinds the name
from .dist import *
from .errors import *
from .geometric import *
from .linear_evt import *
from .maxima import *
from .nonlinear_evt import *
from .reports import *
from .stats import *

__version__ = "0.1.0"
