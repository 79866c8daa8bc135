"""Doubly sparse non-negative Poisson matrix factorization for count data.

A binary feature matrix with restricted row sums and power-law feature
weights (an Indian-buffet-process family prior) multiplies sparse Gamma
loadings to form Poisson rates.  The package bundles the generative
samplers, the Gibbs/MH inference kernel, the evaluation suite, and a CLI.

Each module's ``__all__`` is its public surface; the package re-exports all
of them.
"""

from . import condbern, errors, evaluate, io, mcmc, model, priors
from .condbern import *  # noqa: F403
from .errors import *  # noqa: F403
from .evaluate import *  # noqa: F403
from .io import *  # noqa: F403
from .mcmc import *  # noqa: F403
from .model import *  # noqa: F403
from .priors import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += errors.__all__
__all__ += model.__all__
__all__ += condbern.__all__
__all__ += priors.__all__
__all__ += mcmc.__all__
__all__ += evaluate.__all__
__all__ += io.__all__
