"""Hardy and Bergman numbers of plane domains, estimated from the decay of
harmonic measure at infinity, with closed-form oracles, membership
classification, and an identity verification suite.

The public names are each module's __all__, re-exported here, so a name is
declared once, in its own module."""

from . import errors, geometry, wos, hardy_estimator, membership, function_norms, identities
from .errors import *
from .geometry import *
from .wos import *
from .hardy_estimator import *
from .membership import *
from .function_norms import *
from .identities import *

__version__ = "0.1.0"

__all__ = [name for module in (errors, geometry, wos, hardy_estimator, membership,
                               function_norms, identities) for name in module.__all__]
__all__.append("__version__")
