"""Total dominating set optimization via QUBO penalties and simulated QAOA."""

from . import graphs, harness, optimize, qaoa, qubo
from .graphs import *  # noqa: F403
from .harness import *  # noqa: F403
from .optimize import *  # noqa: F403
from .qaoa import *  # noqa: F403
from .qubo import *  # noqa: F403

__version__ = "0.1.0"

__all__ = []
__all__ += graphs.__all__
__all__ += harness.__all__
__all__ += optimize.__all__
__all__ += qaoa.__all__
__all__ += qubo.__all__
