"""Overlapping latent-feature graph models: deterministic fitting and link prediction.

Nodes carry binary community-membership vectors; a pair links with
probability sigma(z_i^T W z_j). Fitting minimizes the masked cross-entropy
plus a penalty per active community, by greedy coordinate sweeps over the
memberships, damped Newton on W (convex for fixed memberships), and
grow-by-one community proposals that are kept only when they lower the
objective. The community count is learned, not fixed in advance.
"""

from . import errors, evaluation, generator, graph, model, optimizer
from .errors import *  # noqa: F403
from .evaluation import *  # noqa: F403
from .generator import *  # noqa: F403
from .graph import *  # noqa: F403
from .model import *  # noqa: F403
from .optimizer import *  # noqa: F403

__version__ = "0.1.0"

# every module's public names, each listed once, in its own module's __all__
__all__ = [name for module in (errors, evaluation, generator, graph, model, optimizer)
           for name in module.__all__]
