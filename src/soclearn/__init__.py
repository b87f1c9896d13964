"""Networked social learning with informativeness-triggered communication.

Agents on a communication graph learn a hidden state from private
signals. Each round, an agent shares its accumulated evidence with a
neighbor only when one of them found its fresh signal uninformative,
so the network pays for communication exactly when private data stops
being enough.
"""

from . import analysis, harness, learning, model, switching
from .analysis import *
from .harness import *
from .learning import *
from .model import *
from .switching import *

__all__ = analysis.__all__ + harness.__all__ + learning.__all__ + model.__all__ + switching.__all__

__version__ = "0.1.0"
