"""Multistage ERP-style epoch mining.

Submodules follow the pipeline order: testbed (synthetic epochs and
averaging), decomposition (whitening + ICA), features (12-attribute
summaries), clustering (EM mixtures and hierarchies), classification
(gain-ratio trees and rules), rulemining (discretization and frequent
itemsets), ontology (expert rule base and knowledge partitioning), and
pipeline/cli (file-based orchestration).
"""

from . import (
    classification,
    clustering,
    decomposition,
    features,
    ontology,
    pipeline,
    rulemining,
    testbed,
)
from .errors import (
    ConfigError,
    MissingInputError,
    NofError,
    NumericalError,
    ParseError,
)

__version__ = "0.1.0"

__all__ = [
    "classification",
    "clustering",
    "decomposition",
    "features",
    "ontology",
    "pipeline",
    "rulemining",
    "testbed",
    "ConfigError",
    "MissingInputError",
    "NofError",
    "NumericalError",
    "ParseError",
    "__version__",
]
