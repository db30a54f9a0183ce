"""symrel: mine and evaluate graded disease-symptom relation rankings.

The pipeline has four stages, each usable as a library or through the
``symrel`` command line:

1. vocabulary + corpus loading (:mod:`symrel.vocab`, :mod:`symrel.corpus`),
2. section-aware concept tagging (:mod:`symrel.tagger`),
3. relation scoring from co-occurrence or embeddings
   (:mod:`symrel.miner`, :mod:`symrel.embedding`),
4. evaluation against a graded collection, including agreement statistics
   over the annotations that built it
   (:mod:`symrel.collection`, :mod:`symrel.evalmetrics`).

Only the pipeline entry points are re-exported here; every other name is
imported from its submodule.
"""

from .collection import load_collection
from .corpus import CorpusReader
from .embedding import load_vectors, rank_by_embedding
from .errors import SymrelError
from .evalmetrics import compare_runs, evaluate_run
from .miner import Regime, index_scores, mine_corpus, rank_symptoms
from .tagger import ConceptMatcher
from .vocab import load_vocabulary

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "load_vocabulary",
    "CorpusReader",
    "ConceptMatcher",
    "Regime",
    "mine_corpus",
    "index_scores",
    "rank_symptoms",
    "load_vectors",
    "rank_by_embedding",
    "load_collection",
    "evaluate_run",
    "compare_runs",
    "SymrelError",
]
