"""Embedding-based relation scoring: cosine similarity of concept vectors.

Vectors come from an externally trained model (any skip-gram style trainer
run over a concept-substituted corpus; 300 dimensions with a wide context
window is a reasonable default) and are consumed from a plain text file:
the first line gives the dimension, every following line a token and its
components separated by spaces. Tokens are either concept ids or concept
names with underscores standing in for spaces ("abdominal_pain").

numpy is imported by the functions that use it, on first use, so loading
this module (as every ``symrel`` command does) does not load numpy.
"""

import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import DimensionMismatch, MalformedRow, MissingVector, ZeroNormVector
from .miner import EMBEDDING, RelationScore, rank_symptoms
from .vocab import Vocabulary

if TYPE_CHECKING:
    import numpy as np

logger = logging.getLogger(__name__)


@dataclass
class EmbeddingTable:
    """Concept id -> float64 vector, all of one dimension."""

    dimension: int
    vectors: dict[str, "np.ndarray"] = field(default_factory=dict)
    skipped: int = 0


def _resolve_token(token: str, vocabulary: Vocabulary) -> str | None:
    if token in vocabulary.concepts:
        return token
    concept = vocabulary.lookup(token.replace("_", " "))
    return concept.id if concept is not None else None


def load_vectors(path, vocabulary: Vocabulary) -> EmbeddingTable:
    """Read a vector file, keeping only tokens that resolve to concepts.

    Unresolvable tokens (and repeats of an already-loaded concept) are
    counted as skipped; kept/skipped totals are logged.
    """
    import numpy as np

    path = Path(path)
    with open(path, encoding="utf-8") as handle:
        first = handle.readline()
        if not first:
            raise MalformedRow(path, 1, "missing dimension header")
        try:
            dimension = int(first.strip())
        except ValueError:
            raise MalformedRow(path, 1, f"bad dimension {first.strip()!r}") from None
        if dimension < 1:
            raise MalformedRow(path, 1, "dimension must be >= 1")
        table = EmbeddingTable(dimension=dimension)
        for lineno, raw_line in enumerate(handle, 2):
            line = raw_line.rstrip("\r\n")
            if not line.strip():
                continue
            parts = line.split()
            token, components = parts[0], parts[1:]
            if len(components) != dimension:
                raise DimensionMismatch(
                    f"{path}:{lineno}: expected {dimension} components, "
                    f"got {len(components)}"
                )
            try:
                vector = np.array([float(c) for c in components], dtype=np.float64)
            except ValueError:
                raise MalformedRow(path, lineno, "non-numeric vector component") from None
            if not np.all(np.isfinite(vector)):
                raise MalformedRow(path, lineno, "vector components must be finite")
            concept_id = _resolve_token(token, vocabulary)
            if concept_id is None or concept_id in table.vectors:
                table.skipped += 1
                continue
            table.vectors[concept_id] = vector
    logger.info(
        "%s: kept %d vector(s), skipped %d", path, len(table.vectors), table.skipped
    )
    return table


def _cosine(x: "np.ndarray", s: "np.ndarray", x_id: str, s_id: str) -> float:
    import numpy as np

    # accumulate dot products and norms in extended precision where the
    # platform provides it (80-bit on x86 Linux); float64 otherwise
    x_acc = x.astype(np.longdouble)
    s_acc = s.astype(np.longdouble)
    x_norm = np.sqrt(np.dot(x_acc, x_acc))
    s_norm = np.sqrt(np.dot(s_acc, s_acc))
    if x_norm == 0:
        raise ZeroNormVector(x_id)
    if s_norm == 0:
        raise ZeroNormVector(s_id)
    value = float(np.dot(x_acc, s_acc) / (x_norm * s_norm))
    # numerical round-off can push |cos| a hair past 1
    return max(-1.0, min(1.0, value))


def cosine_relation(table: EmbeddingTable, disease_id: str, symptom_id: str) -> float:
    """Cosine of the two concept vectors, clamped to [-1, 1]."""
    try:
        x = table.vectors[disease_id]
    except KeyError:
        raise MissingVector(disease_id) from None
    try:
        s = table.vectors[symptom_id]
    except KeyError:
        raise MissingVector(symptom_id) from None
    return _cosine(x, s, disease_id, symptom_id)


def rank_by_embedding(
    table: EmbeddingTable, disease_id: str, vocabulary: Vocabulary, k: int
) -> list[tuple[str, float]]:
    """Rank the vocabulary's symptoms by cosine against one disease.

    Symptoms without a vector are omitted -- not zero-scored, because a
    zero cosine is meaningful -- and zero or negative cosines stay in the
    ranking. Ordering and cutoff follow :func:`symrel.miner.rank_symptoms`.
    """
    import numpy as np

    if disease_id not in table.vectors:
        raise MissingVector(disease_id)
    disease_vector = table.vectors[disease_id]
    if not np.any(disease_vector):
        raise ZeroNormVector(disease_id)
    scores = []
    for symptom_id in sorted(vocabulary.symptom_ids):
        vector = table.vectors.get(symptom_id)
        if vector is None:
            continue
        if not np.any(vector):
            logger.debug("skipping zero-norm symptom vector %r", symptom_id)
            continue
        scores.append(
            RelationScore(
                disease_id,
                symptom_id,
                _cosine(disease_vector, vector, disease_id, symptom_id),
                EMBEDDING,
            )
        )
    return rank_symptoms(scores, k, drop_zero=False)
