"""Per-target oracle for ``analysis.similarity_values``' queue replay.

The package scores a whole batch against the queue with one matrix
product; this scores one target at a time, so the replay test compares
against separate arithmetic.  The module is not named ``oracles``: one
pytest session also imports ``perfbench/oracles.py`` as a top-level
module, and the two would shadow each other.
"""

import numpy as np


def avg_target_similarity(target_emb, queue) -> float:
    """Mean cosine between one unit-norm target embedding and every entry
    of a ``NegativeQueue``; raises ValueError on an empty queue."""
    if queue.size == 0:
        raise ValueError("queue is empty")
    k = np.asarray(target_emb, dtype=np.float64)
    return float(np.clip(queue.entries @ k, -1.0, 1.0).mean())
