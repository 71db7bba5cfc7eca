import gc
import random
from itertools import combinations

from hypermatch.core import Hypergraph


def seeded_graph(seed: int, n_lo: int = 4, n_hi: int = 10, k: int = 3) -> Hypergraph:
    """Deterministic random instance family used across suites."""
    rng = random.Random(seed)
    n = rng.randint(max(n_lo, k), n_hi)
    p = rng.choice([0.15, 0.3, 0.5, 0.7])
    edges = [e for e in combinations(range(1, n + 1), k) if rng.random() < p]
    return Hypergraph(n, k, edges)


def cyclic_garbage(call, times: int = 100) -> int:
    """Objects that only the cyclic GC frees after `times` calls of `call`."""
    call()  # first-use caches are not garbage
    gc.collect()
    gc.disable()
    try:
        for _ in range(times):
            call()
        return gc.collect()
    finally:
        gc.enable()
