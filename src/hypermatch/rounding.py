"""Fractional-to-integral matching rounding.

The stages, in order:

1. extract a family of fractional perfect matchings, removing any edge whose
   pair accumulates weight cap/2 so that no pair ever reaches cap;
2. mix the family and halve it, giving an edge probability in [0, 1] with
   vertex sums t/2;
3. sample each edge independently with that probability and compare realized
   degrees and pair degrees against Chernoff windows;
4. pull a large integral matching out of the sample (greedy min-conflict or
   a semi-random nibble).

Every edge weighting (a member of the family, the mixed probability) is a
float64 vector indexed like ``h.edges`` of the graph being rounded, and the
extraction's accumulated pair weight is one symmetric float64 matrix indexed
by vertex label; a round finds its newly dead pairs among the pairs it
touched.
The stages, the edge index and the matchers read the graph's vertices from
``h.vertex_array()``, one row per edge, and build no edge tuples.

Round-by-round feasibility is an empirical matter at desk scale: when a
stage stalls, the family or pipeline reports it rather than masking it.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np

from .constructions import augment_universal
from .core import BudgetExceeded, Hypergraph, _uniforms
from .optimize import EdgeIndex, Matching, fractional_perfect_matching

_EPS = 1e-12
ROUND_PATHS = ("uniform", "integral", "gadget", "lp")
_ATTEMPTS = 6  # extraction attempts
_CAP = 2.0  # every accumulated pair weight stays strictly below this
_PAIR_THRESHOLD = 7.0  # a sampled pair degree at or above this is a large deviation
_BITE_FRACTION = 0.1  # the nibble's per-round edge probability
_ETA = 0.1  # the augmentation window's slack, as a fraction of n


@dataclass
class RoundRecord:
    """How one extraction round was played.

    ``path`` is how the member was made: ``uniform`` (closed form on the
    complete graph), ``integral`` (one perfect matching), ``gadget`` (a
    perfect matching beside uniform 4-blocks) or ``lp``. ``matching`` and
    ``gadget`` are the outcomes of the perfect-matching search and of the
    4-block pick (``found``, ``none`` when the search proved there is none,
    ``budget`` when it gave up), or None when that search did not run;
    ``nodes`` counts the perfect-matching search nodes of the round.
    """

    path: str
    nodes: int = 0
    matching: str | None = None
    gadget: str | None = None


@dataclass
class FPMFamily:
    """Fractional perfect matchings with capped accumulated pair weight.

    Each member is a weight vector indexed like ``h.edges``; the uniform
    rounds share one read-only vector. ``pair_load[x, y]`` is the weight the
    members put on the vertex pair {x, y}: an (n+1)x(n+1) symmetric matrix
    whose row and column 0 are unused and whose diagonal is 0. A pair is
    dead once its load reaches ``threshold``; ``heavy_pairs_by_vertex()``
    counts the dead pairs through each vertex, in an int vector indexed like
    ``h.vertices()``. ``rounds`` holds one record per member, plus one for
    the round that stalled, if any: there the searches found nothing and the
    LP proved the surviving graph infeasible. A round that starts with no
    surviving edge gets no record. ``attempts`` counts the extraction
    attempts run.
    """

    members: list[np.ndarray]
    pair_load: np.ndarray
    cap: float
    threshold: float
    status: str
    rounds_requested: int
    heavy_total: list[int] = field(default_factory=list)
    removed_total: list[int] = field(default_factory=list)
    rounds: list[RoundRecord] = field(default_factory=list)
    attempts: int = 1

    @property
    def complete(self) -> bool:
        return self.status == "complete"

    def heavy_pairs_by_vertex(self) -> np.ndarray:
        """How many threshold-crossing pairs each vertex belongs to."""
        return _dead_pairs_by_vertex(self.pair_load, self.threshold)

    def max_pair_load(self) -> float:
        return float(self.pair_load.max())


def _uniform_round_budget(n: int, k: int, threshold: float) -> int:
    # uniform weight 1/C(n-1,k-1) puts (k-1)/(n-1) on every pair per round;
    # the budget is the most rounds u with u(k-1)/(n-1) < threshold, in exact
    # arithmetic, so the float threshold alone fixes the count
    return max(0, math.ceil(Fraction(threshold) / Fraction(k - 1, n - 1)) - 1)


def _dead_pairs_by_vertex(pair_load: np.ndarray, threshold: float) -> np.ndarray:
    """Entry v - 1 counts the dead pairs through vertex v."""
    return (pair_load[1:, 1:] >= threshold - _EPS).sum(axis=1)


def _pick_gadget_vertices(
    index: EdgeIndex, g: int, heavy: np.ndarray, live: int, taken: tuple[int, ...] = ()
) -> tuple[str, tuple[int, ...] | None]:
    """A g-set outside `taken` whose C(g,3) triples are all live.

    ``heavy[v - 1]`` counts the dead pairs through vertex v; candidates are tried
    with the vertices in fewest dead pairs first. ``live`` holds no edge
    through a dead pair, and each pair of a g-set (g >= 3) lies in one of its
    triples, so a set with a dead pair fails the triple test. Returns
    ("found", the set), ("none", None) once every candidate failed, or
    ("budget", None) after 5000 candidates.
    """
    order = sorted(range(1, index.n + 1), key=lambda u: (heavy[u - 1], u))
    ranked = [v for v in order if v not in taken]
    tried = 0
    for cand in combinations(ranked, g):
        tried += 1
        if tried > 5000:
            return "budget", None
        if all(index.containing(t) & live for t in combinations(cand, 3)):
            return "found", cand
    return "none", None


def _near_integral_round(
    index: EdgeIndex, perm: list[int], live: int, pair_load: np.ndarray, threshold: float,
    rec: RoundRecord,
) -> np.ndarray | None:
    """An integral matching on most vertices plus uniform 4-blocks on the rest.

    For 3 | n this is a plain perfect matching. Otherwise one (n % 3 == 1) or
    two (n % 3 == 2) disjoint 4-sets carry their four triples at weight 1/3,
    which tops those vertex sums up to one. 4-blocks rather than one 5-block:
    the survivors of a round must be transversal to the round's vertex blocks,
    and block profiles (3,...,3,4) and (3,...,3,4,4) keep that system solvable
    while (3,...,3,5) does not. With fewer than four blocks total no profile
    with unequal sizes works, so small non-divisible n get no gadget at all.
    The search outcomes go into ``rec``. Edge i of the index is edge
    ``perm[i]`` of the member vector.
    """
    n = index.n
    rem = n % 3
    blocks = [4] * rem
    if (n - 4 * rem) // 3 + rem < 4 and rem:
        return None  # too few blocks for a feasible follow-up round
    if blocks:  # each vertex's dead pairs rank the gadget candidates
        heavy = _dead_pairs_by_vertex(pair_load, threshold)
    weights = np.zeros(len(perm))
    taken: tuple[int, ...] = ()
    for g in blocks:
        rec.gadget, gadget = _pick_gadget_vertices(index, g, heavy, live, taken)
        if gadget is None:
            return None
        taken += gadget
        for t in combinations(gadget, 3):  # the one edge through the triple
            weights[perm[index.containing(t).bit_length() - 1]] = 1.0 / 3.0
    free = [v for v in range(1, n + 1) if v not in taken]
    rec.matching, pm, rec.nodes = index.perfect(live, free)
    if pm is None:
        return None
    weights[[perm[i] for i in pm]] = 1.0
    rec.path = "gadget" if blocks else "integral"
    return weights


def extract_fpm_family(h: Hypergraph, t: int) -> FPMFamily:
    """Pull up to t fractional perfect matchings with all pair loads below 2.

    Each round solves on the surviving graph; pairs reaching load 1 kill
    every edge containing them before the next round. Rounds play uniform
    weights while the graph is still complete, then near-integral matchings,
    then a load-focused LP. A failed run is retried, up to six attempts in
    all, each retry searching the edges in its own fixed shuffled order. The
    orders do not depend on the pipeline's seed, which reaches only sampling
    and matching.
    """
    if t < 1:
        raise ValueError("need t >= 1 rounds")
    best: FPMFamily | None = None
    for attempt in range(_ATTEMPTS):
        rng = None if attempt == 0 else random.Random(f"0:{attempt}")
        fam = _extract_once(h, t, rng)
        fam.attempts = attempt + 1
        if fam.complete:
            return fam
        if best is None or len(fam.members) > len(best.members):
            best = fam
    assert best is not None
    best.attempts = _ATTEMPTS
    return best


def _extract_once(h: Hypergraph, t: int, rng: random.Random | None) -> FPMFamily:
    n, k = h.n, h.k
    threshold = _CAP / 2.0
    allv = h.vertex_array()
    m = len(allv)
    index: EdgeIndex | None = None  # built on the first round that needs it
    perm: list[int] = []  # edge i of the index is row perm[i] of allv
    live = (1 << m) - 1  # surviving edges, one bit per index edge
    pair_load = np.zeros((n + 1, n + 1))  # by vertex label; row and column 0 unused
    cols = list(combinations(range(k), 2))  # an edge's vertex pairs, by position
    first, second = [a for a, _ in cols], [b for _, b in cols]
    members: list[np.ndarray] = []
    rounds: list[RoundRecord] = []
    heavy_total: list[int] = []
    n_dead = 0
    removed_total: list[int] = []
    status = "complete"

    u_planned = 0
    if m == comb(n, k):
        u_planned = min(t, _uniform_round_budget(n, k, threshold))
    if u_planned:
        # Uniform rounds on the complete graph in closed form: every pair
        # gets the same C(n-2, k-2) additions of w per round, in the same
        # order as a per-edge sum would give them, so one scalar chain is
        # every pair's load, bit for bit. The exact load after the planned
        # rounds is at most 1 - 1/(n-1), so no pair reaches the threshold.
        w = 1.0 / comb(n - 1, k - 1)
        uniform = np.full(m, w)
        uniform.flags.writeable = False  # one vector, shared by every uniform member
        load = 0.0
        for _ in range(u_planned):
            for _ in range(comb(n - 2, k - 2)):
                load += w
            if load >= threshold - _EPS:
                raise AssertionError(f"uniform rounds put load {load} on every pair")
            members.append(uniform)
            rounds.append(RoundRecord("uniform"))
            heavy_total.append(0)
            removed_total.append(0)
        pair_load[1:, 1:] = load
        np.fill_diagonal(pair_load, 0.0)

    for rnd in range(len(members) + 1, t + 1):
        if not live:
            status = f"infeasible at round {rnd}"
            break
        if index is None:
            perm = list(range(m))
            if rng is not None:  # a retry searches the edges in its own order
                rng.shuffle(perm)
            index = EdgeIndex(n, allv if rng is None else allv[perm])
        rec = RoundRecord("lp")  # a search that succeeds names its own path
        rounds.append(rec)
        weights: np.ndarray | None = None
        if k == 3:
            weights = _near_integral_round(index, perm, live, pair_load, threshold, rec)
        if weights is None:
            pos = sorted(perm[i] for i in index.ids(live))
            v = allv[pos]
            sub = Hypergraph(n, k, v)
            objective = None
            if pair_load.any():  # each edge's objective is the load on its pairs
                objective = sum(pair_load[v[:, a], v[:, b]] for a, b in cols)
            fpm = fractional_perfect_matching(sub, objective=objective)
            if fpm is None:
                status = f"infeasible at round {rnd}"
                break
            weights = np.zeros(m)
            weights[pos] = fpm.weights

        members.append(weights)
        # np.add.at adds one entry at a time, and the pairs are laid out edge
        # by edge, so every load is the chain of additions a per-edge loop
        # would make, in edge order. Only this round's pairs change, each
        # as (x, y) with x < y since edges ascend.
        nz = np.flatnonzero(weights)
        v = allv[nz]
        x, y = v[:, first].ravel(), v[:, second].ravel()
        w = np.repeat(weights[nz], len(cols))
        prev = pair_load[x, y]
        np.add.at(pair_load, (x, y), w)
        np.add.at(pair_load, (y, x), w)
        now = pair_load[x, y]
        if now.max(initial=0.0) >= _CAP + 1e-9:
            i = int(now.argmax())
            raise AssertionError(f"pair ({x[i]}, {y[i]}) reached load {now[i]} >= cap {_CAP}")
        died = (prev < threshold - _EPS) & (now >= threshold - _EPS)
        newly = set(zip(x[died].tolist(), y[died].tolist()))
        n_dead += len(newly)
        live = index.without_pairs(live, newly)
        heavy_total.append(n_dead)
        removed_total.append(m - live.bit_count())  # only without_pairs shrinks live

    return FPMFamily(
        members=members,
        pair_load=pair_load,
        cap=_CAP,
        threshold=threshold,
        status=status,
        rounds_requested=t,
        heavy_total=heavy_total,
        removed_total=removed_total,
        rounds=rounds,
    )


def mix_and_halve(family: FPMFamily) -> np.ndarray:
    """Half the sum of the family: an edge probability with vertex sums t/2.

    The members are added in member order, one edge at a time, so each
    entry is the same chain of float additions a per-edge sum would make.
    """
    if not family.members:
        raise ValueError("cannot mix an empty family")
    total = np.zeros(len(family.members[0]))
    for member in family.members:
        total += member
    p = total * 0.5
    bad = np.flatnonzero(~((p >= -1e-9) & (p <= 1 + 1e-9)))  # NaN too
    if bad.size:
        raise AssertionError(f"mixed weight {p[bad[0]]} on edge {bad[0]} escapes [0, 1]")
    return p


@dataclass
class SampleReport:
    """One binomial edge sample plus its concentration diagnostics.

    The degree vectors are indexed like ``h.vertices()``: expected degrees
    and deviations (realized minus expected) as float64, realized degrees
    as ints.
    """

    sampled: Hypergraph
    seed: int
    expected_degrees: np.ndarray
    realized_degrees: np.ndarray
    degree_deviations: np.ndarray
    alpha: float
    vertex_violations: int
    vertex_violation_budget: float  # sum of 2 exp(-alpha^2 E/3) over vertices
    max_pair_degree: int
    max_expected_pair_degree: float
    pair_threshold: float
    vertex_ok: bool
    pair_ok: bool


def sample_binomial_subgraph(
    h: Hypergraph,
    p: np.ndarray,
    seed: int,
    alpha: float = 1.0,
) -> SampleReport:
    """Keep edge i independently with probability p[i], fixed by the seed.

    ``p`` is indexed like ``h.edges``. The report compares every realized
    degree against the small-deviation window |d - E| < alpha * E (violation
    budget 2 exp(-alpha^2 E / 3) per vertex) and the largest pair degree
    against the large-deviation cutoff. Expected degrees and pair sums add
    the nonzero probabilities in edge order.
    """
    p = np.asarray(p, dtype=np.float64)
    n, k, m = h.n, h.k, h.e()
    if p.shape != (m,):
        raise ValueError(f"probabilities have shape {p.shape}, the graph has {m} edges")
    bad = np.flatnonzero(~((p >= -1e-9) & (p <= 1 + 1e-9)))  # NaN too
    allv = h.vertex_array()
    if bad.size:
        raise ValueError(f"probability {p[bad[0]]} on {tuple(allv[bad[0]].tolist())} outside [0, 1]")
    kept = np.flatnonzero(_uniforms(random.Random(seed), m) < p)
    kept_v = allv[kept]
    sampled = Hypergraph(n, k, kept_v)

    # a zero weight adds nothing, so the sums may skip it or not: with every
    # edge weighted p and allv are read in place, else only the weighted rows
    # are read (round's p is ~99 % zeros on inputs that are not complete)
    w, verts = p, allv
    if not p.all():
        nz = np.flatnonzero(p)
        w, verts = p[nz], allv[nz]
    # astype: with no weighted edge bincount returns integer zeros
    expected = np.bincount(verts.ravel(), np.repeat(w, k), minlength=n + 1)[1:].astype(float)
    cols = list(combinations(range(k), 2))

    def pair_codes(rows: np.ndarray) -> np.ndarray:
        """Each row's vertex pairs a < b as a * (n + 1) + b, row by row."""
        codes = np.empty((len(rows), len(cols)), np.intp)
        for j, (a, b) in enumerate(cols):
            np.multiply(rows[:, a], n + 1, out=codes[:, j])
            codes[:, j] += rows[:, b]
        return codes.ravel()

    pairs = pair_codes(verts)
    pair_expected = np.bincount(pairs, np.repeat(w, len(cols)), minlength=(n + 1) ** 2)
    realized = np.bincount(kept_v.ravel(), minlength=n + 1)[1:]
    deviations = realized - expected

    # only vertices of positive expected degree count; the budget keeps
    # math.exp and adds one vertex at a time, in vertex order
    pos = expected > 0
    violations = int(np.count_nonzero(pos & (np.abs(deviations) >= alpha * expected)))
    budget = 0.0
    for ev in expected[pos].tolist():
        budget += 2 * math.exp(-(alpha**2) * ev / 3)

    max_pair = int(np.bincount(pair_codes(kept_v)).max()) if kept.size else 0
    max_expected_pair = float(pair_expected[pairs].max()) if pairs.size else 0.0
    return SampleReport(
        sampled=sampled,
        seed=seed,
        expected_degrees=expected,
        realized_degrees=realized,
        degree_deviations=deviations,
        alpha=alpha,
        vertex_violations=violations,
        vertex_violation_budget=budget,
        max_pair_degree=max_pair,
        max_expected_pair_degree=max_expected_pair,
        pair_threshold=_PAIR_THRESHOLD,
        vertex_ok=violations <= budget,
        pair_ok=max_pair < _PAIR_THRESHOLD,
    )


def near_perfect_matching(
    h: Hypergraph,
    strategy: str = "greedy",
    seed: int = 0,
) -> Matching:
    """A large matching: min-conflict greedy, or random bites plus cleanup.

    Greedy takes the first live edge that meets the fewest live edges. The
    nibble runs ceil(10 ln n) rounds, each offering every live edge with
    probability 0.1. Either strategy stops once no edge is live. No
    near-perfectness is promised; the caller inspects the size.
    """
    index = EdgeIndex(h.n, h.vertex_array())
    rows, meeting, ids = index.vertex_rows(), index.meeting, index.ids
    live = index.full  # the edges disjoint from every chosen one
    chosen: list[int] = []

    def take(i: int, met: int) -> None:
        """Choose edge i, which meets the edges of ``met``."""
        nonlocal live
        chosen.append(i)
        live &= ~met

    if strategy == "greedy":
        meets = [meeting(row) for row in rows]  # each edge's mask, built once
        while live:
            i = min(ids(live), key=lambda i: (live & meets[i]).bit_count())
            take(i, meets[i])
    elif strategy == "nibble":
        rng = random.Random(seed)
        for _ in range(math.ceil(10 * math.log(max(h.n, 2)))):
            if not live:
                break
            bite = [i for i in ids(live) if rng.random() < _BITE_FRACTION]
            rng.shuffle(bite)  # first-come in random order settles conflicts
            for i in bite:
                if live >> i & 1:
                    take(i, meeting(rows[i]))
        for i in ids(live):  # lex-first cleanup pass
            if live >> i & 1:
                take(i, meeting(rows[i]))
    else:
        raise ValueError(f"unknown strategy {strategy!r}")

    return Matching(tuple(sorted(tuple(rows[i]) for i in chosen)))


# -- end-to-end ---------------------------------------------------------------


def choose_augmentation(n: int, s: int) -> int:
    """Pick r: universal vertices added so n+r is divisible by 3.

    Prefers 2r inside [n-3s-2*eta*n, n-3s-eta*n] with eta = 0.1; when that
    window holds no aligned integer, falls back to the smallest aligned r
    that still leaves room for s+r+1 disjoint triples on n+r vertices.
    """
    lo = n - 3 * s - 2 * _ETA * n
    hi = n - 3 * s - _ETA * n
    for r in range(0, 2 * n + 1):
        if (n + r) % 3 == 0 and lo <= 2 * r <= hi:
            return r
    for r in range(0, 2 * n + 1):
        if (n + r) % 3 == 0 and 2 * r <= n - 3 * s - 3:
            return r
    return (-n) % 3


@dataclass
class PipelineResult:
    status: str  # "ok" or "failed at <stage>"
    success: bool
    matching: Matching
    s: int
    r: int
    t: int
    seed: int
    diagnostics: dict = field(default_factory=dict)


def pipeline(
    h: Hypergraph,
    s: int,
    t: int | None = None,
    seed: int = 0,
    r: int | None = None,
    matching_strategy: str = "greedy",
) -> PipelineResult:
    """Augment, extract, mix, sample, match; keep the part inside the input.

    Succeeds when the matching left inside the original graph exceeds s.
    """
    if h.k != 3:
        raise ValueError("the rounding pipeline is for 3-graphs")
    if r is None:
        r = choose_augmentation(h.n, s)
    try:
        hr = augment_universal(h, r)
    except BudgetExceeded as exc:
        raise BudgetExceeded(f"round augments n={h.n} by r={r} universal vertices; {exc}") from None
    if t is None:
        t = max(2, round(hr.n**0.2))
    diag: dict = {"r": r, "t": t, "n_augmented": hr.n}

    fam = extract_fpm_family(hr, t)
    diag["extract_status"] = fam.status
    diag["extract_members"] = len(fam.members)
    diag["extract_attempts"] = fam.attempts
    made = Counter(rec.path for rec in fam.rounds[: len(fam.members)])
    diag["extract_paths"] = {path: made[path] for path in ROUND_PATHS}
    diag["extract_search_nodes"] = sum(rec.nodes for rec in fam.rounds)
    diag["max_pair_load"] = fam.max_pair_load()
    if not fam.complete:
        return PipelineResult(
            f"failed at extract: {fam.status}", False, Matching(()), s, r, t, seed, diag
        )

    p = mix_and_halve(fam)
    # the sum in edge order, one addition at a time: accumulate never pairs
    # or compensates, where sum() of floats compensates from Python 3.12 on
    diag["mixed_total_weight"] = float(np.add.accumulate(p)[-1])

    report = sample_binomial_subgraph(hr, p, seed)
    diag["sample_edges"] = report.sampled.e()
    diag["sample_vertex_ok"] = report.vertex_ok
    diag["sample_max_pair_degree"] = report.max_pair_degree

    matching_seed = seed * 1_000_003 + 1
    m_aug = near_perfect_matching(report.sampled, matching_strategy, seed=matching_seed)
    diag["matching_in_augmented"] = m_aug.size
    inside = tuple(e for e in m_aug.edges if e[-1] <= h.n)
    matching = Matching(inside)
    matching.validate(h)
    diag["matching_in_input"] = matching.size
    success = matching.size > s
    status = "ok" if success else "failed at matching: best inside has size " + str(
        matching.size
    )
    return PipelineResult(status, success, matching, s, r, t, seed, diag)
