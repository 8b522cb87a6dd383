"""Pareto-frontier extraction over design-space objectives.

The BitFusion paper's 16x16, 8-bit-fused configuration is the outcome of a
design-space exploration trading performance against energy and silicon
area; this module provides the reduction step of that exploration.  All
objectives are *minimized* (latency per inference, energy per inference,
area), and the frontier is the set of points no other point dominates.

The core routine works on plain objective vectors so it can be tested on
synthetic points independently of any simulation, and preserves input
order so frontiers are deterministic.

:func:`pareto_indices` is sort-based: points are processed in lexicographic
order, where any dominator of a point sorts strictly before it, so each
point only needs checking against the *frontier found so far* — O(n log n)
for one or two objectives (a single scan with a running best suffices) and
O(n·f·d) beyond that, where ``f`` is the frontier size (typically tiny
compared to ``n``).  The original exhaustive all-pairs comparison survives
as :func:`pareto_indices_quadratic`, the reference oracle the fast path is
property-tested against — the two must return identical index lists on
every input.
"""

from __future__ import annotations

from typing import Callable, Generic, Iterable, Sequence, Tuple, TypeVar

__all__ = [
    "OBJECTIVES",
    "Objective",
    "ParetoArchive",
    "dominates",
    "pareto_indices",
    "pareto_indices_quadratic",
    "pareto_front",
]

T = TypeVar("T")


class Objective:
    """One minimized metric: a name, a display unit and an extractor."""

    def __init__(
        self, name: str, unit: str, column: str, extract: Callable[..., float]
    ) -> None:
        self.name = name
        self.unit = unit
        #: Column header used in sweep tables.
        self.column = column
        self.extract = extract


#: Registry of the objectives a sweep spec may minimize.  Extractors take
#: an :class:`repro.dse.runner.EvaluatedPoint`.
OBJECTIVES: dict[str, Objective] = {
    "latency": Objective(
        "latency", "ms/inf", "latency (ms)", lambda point: point.latency_ms
    ),
    "energy": Objective(
        "energy", "mJ/inf", "energy (mJ)", lambda point: point.energy_mj
    ),
    "area": Objective("area", "mm2", "area (mm2)", lambda point: point.area_mm2),
}


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True when objective vector ``a`` Pareto-dominates ``b``.

    ``a`` dominates ``b`` when it is no worse on every objective and
    strictly better on at least one (all objectives minimized).  Equal
    vectors do not dominate each other, so duplicated design points both
    survive onto the frontier.
    """
    if len(a) != len(b):
        raise ValueError(f"objective vectors differ in length: {len(a)} vs {len(b)}")
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def pareto_indices_quadratic(vectors: Sequence[Sequence[float]]) -> list[int]:
    """Reference frontier: exhaustive all-pairs domination checks.

    Quadratic in the number of points.  Kept as the oracle
    :func:`pareto_indices` is property-tested against; the two must agree
    exactly (same indices, same order) on every input.
    """
    frontier: list[int] = []
    for i, candidate in enumerate(vectors):
        if not any(
            dominates(other, candidate) for j, other in enumerate(vectors) if j != i
        ):
            frontier.append(i)
    return frontier


def pareto_indices(vectors: Sequence[Sequence[float]]) -> list[int]:
    """Indices of the non-dominated vectors, in input order.

    Sort-based: processing points in lexicographic order guarantees every
    dominator of a point has already been processed (a dominator is
    componentwise ``<=`` and not equal, hence strictly lex-smaller), and by
    transitivity it suffices to compare each point against the current
    frontier.  Groups of identical vectors stand or fall together — equal
    vectors never dominate each other, so duplicated design points both
    survive onto the frontier, exactly as in the quadratic reference.  With
    at most two objectives the frontier check collapses to one running
    minimum and the whole reduction is O(n log n).
    """
    count = len(vectors)
    if count == 0:
        return []
    vecs = [tuple(vector) for vector in vectors]
    width = len(vecs[0])
    for vector in vecs:
        if len(vector) != width:
            raise ValueError(
                f"objective vectors differ in length: {width} vs {len(vector)}"
            )
    # NaN breaks both lexicographic sorting and the running-minimum fast
    # path; the oracle's semantics (a NaN-carrying point neither dominates
    # nor is dominated, so it always survives) only fall out of the
    # explicit all-pairs comparisons.  Degenerate inputs are rare, so
    # exactness beats speed here.
    if any(value != value for vector in vecs for value in vector):
        return pareto_indices_quadratic(vectors)

    order = sorted(range(count), key=lambda index: (vecs[index], index))
    survivors: list[int] = []
    # Fast path (one or two objectives): in lex order, a point is dominated
    # iff some earlier, non-identical vector has last-objective <= its own —
    # tracked by a single running minimum over previous vector groups.
    two_wide = width <= 2
    best_last = float("inf")
    frontier_vectors: list[tuple[float, ...]] = []
    start = 0
    while start < count:
        stop = start
        vector = vecs[order[start]]
        while stop < count and vecs[order[stop]] == vector:
            stop += 1
        if two_wide:
            alive = vector[-1] < best_last
            best_last = min(best_last, vector[-1])
        else:
            alive = not any(dominates(member, vector) for member in frontier_vectors)
            if alive:
                frontier_vectors.append(vector)
        if alive:
            survivors.extend(order[start:stop])
        start = stop
    return sorted(survivors)


class ParetoArchive(Generic[T]):
    """Incremental Pareto frontier over a stream of evaluated items.

    Feed batches of ``(item, objective_vector)`` pairs as a search produces
    them; the archive keeps only the currently non-dominated entries.  Each
    :meth:`extend` merges the surviving frontier with the new batch through
    one :func:`pareto_indices` pass, so a search never re-reduces its full
    evaluation history.  By transitivity of dominance this incremental
    frontier equals the frontier of everything ever fed (any point dominated
    by a discarded entry is also dominated by whichever frontier entry
    displaced it) — property-tested against the one-shot reduction.

    Insertion order among survivors is preserved, and — matching
    :func:`dominates` — entries with identical vectors all survive.
    """

    def __init__(self) -> None:
        self._entries: list[Tuple[T, tuple[float, ...]]] = []

    def extend(self, batch: Iterable[Tuple[T, Sequence[float]]]) -> None:
        """Merge a batch of ``(item, vector)`` pairs into the frontier."""
        merged = self._entries + [(item, tuple(vector)) for item, vector in batch]
        if not merged:
            return
        keep = pareto_indices([vector for _, vector in merged])
        self._entries = [merged[index] for index in keep]

    @property
    def items(self) -> list[T]:
        return [item for item, _ in self._entries]


def pareto_front(
    items: Sequence[T], objectives: Sequence[Callable[[T], float]]
) -> list[T]:
    """The non-dominated subset of ``items`` under the given objectives.

    ``objectives`` are extractor callables returning the minimized value of
    one metric; input order is preserved.
    """
    if not objectives:
        raise ValueError("pareto_front needs at least one objective")
    vectors = [tuple(objective(item) for objective in objectives) for item in items]
    return [items[i] for i in pareto_indices(vectors)]
