#!/usr/bin/env python3
"""NAS candidate search priced by the cache-composition estimator.

Evaluating a candidate network normally walks the full compile → simulate →
compose pipeline.  The surrogate estimator (`repro.nas`) skips simulation
for every layer whose content fingerprint is already in the artifact cache
and batches only the genuinely unseen layers, so a search over hundreds of
near-clone candidates simulates each novel layer exactly once:

1. price a zoo network once through an `Estimator` — cold, everything
   simulates — and check the result is byte-identical to the full
   `BitFusionAccelerator.evaluate()` pipeline (the estimator is exact, not
   approximate),
2. run a seeded evolutionary search (`run_search`) over the width / depth /
   bit-width mutation axes, streaming a latency/energy Pareto frontier,
3. show the estimator's hit rate: most candidate layers composed straight
   from the cache, and re-pricing the base network costs zero simulations.

The same search, as a JSON spec, runs from the command line::

    python -m repro.harness nas spec.json

See docs/nas.md for the spec schema and the exactness guarantee.

Run with::

    python examples/nas_search.py
"""

from __future__ import annotations

from repro.core.accelerator import BitFusionAccelerator
from repro.core.config import BitFusionConfig
from repro.dnn import models
from repro.nas.estimator import Estimator
from repro.nas.search import SearchSpec, format_search_report, run_search


def main() -> None:
    config = BitFusionConfig.eyeriss_matched()

    # 1. Cold pricing is exact: identical to the full pipeline's output.
    estimator = Estimator(config)
    network = models.load("Cifar-10")
    estimate = estimator.estimate(network)
    reference = BitFusionAccelerator(config).evaluate(network)
    assert estimate == reference, "estimator must match evaluate() exactly"
    print("cold estimate == evaluate():", estimate.latency_per_inference_s, "s/inf")
    print()

    # 2. A seeded search through the same estimator: candidates are priced
    #    in fingerprint-deduped batches, novel layers simulate once.
    spec = SearchSpec.from_dict(
        {
            "name": "Cifar-10 width/depth/bits search",
            "base_network": "Cifar-10",
            "population": 8,
            "generations": 3,
            "seed": 7,
            "objectives": ["latency", "energy"],
        }
    )
    result = run_search(spec, estimator=estimator)
    print(format_search_report(result))
    print()

    # 3. The cache did the heavy lifting: most layer lookups composed or
    #    deduped, and re-pricing the base network simulates nothing.
    stats = estimator.stats
    print(stats.summary())
    assert stats.hit_rate > 0.5, f"expected a mostly-cached search, got {stats.hit_rate:.0%}"
    simulated_before = stats.layers_simulated
    estimator.estimate(network)
    assert stats.layers_simulated == simulated_before, "warm re-pricing must not simulate"
    print()
    print("Re-pricing the base network after the search ran zero simulations.")


if __name__ == "__main__":
    main()
