"""Reference models: the readable spec of the hot paths, and the ISA's oracles.

``src/`` keeps exactly one implementation of each model — the numpy
simulator (:mod:`repro.sim.batched`) and the numpy tiling search
(:func:`repro.isa.tiling.search_tilings`).  The plain-Python versions they
were derived from live here, one formula per line, so the tests and the
perf suite (``benchmarks/perf/run.py``) can check the production paths
against them bit for bit and time them against each other:

* :mod:`reference.simulator` — ``run_block(config, block)``, the
  per-block cycle, traffic and energy model, and the GEMM cycle model
  (:class:`~reference.simulator.GemmCycleModel`);
* :mod:`reference.tiling` — ``plan_tiling_scalar`` and
  ``search_tiling_scalar``, the double loop over tile candidates.

The Fusion-ISA's specifications, which no command runs, live here too:

* :mod:`reference.encoding` — the repo's only Table I encoder and decoder
  (``encode_instruction``/``decode_instruction``, ``encode_block``/
  ``decode_block`` and their hex forms), one ``isinstance`` branch per
  instruction kind;
* :mod:`reference.interpreter` — ``interpret_block``, the Equation-4 walk
  of a block's memory-level loop nest, one event per ``ld-mem``/``st-mem``.

Nothing under ``src/`` imports this package.
"""
