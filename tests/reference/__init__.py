"""Scalar reference models: the readable spec of the vectorized hot paths.

``src/`` keeps exactly one implementation of each model — the numpy
simulator (:mod:`repro.sim.batched`), the numpy tiling search
(:func:`repro.isa.tiling.search_tilings`) and the table-driven instruction
encoder (:mod:`repro.isa.encoding`).  The plain-Python versions they
were derived from live here, one formula per line, so the tests and the
perf suite (``benchmarks/perf/run.py``) can check the production paths
against them bit for bit and time them against each other:

* :mod:`reference.simulator` — ``run_block(simulator, block)``, the
  per-block cycle, traffic and energy model, and the GEMM cycle model
  (:class:`~reference.simulator.GemmCycleModel`);
* :mod:`reference.tiling` — ``plan_tiling_scalar`` and
  ``search_tiling_scalar``, the double loop over tile candidates;
* :mod:`reference.encoding` — ``encode_instruction_scalar`` and
  ``encode_block_scalar``, one ``isinstance`` branch per instruction kind
  and one ``struct.pack`` per word.

Nothing under ``src/`` imports this package.
"""
