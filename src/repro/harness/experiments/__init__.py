"""Experiment runners, one module per table/figure of the paper's evaluation.

Every module exposes a ``run(...)`` entry point returning plain result rows,
a ``format_table(...)`` helper and ``render(benchmarks)``, the report
section :mod:`repro.harness.runner` prints.  The runner imports a module
only when it renders it; the benchmark suite under ``benchmarks/`` wraps
the ``run`` entry points in ``pytest-benchmark`` fixtures.

The package namespace re-exports nothing; import the modules.
"""
