"""NAS over the artifact cache: surrogate estimator plus candidate search.

:class:`~repro.nas.estimator.Estimator` prices arbitrary candidate networks
by cache lookup and pure composition — simulating only never-before-seen
layers, exactly once each — and :func:`~repro.nas.search.run_search` runs
random + evolutionary mutation (:mod:`repro.nas.mutations`) over zoo
networks through it, streaming an incremental Pareto frontier.  See
``docs/nas.md``.

The package namespace re-exports nothing; import from the modules.
"""
