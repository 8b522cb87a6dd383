"""Core Bit Fusion architecture models.

The core package contains the paper's primary contribution: the bit-level
composable compute fabric.

* :mod:`repro.core.bitbrick` — the 2-bit multiply-add element (Figure 5).
* :mod:`repro.core.decompose` — recursive decomposition of wide multiplies
  into 2-bit brick multiplies plus shift amounts (Equations 1–3, Figures 6, 7).
* :mod:`repro.core.fusion_unit` — the 16-BitBrick Fusion Unit with spatial
  fusion and the hybrid spatio-temporal 16-bit mode (Figures 2, 9, 10).
* :mod:`repro.core.systolic` — the functional model of the systolic array
  of Fusion Units with shared input buffers, per-unit weight buffers and
  per-column output buffers (Figures 3, 4).
* :mod:`repro.core.config` — accelerator configuration: the hardware only
  (array geometry, buffer sizes and access width, bandwidth, frequency,
  technology node).  The batch size is an argument of each compile and
  simulate call.
* :mod:`repro.core.accelerator` — the top-level accelerator object tying
  compiler, simulator and energy model together.

The package namespace re-exports nothing; import from the modules.
"""
