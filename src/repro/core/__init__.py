"""Core Bit Fusion architecture models.

The core package contains the paper's primary contribution: the bit-level
composable compute fabric.

* :mod:`repro.core.bitbrick` — the functional model of Section III: a GEMM
  computed as the shift-add of 2-bit BitBrick slice GEMMs (Equations 1–3,
  Figures 5–7), checked against NumPy; examples and tests only.
* :mod:`repro.core.fusion_unit` — the 16-BitBrick Fusion Unit's performance
  model: spatial fusion and the hybrid spatio-temporal 16-bit mode
  (Figures 2, 9, 10), and the 32-bit partial-sum width (Figure 4).
* :mod:`repro.core.config` — accelerator configuration: the hardware only
  (array geometry, buffer sizes and access width, bandwidth, frequency,
  technology node).  The batch size is an argument of each compile and
  simulate call.
* :mod:`repro.core.accelerator` — the top-level accelerator object tying
  compiler, simulator and energy model together.

The package namespace re-exports nothing; import from the modules.
"""
