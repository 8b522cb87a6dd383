"""Fusion-ISA: the block-structured instruction set of Bit Fusion (Section IV).

The ISA exposes the accelerator's bit-level fusion capability to software
while amortizing the von Neumann overhead of instruction handling:

* **Block structure** — every DNN layer compiles to one *instruction block*
  bracketed by ``setup`` (which fixes the fusion configuration of the
  BitBricks for the whole block) and ``block-end`` (which names the next
  block).  Instructions are fetched and decoded once per block.
* **Iterative semantics** — ``loop`` instructions with iteration counts and
  ``gen-addr`` instructions with per-loop strides concisely express the
  multi-dimensional walks of convolution, fully-connected, recurrent and
  pooling layers (Equation 4).
* **Decoupled memory access** — ``ld-mem``/``st-mem`` move variable-bitwidth
  arrays between DRAM and the on-chip scratchpads; ``rd-buf``/``wr-buf``
  move data between the scratchpads and the compute fabric.  Their operand
  sizes depend on the fusion configuration set by the block's ``setup``.

Sub-modules
-----------
:mod:`repro.isa.instructions`  instruction dataclasses, opcodes and field widths (Table I).
:mod:`repro.isa.block`         validated instruction blocks.
:mod:`repro.isa.program`       a compiled network: an ordered list of blocks.
:mod:`repro.isa.tiling`        loop tiling against the scratchpad capacities.
:mod:`repro.isa.optimizations` loop ordering and layer fusion (Section IV-B).
:mod:`repro.isa.compiler`      the layer-to-block / network-to-program compiler.

The package namespace re-exports nothing; import from the modules.  The
Table I binary encoder/decoder and the interpreter that walks a block's
memory-level loop nest (Equation 4) are test oracles, in
``tests/reference/encoding.py`` and ``tests/reference/interpreter.py``.
"""
