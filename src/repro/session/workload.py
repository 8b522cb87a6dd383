"""Workload: one (platform, network, batch, compiler-flags) evaluation point.

A :class:`Workload` is the unit of work the evaluation session caches and
executes.  It names everything that determines a simulation's outcome —
the platform and its configuration, the benchmark network (and any variant
or bitwidth transform applied to it), the batch size and the Bit Fusion
compiler flags — and condenses all of it into a stable content
:meth:`~Workload.fingerprint` suitable as a cache key that survives process
boundaries and on-disk round trips.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Any

from repro.fingerprint import fingerprint_text, memoized_json, spliced_json

from repro.baselines.gpu import GpuPrecision, GpuSpec
from repro.baselines.platform import PLATFORM_SPECS, PlatformSpec
from repro.core.config import BitFusionConfig
from repro.dnn import models
from repro.dnn.network import Network

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "Workload",
    "PLATFORMS",
    "fixed_bitwidth_network",
    "load_network",
    "network_digest",
]

#: The paper's evaluation batch (Section V): workloads, sweeps, searches and
#: the report's experiments price networks at it unless told otherwise.
DEFAULT_BATCH_SIZE = 16

#: Platform identifiers the session knows how to build models for.
PLATFORMS = ("bitfusion", "eyeriss", "stripes", "gpu", "temporal")

#: The configuration a Bit Fusion workload without one runs, shared like
#: the baselines' ``PLATFORM_SPECS`` so its fingerprint text is built once.
_DEFAULT_BITFUSION_CONFIG = BitFusionConfig.eyeriss_matched()

#: Memoized network-structure digests keyed by (canonical name, variant,
#: fixed_bits).  The model zoo is static at runtime, so rebuilding and
#: re-hashing the same network for every cache lookup would be pure waste.
_NETWORK_DIGESTS: dict[tuple[str, str, int | None], str] = {}


def fixed_bitwidth_network(network: Network, bits: int = 8) -> Network:
    """Copy of a network with every layer forced to a fixed operand bitwidth.

    This is what a fixed-precision accelerator built on the same fabric
    would execute; the ablation experiments use it to isolate the benefit
    of bit-level fusion itself.
    """
    fixed = Network(f"{network.name}-{bits}bit")
    for layer in network:
        fixed.add(replace(layer, input_bits=bits, weight_bits=bits, output_bits=bits))
    return fixed


@dataclass(frozen=True)
class Workload:
    """One evaluation point: a network on a configured platform.

    Attributes
    ----------
    platform:
        One of :data:`PLATFORMS`.
    network:
        Benchmark name from the model zoo (``repro.dnn.models.BENCHMARKS``).
    batch_size:
        Inference batch size.
    variant:
        ``"quantized"`` runs the model evaluated on Bit Fusion / Stripes;
        ``"baseline"`` runs the regular (non-widened) variant the paper uses
        for Eyeriss and the GPUs.
    fixed_bits:
        When set, every layer is forced to this operand bitwidth before
        execution (the ablation experiments' fixed-precision strawman).
    config:
        Platform configuration dataclass (``BitFusionConfig``, a
        ``PlatformSpec`` of the same name for Eyeriss, Stripes and the
        temporal design, or ``GpuSpec``).  ``None`` selects the platform's
        paper-default configuration.
    gpu_precision:
        ``"fp32"`` or ``"int8"``; only meaningful for the GPU platform.
    enable_loop_ordering, enable_layer_fusion:
        Fusion compiler flags; only meaningful for the Bit Fusion platform
        but always part of the fingerprint so flag changes invalidate
        cached results.
    """

    platform: str
    network: str
    batch_size: int = DEFAULT_BATCH_SIZE
    variant: str = "quantized"
    fixed_bits: int | None = None
    config: Any = None
    gpu_precision: str | None = None
    enable_loop_ordering: bool = True
    enable_layer_fusion: bool = True

    def __post_init__(self) -> None:
        if self.platform not in PLATFORMS:
            raise ValueError(
                f"unknown platform {self.platform!r}; expected one of {PLATFORMS}"
            )
        if not isinstance(self.network, str):
            raise TypeError(
                f"network must be a model-zoo name (str), got {type(self.network).__name__}"
            )
        if not isinstance(self.batch_size, int) or isinstance(self.batch_size, bool):
            raise TypeError(
                f"batch_size must be an int, got {type(self.batch_size).__name__} "
                f"{self.batch_size!r}"
            )
        try:
            # Canonicalize aliases ("alexnet", "cifar10", ...) so equivalent
            # workloads collapse onto one fingerprint.
            object.__setattr__(self, "network", models.canonical_name(self.network))
        except KeyError as error:
            raise ValueError(str(error)) from None
        if self.batch_size <= 0:
            raise ValueError(f"batch size must be positive, got {self.batch_size}")
        if self.variant not in ("quantized", "baseline"):
            raise ValueError(f"variant must be 'quantized' or 'baseline', got {self.variant!r}")
        if self.platform == "gpu":
            if self.gpu_precision not in ("fp32", "int8"):
                raise ValueError(
                    f"gpu workloads need gpu_precision 'fp32' or 'int8', got {self.gpu_precision!r}"
                )
            if self.config is None:
                raise ValueError(
                    "gpu workloads need a device spec as config (e.g. TEGRA_X2, TITAN_XP)"
                )
        # Resolve default configurations eagerly so semantically identical
        # workloads (bare constructor vs named constructor) share one
        # fingerprint, and the fingerprint always hashes what actually runs.
        if self.config is None:
            if self.platform == "bitfusion":
                object.__setattr__(self, "config", _DEFAULT_BITFUSION_CONFIG)
            elif self.platform in PLATFORM_SPECS:
                object.__setattr__(self, "config", PLATFORM_SPECS[self.platform])
        elif self.platform in PLATFORM_SPECS and (
            not isinstance(self.config, PlatformSpec) or self.config.name != self.platform
        ):
            raise ValueError(
                f"{self.platform} workloads need a PlatformSpec named {self.platform!r} "
                f"as config, got {type(self.config).__name__} "
                f"{getattr(self.config, 'name', None)!r}"
            )
        elif self.platform == "bitfusion" and not isinstance(self.config, BitFusionConfig):
            raise ValueError(
                f"bitfusion workloads need a BitFusionConfig as config, "
                f"got {type(self.config).__name__}"
            )
        elif self.platform == "gpu" and not isinstance(self.config, GpuSpec):
            raise ValueError(
                f"gpu workloads need a GpuSpec as config (e.g. TEGRA_X2, TITAN_XP), "
                f"got {type(self.config).__name__}"
            )

    # ------------------------------------------------------------------ #
    # Named constructors (one per platform, paper-default configurations)
    # ------------------------------------------------------------------ #
    @staticmethod
    def bitfusion(
        network: str,
        batch_size: int = DEFAULT_BATCH_SIZE,
        config: BitFusionConfig | None = None,
        fixed_bits: int | None = None,
        enable_loop_ordering: bool = True,
        enable_layer_fusion: bool = True,
    ) -> "Workload":
        """A Bit Fusion run; defaults to the Eyeriss-matched configuration.

        Using the same default everywhere is what lets different experiments
        share cached simulations: Figure 13's runs, Figure 15's 128 bits/cycle
        points, Figure 16's batch-16 points and the ablation baselines all
        collapse onto identical workloads.
        """
        return Workload(
            platform="bitfusion",
            network=network,
            batch_size=batch_size,
            fixed_bits=fixed_bits,
            config=config,
            enable_loop_ordering=enable_loop_ordering,
            enable_layer_fusion=enable_layer_fusion,
        )

    @staticmethod
    def eyeriss(
        network: str, batch_size: int = DEFAULT_BATCH_SIZE, config: PlatformSpec | None = None
    ) -> "Workload":
        """An Eyeriss run on the regular (non-widened) model variant."""
        return Workload(
            platform="eyeriss",
            network=network,
            batch_size=batch_size,
            variant="baseline",
            config=config,
        )

    @staticmethod
    def stripes(
        network: str, batch_size: int = DEFAULT_BATCH_SIZE, config: PlatformSpec | None = None
    ) -> "Workload":
        """A Stripes run on the quantized model variant (Figure 18)."""
        return Workload(
            platform="stripes",
            network=network,
            batch_size=batch_size,
            config=config,
        )

    @staticmethod
    def gpu(
        network: str,
        spec: GpuSpec,
        precision: GpuPrecision | str = GpuPrecision.FP32,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> "Workload":
        """A GPU roofline run on the regular model variant (Figure 17)."""
        value = precision.value if isinstance(precision, GpuPrecision) else precision
        return Workload(
            platform="gpu",
            network=network,
            batch_size=batch_size,
            variant="baseline",
            config=spec,
            gpu_precision=value,
        )

    @staticmethod
    def temporal(
        network: str, batch_size: int = DEFAULT_BATCH_SIZE, config: PlatformSpec | None = None
    ) -> "Workload":
        """A same-area temporal bit-serial design run (Section III-C)."""
        return Workload(
            platform="temporal", network=network, batch_size=batch_size, config=config
        )

    # ------------------------------------------------------------------ #
    # Fingerprinting
    # ------------------------------------------------------------------ #
    def fingerprint(self) -> str:
        """Stable content hash of everything that determines the result.

        Includes the *structure* of the resolved network (via
        :meth:`repro.dnn.network.Network.fingerprint`), so a change to the
        model zoo invalidates cached results for the affected benchmark.
        The config member, ``{"type": <class name>, **asdict(config)}``, is
        spliced from the config's memoized canonical JSON.

        Memoized on the (frozen) instance like
        :meth:`~repro.isa.program.CompiledBlock.layer_fingerprint`: a sweep
        point is fingerprinted by the sweep runner, the session and the
        report.  The memo sits outside the dataclass fields, so equality,
        hashing, ``asdict`` and ``replace`` ignore it.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is not None:
            return cached
        values: dict[str, Any] = {
            "platform": self.platform,
            "network": self.network,
            "network_fingerprint": network_digest(self),
            "batch_size": self.batch_size,
            "variant": self.variant,
            "fixed_bits": self.fixed_bits,
            "gpu_precision": self.gpu_precision,
        }
        if self.platform == "bitfusion":
            values["compiler"] = {
                "enable_loop_ordering": self.enable_loop_ordering,
                "enable_layer_fusion": self.enable_layer_fusion,
            }
        # __post_init__ resolved the config, so there always is one.  A
        # sweep shares one (frozen) config across its (network, batch)
        # points, and ``asdict`` deep-copies every field, so the config
        # keeps its JSON.
        config_json = memoized_json(
            self.config, lambda config: {"type": type(config).__name__, **asdict(config)}
        )
        digest = fingerprint_text(spliced_json(values, config=config_json))
        object.__setattr__(self, "_fingerprint", digest)
        return digest

    def label(self) -> str:
        """Compact one-line description for logs and error messages.

        Attached to execution failures so one raising workload in a batch
        names itself instead of aborting the whole batch anonymously.
        """
        parts = [f"{self.platform}/{self.network}", f"batch={self.batch_size}"]
        if self.variant != "quantized":
            parts.append(f"variant={self.variant}")
        if self.fixed_bits is not None:
            parts.append(f"fixed_bits={self.fixed_bits}")
        config_name = getattr(self.config, "name", None)
        if config_name:
            parts.append(f"config={config_name}")
        if self.gpu_precision is not None:
            parts.append(f"precision={self.gpu_precision}")
        return " ".join(parts)


def load_network(workload: Workload) -> Network:
    """Materialize the network a workload runs (variant plus transforms)."""
    if workload.variant == "baseline":
        network = models.load_baseline_variant(workload.network)
    else:
        network = models.load(workload.network)
    if workload.fixed_bits is not None:
        network = fixed_bitwidth_network(network, workload.fixed_bits)
    return network


def network_digest(workload: Workload) -> str:
    """Structure fingerprint of the network a workload resolves to (memoized).

    Both the workload fingerprint and the compile-stage cache key hash this
    digest, so they can never disagree about what "the same network" means.
    """
    digest_key = (workload.network, workload.variant, workload.fixed_bits)
    if digest_key not in _NETWORK_DIGESTS:
        _NETWORK_DIGESTS[digest_key] = load_network(workload).fingerprint()
    return _NETWORK_DIGESTS[digest_key]

