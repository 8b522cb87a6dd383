"""Declarative multi-axis sweep specifications (`SweepSpec`).

A :class:`SweepSpec` names a region of the Bit Fusion design space — the
cartesian product of benchmark networks, batch sizes and any combination of
hardware/compiler axes — and :meth:`~SweepSpec.expand`\\ s it into the
fingerprinted :class:`~repro.session.workload.Workload` grid the evaluation
session executes.  Specs are plain data: they load from JSON (or YAML when
PyYAML happens to be installed) so a design-space exploration is one file
plus ``python -m repro.harness sweep spec.json``.

Supported axes
--------------
Configuration axes (each maps onto one ``BitFusionConfig.with_*`` variation
point):

``array``
    Systolic-array geometry, ``[rows, columns]`` pairs.
``buffers``
    Scratchpad capacities, ``[ibuf_kb, wbuf_kb, obuf_kb]`` triples.  The
    only *compile-affecting* hardware axis: the tiling search targets the
    buffer capacities, so each distinct value compiles its own program.
``technology``
    Process node by name (``"45nm"``/``"16nm"``/``"65nm"``); scales energy
    and area via :class:`~repro.core.config.TechnologyNode`.
``bandwidth``
    Off-chip bandwidth in bits/cycle.
``frequency``
    Operating frequency in MHz.

Workload axes (orthogonal to the hardware configuration):

``fixed_bits``
    Force every layer to a fixed operand bitwidth (``null`` keeps the
    network's quantized per-layer widths).
``loop_ordering`` / ``layer_fusion``
    Fusion-compiler optimization flags (booleans).

Because workloads fingerprint everything and the compile stage is keyed
*structure-only* (network + batch + buffers + compiler flags — see
:func:`repro.session.engine.program_cache_key`), a sweep along the
``technology``, ``bandwidth``, ``frequency`` or ``array`` axes compiles
each network exactly once and re-simulates only what the axis actually
affects.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.core.config import BitFusionConfig
from repro.session.workload import DEFAULT_BATCH_SIZE, Workload
from repro.spec_fields import checked_field, checked_list

__all__ = [
    "CONFIG_AXES",
    "WORKLOAD_AXES",
    "BASE_CONFIGS",
    "DesignPoint",
    "SweepSpec",
    "format_axis_value",
]

#: Named base configurations a spec can start from (paper configurations).
BASE_CONFIGS: dict[str, BitFusionConfig] = {
    "eyeriss_matched": BitFusionConfig.eyeriss_matched(),
    "stripes_matched": BitFusionConfig.stripes_matched(),
    "gpu_scaled_16nm": BitFusionConfig.gpu_scaled_16nm(),
}


def _apply_array(config: BitFusionConfig, value: Any) -> BitFusionConfig:
    rows, columns = value
    return config.with_array(int(rows), int(columns))


def _apply_buffers(config: BitFusionConfig, value: Any) -> BitFusionConfig:
    ibuf, wbuf, obuf = value
    return config.with_buffers(float(ibuf), float(wbuf), float(obuf))


def _apply_technology(config: BitFusionConfig, value: Any) -> BitFusionConfig:
    return config.with_technology(str(value))


def _apply_bandwidth(config: BitFusionConfig, value: Any) -> BitFusionConfig:
    return config.with_bandwidth(int(value))


def _apply_frequency(config: BitFusionConfig, value: Any) -> BitFusionConfig:
    return config.with_frequency(float(value))


#: Configuration axes: name -> function applying one value to a config.
CONFIG_AXES: dict[str, Callable[[BitFusionConfig, Any], BitFusionConfig]] = {
    "array": _apply_array,
    "buffers": _apply_buffers,
    "technology": _apply_technology,
    "bandwidth": _apply_bandwidth,
    "frequency": _apply_frequency,
}

#: Axes that vary the workload rather than the hardware configuration.
WORKLOAD_AXES = ("fixed_bits", "loop_ordering", "layer_fusion")


def format_axis_value(axis: str, value: Any) -> str:
    """Render one axis value the way sweep tables display it."""
    if axis == "array":
        rows, columns = value
        return f"{rows}x{columns}"
    if axis == "buffers":
        ibuf, wbuf, obuf = value
        return f"{ibuf:g}/{wbuf:g}/{obuf:g}KB"
    if axis == "frequency":
        return f"{value:g}MHz"
    if axis == "bandwidth":
        return f"{value}b/c"
    return str(value)


def _hashable(value: Any) -> Any:
    """JSON axis values arrive as lists; settings tuples must be hashable."""
    if isinstance(value, list):
        return tuple(_hashable(item) for item in value)
    return value


@dataclass(frozen=True)
class DesignPoint:
    """One expanded point of a sweep: axis values plus the workload they name.

    ``settings`` holds the (axis, value) pairs in the spec's declaration
    order, so two points of the same sweep are always labeled consistently
    and the grid table has one column per axis.
    """

    network: str
    batch_size: int
    settings: tuple[tuple[str, Any], ...]
    workload: Workload

    def label(self) -> str:
        """Compact human-readable identity of the point."""
        parts = [self.network, f"b{self.batch_size}"]
        parts.extend(
            f"{axis}={format_axis_value(axis, value)}" for axis, value in self.settings
        )
        return " ".join(parts)


@dataclass(frozen=True)
class SweepSpec:
    """A declarative multi-axis design-space sweep.

    Attributes
    ----------
    networks:
        Benchmark names from the model zoo (aliases accepted).
    batch_sizes:
        Inference batch sizes to cross with every axis.
    axes:
        Mapping of axis name (:data:`CONFIG_AXES` or :data:`WORKLOAD_AXES`)
        to the tuple of values to sweep, in declaration order.
    base_config:
        Named starting configuration (:data:`BASE_CONFIGS`); every
        configuration axis varies a copy of it.
    objectives:
        Metric names the Pareto frontier minimizes, in priority-free order
        (see :mod:`repro.dse.pareto`).
    name:
        Label used in reports.
    """

    networks: tuple[str, ...]
    batch_sizes: tuple[int, ...] = (DEFAULT_BATCH_SIZE,)
    axes: tuple[tuple[str, tuple[Any, ...]], ...] = ()
    base_config: str = "eyeriss_matched"
    objectives: tuple[str, ...] = ("latency", "energy", "area")
    name: str = "design-space sweep"

    def __post_init__(self) -> None:
        if not self.networks:
            raise ValueError("a sweep spec needs at least one network")
        if not self.batch_sizes:
            raise ValueError("a sweep spec needs at least one batch size")
        if self.base_config not in BASE_CONFIGS:
            raise ValueError(
                f"unknown base_config {self.base_config!r}; "
                f"expected one of {sorted(BASE_CONFIGS)}"
            )
        known = set(CONFIG_AXES) | set(WORKLOAD_AXES)
        for axis, values in self.axes:
            if axis not in known:
                raise ValueError(
                    f"unknown sweep axis {axis!r}; expected one of {sorted(known)}"
                )
            if not values:
                raise ValueError(f"sweep axis {axis!r} has no values")
        # Objectives are validated here, not first at reduction time: a
        # misspelled objective must fail before a wide grid simulates.
        from repro.dse.pareto import OBJECTIVES

        if not self.objectives:
            raise ValueError("a sweep spec needs at least one objective")
        for objective in self.objectives:
            if objective not in OBJECTIVES:
                raise ValueError(
                    f"unknown objective {objective!r}; expected one of {sorted(OBJECTIVES)}"
                )

    # ------------------------------------------------------------------ #
    # Construction from plain data
    # ------------------------------------------------------------------ #
    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SweepSpec":
        """Build a spec from a JSON/YAML-shaped dictionary.

        Expected shape (only ``networks`` is required)::

            {
              "name": "array x buffers x node",
              "networks": ["LeNet-5"],
              "batch_sizes": [16],
              "base_config": "eyeriss_matched",
              "axes": {
                "array": [[16, 16], [32, 16]],
                "buffers": [[32, 64, 16], [64, 128, 32]],
                "technology": ["45nm", "16nm"]
              },
              "objectives": ["latency", "energy", "area"]
            }
        """
        known_keys = {"name", "networks", "batch_sizes", "base_config", "axes", "objectives"}
        unknown = set(payload) - known_keys
        if unknown:
            raise ValueError(
                f"unknown sweep spec key(s) {sorted(unknown)}; expected {sorted(known_keys)}"
            )
        if "networks" not in payload:
            raise ValueError("a sweep spec needs a 'networks' list")
        axes_payload = payload.get("axes", {})
        if not isinstance(axes_payload, Mapping):
            raise ValueError("'axes' must be a mapping of axis name to value list")
        for axis, values in axes_payload.items():
            if isinstance(values, (str, bytes)) or not isinstance(values, (list, tuple)):
                raise ValueError(f"axis {axis!r} must map to a list of values, got {values!r}")
        axes = tuple(
            (axis, tuple(_hashable(value) for value in values))
            for axis, values in axes_payload.items()
        )
        kwargs: dict[str, Any] = {"axes": axes}
        for key, kind in (("networks", str), ("batch_sizes", int), ("objectives", str)):
            if key in payload:
                kwargs[key] = checked_list(key, payload[key], kind)
        for key in ("base_config", "name"):
            if key in payload:
                kwargs[key] = checked_field(key, payload[key], str)
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path: str | Path) -> "SweepSpec":
        """Load a spec from a ``.json`` (always) or ``.yaml``/``.yml`` file.

        YAML support is optional: it is used only when PyYAML is importable,
        and a YAML spec on a machine without it gets a clear error telling
        the user to convert to JSON instead.
        """
        path = Path(path)
        text = path.read_text(encoding="utf-8")
        if path.suffix.lower() in (".yaml", ".yml"):
            try:
                import yaml  # type: ignore[import-not-found]
            except ImportError:
                raise RuntimeError(
                    f"{path.name} is YAML but PyYAML is not installed; "
                    "convert the spec to JSON (the schema is identical)"
                ) from None
            payload = yaml.safe_load(text)
        else:
            payload = json.loads(text)
        if not isinstance(payload, Mapping):
            raise ValueError(f"sweep spec {path} must contain a JSON/YAML object")
        return cls.from_dict(payload)

    # ------------------------------------------------------------------ #
    # Expansion
    # ------------------------------------------------------------------ #
    @property
    def axis_names(self) -> tuple[str, ...]:
        return tuple(axis for axis, _ in self.axes)

    def grid_size(self) -> int:
        """Number of design points the spec expands to."""
        size = len(self.networks) * len(self.batch_sizes)
        for _, values in self.axes:
            size *= len(values)
        return size

    def expand(self) -> list[DesignPoint]:
        """Expand to the full, deterministic grid of design points.

        The grid order is the cartesian product of networks x batch sizes x
        axis values, iterated in declaration order, so a spec always expands
        to the same point sequence (and hence the same report layout).
        Each axis combination's configuration is built once and shared by
        every (network, batch size) point.
        """
        combinations = [
            tuple(zip(self.axis_names, combination))
            for combination in product(*(values for _, values in self.axes))
        ]
        base = BASE_CONFIGS[self.base_config]
        resolved = [self._resolve(base, settings) for settings in combinations]
        points: list[DesignPoint] = []
        for network, batch in product(self.networks, self.batch_sizes):
            for settings, (config, fixed_bits, loop_ordering, layer_fusion) in zip(
                combinations, resolved
            ):
                workload = Workload.bitfusion(
                    network,
                    batch_size=batch,
                    config=config,
                    fixed_bits=fixed_bits,
                    enable_loop_ordering=loop_ordering,
                    enable_layer_fusion=layer_fusion,
                )
                points.append(
                    DesignPoint(
                        network=workload.network,
                        batch_size=batch,
                        settings=settings,
                        workload=workload,
                    )
                )
        return points

    @staticmethod
    def _resolve(
        config: BitFusionConfig, settings: tuple[tuple[str, Any], ...]
    ) -> tuple[BitFusionConfig, int | None, bool, bool]:
        """The (config, fixed_bits, loop_ordering, layer_fusion) that ``settings`` name."""
        fixed_bits: int | None = None
        loop_ordering = True
        layer_fusion = True
        for axis, value in settings:
            if axis in CONFIG_AXES:
                config = CONFIG_AXES[axis](config, value)
            elif axis == "fixed_bits":
                fixed_bits = None if value is None else int(value)
            elif axis == "loop_ordering":
                loop_ordering = bool(value)
            elif axis == "layer_fusion":
                layer_fusion = bool(value)
        return config, fixed_bits, loop_ordering, layer_fusion

    def describe(self) -> str:
        """One-line summary of the grid (axis sizes and point count)."""
        parts = [f"{len(self.networks)} network(s)", f"{len(self.batch_sizes)} batch(es)"]
        parts.extend(f"{axis}[{len(values)}]" for axis, values in self.axes)
        return f"{self.name}: {' x '.join(parts)} = {self.grid_size()} design points"

