"""Seeded inputs of the end-to-end benchmark's workloads.

Every input the program receives (a sweep spec, a NAS spec, an
``--experiments`` order) is generated here from the workload seed alone, so
one seed always yields byte-identical spec files.  Seed 0 is the reference
input: the paper's experiment order, the sweep grid of the ROADMAP baseline
table, and NAS search seed 0.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "EXPERIMENT_KEYS",
    "SWEEP_NETWORKS",
    "WORKLOADS",
    "Invocation",
    "experiment_order",
    "sweep_spec",
    "nas_spec",
    "invocation",
]

#: The full report's experiment keys in paper order (``--list``).
EXPERIMENT_KEYS = (
    "fig01", "tab02", "tab03", "fig10", "fig13", "fig14", "fig15",
    "fig16", "fig17", "fig18", "temporal", "isa", "ablations", "dse",
)

#: The eight zoo networks every sweep point crosses.
SWEEP_NETWORKS = (
    "AlexNet", "Cifar-10", "LSTM", "LeNet-5", "ResNet-18", "RNN", "SVHN", "VGG-7",
)
SWEEP_BATCH_CHOICES = (1, 2, 4, 8, 16, 32)
SWEEP_BANDWIDTH_CHOICES = (32, 64, 128, 256, 512)
REFERENCE_BATCH_SIZES = (1, 16)
REFERENCE_BANDWIDTHS = (64, 128, 256)

NAS_BASE = "resnet18"
NAS_POPULATION = 16
NAS_GENERATIONS = 5

WORKLOADS = ("report_cold", "sweep_cold", "sweep_warm", "nas_search")


def experiment_order(seed: int) -> list[str]:
    """The 14 experiment keys, permuted by ``seed`` (seed 0: paper order)."""
    keys = list(EXPERIMENT_KEYS)
    if seed != 0:
        random.Random(seed).shuffle(keys)
    return keys


def sweep_spec(seed: int) -> dict:
    """The 576-point sweep grid; the seed draws batch sizes and bandwidths.

    8 networks x 2 batch sizes x 3 arrays x 2 buffer sets x 2 nodes x 3
    bandwidths.  Seed 0 is the ROADMAP baseline spec exactly.
    """
    if seed == 0:
        batches, bandwidths = REFERENCE_BATCH_SIZES, REFERENCE_BANDWIDTHS
    else:
        rng = random.Random(seed)
        batches = tuple(sorted(rng.sample(SWEEP_BATCH_CHOICES, 2)))
        bandwidths = tuple(sorted(rng.sample(SWEEP_BANDWIDTH_CHOICES, 3)))
    return {
        "name": f"e2e sweep seed {seed}",
        "networks": list(SWEEP_NETWORKS),
        "batch_sizes": list(batches),
        "axes": {
            "array": [[16, 16], [32, 16], [32, 32]],
            "buffers": [[32, 64, 16], [16, 32, 8]],
            "technology": ["45nm", "16nm"],
            "bandwidth": list(bandwidths),
        },
    }


def nas_spec(seed: int) -> dict:
    """ResNet-18 search, population 16 x 5 generations, search seed = ``seed``."""
    return {
        "base_network": NAS_BASE,
        "population": NAS_POPULATION,
        "generations": NAS_GENERATIONS,
        "seed": seed,
    }


def _write_spec(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class Invocation:
    """One workload's command line, run from its work directory.

    ``argv`` follows ``python -m repro.harness`` and names its files
    relative to the work directory, so outputs carry no absolute paths.
    ``cache_dir`` is the ``--cache-dir`` it reads and writes (None: the
    in-memory cache only) and ``fresh_cache`` says whether every timed
    repeat starts from an empty one.  ``expected_items`` is how many items
    one repeat must produce (None when only the output can tell, as for
    the candidates a NAS search prices).
    """

    argv: list[str]
    expected_items: int | None
    cache_dir: str | None = None
    fresh_cache: bool = False


def invocation(workload: str, seed: int, work: Path) -> Invocation:
    """Write ``workload``'s inputs for ``seed`` into ``work``; return its command."""
    if workload == "report_cold":
        order = experiment_order(seed)
        return Invocation(["--experiments", *order], expected_items=len(order))
    if workload in ("sweep_cold", "sweep_warm"):
        spec = sweep_spec(seed)
        _write_spec(work / "sweep.json", spec)
        points = len(spec["networks"]) * len(spec["batch_sizes"])
        for values in spec["axes"].values():
            points *= len(values)
        return Invocation(
            ["sweep", "sweep.json", "--cache-dir", "cache"],
            expected_items=points,
            cache_dir="cache",
            fresh_cache=workload == "sweep_cold",
        )
    if workload == "nas_search":
        _write_spec(work / "nas.json", nas_spec(seed))
        return Invocation(["nas", "nas.json"], expected_items=None)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
