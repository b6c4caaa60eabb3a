"""Seeded scenario generator for the benchmark workloads.

Each workload is a fixed shape (kind, grid size, sample count); the
workload seed only moves the grid offsets, the squeezing and the CHSH
rotation, and picks the scenario's own Monte Carlo ``seed``. So every
seed asks the program for the same amount of work, and the same seed
always writes the same scenario file.
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    count1: int
    count2: int
    samples: int
    chsh: bool
    #: Whether n is large enough for the per-row stderr and z checks.
    statistical: bool
    why: str

    @property
    def rows(self) -> int:
        return self.count1 * self.count2

    def tiny(self) -> "Workload":
        """Same workload at a size that runs in well under a second."""
        return dataclasses.replace(self, count1=min(self.count1, 6), count2=min(self.count2, 6),
                                   samples=min(self.samples, 100_000))


WORKLOADS = {w.name: w for w in (
    Workload(
        name="mc_gauss", kind="EPR_QUADRATURE", count1=6, count2=6, samples=1_000_000,
        chsh=False, statistical=True,
        why="Gaussian MC path (Philox words, ndtri, contraction) takes nearly all of the time; "
            "correlators and lhv are idle. ndtri, contraction and shared-draw grid MC show here.",
    ),
    Workload(
        name="mc_spin", kind="SPIN_CHSH", count1=4, count2=4, samples=4_000_000,
        chsh=True, statistical=True,
        why="FINITE MC path: atom lookup (searchsorted) instead of ndtri, so Gaussian-only "
            "changes stay flat and a lazy scipy.special import moves only setup_s and wall_s.",
    ),
    Workload(
        name="dense_grid", kind="SPIN_CHSH", count1=72, count2=72, samples=2,
        chsh=False, statistical=False,
        why="5184 tiny rows: per-row cost of spin_correlation operator rebuilds, mc_estimate "
            "call overhead and the cli row loop. Grid evaluation shows here.",
    ),
)}

#: Direction angles of the standard CHSH settings, before the seeded rotation.
CHSH_BASE = {"a": 0.0, "a_prime": math.pi / 2, "b": math.pi / 4, "b_prime": 3 * math.pi / 4}


def _axis(rng: random.Random, count: int, span: float) -> dict:
    start = rng.uniform(0.0, math.pi)
    return {"start": start, "stop": start + span, "count": count}


def scenario(workload: Workload, seed: int) -> dict:
    """The scenario JSON object for ``workload`` at workload seed ``seed``."""
    rng = random.Random(f"{workload.name}:{seed}")
    if workload.kind == "SPIN_CHSH":
        # A full turn without its end point, so no two grid angles coincide mod 2*pi.
        span1 = span2 = math.tau * (1 - 1 / max(workload.count1, workload.count2))
    else:
        span1 = span2 = math.pi
    data = {
        "kind": workload.kind,
        "name": workload.name,
        "settings": {
            "setting1": _axis(rng, workload.count1, span1),
            "setting2": _axis(rng, workload.count2, span2),
        },
        "samples": workload.samples,
        "seed": rng.getrandbits(63),
    }
    if workload.kind == "EPR_QUADRATURE":
        data["state"] = {"squeezing": rng.uniform(0.5, 1.0)}
    if workload.chsh:
        turn = rng.uniform(0.0, math.tau)
        data["chsh"] = {k: v + turn for k, v in CHSH_BASE.items()}
    return data


def setting_pairs(data: dict) -> list[tuple[float, float]]:
    """The (setting1, setting2) rows the CLI should emit, setting1 as the outer loop."""
    def values(axis):
        start, stop, count = axis["start"], axis["stop"], axis["count"]
        return [start + (stop - start) * i / (count - 1) for i in range(count)]
    settings = data["settings"]
    return [(x1, x2) for x1 in values(settings["setting1"]) for x2 in values(settings["setting2"])]
