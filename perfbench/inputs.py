"""Seed -> every benchmark input.

The program under test only ever sees what these functions generate:
SPICE netlist text and the dataset bundle.  The same seed always gives
the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuits.generators.chip import (
    TEST_RECIPES,
    TRAIN_RECIPES,
    build_dataset,
    compose_chip,
)
from repro.circuits.spice import write_spice
from repro.data.dataset import build_bundle
from repro.data.targets import ALL_TARGETS
from repro.graph.builder import build_graph

#: Dataset scale of the training bundle.
BUNDLE_SCALE = 0.35
#: Training-split node count a seed's bundle lands within 1.5% of (the
#: mean over bundle seeds; a step's cost follows it, and bundle seeds
#: alone spread it by 5%)
BUNDLE_TRAIN_NODES = 1970
BUNDLE_TOLERANCE = 0.015
BUNDLE_TRIES = 32
#: A composed circuit must land within this share of its size target, so
#: every seed's inputs cost about the same: the seed changes devices,
#: parameters and wiring, not how much work a circuit is.
SIZE_TOLERANCE = 0.05
#: compose seeds tried per circuit before the closest one is taken
SIZE_TRIES = 8
#: serve_hot: (recipe, node target, scale range) of the 4 composed
#: circuits.  A small forward's cost follows its live edge-type count (the
#: conv loops over edge types), which is fixed per recipe, so each slot
#: keeps its recipe and the seed draws the scale and composition.
HOT_SLOTS = (
    ("t3", 90, (0.05, 0.45)),   # 18 edge types
    ("t16", 150, (0.05, 0.6)),  # 6
    ("t7", 210, (0.8, 1.2)),    # 18
    ("t10", 270, (0.4, 0.8)),   # 6
)
#: draws per slot before the closest is taken
HOT_DRAWS = 64
#: serve_cold: per recipe, one circuit at each scale; sizes match the
#: seed-0 composition (independent scale draws moved a pool's total size,
#: and throughput with it, by 10% between seeds)
COLD_SCALES = (0.6, 2.0)
#: serve_cold request size; the pool is cut into this many size strata
COLD_ITEMS = 8
ALL_RECIPES = TRAIN_RECIPES + TEST_RECIPES
TARGET_NAMES = tuple(spec.name for spec in ALL_TARGETS)


@dataclass(frozen=True)
class Netlist:
    """One circuit as the client sends it."""

    name: str
    text: str
    nodes: int
    edge_types: int


def bundle_seed(seed: int) -> int:
    """The first of the seed's candidate bundle seeds whose training split
    has about :data:`BUNDLE_TRAIN_NODES` nodes (the closest if none has)."""
    best, best_gap = None, None
    for candidate in range(seed * BUNDLE_TRIES, (seed + 1) * BUNDLE_TRIES):
        train, _ = build_dataset(seed=candidate, scale=BUNDLE_SCALE)
        gap = abs(sum(build_graph(c).num_nodes for c in train.values()) - BUNDLE_TRAIN_NODES)
        if best is None or gap < best_gap:
            best, best_gap = candidate, gap
        if gap <= BUNDLE_TOLERANCE * BUNDLE_TRAIN_NODES:
            break
    return best


def bundle(seed: int):
    """The seed's dataset bundle (train split size-matched)."""
    return build_bundle(seed=bundle_seed(seed), scale=BUNDLE_SCALE)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _netlist(name: str, circuit) -> Netlist:
    graph = build_graph(circuit)
    live = sum(1 for src, _ in graph.edges.values() if len(src))
    return Netlist(name, write_spice(circuit), graph.num_nodes, live)


def _nodes(recipe, seed: int, scale: float) -> int:
    return build_graph(compose_chip(recipe, seed=seed, scale=scale).circuit).num_nodes


def sized(name: str, target: int, candidates) -> Netlist:
    """The first ``(recipe, compose seed, scale)`` candidate that lands
    within :data:`SIZE_TOLERANCE` of *target* nodes (else the closest)."""
    best = None
    for recipe, seed, scale in candidates:
        item = _netlist(name, compose_chip(recipe, seed=seed, scale=scale).circuit)
        if best is None or abs(item.nodes - target) < abs(best.nodes - target):
            best = item
        if abs(item.nodes - target) <= SIZE_TOLERANCE * target:
            break
    return best


def hot_working_set(seed: int) -> list[Netlist]:
    """e1-e4 at the bundle scale plus 4 composed circuits of 90-270 nodes.

    e1-e4 match the size of their seed-0 composition; the composed four
    keep their recipe and draw scale and composition from the seed.
    """
    working = [
        sized(
            f"hot-{recipe.name}",
            _nodes(recipe, 0, BUNDLE_SCALE),
            ((recipe, seed * 7919 + 100 * index + j, BUNDLE_SCALE) for j in range(SIZE_TRIES)),
        )
        for index, recipe in enumerate(TEST_RECIPES)
    ]
    rng = _rng(seed, 1)
    recipes = {recipe.name: recipe for recipe in ALL_RECIPES}
    for slot, (name, nodes, (low, high)) in enumerate(HOT_SLOTS):
        candidates = (
            (recipes[name], seed * 7919 + 1000 * (slot + 1) + draw, float(rng.uniform(low, high)))
            for draw in range(HOT_DRAWS)
        )
        working.append(sized(f"hot-{nodes}-{name}", nodes, candidates))
    return working


def cold_pool(seed: int) -> list[list[Netlist]]:
    """Two circuits per recipe, one at each of :data:`COLD_SCALES`, in
    :data:`COLD_ITEMS` size strata (smallest first, shuffled within).

    Request *i* of serve_cold takes its *k*-th circuit from stratum *k*,
    so every request carries the same mix of sizes.  Each circuit is sent
    under a name never used before, a new content hash to the server.
    """
    rng = _rng(seed, 2)
    pool = []
    for copy, scale in enumerate(COLD_SCALES):
        for index, recipe in enumerate(ALL_RECIPES):
            salt = seed * 104729 + copy * 1000 + index * SIZE_TRIES
            pool.append(
                sized(
                    f"{recipe.name}-{copy}",
                    _nodes(recipe, 0, scale),
                    ((recipe, salt + j, scale) for j in range(SIZE_TRIES)),
                )
            )
    pool.sort(key=lambda item: (item.nodes, item.name))
    strata = [list(chunk) for chunk in np.array_split(np.array(pool, dtype=object), COLD_ITEMS)]
    for stratum in strata:
        rng.shuffle(stratum)
    return strata
