"""Seeded inputs of the three benchmark workloads.

Everything here is plain Python: the seed picks frames (each game has
``FRAMES_PER_GAME``) and the request order, and nothing else. The
number of jobs a workload plans per round never depends on the seed,
so two seeds differ in *which* frames run, not in how much work is
planned.

Frames along a game's camera path cost about the same as their
neighbours, and frames at different places on it cost up to 1.6x as
much as each other. So ``sweep-warm`` and ``capture-cold`` sample each
game's path at two frames half a path apart, and the seed picks the
offset: any two seeds then plan nearly the same amount of work, where
two frames picked at random per game moved a sweep's cost by 11%
(quartile spread over all draws). ``serve-mixed`` serves the same
frames (offset 0) at every seed, and its seed picks the request order
and the unseen thresholds: the server keeps every frame it serves in
memory, and its peak RSS moved by 20% between frame sets.

Design points are ``(workload, frame, scenario, threshold)`` tuples;
the runner turns them into ``repro.engine.jobs.EvalJob`` values.
"""

from __future__ import annotations

import random

#: The ROADMAP's baseline render scale.
SCALE = 0.25
DOOM3 = "doom3-1280x1024"
STAL = "stal-1280x1024"
GAMES = (DOOM3, STAL)
FRAMES_PER_GAME = 8
#: Frames each workload takes from each game, evenly spaced on its path.
FRAMES_PER_WORKLOAD = 2
DEFAULT_SEED = 0

#: The paper's default PATU threshold (the popular serve request).
DEFAULT_THRESHOLD = 0.4
#: Fig. 17 thresholds 0.0, 0.1, ..., 1.0 (the same list as
#: ``repro.experiments.fig17_threshold.THRESHOLDS``).
FIG17_THRESHOLDS = tuple(round(0.1 * i, 1) for i in range(11))

WORKLOADS = ("sweep-warm", "capture-cold", "serve-mixed")

#: Serve requests come in blocks of five: four repeat the popular set,
#: one asks for an unseen threshold.
BLOCK = 5
#: Serve requests per cycle: every cycle asks for the same mix (each
#: popular point equally often, two unseen points per filled frame, one
#: with a threshold below 0.5 and one above), so equal cycles carry
#: nearly equal work and the throughput of each can be compared.
CYCLE = 40


def _shuffled(rng: random.Random, items: list) -> list:
    """Fisher-Yates on ``random()`` alone (stable across Python versions)."""
    items = list(items)
    for i in range(len(items) - 1, 0, -1):
        j = int(rng.random() * (i + 1))
        items[i], items[j] = items[j], items[i]
    return items


def frames_for(workload: str, seed: int) -> "list[tuple[str, int]]":
    """The seed's ``(game, frame)`` list, games interleaved.

    Each game contributes ``FRAMES_PER_WORKLOAD`` frames spaced evenly
    along its camera path, starting at a seeded offset (at 0 for
    ``serve-mixed``).
    """
    rng = random.Random(f"{workload}:{seed}")
    step = FRAMES_PER_GAME // FRAMES_PER_WORKLOAD
    per_game = []
    for game in GAMES:
        offset = 0 if workload == "serve-mixed" else int(rng.random() * step)
        per_game.append([(game, offset + i * step)
                         for i in range(FRAMES_PER_WORKLOAD)])
    return [pair for frames in zip(*per_game) for pair in frames]


def sweep_points(game: str, frame: int) -> "list[tuple[str, int, str, float]]":
    """One Fig. 17 sweep: the baseline, then PATU at each threshold."""
    points = [(game, frame, "baseline", 1.0)]
    points += [(game, frame, "patu", t) for t in FIG17_THRESHOLDS]
    return points


def sweep_rounds(seed: int) -> "list[list[tuple[str, int, str, float]]]":
    """``sweep-warm``: one round per frame, 12 design points each."""
    return [sweep_points(g, f) for g, f in frames_for("sweep-warm", seed)]


def capture_round(seed: int) -> "list[tuple[str, int]]":
    """``capture-cold``: the frames one round captures into an empty store."""
    return frames_for("capture-cold", seed)


def popular_points(seed: int) -> "list[tuple[str, int, str, float]]":
    """``serve-mixed``: baseline and PATU at 0.4 on every filled frame."""
    points = []
    for game, frame in frames_for("serve-mixed", seed):
        points.append((game, frame, "baseline", 1.0))
        points.append((game, frame, "patu", DEFAULT_THRESHOLD))
    return points


def serve_requests(seed: int):
    """Endless seeded ``serve-mixed`` request order, in cycles.

    A cycle of ``CYCLE`` requests holds one unseen design point in each
    block of ``BLOCK``, at a seeded position; the rest repeat the
    popular points, each equally often. Every filled frame gets two
    unseen points per cycle, one with a threshold in each half of
    [0, 1), drawn from stratified eighths, so seeds change the order and
    the exact thresholds but hardly the amount of work in a cycle.
    """
    rng = random.Random(f"serve-mixed-requests:{seed}")
    frames = frames_for("serve-mixed", seed)
    popular = popular_points(seed)
    unseen_per_cycle = CYCLE // BLOCK
    used = {DEFAULT_THRESHOLD}
    while True:
        low, high = _shuffled(rng, range(4)), _shuffled(rng, range(4, 8))
        unseen = []
        for (game, frame), lo, hi in zip(_shuffled(rng, frames), low, high):
            for stratum in (lo, hi):
                threshold = DEFAULT_THRESHOLD
                while threshold in used:
                    threshold = round((stratum + rng.random()) / 8, 6)
                used.add(threshold)
                unseen.append((game, frame, "patu", threshold))
        unseen = _shuffled(rng, unseen)
        repeats = _shuffled(
            rng, popular * ((CYCLE - unseen_per_cycle) // len(popular)))
        for block in range(unseen_per_cycle):
            slot = int(rng.random() * BLOCK)
            for position in range(BLOCK):
                yield unseen[block] if position == slot else repeats.pop()


def point_key(point: "tuple[str, int, str, float]") -> str:
    """Stable text key of one design point (pin-file key)."""
    game, frame, scenario, threshold = point
    return f"{game}|f{frame}|{scenario}|{threshold!r}"


def capture_key(game: str, frame: int) -> str:
    return f"{game}|f{frame}|capture"
