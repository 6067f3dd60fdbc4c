"""Output checks, each computed apart from the program.

Nothing here is compared with a stored copy of earlier output: every
check is either recomputed independently (the LP optimum by
``scipy.optimize.linprog``, the refit count from the schedule's
timestamps, the chance rate of hit@5 analytically) or is a property the
method must have (a routing distribution sums to 1).
"""

from __future__ import annotations

from math import comb

import numpy as np
from scipy.optimize import linprog


class LpSampler:
    """Keeps the inputs and output of every ``every``-th LP solve.

    Installed around ``repro.core.routing.solve_routing_lp`` in every
    run, traced or not; it copies three small arrays on one call in
    ``every`` and does nothing else.
    """

    def __init__(self, every: int = 20):
        self.every = every
        self.calls = 0
        self.samples: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._undo = None

    def install(self) -> "LpSampler":
        from repro.core import routing

        original = routing.solve_routing_lp

        def wrapper(scores, capacities):
            result = original(scores, capacities)
            if self.calls % self.every == 0:
                self.samples.append(
                    (np.array(scores, dtype=float),
                     np.array(capacities, dtype=float),
                     np.array(result))
                )
            self.calls += 1
            return result

        routing.solve_routing_lp = wrapper
        self._undo = (routing, original)
        return self

    def remove(self) -> None:
        if self._undo is not None:
            module, original = self._undo
            module.solve_routing_lp = original
            self._undo = None


def check_lp(samples) -> list[str]:
    """The program's LP objective equals linprog's optimum."""
    errors = []
    if not samples:
        return ["no routing LP call was sampled"]
    for scores, caps, p in samples:
        caps = np.clip(caps, 0.0, None)
        res = linprog(
            -scores,
            A_eq=np.ones((1, scores.size)),
            b_eq=[1.0],
            bounds=list(zip(np.zeros(scores.size), caps)),
            method="highs",
        )
        if res.status != 0:
            errors.append(f"linprog failed on a sampled LP: {res.message}")
            continue
        optimum = -res.fun
        objective = float(scores @ p)
        tol = 1e-7 * max(1.0, abs(optimum))
        if abs(objective - optimum) > tol:
            errors.append(
                f"LP objective {objective!r} differs from linprog's "
                f"optimum {optimum!r}"
            )
        if (p < -1e-12).any() or (p > caps + 1e-9).any():
            errors.append("LP solution leaves its bounds")
        if abs(p.sum() - 1.0) > 1e-9:
            errors.append(f"LP solution sums to {p.sum()!r}")
    return errors


def check_query(response, thread, top_k: int) -> list[str]:
    """Shape of one successful routing response."""
    errors = []
    probabilities = np.array([p for _, p in response.routed])
    if probabilities.size == 0:
        errors.append(f"question {thread.thread_id}: empty routing")
    elif (probabilities < 0).any() or abs(probabilities.sum() - 1.0) > 1e-9:
        errors.append(
            f"question {thread.thread_id}: routing sums to "
            f"{probabilities.sum()!r}"
        )
    ranked = response.ranked
    if len(ranked) != top_k or len(set(ranked)) != top_k:
        errors.append(
            f"question {thread.thread_id}: ranked list {ranked} is not "
            f"{top_k} distinct users"
        )
    routed = {u for u, _ in response.routed}
    if thread.asker in ranked or thread.asker in routed:
        errors.append(f"question {thread.thread_id}: asker recommended")
    return errors


def expected_refits(
    next_refit: float, interval: float, times
) -> int:
    """Refits the fixed grid owes a stream of request timestamps.

    A refit runs when a request reaches the next grid point; the grid
    then advances past that request, skipping any points a gap jumped.
    """
    count = 0
    for t in times:
        if t >= next_refit:
            count += 1
            while next_refit <= t:
                next_refit += interval
    return count


def first_grid_point_after(history_times, warmup: float, interval: float):
    """The grid point the first request after the warm-up history faces."""
    point = warmup
    last = max(history_times)
    while point <= last:
        point += interval
    return point


def chance_hit_rate(n_candidates: int, n_answerers: int, k: int) -> float:
    """P(a uniform random k-subset of candidates holds an answerer)."""
    if n_candidates <= 0 or n_answerers <= 0:
        return 0.0
    if n_candidates <= k:
        return 1.0
    return 1.0 - comb(n_candidates - n_answerers, k) / comb(n_candidates, k)
