"""The two workloads: forum set-up and the real-clock load phases.

Both drive :class:`RecommendationService` over :class:`ServingCore`
on a plain asyncio loop with ``ServiceConfig(cost=None)`` and the
production defaults otherwise: dense retrieval, one process, prediction
cache off, default admission bounds and micro-batch policy.

* ``read_burst`` — open loop.  Fresh askers' questions (bodies resampled
  from history) plus one answered-thread event per ten queries arrive on
  a bursty seeded schedule at a fixed mean rate.  Each request is timed
  from the instant it was due, not from when the sender got to it.
* ``replay_mixed`` — closed loop, one client.  The held-out tail of a
  larger forum is replayed in time order: each thread is routed as a
  question, then submitted as its answered event.
"""

from __future__ import annotations

import asyncio
import gc
import time
from dataclasses import dataclass, replace

import numpy as np

from repro.core import PredictorConfig
from repro.core.online import OnlineConfig
from repro.core.serving import (
    RecommendationService,
    ServiceConfig,
    ServingCore,
)
from repro.forum import ForumConfig, generate_forum
from repro.forum.dataset import ForumDataset
from repro.forum.models import Thread
from repro.forum.traffic import TrafficConfig, generate_traffic

from tracing import TimedSelector


@dataclass(frozen=True)
class Size:
    """Forum and load shape of one workload at one size."""

    forum: ForumConfig
    predictor: PredictorConfig
    # read_burst: mean query arrivals per second of the schedule.
    # replay_mixed: held-out threads replayed per second of --seconds.
    rate: float
    # read_burst only: arrival bursts per second of the schedule.
    bursts_per_s: float = 0.0
    # Seed of the forum; None draws the forum from the run's seed too.
    forum_seed: int | None = None


# Production predictor; the small size trains shorter so the smoke run
# stays quick.
PRODUCTION = PredictorConfig()
SHORT = PredictorConfig(vote_epochs=40, timing_epochs=40, warm_epochs=10)

# read_burst serves one fixed forum (the seed draws its traffic), which
# ends mid-way between two refit grid points (every 120 h from hour
# 120), so 0.01 forum-hours per second of traffic never reaches a refit.
SIZES = {
    ("read_burst", "full"): Size(
        ForumConfig(
            n_users=700, n_questions=700, activity_tail=1.4,
            duration_days=17.5,
        ),
        PRODUCTION,
        rate=30.0,
        bursts_per_s=6.0,
        forum_seed=0,
    ),
    ("read_burst", "small"): Size(
        ForumConfig(
            n_users=300, n_questions=300, activity_tail=1.4,
            duration_days=17.5,
        ),
        SHORT,
        rate=40.0,
        bursts_per_s=4.0,
        forum_seed=0,
    ),
    ("replay_mixed", "full"): Size(
        ForumConfig(
            n_users=2000, n_questions=2850, activity_tail=1.4,
            duration_days=19.0,
        ),
        PRODUCTION,
        rate=26.0,
    ),
    ("replay_mixed", "small"): Size(
        ForumConfig(
            n_users=400, n_questions=500, activity_tail=1.4,
            duration_days=15.0,
        ),
        SHORT,
        rate=40.0,
    ),
}

# replay_mixed warms on the threads before this forum hour: past the
# first refit grid point (hour 120), so the service is warmed by one
# refit and the replay crosses the next grid points.
REPLAY_CUT_HOURS = 132.0
EVENTS_PER_QUERY = 0.1
BURST_FRACTION = 0.5
BURST_WIDTH_S = 0.01
# Forum seeds drawn from the run's seed are offset from the traffic seed.
FORUM_SEED_OFFSET = 1_000_003


@dataclass
class Setup:
    """A warmed service plus the inputs of its load phase."""

    service: RecommendationService
    history: ForumDataset
    held_out: list[Thread]
    generate_s: float
    warm_s: float

    @property
    def setup_s(self) -> float:
        return self.generate_s + self.warm_s


def build(workload: str, size: Size, seed: int, seconds: float) -> Setup:
    """Generate and preprocess the forum, then warm a fresh service."""
    started = time.perf_counter()
    forum_seed = size.forum_seed
    if forum_seed is None:
        forum_seed = FORUM_SEED_OFFSET + seed
    forum = generate_forum(size.forum, seed=forum_seed)
    dataset, _ = forum.dataset.preprocess()
    threads = sorted(dataset, key=lambda t: t.created_at)
    held_out: list[Thread] = []
    if workload == "replay_mixed":
        # Warm on the history up to just past the first refit grid
        # point, then replay the threads that follow it.
        n_held = int(round(size.rate * seconds))
        n_history = sum(t.created_at < REPLAY_CUT_HOURS for t in threads)
        if n_history + n_held > len(threads):
            raise ValueError(
                f"--seconds {seconds} asks for {n_held} replayed threads; "
                f"the forum has {len(threads) - n_history} after the cut"
            )
        threads, held_out = (
            threads[:n_history], threads[n_history : n_history + n_held]
        )
    generated = time.perf_counter()
    core = ServingCore(size.predictor, OnlineConfig())
    service = RecommendationService(core, ServiceConfig(cost=None))
    history = ForumDataset(threads)
    service.warm(history)
    warmed = time.perf_counter()
    if not core.warmed:
        raise RuntimeError("the forum was too small to warm the service")
    return Setup(
        service, history, held_out, generated - started, warmed - generated
    )


@dataclass
class Outcome:
    """One request as the client saw it."""

    kind: str  # "query" | "event"
    thread: Thread  # the thread asked about, with its real answers
    due: float  # loop time the request was due
    sent: float  # loop time the client issued it
    done: float  # loop time the response arrived
    response: object
    candidates: int = 0  # replay_mixed: candidate count when routed
    answerers: int = 0  # replay_mixed: real answerers among them


@dataclass
class LoadResult:
    outcomes: list[Outcome]
    wall_s: float  # load-phase wall time, speed probes excluded
    cpu_s: float  # load-phase CPU time, speed probes excluded
    window: tuple[float, float]  # perf_counter span of the load phase
    metrics: dict  # service.metrics() after the run
    # Slowdown against the probe's reference speed (1.0 without a probe).
    speed_factor: float = 1.0


def burst_train(
    rng: np.random.Generator, n: int, seconds: float, n_bursts: int
) -> np.ndarray:
    """``n`` sorted arrival offsets in ``[0, seconds)``.

    A share ``BURST_FRACTION`` of the arrivals falls in ``n_bursts``
    equal bursts, one per slot of ``seconds / n_bursts``, each centred
    at a jittered point of its slot with a Laplace spread of
    ``BURST_WIDTH_S``; the rest arrive uniformly.  Bursts never spill
    into a neighbour's slot, so every run carries the same burst sizes
    and the tail reflects one burst's backlog, not a chance pile-up.
    """
    period = seconds / n_bursts
    n_burst = int(round(BURST_FRACTION * n))
    centres = (np.arange(n_bursts) + 0.5) * period + rng.uniform(
        -period / 4, period / 4, n_bursts
    )
    spread = np.clip(
        rng.laplace(0.0, BURST_WIDTH_S, n_burst), -period / 4, period / 4
    )
    times = np.concatenate(
        [
            centres[np.arange(n_burst) % n_bursts] + spread,
            rng.uniform(0.0, seconds, n - n_burst),
        ]
    )
    return np.sort(np.clip(times, 0.0, np.nextafter(seconds, 0.0)))


def read_burst_schedule(setup: Setup, size: Size, seed: int, seconds: float):
    """The seeded open-loop schedule.

    :func:`generate_traffic` draws the requests (fresh askers, bodies
    resampled from history, answered-thread events); the arrival times
    are then redrawn from :func:`burst_train`, keeping the requests'
    order so their forum timestamps stay monotone.

    The traffic generator draws an event's answerers independently of
    its asker, so an event can carry an answer by the asker itself,
    which the stream guard then has to repair.  Those answer posts are
    dropped here (and an event left with no answer is dropped), so every
    event is clean on arrival.
    """
    n_queries = int(round(size.rate * seconds))
    schedule = generate_traffic(
        setup.history,
        TrafficConfig(
            n_askers=n_queries,
            n_events=int(round(n_queries * EVENTS_PER_QUERY)),
            duration_s=float(seconds),
            n_bursts=0,
            seed=seed,
        ),
    )
    clean = []
    for request in schedule:
        thread = request.thread
        if request.kind == "event":
            answers = [a for a in thread.answers if a.author != thread.asker]
            if not answers:
                continue
            if len(answers) != len(thread.answers):
                request = replace(
                    request, thread=Thread(thread.question, answers)
                )
        clean.append(request)
    arrivals = burst_train(
        np.random.default_rng([seed, 1]),
        len(clean),
        float(seconds),
        max(1, int(round(size.bursts_per_s * seconds))),
    )
    return [
        replace(request, arrival_s=float(t))
        for request, t in zip(clean, arrivals)
    ]


def _run(main, outcomes, service, tracer=None, probe=None,
         in_series=False) -> LoadResult:
    """Run ``main()`` on a fresh loop and time it.

    A full collection first, so every load phase starts from the same
    point of the collector's cycle instead of inheriting set-up garbage.
    The CPU time the loop spends polling for its next timer is taken out
    of the load phase's.  The speed probe, if any, runs in the loop's
    idle time, or between requests when ``main`` calls it ``in_series``;
    then its wall and CPU time are taken out too.
    """
    gc.collect()
    selector = TimedSelector(tracer, None if in_series else probe)
    loop = asyncio.SelectorEventLoop(selector)
    first = len(probe.times) if probe else 0
    probe_wall = probe.wall_s if probe else 0.0
    probe_cpu = probe.cpu_s if probe else 0.0
    try:
        cpu0 = time.process_time()
        begin = time.perf_counter()
        loop.run_until_complete(main())
        end = time.perf_counter()
        cpu = time.process_time() - cpu0 - selector.idle_cpu_s
    finally:
        loop.close()
    wall = end - begin
    factor = 1.0
    if probe:
        if in_series:
            wall -= probe.wall_s - probe_wall
            cpu -= probe.cpu_s - probe_cpu
        factor = probe.factor(since=first)
    return LoadResult(
        outcomes, wall, cpu, (begin, end), service.metrics(), factor
    )


def run_read_burst(setup: Setup, schedule, tracer=None, probe=None
                   ) -> LoadResult:
    service = setup.service
    outcomes: list[Outcome | None] = [None] * len(schedule)

    async def fire(i, request, start):
        loop = asyncio.get_running_loop()
        due = start + request.arrival_s
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        sent = loop.time()
        if request.kind == "query":
            response = await service.route_question(request.thread)
        else:
            response = await service.submit_event(request.thread)
        outcomes[i] = Outcome(
            request.kind, request.thread, due, sent, loop.time(), response
        )

    async def main():
        loop = asyncio.get_running_loop()
        await service.start()
        try:
            start = loop.time()
            tasks = [
                loop.create_task(fire(i, request, start))
                for i, request in enumerate(schedule)
            ]
            await asyncio.gather(*tasks)
        finally:
            await service.stop()

    return _run(main, outcomes, service, tracer, probe)


def run_replay_mixed(setup: Setup, tracer=None, probe=None) -> LoadResult:
    """Replay the held-out threads; with a probe, time it after each."""
    service = setup.service
    core = service.core
    outcomes: list[Outcome] = []
    epoch, candidate_set = -1, set()

    async def main():
        nonlocal epoch, candidate_set
        loop = asyncio.get_running_loop()
        await service.start()
        try:
            for thread in setup.held_out:
                query = Thread(thread.question)
                sent = loop.time()
                response = await service.route_question(query)
                done = loop.time()
                # The candidate set changes only on a refit; read it
                # after routing, since this query may have caused one.
                if core.refit_epoch != epoch:
                    epoch = core.refit_epoch
                    candidate_set = set(core._candidates)
                n = len(candidate_set) - (thread.asker in candidate_set)
                hits = len(set(thread.answerers) & candidate_set)
                outcomes.append(
                    Outcome("query", thread, sent, sent, done, response,
                            candidates=n, answerers=hits)
                )
                sent = loop.time()
                result = await service.submit_event(thread)
                outcomes.append(
                    Outcome("event", thread, sent, sent, loop.time(), result)
                )
                if probe:
                    probe.run()
        finally:
            await service.stop()

    return _run(main, outcomes, service, tracer, probe, in_series=True)
