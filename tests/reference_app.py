"""A plain-Python reference model of one app-arm run.

Written from the module docstrings of `proxtrace.sim`, `proxtrace.tracing`
and `proxtrace.protocol`, not from `sim.step`: every rule below is
implemented the slow, obvious way, so a test can hold the engine to it on
small random configurations.  It shares only the randomness contract with
the engine: `_day_rng` with the stream constants, and `_pair_uniforms`.

The rules, one day at a time:
- an agent is isolated on a day its quarantine window [start, end) covers;
- every agent draws a position, and only free agents take it;
- pairs are all free pairs i < j within Bluetooth range (an O(n^2) check),
  and each pair is one mutual contact on both agents' lists for that day;
- a pair within the infection radius with one infectious and one
  susceptible agent transmits when its pair uniform is below the
  infection probability; infections land after the whole pair sweep;
- an agent infected on day t reports on day t + onset delay + quarantine
  start delay; the report quarantines the reporter and everyone its trace
  finds: each peer it met two days ago, plus each such peer's peers today;
- a quarantine runs from the report day + 1 for `quarantine_days` days, a
  zero-day policy isolates nobody, and the window ending later wins;
- infectious agents recover `infectious_period` days after infection;
- the day's quarantined count is read after the reports.
The run stops after `max_days` days or after a day that leaves nobody
infectious.
"""

from __future__ import annotations

import math

import numpy as np

from proxtrace.sim import _INIT_STREAM, _MOVE_STREAM, DayStats, SimConfig, _day_rng, _pair_uniforms

SUSCEPTIBLE, INFECTIOUS, RECOVERED = "S", "I", "R"

# Days between a contact with the index case and the day its trace runs.
LOOKBACK_DAYS = 2


def reference_run(config: SimConfig) -> tuple[list[DayStats], list[tuple[int, int] | None]]:
    """The app arm's per-day stats and each agent's final quarantine window."""
    n = config.population
    rng = _day_rng(config.seed, _INIT_STREAM, 0)
    positions = [tuple(point) for point in rng.uniform(0.0, config.side, size=(n, 2)).tolist()]
    stage = [SUSCEPTIBLE] * n
    infected_on: list[int | None] = [None] * n
    for agent in rng.choice(n, size=config.initial_infected, replace=False).tolist():
        stage[agent] = INFECTIOUS
        infected_on[agent] = 0
    # contacts[agent][day] is the set of agents it met that day
    contacts: list[dict[int, set[int]]] = [{} for _ in range(n)]
    window: list[tuple[int, int] | None] = [None] * n

    def isolated(agent: int, day: int) -> bool:
        span = window[agent]
        return span is not None and span[0] <= day < span[1]

    def quarantine(agent: int, day: int) -> None:
        if config.quarantine_days == 0:
            return
        new = (day + 1, day + 1 + config.quarantine_days)
        old = window[agent]
        if old is None or old[1] < new[1]:
            window[agent] = new

    stats: list[DayStats] = []
    for day in range(config.max_days):
        free = [not isolated(agent, day) for agent in range(n)]
        proposed = _day_rng(config.seed, _MOVE_STREAM, day).uniform(0.0, config.side, size=(n, 2))
        for agent in range(n):
            if free[agent]:
                positions[agent] = (float(proposed[agent, 0]), float(proposed[agent, 1]))

        pairs = []
        for i in range(n):
            for j in range(i + 1, n):
                if free[i] and free[j]:
                    dx = positions[i][0] - positions[j][0]
                    dy = positions[i][1] - positions[j][1]
                    distance = math.hypot(dx, dy)
                    if distance <= config.bluetooth_range:
                        pairs.append((i, j, distance))
        for i, j, _ in pairs:
            contacts[i].setdefault(day, set()).add(j)
            contacts[j].setdefault(day, set()).add(i)

        newly_infected = set()
        if pairs:
            uniforms = _pair_uniforms(
                config.seed, day,
                np.array([i for i, _, _ in pairs]), np.array([j for _, j, _ in pairs]),
            ).tolist()
            for (i, j, distance), u in zip(pairs, uniforms):
                if distance > config.infection_radius or u >= config.infection_probability:
                    continue
                if stage[i] == INFECTIOUS and stage[j] == SUSCEPTIBLE:
                    newly_infected.add(j)
                elif stage[j] == INFECTIOUS and stage[i] == SUSCEPTIBLE:
                    newly_infected.add(i)
        for agent in newly_infected:
            stage[agent] = INFECTIOUS
            infected_on[agent] = day

        lag = config.symptom_onset_delay + config.quarantine_start_delay
        for reporter in range(n):
            if infected_on[reporter] is None or infected_on[reporter] + lag != day:
                continue
            quarantine(reporter, day)
            for peer in contacts[reporter].get(day - LOOKBACK_DAYS, set()):
                quarantine(peer, day)
                for co_contact in contacts[peer].get(day, set()):
                    quarantine(co_contact, day)

        for agent in range(n):
            if stage[agent] == INFECTIOUS and day - infected_on[agent] >= config.infectious_period:
                stage[agent] = RECOVERED

        stats.append(DayStats(
            day=day,
            new_infections=len(newly_infected),
            cumulative_infections=sum(1 for s in stage if s != SUSCEPTIBLE),
            quarantined_count=sum(1 for agent in range(n) if isolated(agent, day)),
            susceptible_count=stage.count(SUSCEPTIBLE),
        ))
        if INFECTIOUS not in stage:
            break
    return stats, window
