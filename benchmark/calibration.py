"""Host-speed probe: a fixed piece of pure-Python work, timed between samples.

The machines this benchmark runs on are shared, and the speed of the same
code drifts by a quarter or more over tens of seconds as neighbours load the
host; the drift moves this probe and the simulator alike. Dividing a sample by
the probe time measured next to it, and multiplying by REFERENCE_S, states
every timing in seconds at one fixed host speed.

The probe mimics the simulator's mix of work (small objects, attribute
access, tuple-keyed dicts, list sorts, float arithmetic) and never calls
jointlane code, so a change to the simulator cannot change the yardstick.
Do not edit it: the figures of every commit are comparable only while the
probe stays the same.
"""

from __future__ import annotations

import bisect
import statistics
import time

#: the fixed host speed timings are stated at: a round figure near the probe
#: time on the machine the baseline was taken on (see README.md)
REFERENCE_S = 0.0010
#: probe runs per measurement; the median of them is the probe time
REPEATS = 3


class _Car:
    __slots__ = ("lane", "pos", "speed")

    def __init__(self, lane: int, pos: float, speed: float):
        self.lane = lane
        self.pos = pos
        self.speed = speed


def _work() -> float:
    cars = [_Car(i % 2, float(i * 7 % 101), 5.0 + i % 3) for i in range(120)]
    queues: dict[tuple[int, int], list[_Car]] = {}
    total = 0.0
    for tick in range(12):
        queues.clear()
        for car in cars:
            queues.setdefault((car.lane, int(car.pos) // 25), []).append(car)
        for key in sorted(queues):
            queue = queues[key]
            queue.sort(key=lambda c: -c.pos)
            limit = None
            for car in queue:
                target = car.pos + car.speed * (1.0 - len(queue) / 40.0)
                if limit is not None and target > limit:
                    target = limit
                car.pos = target % 100.0
                limit = car.pos
                total += target
    return total


def probe() -> float:
    """Seconds the fixed work takes right now (median of REPEATS runs)."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Timeline:
    """Probes taken along a run, used to scale the intervals between them.

    An interval is scaled by REFERENCE_S over the mean of the two probes
    around its midpoint (the nearest one at either end of the timeline).
    """

    def __init__(self):
        self.times: list[float] = []
        self.probes: list[float] = []

    def probe(self):
        self.times.append(time.perf_counter())
        self.probes.append(probe())

    def scaled(self, start: float, end: float) -> float:
        i = bisect.bisect(self.times, (start + end) / 2)
        around = self.probes[max(i - 1, 0) : i + 1]
        return (end - start) * REFERENCE_S * len(around) / sum(around)
