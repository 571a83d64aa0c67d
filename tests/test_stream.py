"""The standard-library PCG64 stream against numpy, which is the oracle.

`jointlane.stream` must give numpy's exponential draws bit for bit, because
every pinned report digest was made from numpy's stream.
"""

import itertools
import struct
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from jointlane import stream
from jointlane.engine import generate_arrivals
from jointlane.scenario import load_scenario, resolve_scenario

#: (entropy, scale): sub 0, seeds and subs wider than 32 bits, and rates from
#: 5e-4 to 40 veh/s
PAIRS = [
    ((1, 0), 1.0 / 0.022),
    ((42, 3), 1.0 / 0.2),
    ((2**40 + 7, 0), 1.0 / 5e-4),
    ((0, 2**33 + 1), 1.0 / 40.0),
    ((7, 2**64 + 5), 1.0),
]

#: draws per pair: 10**6 over the five pairs
DRAWS = 200_000


def numpy_generator(entropy):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


@pytest.mark.parametrize("entropy", [
    (0,), (1, 0), (2**32, 1), (2**64 + 5, 2**40, 7), tuple(range(9)),
])
def test_seeded_state_matches_numpy(entropy):
    # nine words run SeedSequence's loop over entropy past the 4-word pool
    rng = stream.PCG64Stream(entropy)
    state = numpy_generator(entropy).bit_generator.state["state"]
    assert (rng.state, rng.inc) == (state["state"], state["inc"])


def test_negative_entropy_is_rejected_as_numpy_does():
    with pytest.raises(ValueError):
        np.random.SeedSequence((1, -1))
    with pytest.raises(ValueError):
        stream.PCG64Stream((1, -1))


@pytest.mark.parametrize("entropy, scale", PAIRS)
def test_exponential_draws_match_numpy(entropy, scale):
    rng = stream.PCG64Stream(entropy)
    draws = [rng.exponential(scale) for _ in range(DRAWS)]
    assert draws == numpy_generator(entropy).exponential(scale, DRAWS).tolist()


def test_every_strip_and_both_slow_paths_are_drawn():
    # the draws compared above for PAIRS[0]; a shadow stream reads each
    # draw's first word, whose bits 3-10 pick the strip, and the draw took a
    # slow path when it read a further word
    entropy = PAIRS[0][0]
    rng = stream.PCG64Stream(entropy)
    shadow = stream.PCG64Stream(entropy)
    strips = Counter()
    slow = Counter()
    for _ in range(DRAWS):
        idx = shadow.next64() >> 3 & 0xFF
        rng.standard_exponential()
        strips[idx] += 1
        if shadow.state != rng.state:
            slow["tail" if idx == 0 else "wedge"] += 1
            shadow.state = rng.state
    assert sorted(strips) == list(range(256))
    assert slow["tail"] > 0 and slow["wedge"] > 0


def test_ziggurat_tables_are_numpy_bytes():
    # each table occurs whole in numpy's binary; searched for one at a time,
    # since another numpy build may lay the three out in another order
    random_dir = Path(np.random.__file__).parent
    (binary,) = [p for p in random_dir.glob("_generator*")
                 if p.suffix in (".so", ".pyd")]
    data = binary.read_bytes()
    assert struct.pack("<256Q", *stream._KE) in data
    assert struct.pack("<256d", *stream._WE) in data
    assert struct.pack("<256d", *stream._FE) in data
    assert stream._WE[-1] == stream._ZIGGURAT_EXP_R / 2**53


def numpy_arrivals(entries, seed, until):
    """`generate_arrivals` as it read while it drew from numpy."""
    out = []
    counter = itertools.count()
    for idx, entry in enumerate(entries):
        if entry.times is not None:
            out.extend((float(ts), next(counter), entry) for ts in entry.times if 0 <= ts < until)
            continue
        if entry.rate == 0:
            continue
        sub = entry.seed if entry.seed is not None else idx
        rng = numpy_generator((seed, sub))
        t = rng.exponential(1.0 / entry.rate)
        while t < until:
            out.append((float(t), next(counter), entry))
            t += rng.exponential(1.0 / entry.rate)
    out.sort(key=lambda item: (item[0], item[1]))
    return out


@pytest.mark.parametrize("name", ["desk_small", "desk_large"])
def test_bundled_arrivals_match_numpy(name):
    scenario = load_scenario(resolve_scenario(name))
    horizon = scenario.meta["horizon"]
    for seed in (1, 2, 3, 4, 5):
        arrivals = generate_arrivals(scenario.demand, seed, horizon)
        assert arrivals == numpy_arrivals(scenario.demand, seed, horizon)
        assert len(arrivals) > 0
