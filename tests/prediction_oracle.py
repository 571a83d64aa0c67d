"""Per-query forms of the predictor's quantities, for the tests.

The simulator computes every projected entry time, bus window and overlap in
one pass per snapshot (`jointlane.prediction.build_snapshot` and
`build_bus_windows`). These functions answer one (vehicle, segment) query at a
time from the same projection, so the tests can check the paper's
definitions on hand-built cases: a vehicle's constant-speed entry time into a
segment, the entry indicator over one control interval, a bus's predicted
entry with its dwells, and the bus overlap indicator of a CAV on a protected
segment.
"""

from __future__ import annotations

from typing import Optional

from jointlane.engine import VehicleState
from jointlane.network import NetworkModel, SegmentRef
from jointlane.prediction import (
    MIN_PROJECTION_SPEED,
    PredictionSnapshot,
    _eta_at,
    _stop_distances,
    _walk_entries,
)


def entry_indicator(tau: Optional[float], dt: float) -> int:
    """1 when a vehicle is predicted to enter within the next control interval.

    The interval is half-open: tau == dt does not count.
    """
    if tau is None:
        return 0
    return 1 if 0 <= tau < dt else 0


def entry_time(model: NetworkModel, veh: VehicleState, seg: SegmentRef) -> Optional[float]:
    """Constant-speed time for the vehicle to reach the entrance of `seg`.

    None when the segment is not ahead on the projected path.
    """
    for ref, dist in _walk_entries(model, veh):
        if ref == seg:
            return dist / max(veh.speed, MIN_PROJECTION_SPEED)
    return None


def bus_eta(model: NetworkModel, veh: VehicleState, seg: SegmentRef, now: float) -> Optional[float]:
    """Predicted time for a bus to enter a segment on its remaining route.

    Constant current speed (floored) while moving; remaining free-flow times
    while dwelling, plus the residual dwell, plus one full dwell for every
    intermediate stop before the segment. The currently occupied segment gets
    an ETA of zero.
    """
    if veh.segment == seg:
        return 0.0
    entries = list(_walk_entries(model, veh))
    for ref, dist in entries:
        if (ref.edge, ref.m) == (seg.edge, seg.m):
            return _eta_at(model, veh, dist, _stop_distances(model, veh, entries), now)
    return None


def bus_overlap_indicator(snapshot: PredictionSnapshot, vid: int, seg: SegmentRef) -> int:
    return 1 if vid in snapshot.overlap.get(seg, {}) else 0
