"""Car-following acceleration and the lane-change incentive test for
background traffic."""

from __future__ import annotations

import math

from .vehicles import DriverProfile

# hard physical braking limit, beyond any profile's comfort_decel
EMERGENCY_DECEL = 8.0


def idm_accel(gap: float, v: float, v_lead: float, profile: DriverProfile) -> float:
    """Longitudinal acceleration, clamped to [-EMERGENCY_DECEL, max_accel].

    gap is bumper-to-bumper distance to the leader in meters; math.inf (or any
    non-finite value) means no leader. A non-positive gap brakes at the limit.
    """
    free = 1.0 - (v / profile.desired_speed) ** 4
    if not math.isfinite(gap):
        a = profile.max_accel * free
    elif gap <= 0.0:
        return -EMERGENCY_DECEL
    else:
        dv = v - v_lead
        s_star = (
            profile.min_gap
            + v * profile.time_headway
            + v * dv / profile.braking_term
        )
        a = profile.max_accel * (free - (s_star / gap) ** 2)
    # max(-EMERGENCY_DECEL, min(profile.max_accel, a)), spelled as the same
    # comparisons: a two-argument builtin min or max call costs several times
    # a comparison, and this runs for every vehicle at every substep
    a = a if a < profile.max_accel else profile.max_accel
    return a if a > -EMERGENCY_DECEL else -EMERGENCY_DECEL


def mobil_safe(a_new_follower_after: float, profile: DriverProfile) -> bool:
    """MOBIL's safety criterion: the prospective new follower must not be
    forced below the changing driver's (`profile`'s) comfortable braking.
    It reads one acceleration, so a caller can test it before working out
    the terms `mobil_accepts` weighs."""
    return not a_new_follower_after < -profile.comfort_decel


def mobil_accepts(
    a_self_before: float,
    a_self_after: float,
    a_new_follower_before: float,
    a_new_follower_after: float,
    a_old_follower_before: float,
    a_old_follower_after: float,
    profile: DriverProfile,
) -> bool:
    """Politeness-weighted incentive test over already-evaluated accelerations.

    Safety first (`mobil_safe`). Then the weighted acceleration gain must
    clear the profile's threshold.
    """
    if not mobil_safe(a_new_follower_after, profile):
        return False
    own_gain = a_self_after - a_self_before
    others_gain = (a_new_follower_after - a_new_follower_before) + (
        a_old_follower_after - a_old_follower_before
    )
    return own_gain + profile.politeness * others_gain > profile.lane_change_accel_gain_threshold
