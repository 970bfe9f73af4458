from .vehicles import (
    DriverProfile,
    MANEUVER_TOKENS,
    Maneuver,
    TOKEN_TO_MANEUVER,
    VehicleState,
    make_profile,
    rects_overlap,
    wrap_angle,
)
from .idm import EMERGENCY_DECEL, idm_accel, mobil_accepts
from .paths import ArcSegment, Route, StraightSegment
from .scenarios import (
    LANE_WIDTH,
    MERGE_RAMP_END,
    N_NEIGHBOR_SLOTS,
    SENSING_RADIUS,
    ScenarioConfig,
    SuccessRegion,
    build_geometry,
    spawn,
)
from .engine import (
    FLAT_OBS_DIM,
    Observation,
    ScenarioState,
    StepOutcome,
    TrafficEnv,
    observe,
    reset,
    reward,
    step,
    trace_record,
)
