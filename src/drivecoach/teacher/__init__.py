from .agent import (
    N_SHOT,
    ReflectionOutcome,
    TeacherAgent,
    TeacherDecision,
    decide,
    parse_decision_reply,
    reflect,
)
from .backends import (
    API_KEY_VAR,
    BackendError,
    ChatBackend,
    RecordingBackend,
    RemoteBackend,
    ReplayBackend,
    ScriptedBackend,
)
from .constraints import ConstraintRule
from .memory import (
    CAPACITY,
    MemoryEntry,
    MemoryRepository,
    cosine_similarity,
    retrieve,
)
from .prompts import (
    MAX_PROMPT_TOKENS,
    FlaggedSegment,
    Prompt,
    build_prompt,
    build_reflection_prompt,
    estimate_tokens,
)
from .rules import Telemetry, build_telemetry, goal_lane_for, scripted_decide
from .state import STATE_DIM, encode_state
