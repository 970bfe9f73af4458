"""Chat backends: remote endpoint, deterministic scripted stand-in, and
transcript record/replay for golden tests."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import ConfigError
from ..records import build_section
from ..sim.vehicles import MANEUVER_TOKENS, Maneuver
from .prompts import Prompt, parse_constraints, parse_telemetry
from .rules import Telemetry, scripted_decide

API_KEY_VAR = "TELL_LLM_API_KEY"
DEFAULT_TIMEOUT = 30.0
MAX_REPLY_TOKENS = 512


class BackendError(RuntimeError):
    pass


class ChatBackend:
    kind = "abstract"

    def chat(self, messages: list[tuple[str, str]]) -> str:
        raise NotImplementedError


class RemoteBackend(ChatBackend):
    """Chat-completions endpoint speaking the usual JSON shape."""

    kind = "remote"

    def __init__(self, endpoint: str, model: str, timeout: float = DEFAULT_TIMEOUT,
                 temperature: float = 0.2):
        if not endpoint:
            raise ConfigError("remote backend needs an endpoint URL")
        self.endpoint = endpoint
        self.model = model
        self.timeout = timeout
        self.temperature = temperature

    def chat(self, messages):
        # imported here: they load ssl (7 MB, 50 ms), which runs without a remote model never need
        import http.client
        import urllib.request

        key = os.environ.get(API_KEY_VAR, "")
        if not key:
            raise BackendError(f"{API_KEY_VAR} is not set")
        payload = {
            "model": self.model,
            "messages": [{"role": role, "content": text} for role, text in messages],
            "temperature": self.temperature,
            "max_tokens": MAX_REPLY_TOKENS,
        }
        request = urllib.request.Request(
            self.endpoint,
            data=json.dumps(payload).encode("utf-8"),
            headers={"Authorization": f"Bearer {key}", "Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return json.load(response)["choices"][0]["message"]["content"]
        # URLError, HTTPError and timeouts are all OSErrors
        except (OSError, http.client.HTTPException) as err:
            raise BackendError(f"remote backend request failed: {err}") from err
        except (KeyError, IndexError, TypeError, ValueError) as err:
            raise BackendError(f"remote backend returned an unexpected shape: {err}") from err


def _last_user_text(messages) -> str:
    for role, text in reversed(messages):
        if role == "user":
            return text
    return ""


def _system_text(messages) -> str:
    for role, text in messages:
        if role == "system":
            return text
    return ""


def scripted_pick(prompt: Prompt) -> tuple[Maneuver, Telemetry] | None:
    """The rule cascade's maneuver on a prompt's TELEMETRY and CONSTRAINTS
    lines, with the telemetry it ran on; None when the prompt carries none."""
    telemetry = parse_telemetry(prompt)
    if telemetry is None:
        return None
    return scripted_decide(telemetry, parse_constraints(prompt)), telemetry


class ScriptedBackend(ChatBackend):
    """Deterministic offline teacher.

    Recovers the telemetry and constraint lines from the prompt, runs the rule
    cascade, and answers in the same shape a remote model would, so the parsing
    path stays identical across backends.
    """

    kind = "scripted"

    def chat(self, messages):
        user = _last_user_text(messages)
        if "REFLECTION: " in user:
            return self._reflect(user)
        picked = scripted_pick(Prompt(system=_system_text(messages), user=user))
        if picked is None:
            raise BackendError("prompt carries no telemetry line")
        action, telemetry = picked
        token = MANEUVER_TOKENS[action]
        reason = (
            f"tau_min {telemetry.tau_min:g} s, "
            f"speed {telemetry.speed:.1f} of {telemetry.desired_speed:.1f} m/s, "
            f"lane {telemetry.lane} toward {telemetry.goal_lane}"
        )
        body = json.dumps({"action": token, "reason": reason})
        return (
            "Checking conflict margins, speed deficit, and lane goal in order.\n"
            f"The rule cascade selects {token}.\n{body}"
        )

    def _reflect(self, user: str) -> str:
        for line in user.splitlines():
            if line.startswith("REFLECTION: "):
                summary = json.loads(line[len("REFLECTION: "):])
                break
        else:
            raise BackendError("reflection prompt carries no summary line")
        token = summary["action"]
        # Forbidding the brake itself would poison the cascade's last resort,
        # so a braking culprit yields advice without a hard rule.
        if token == "slow_down":
            rules = []
            policy = "Brake earlier; the margin was already thin when braking began."
        else:
            rules = [{
                "scenario_kind": summary["scenario_kind"],
                "forbidden_action": token,
                "guard": {"tau_min_lt": float(summary["tau_min"])},
            }]
            policy = f"Do not {token} when the conflict margin is below {summary['tau_min']} s."
        body = json.dumps({
            "policy_delta": policy,
            "prompt_delta": "State the smallest conflict margin before listing options.",
            "constraints": rules,
        })
        return f"The flagged maneuver was {token} at a thin conflict margin.\n{body}"


@dataclass
class Exchange:
    """One transcript line, as RecordingBackend writes it."""

    response: str
    kind: str = ""  # may be left out
    request: dict = field(default_factory=dict)


class ReplayBackend(ChatBackend):
    """Replays a recorded transcript, one response per chat call, in order."""

    kind = "replay"

    def __init__(self, path):
        self.path = Path(path)
        exchanges = []
        try:
            for i, line in enumerate(self.path.read_text().splitlines(), start=1):
                if line.strip():
                    exchanges.append(build_section("exchange", Exchange, json.loads(line)))
        except OSError as err:
            raise ConfigError(f"cannot read transcript {self.path}: {err}") from err
        except ValueError as err:  # ConfigError and JSONDecodeError are ValueErrors
            raise ConfigError(f"transcript {self.path} line {i}: {err}") from err
        self._responses = [e.response for e in exchanges]
        self._cursor = 0
        # transcripts remember which backend produced them, so replayed
        # decisions report the original source
        kinds = {e.kind for e in exchanges if e.kind}
        if len(kinds) == 1:
            self.kind = kinds.pop()

    def chat(self, messages):
        if self._cursor >= len(self._responses):
            raise BackendError(f"transcript {self.path} exhausted after {self._cursor} calls")
        text = self._responses[self._cursor]
        self._cursor += 1
        return text


class RecordingBackend(ChatBackend):
    """Wraps another backend and appends (messages, response) pairs to a JSONL file."""

    def __init__(self, inner: ChatBackend, path):
        self.inner = inner
        self.path = Path(path)
        self.kind = inner.kind

    def chat(self, messages):
        text = self.inner.chat(messages)
        record = {
            "kind": self.kind,
            "request": {"messages": [[role, body] for role, body in messages]},
            "response": text,
        }
        with self.path.open("a") as handle:
            handle.write(json.dumps(record) + "\n")
        return text
