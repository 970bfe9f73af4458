"""Piecewise straight/arc reference paths and signed lateral projection.

Lateral offsets are left-positive with respect to the direction of travel,
so a positive offset means the vehicle sits left of the path centerline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .vehicles import wrap_angle


@dataclass(frozen=True)
class StraightSegment:
    x0: float
    y0: float
    heading: float
    length: float

    def project(self, x: float, y: float):
        c, s = math.cos(self.heading), math.sin(self.heading)
        dx, dy = x - self.x0, y - self.y0
        along = dx * c + dy * s
        lateral = -dx * s + dy * c  # left-positive
        clamped = min(max(along, 0.0), self.length)
        px, py = self.x0 + c * clamped, self.y0 + s * clamped
        dist = math.hypot(x - px, y - py)
        return clamped, lateral, self.heading, dist


@dataclass(frozen=True)
class ArcSegment:
    """Counter-clockwise circular arc from angle_start to angle_end (radians)."""

    cx: float
    cy: float
    radius: float
    angle_start: float
    angle_end: float

    def __post_init__(self):
        if self.angle_end <= self.angle_start:
            raise ValueError("arc must sweep counter-clockwise (angle_end > angle_start)")

    @property
    def length(self) -> float:
        return self.radius * (self.angle_end - self.angle_start)

    def project(self, x: float, y: float):
        dx, dy = x - self.cx, y - self.cy
        ang = math.atan2(dy, dx)
        # unwrap near the arc's angular span
        while ang < self.angle_start - math.pi:
            ang += 2 * math.pi
        while ang > self.angle_end + math.pi:
            ang -= 2 * math.pi
        clamped = min(max(ang, self.angle_start), self.angle_end)
        s = self.radius * (clamped - self.angle_start)
        # ccw travel keeps the center on the left, so inside-the-circle is left
        lateral = self.radius - math.hypot(dx, dy)
        heading = wrap_angle(clamped + math.pi / 2.0)
        px = self.cx + self.radius * math.cos(clamped)
        py = self.cy + self.radius * math.sin(clamped)
        dist = math.hypot(x - px, y - py)
        return s, lateral, heading, dist


class Route:
    """Ordered chain of segments; projection picks the nearest segment point."""

    def __init__(self, segments):
        if not segments:
            raise ValueError("route needs at least one segment")
        self.segments = tuple(segments)
        offsets = []
        total = 0.0
        for seg in self.segments:
            offsets.append(total)
            total += seg.length
        self._offsets = tuple(offsets)
        self.length = total

    def project(self, x: float, y: float):
        """Return (arc length s, left-positive lateral offset, path heading)."""
        best = None
        for seg, off in zip(self.segments, self._offsets):
            s, lat, heading, dist = seg.project(x, y)
            if best is None or dist < best[3]:
                best = (off + s, lat, heading, dist)
        return best[0], best[1], best[2]

    def min_radius(self, s_from: float, s_to: float) -> float:
        """Tightest curve radius on the window [s_from, s_to]; inf if straight."""
        tightest = math.inf
        for seg, off in zip(self.segments, self._offsets):
            if off + seg.length < s_from or off > s_to:
                continue
            radius = getattr(seg, "radius", math.inf)
            tightest = min(tightest, radius)
        return tightest

    def curvature_at(self, s: float) -> float:
        """Signed curvature at arc length s; counter-clockwise arcs are positive."""
        s = min(max(s, 0.0), self.length)
        for seg, off in zip(reversed(self.segments), reversed(self._offsets)):
            if s >= off:
                radius = getattr(seg, "radius", math.inf)
                return 0.0 if math.isinf(radius) else 1.0 / radius
        return 0.0
