"""Runtime velocity governor: distance-aware and force-aware speed caps.

Two independent constraints cap the platform speed:

* a collaborative-zone radius S(v) = v*T_q + (3/2) v^2 / a + C — the distance
  inside which a human could be reached before the platform can react
  (latency travel + braking distance + reach margin), and its inversion
  giving the largest speed whose zone radius fits the measured distance;
* a contact-force cap: the largest speed whose predicted average impact
  force m v (1 + e(v)) / dt stays at or below the configured limit,
  found by bisection on the fitted airframe profile.

The streaming runtime fuses both caps, saturates commands, applies a
staleness failsafe, and logs one compliance record per emitted command.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, field, fields

from .errors import (
    ANY,
    BOOL,
    FINITE,
    GovernorConfigError,
    NonMonotoneForceMapWarning,
    read_field,
    read_object,
)
from .profile import BODY_REGION_LIMITS_N, AirframeProfile, linspace

CAP_EPSILON = 1e-9

#: relative slack when deciding a command already satisfies the cap; keeps
#: saturation exactly idempotent without ever exceeding cap + 1e-9
_NORM_SLACK = 1e-12
_SLACK_FACTOR = 1.0 + _NORM_SLACK

_BISECT_WIDTH = 1e-7

_F_STAR_MAX_N = max(BODY_REGION_LIMITS_N.values())


@dataclass(frozen=True)
class GovernorConfig:
    """Operating parameters of the safety layer; frozen, so that the checks
    made on it when it is built, and by ``SimScenario`` or ``GovernorRuntime``
    when they take it, hold while it is used (``dataclasses.replace`` makes a
    changed copy, checked again).

    ``t_q_s`` is the end-to-end perception+response latency, ``a_mps2`` the
    worst-case deceleration, ``c_m`` the human-reach margin added to the
    stopping envelope, ``f_star_n`` the average-force limit (pick from
    BODY_REGION_LIMITS_N, or set ``f_star_is_peak`` to state a peak-force
    target instead). ``stale_cap_mps`` optionally tightens the staleness
    failsafe below the force-safe speed (down to 0 for strict facilities).
    """

    t_q_s: float = 0.1
    a_mps2: float = 15.0
    c_m: float = 1.2
    v_cruise_mps: float = 8.0
    f_star_n: float = 140.0
    v_platform_max_mps: float = 20.0
    staleness_timeout_s: float = 0.25
    mode: str = "binary"
    stale_cap_mps: float | None = None
    f_star_is_peak: bool = False

    def __post_init__(self) -> None:
        # each value is checked, not converted: an int stays an int, so a cap
        # taken from the config prints in a reply as json.dumps prints it
        # (stream.format_cmd_limited relies on that)
        for name in (
            "t_q_s",
            "a_mps2",
            "c_m",
            "v_cruise_mps",
            "f_star_n",
            "v_platform_max_mps",
            "staleness_timeout_s",
        ):
            value = getattr(self, name)
            read_field(value, FINITE, name)  # NaN would pass every bound below
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        for name, term in (("t_q_s", self.t_q_s * self.t_q_s), ("a_mps2", 1.5 / self.a_mps2)):
            if term == math.inf:  # iso_speed_cap would raise, or give a NaN cap (vmax)
                raise ValueError(f"{name} overflows the zone radius, got {getattr(self, name)}")
        if self.mode not in ("binary", "ramp"):  # no other value equals either
            raise ValueError(f"mode must be 'binary' or 'ramp', got {self.mode!r}")
        if self.f_star_n > _F_STAR_MAX_N:
            raise ValueError(
                f"f_star_n {self.f_star_n:g} N exceeds the largest body-region "
                f"limit {_F_STAR_MAX_N:g} N"
            )
        if self.stale_cap_mps is not None:
            read_field(self.stale_cap_mps, FINITE, "stale_cap_mps")
            if self.stale_cap_mps < 0:
                raise ValueError("stale_cap_mps must be >= 0 when set")
        read_field(self.f_star_is_peak, BOOL, "f_star_is_peak")  # "false" is truthy

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "GovernorConfig":
        """The one reader of governor settings, by ``_SETTINGS``: a key it does not
        list (it could only leave a looser default in force) or a bad value raises
        GovernorConfigError; ``body_region``'s limit is an absent ``f_star_n``."""
        where = "bad governor config"
        settings = read_object(d, _SETTINGS, where, GovernorConfigError, closed=True)
        region = settings.pop("body_region")
        if region is not None:
            if not isinstance(region, str) or region not in BODY_REGION_LIMITS_N:
                raise GovernorConfigError(
                    f"unknown body_region {region!r}; expected one of {sorted(BODY_REGION_LIMITS_N)}"
                )
            if "f_star_n" not in d:
                settings["f_star_n"] = BODY_REGION_LIMITS_N[region]
        try:
            return cls(**settings)
        except ValueError as exc:
            raise GovernorConfigError(f"{where}: {exc}") from exc


#: the keys of governor settings: each field of GovernorConfig, whose
#: constructor checks its value, and ``body_region``
_SETTINGS = {f.name: (ANY, f.default) for f in fields(GovernorConfig)}
_SETTINGS["body_region"] = (ANY, None)


@dataclass(slots=True)
class VelocityCommand:
    vx: float
    vy: float
    vz: float
    timestamp: float

    def speed(self) -> float:
        try:
            return math.sqrt(self.vx**2 + self.vy**2 + self.vz**2)
        except OverflowError:  # finite parts whose squares overflow, like 1e200
            return math.hypot(self.vx, self.vy, self.vz)


@dataclass(slots=True)
class ComplianceRecord:
    timestamp: float
    input_speed_mps: float
    output_speed_mps: float
    d_m: float
    cap_mps: float
    cap_source: str
    violated: bool
    flags: list[str] = field(default_factory=list)


def iso_radius(v: float, cfg: GovernorConfig) -> float:
    """Collaborative-zone radius at speed v: v*T_q + 1.5 v^2/a + C."""
    if v < 0:
        raise ValueError(f"speed must be >= 0, got {v}")
    return v * cfg.t_q_s + 1.5 * v * v / cfg.a_mps2 + cfg.c_m


def iso_speed_cap(d: float, cfg: GovernorConfig) -> float:
    """Largest speed whose zone radius fits inside distance d.

    The positive root of (3/2) v^2/a + T_q v + (C - d) = 0 for d > C, zero at
    or inside the reach margin, saturated at the platform maximum. Total on
    d >= 0 and non-decreasing in d.
    """
    if d <= cfg.c_m:
        return 0.0
    k = 1.5 / cfg.a_mps2
    disc = cfg.t_q_s**2 + 4.0 * k * (d - cfg.c_m)
    root = (-cfg.t_q_s + math.sqrt(disc)) / (2.0 * k)
    return min(root, cfg.v_platform_max_mps)


def avg_impact_force(v: float, profile: AirframeProfile) -> float:
    """Predicted average contact force at approach speed v >= 0 (profile.avg_force)."""
    if v < 0:
        raise ValueError(f"speed must be >= 0, got {v}")
    return profile.avg_force(v)


def force_speed_cap(f_star: float, profile: AirframeProfile, cfg: GovernorConfig) -> float:
    """Largest speed whose predicted average impact force stays <= f_star.

    Bisection on [0, v_platform_max]: the force map is continuous with
    F(0) = 0, so a sign bracket always exists when the limit binds; fitted
    restitution under a square root can have flat spots that break
    Newton-style solvers. Returns the lower bracket end, so the returned
    speed never predicts more than f_star. Non-binding limits return the
    platform maximum. A non-monotone force map on a 1000-point grid raises
    NonMonotoneForceMapWarning (the bracket result is still valid).
    """
    if f_star <= 0:
        raise ValueError(f"f_star must be positive, got {f_star}")
    vmax = cfg.v_platform_max_mps

    fvals = [profile.avg_force(v) for v in linspace(0.0, vmax)]
    if any(b - a < -1e-9 for a, b in zip(fvals, fvals[1:])):
        warnings.warn(
            f"average-force map for profile {profile.name!r} decreases somewhere "
            f"on [0, {vmax:g}] m/s",
            NonMonotoneForceMapWarning,
            stacklevel=2,
        )

    if fvals[-1] < f_star:  # the force at vmax
        return vmax
    lo, hi = 0.0, vmax
    while hi - lo > _BISECT_WIDTH:
        mid = 0.5 * (lo + hi)
        if profile.avg_force(mid) > f_star:
            hi = mid
        else:
            lo = mid
    return lo


def _ramp_cap(d: float, cfg: GovernorConfig, v_force: float) -> tuple[float, str]:
    """Engaged ramp-mode cap: the zone-radius inversion, never above the
    platform maximum and never below the force-safe speed."""
    vmax = cfg.v_platform_max_mps
    v_iso = iso_speed_cap(d, cfg)  # saturates at vmax
    if v_iso <= v_force:
        return v_force, "force"
    if v_iso < vmax:
        return v_iso, "iso"
    return vmax, "none"


def limit_command(cmd: VelocityCommand, cap: float) -> VelocityCommand:
    """Direction-preserving saturation of a velocity command.

    Non-finite commands collapse to zero (the caller flags the record).
    Commands at or under the cap pass through unchanged, which makes the
    operation exactly idempotent.
    """
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    vx, vy, vz, t = cmd.vx, cmd.vy, cmd.vz, cmd.timestamp
    if not (math.isfinite(vx) and math.isfinite(vy) and math.isfinite(vz)):
        return VelocityCommand(0.0, 0.0, 0.0, t)
    n = cmd.speed()
    if n <= cap * _SLACK_FACTOR:
        return cmd
    s = cap / n
    return VelocityCommand(vx * s, vy * s, vz * s, t)


class GovernorRuntime:
    """Stateful streaming governor.

    Range intake and command limiting may run on different threads: intake
    publishes one immutable snapshot (distance, time, cap, source) per range
    update, and the limiter only reads the latest snapshot — it never blocks
    on intake. Cap math happens on the intake side. Odometry has no intake:
    no cap depends on the platform's measured speed.

    The runtime fails closed: a command gets the stale cap unless the latest
    range reading is valid and at most ``staleness_timeout_s`` older than
    the command. A reading stamped after the command is not fresh. Time
    runs forward: a valid reading stamped before the published one is not
    published, so a late reading never widens the cap.

    ``on_range`` is the one place a distance becomes a cap. A valid reading
    below S(v_cruise) engages the zone in both modes. Binary mode releases
    it at any reading at or above S; ramp mode only above 1.05 S, so that
    hovering at the boundary cannot chatter the cap on and off. Outside the
    zone the cap is the platform maximum (source ``none``); inside it is the
    force-safe speed in binary mode and the ramp cap in ramp mode.

    Only the latest compliance record is kept (``last_record``); the caller
    that needs the history is its sink.
    """

    def __init__(self, cfg: GovernorConfig, profile: AirframeProfile):
        self.cfg = cfg
        self._staleness_timeout_s = cfg.staleness_timeout_s
        f_star = cfg.f_star_n
        if cfg.f_star_is_peak:
            f_star = cfg.f_star_n / profile.peak_to_average_ratio()
            if not 0 < f_star <= _F_STAR_MAX_N:
                raise GovernorConfigError(
                    f"bad governor config: peak target {cfg.f_star_n:g} N is an average target "
                    f"of {f_star:g} N on profile {profile.name!r}, outside (0, {_F_STAR_MAX_N:g}] N"
                )
        self.f_star_effective_n = f_star
        self.v_force = force_speed_cap(f_star, profile, cfg)
        stale = self.v_force if cfg.stale_cap_mps is None else min(cfg.stale_cap_mps, self.v_force)
        self.stale_cap = stale
        self.s_zone = iso_radius(cfg.v_cruise_mps, cfg)
        # an engaged zone releases at a reading above this; in binary mode it is
        # the float just below S, so that S itself releases
        self._release_m = (
            1.05 * self.s_zone if cfg.mode == "ramp" else math.nextafter(self.s_zone, 0.0)
        )
        self._engaged = False
        self._snapshot: tuple[float, float, float | None, str] | None = None
        # late readings dropped by intake, and how many of them the limiter has
        # flagged: each count has one writer, so the two sides share no flag
        self._late_readings = 0
        self._late_flagged = 0
        self.last_record: ComplianceRecord | None = None

    # -- range intake -------------------------------------------------------

    def on_range(self, d: float, t: float) -> None:
        """Ingest a nearest-person distance measurement taken at time t.

        A NaN or negative distance, or a non-finite time, is no valid
        measurement: it is published without a cap, so commands take the
        stale failsafe flagged ``invalid-range`` until the next valid
        reading. It leaves the zone engagement as it was. An infinite
        distance (nobody in the field) is valid.

        A valid reading stamped before the published one is late: it is not
        published, leaves the zone engagement as it was, and the next command
        carries the flag ``stale-range``. A non-finite stamp, which only an
        invalid reading has, makes no reading late.
        """
        if math.isnan(d) or d < 0.0 or not math.isfinite(t):
            self._snapshot = (d, t, None, "stale-failsafe")
            return
        snap = self._snapshot
        if snap is not None and t < snap[1] < math.inf:
            self._late_readings += 1
            return
        if d < self.s_zone:
            self._engaged = True
        elif d > self._release_m:
            self._engaged = False
        cfg = self.cfg
        if not self._engaged:
            cap, source = cfg.v_platform_max_mps, "none"
        elif cfg.mode == "ramp":
            cap, source = _ramp_cap(d, cfg, self.v_force)
        else:
            cap, source = self.v_force, "force"
        self._snapshot = (d, t, cap, source)  # single atomic publish

    # -- command limiting ---------------------------------------------------

    def on_command(self, cmd: VelocityCommand) -> VelocityCommand:
        """Limit one velocity command against the freshest cap and log it.

        The finiteness test, ``VelocityCommand.speed`` and the saturation of
        ``limit_command`` are written out here, in their order and with their
        arithmetic: this runs once per command. ``VelocityCommand.speed`` is
        written out twice, for the command and for the clipped command.
        """
        vx, vy, vz, t = cmd.vx, cmd.vy, cmd.vz, cmd.timestamp
        flags: list[str] = []
        last = self.last_record
        if last is not None and t < last.timestamp:
            flags.append("clock-skew")
        late = self._late_readings
        if late != self._late_flagged:
            self._late_flagged = late
            flags.append("stale-range")

        snap = self._snapshot
        if snap is None:
            d, cap = math.nan, None
        else:
            d, t_range, cap, source = snap
            if cap is None:
                flags.append("invalid-range")
            elif not 0.0 <= t - t_range <= self._staleness_timeout_s:
                cap = None
        if cap is None:
            cap, source = self.stale_cap, "stale-failsafe"

        if math.isfinite(vx) and math.isfinite(vy) and math.isfinite(vz):
            try:
                in_speed = math.sqrt(vx**2 + vy**2 + vz**2)
            except OverflowError:  # finite parts whose squares overflow, like 1e200
                in_speed = math.hypot(vx, vy, vz)
            if in_speed <= cap * _SLACK_FACTOR:
                out, out_speed = cmd, in_speed
            else:
                s = cap / in_speed
                ox, oy, oz = vx * s, vy * s, vz * s
                out = VelocityCommand(ox, oy, oz, t)
                try:
                    out_speed = math.sqrt(ox**2 + oy**2 + oz**2)
                except OverflowError:
                    out_speed = math.hypot(ox, oy, oz)
        else:
            flags.append("non-finite-command")
            in_speed = math.nan
            out = VelocityCommand(0.0, 0.0, 0.0, t)
            out_speed = 0.0

        self.last_record = ComplianceRecord(
            t, in_speed, out_speed, d, cap, source, out_speed > cap + CAP_EPSILON, flags
        )
        return out
