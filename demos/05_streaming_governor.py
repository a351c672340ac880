"""Drive the streaming governor with a scripted telemetry exchange.

Feeds the NDJSON protocol (range / odom / cmd messages) through the
runtime exactly as `impact-governor govern --stdin` would, showing the
cap engaging as a person gets close, the pass-through when clear, and
the stale-range failsafe when detections stop arriving.

Run:  python3 demos/05_streaming_governor.py
"""

import io
import json
import sys
import tempfile
from pathlib import Path

from impact_governor.fit import load_profile
from impact_governor.governor import GovernorConfig, GovernorRuntime
from impact_governor.stream import ComplianceLog, run_stream

PROFILE = Path(__file__).resolve().parents[1] / "profiles" / "carbon_0deg.json"

SCRIPT = [
    {"type": "range", "d_m": 30.0, "t_s": 0.0},
    {"type": "odom", "vx": 6.0, "vy": 0.0, "vz": 0.0, "t_s": 0.05},
    {"type": "cmd", "vx": 6.0, "vy": 0.0, "vz": 0.0, "t_s": 0.10},   # clear: pass
    {"type": "range", "d_m": 5.0, "t_s": 0.20},                      # person close
    {"type": "cmd", "vx": 8.0, "vy": 0.0, "vz": 0.0, "t_s": 0.25},   # capped
    {"type": "range", "d_m": 2.0, "t_s": 0.30},
    {"type": "cmd", "vx": 8.0, "vy": 4.0, "vz": 0.0, "t_s": 0.35},   # still capped
    # range goes quiet; next command is 0.5 s after the last detection
    {"type": "cmd", "vx": 8.0, "vy": 0.0, "vz": 0.0, "t_s": 0.80},   # failsafe
]


def main():
    cfg = GovernorConfig(f_star_n=65.0)  # face limit
    runtime = GovernorRuntime(cfg, load_profile(PROFILE))
    print(f"governor: v_force={runtime.v_force:.2f} m/s, "
          f"zone={runtime.s_zone:.1f} m, staleness timeout "
          f"{cfg.staleness_timeout_s:g} s\n")

    out = io.StringIO()
    with tempfile.TemporaryDirectory(prefix="stream_demo_") as tmp:
        log_path = Path(tmp) / "compliance.csv"
        with ComplianceLog(log_path) as compliance:
            code = run_stream(
                runtime,
                (json.dumps(m) for m in SCRIPT),
                out,
                compliance=compliance,
            )
        audit = log_path.read_text()

    replies = iter(out.getvalue().splitlines())
    for msg in SCRIPT:
        print(f">> {json.dumps(msg)}")
        if msg["type"] == "cmd":
            reply = json.loads(next(replies))
            speed = (reply["vx"] ** 2 + reply["vy"] ** 2 + reply["vz"] ** 2) ** 0.5
            print(f"<< cap={reply['cap_mps']:.2f} ({reply['source']}), "
                  f"out speed {speed:.2f} m/s: {json.dumps(reply)}")
    print(f"\nexit code {code}; compliance audit:")
    sys.stdout.write(audit)


if __name__ == "__main__":
    main()
