"""Seeded input generators for the three benchmark workloads.

Every generator is a pure function of its seed: the same seed writes
byte-identical files, and ``digest_paths`` turns them into one SHA-256 so
that two results can be shown to have used the same inputs.

* ``make_campaign`` writes a bench campaign of synthetic trials (two
  configurations, three nominal speeds, per-trial approach time and contact
  duration, plus known velocity-gate rejects) and returns the ground truth
  of every trial, which the analyze oracle checks against. ``analyze`` runs
  several such campaigns, each drawn from its own ``(seed, batch)`` pair.
* ``make_trace`` writes the NDJSON message trace replayed by ``govern``.
* ``scenario_jobs`` lists the shipped scenarios that ``simulate`` runs.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

import numpy as np

from impact_governor.synthetic import synth_trial, write_trial

# --- analyze: a synthetic bench campaign -------------------------------------

#: name, mass [kg], retained-energy polynomial EC_r(v) (ascending powers),
#: half-sine contact duration range [s]
CONFIGURATIONS = (
    ("Carbon-0deg", 0.25, (0.10, 0.02, -0.001), (0.030, 0.042)),
    ("Bamboo-0deg", 0.27, (0.12, 0.02, -0.001), (0.034, 0.050)),
)
SPEEDS_MPS = (3.0, 3.5, 4.0)
TRIALS_PER_SPEED = 4
SPEED_JITTER_MPS = 0.05
#: approach time before contact [s]; drawn per trial so trial lengths vary
APPROACH_S = (0.40, 0.70)
#: approach speed of the known-bad trials, below the 2.5 m/s velocity gate
REJECT_SPEED_MPS = 1.8
REJECTS_PER_CONFIGURATION = 1
#: sensor noise of the acceptance criterion on synthetic recovery
NOISE_FORCE_N = 0.5
NOISE_RANGE_M = 0.002


def make_campaign(out_dir: Path, seed) -> dict:
    """Write one campaign into ``out_dir`` and return its ground truth.

    ``seed`` is an int or a sequence of ints (``numpy.random.default_rng``).

    The returned dict maps each manifest file name to the trial's truth
    (``f_max_n``, ``dt_j_s``, ``j_ns``, ``ec_r``, ...) plus its
    ``configuration``, ``nominal_speed_mps`` and ``expect_reject`` flag.
    Trial names are shuffled so the rejects sit anywhere in the batch.
    """
    rng = np.random.default_rng(seed)
    specs = []
    for name, mass, poly, tau_range in CONFIGURATIONS:
        for v_nom in SPEEDS_MPS:
            for _ in range(TRIALS_PER_SPEED):
                v = float(v_nom + rng.normal(0.0, SPEED_JITTER_MPS))
                specs.append((name, mass, poly, tau_range, v_nom, v, False))
        for _ in range(REJECTS_PER_CONFIGURATION):
            specs.append(
                (name, mass, poly, tau_range, REJECT_SPEED_MPS, REJECT_SPEED_MPS, True)
            )
    order = rng.permutation(len(specs))

    out_dir.mkdir(parents=True, exist_ok=True)
    truth = {}
    for k, i in enumerate(order):
        name, mass, poly, tau_range, v_nom, v, reject = specs[i]
        ec_r = float(np.polynomial.polynomial.polyval(v, poly))
        raw, t = synth_trial(
            kind="elastic",
            v_in=v,
            e=math.sqrt(ec_r),
            mass=mass,
            tau_s=float(rng.uniform(*tau_range)),
            approach_s=float(rng.uniform(*APPROACH_S)),
            noise_force_n=NOISE_FORCE_N,
            noise_range_m=NOISE_RANGE_M,
            seed=int(rng.integers(0, 2**31 - 1)),
            configuration=name,
        )
        raw.meta.nominal_speed_mps = v_nom
        stem = f"trial_{k:03d}"
        write_trial(raw, out_dir, stem)
        t.update(
            configuration=name,
            nominal_speed_mps=v_nom,
            expect_reject=reject,
        )
        truth[f"{stem}.json"] = t
    return truth


# --- govern: an NDJSON flight trace ------------------------------------------

CMD_HZ = 50.0
ODOM_HZ = 100.0
RANGE_HZ = 20.0
#: phase offsets keep the three streams from sharing a timestamp
_PHASE_S = {"cmd": 0.003, "odom": 0.001, "range": 0.007}
#: passes by a person: gap between closest approaches [s], closest distance
#: [m] and relative speed [m/s]
ENCOUNTER_GAP_S = (12.0, 24.0)
ENCOUNTER_D_MIN_M = (1.5, 6.0)
ENCOUNTER_SPEED_MPS = (3.0, 6.0)
FAR_DISTANCE_M = 25.0
#: range dropouts, all longer than the 0.25 s staleness timeout
DROPOUT_GAP_S = (4.0, 15.0)
DROPOUT_LEN_S = (0.30, 2.00)
CMD_SPEED_MPS = (0.0, 12.0)


def make_trace(path: Path, seed: int, n_cmd: int) -> None:
    """Write ``n_cmd`` commands' worth of range, odom and cmd messages.

    Range arrives at 20 Hz except inside dropouts, odom at 100 Hz and
    commands at 50 Hz. The distance follows straight-line passes by a
    person, so the governor's cap moves through none, iso and force, and
    the dropouts trip the stale failsafe.
    """
    rng = random.Random(seed)
    duration = n_cmd / CMD_HZ

    encounters = []  # (t_closest, d_min, v_rel)
    t = rng.uniform(*ENCOUNTER_GAP_S) / 2.0
    while t < duration + 30.0:
        encounters.append(
            (t, rng.uniform(*ENCOUNTER_D_MIN_M), rng.uniform(*ENCOUNTER_SPEED_MPS))
        )
        t += rng.uniform(*ENCOUNTER_GAP_S)

    dropouts = []  # (start, end)
    t = rng.uniform(*DROPOUT_GAP_S)
    while t < duration:
        length = rng.uniform(*DROPOUT_LEN_S)
        dropouts.append((t, t + length))
        t += length + rng.uniform(*DROPOUT_GAP_S)

    def distance(t: float) -> float:
        d = FAR_DISTANCE_M
        for tc, d_min, v_rel in encounters:
            if abs(t - tc) * v_rel < FAR_DISTANCE_M:
                d = min(d, math.hypot(d_min, v_rel * (t - tc)))
        return d

    def in_dropout(t: float) -> bool:
        return any(a <= t < b for a, b in dropouts)

    events = []
    for kind, hz, n in (
        ("cmd", CMD_HZ, n_cmd),
        ("odom", ODOM_HZ, int(duration * ODOM_HZ)),
        ("range", RANGE_HZ, int(duration * RANGE_HZ)),
    ):
        for i in range(n):
            events.append((i / hz + _PHASE_S[kind], kind))
    events.sort()

    vel = (0.0, 0.0, 0.0)
    with open(path, "w", encoding="utf-8") as fh:
        for t, kind in events:
            if kind == "range":
                if not in_dropout(t):
                    fh.write(
                        '{"type":"range","d_m":%.4f,"t_s":%.4f}\n' % (distance(t), t)
                    )
            elif kind == "odom":
                vx, vy, vz = (c + rng.gauss(0.0, 0.05) for c in vel)
                fh.write(
                    '{"type":"odom","vx":%.4f,"vy":%.4f,"vz":%.4f,"t_s":%.4f}\n'
                    % (vx, vy, vz, t)
                )
            else:
                speed = rng.uniform(*CMD_SPEED_MPS)
                heading = rng.uniform(-math.pi, math.pi)
                climb = rng.uniform(-0.2, 0.2)
                vel = (
                    speed * math.cos(heading) * math.cos(climb),
                    speed * math.sin(heading) * math.cos(climb),
                    speed * math.sin(climb),
                )
                fh.write(
                    '{"type":"cmd","vx":%.4f,"vy":%.4f,"vz":%.4f,"t_s":%.4f}\n'
                    % (vel[0], vel[1], vel[2], t)
                )


# --- simulate: the shipped scenarios -----------------------------------------

#: (label, scenario file relative to the repository root, extra CLI args).
#: The simulation has no randomness, so the seed does not change this list.
SCENARIO_JOBS = (
    ("chest", "scenarios/three_humans_chest.json", ()),
    ("face", "scenarios/three_humans_face.json", ()),
    ("chest_ramp", "scenarios/three_humans_chest.json", ("--mode", "ramp")),
)


def scenario_jobs(path: Path) -> list:
    """Write the scenario list as JSON and return it."""
    jobs = [
        {"label": label, "scenario": scenario, "args": list(args)}
        for label, scenario, args in SCENARIO_JOBS
    ]
    path.write_text(json.dumps(jobs, indent=2) + "\n", encoding="utf-8")
    return jobs


# --- digests -------------------------------------------------------------------


def digest_paths(paths) -> str:
    """SHA-256 over the names and bytes of ``paths``, in the given order."""
    h = hashlib.sha256()
    for p in paths:
        p = Path(p)
        h.update(p.name.encode("utf-8") + b"\0")
        h.update(p.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
