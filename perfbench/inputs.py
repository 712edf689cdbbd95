"""Seeded input generation: scenario files, pump-sweep CSVs and the
parameters of the in-process workloads' operations.

Standard library only.  Every value is drawn from ``random.Random`` objects
seeded from the workload seed, so the same seed gives the same inputs.
Numbers are written with ``repr`` in units whose scale factor is 1 (W, Hz,
rad, fraction, per_watt), so the program parses exactly the values the
oracles use.
"""

from __future__ import annotations

import math
import random

import oracles

RBW_HZ = 1e6
K_MAX = 10_000  # video averages (RBW/VBW) cap
POINTS_MIN, POINTS_MAX = 100, 2000
SWEEP_POINTS_MIN, SWEEP_POINTS_MAX = 97, 10_001
CLI_DRAWS = 500_000  # K x points of each `opasim simulate`
SHIFT_CANDIDATES_HZ = (0.25e6, 0.5e6, 1e6, 2e6, 4e6)


def deck_rng(seed: int, stream: str, index: int) -> random.Random:
    """Independent stream per (seed, stream, index)."""
    return random.Random(f"{seed}/{stream}/{index}")


def scenario_params(rng: random.Random) -> dict:
    """One physically plausible operating point.

    alpha and jitter keep P* = (ln cot theta)^2/(4 alpha) below 1.8 W, inside
    the 2 W range that ``opasim optimize`` searches with its grid oracle.
    K x points stays at CLI_DRAWS, so every ``opasim simulate`` does the
    same analyzer work (~15 ms) and the largest child's memory does not
    depend on the draw.
    """
    k = round(10 ** rng.uniform(math.log10(CLI_DRAWS / 1000), math.log10(CLI_DRAWS / 100)))
    points = CLI_DRAWS // k
    return {
        "pump_w": rng.uniform(0.2, 1.2),
        "alpha": rng.uniform(4.0, 15.0),
        "wg_loss": rng.uniform(0.01, 0.08),
        "theta": math.radians(rng.uniform(0.3, 3.0)),
        "lock_mode": rng.choice(("locked", "scanned")),
        "scan_rate_hz": rng.uniform(5.0, 50.0),
        "losses": {
            "visibility": rng.uniform(0.01, 0.05),
            "path_and_tap": rng.uniform(0.01, 0.05),
            "photodiode": rng.uniform(0.005, 0.03),
        },
        "shot_dbm": rng.uniform(-90.0, -75.0),
        "clearance_db": rng.uniform(15.0, 30.0),
        "clearance_hz": rng.uniform(5e6, 20e6),
        "high_corner_hz": 30e6,
        "slope_db_per_decade": 20.0,
        "center_hz": rng.uniform(5e6, 20e6),
        "k": k,
        "points": points,
        "sweep_time_s": 0.1,
        "seed": rng.randrange(1, 2**31),
        "xover_opa_hz": rng.uniform(3e6, 6e6),
        "xover_lo_hz": rng.uniform(1.5e6, 3e6),
        "sweep_start_hz": rng.uniform(1e6, 3e6),
        "sweep_stop_hz": rng.uniform(30e6, 60e6),
        "sweep_points": rng.randint(97, 1001),
    }


def render_scenario(p: dict, *, extra_opa_line: str = "", bare_pump: bool = False) -> str:
    """Scenario-file text for ``p``.  ``bare_pump`` drops the pump unit and
    ``extra_opa_line`` appends a line to [opa]; both make malformed files
    for the CLI error path."""
    pump = f"{p['pump_w']!r}" if bare_pump else f"{p['pump_w']!r} W"
    lines = [
        "[opa]",
        f"pump_power = {pump}",
        f"shg_efficiency = {p['alpha']!r} per_watt",
        f"waveguide_loss = {p['wg_loss']!r} fraction",
    ]
    if extra_opa_line:
        lines.append(extra_opa_line)
    lines += [
        "",
        "[phase]",
        f"jitter = {p['theta']!r} rad",
        f"lock_mode = {p['lock_mode']}",
        f"scan_rate = {p['scan_rate_hz']!r} Hz",
        "",
        "[detection_loss]",
    ]
    lines += [f"{label} = {loss!r} fraction" for label, loss in p["losses"].items()]
    lines += [
        "",
        "[detector]",
        f"shot_noise_level = {p['shot_dbm']!r} dBm",
        f"clearance = {p['clearance_db']!r} dB",
        f"clearance_frequency = {p['clearance_hz']!r} Hz",
        f"circuit_high_corner = {p['high_corner_hz']!r} Hz",
        f"circuit_slope = {p['slope_db_per_decade']!r} dB_per_decade",
        "",
        "[analyzer]",
        f"center_frequency = {p['center_hz']!r} Hz",
        "span = 0 Hz",
        f"rbw = {RBW_HZ!r} Hz",
        f"vbw = {RBW_HZ / p['k']!r} Hz",
        f"sweep_time = {p['sweep_time_s']!r} s",
        f"points = {p['points']}",
        f"seed = {p['seed']}",
        "",
        "[lock_loops]",
        f"opa_probe_crossover = {p['xover_opa_hz']!r} Hz",
        f"probe_lo_crossover = {p['xover_lo_hz']!r} Hz",
        "shift_candidates = " + ", ".join(f"{c!r} Hz" for c in SHIFT_CANDIDATES_HZ),
        "min_gain_margin = 6.0 dB",
        "min_phase_margin = 30.0 deg",
        "",
        "[frequency_sweep]",
        f"start = {p['sweep_start_hz']!r} Hz",
        f"stop = {p['sweep_stop_hz']!r} Hz",
        f"points = {p['sweep_points']}",
        "",
    ]
    return "\n".join(lines)


def fit_params(rng: random.Random, u=None) -> dict:
    """Generating parameters and a noisy pump sweep for one fit study.

    ``u`` places the draw: six numbers in [0, 1) for the point count, the
    top pump power, eta, alpha, jitter and the noise level (one row of
    ``latin_hypercube``).  Without it they are drawn from ``rng``.
    """
    if u is None:
        u = [rng.random() for _ in range(6)]
    u_n, u_p, u_eta, u_alpha, u_theta, u_sigma = u
    n = 6 + int(35 * u_n)  # 6 to 40 points
    p_max = 0.4 + 0.8 * u_p
    eta = 0.6 + 0.38 * u_eta
    alpha = 2.0 + 13.0 * u_alpha
    theta = math.radians(0.2 + 2.8 * u_theta)
    sigma = 0.02 + 0.13 * u_sigma
    pumps = sorted(rng.uniform(0.02, p_max) for _ in range(n))
    rows = []
    for pw in pumps:
        sq, anti = oracles.mixed_pair(eta, alpha, pw, theta)
        rows.append((
            pw,
            10.0 * math.log10(sq) + rng.gauss(0.0, sigma),
            10.0 * math.log10(anti) + rng.gauss(0.0, sigma),
        ))
    return {"eta": eta, "alpha": alpha, "theta": theta, "rows": rows}


def render_sweep_csv(rows) -> str:
    lines = ["pump_w,squeezing_db,antisqueezing_db"]
    lines += [f"{p!r},{s!r},{a!r}" for p, s, a in rows]
    return "\n".join(lines) + "\n"


def stratified(rng: random.Random, n: int) -> list[float]:
    """n draws from U(0, 1), one from each of n equal strata, shuffled."""
    u = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(u)
    return u


def latin_hypercube(rng: random.Random, n: int, dims: int) -> list[tuple[float, ...]]:
    """n points in [0, 1)^dims whose every coordinate is ``stratified``.

    Stratifying the whole input set of a workload keeps its mix of cheap
    and expensive inputs the same from seed to seed, which keeps the
    run-to-run spread small while the seed still chooses every value.
    """
    return list(zip(*(stratified(rng, n) for _ in range(dims))))
