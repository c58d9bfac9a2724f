"""Seeded invocation plans for the three workloads.

A plan is one *round*: a fixed sequence of CLI argument lists whose shapes
are the same for every seed, while the seed draws the parameters inside each
shape.  A run repeats the round until its time is up, so every argv runs
several times (which the determinism check needs) and every run's figures
cover the same mix of shapes (which keeps seed-to-seed spread small).
"""

from __future__ import annotations

import random

#: The workloads of BENCHMARK.json; no invocation of theirs fails at the seed.
WORKLOADS = ("cli-explore", "verify-suite", "oracle-march")
#: Run only on request: its refusals and failing identities are the point.
EXTRA = ("verify-defects",)

EVAL_FIELDS = ("T", "Ty", "S", "xstar", "psi", "theta", "H", "boundaries")


def _g(x: float) -> str:
    return format(x, ".6g")


def _range(lo: float, hi: float, n: int) -> str:
    return f"{_g(lo)}:{_g(hi)}:{n}"


def _point(rng: random.Random) -> list:
    """Parameters from the README's valid region: q, l0, delta > 0, 0 <= tm0 < l0."""
    l0 = rng.uniform(0.5, 2.0)
    return [
        "--q", _g(rng.uniform(0.5, 2.0)),
        "--l0", _g(l0),
        "--tm0", _g(rng.uniform(0.0, 0.9) * l0),
        "--delta", _g(rng.uniform(0.5, 2.0)),
    ]


def cli_explore(rng: random.Random) -> list:
    """gamma (text and --json), eval over all eight fields, two sweeps."""
    plan = [["gamma", *_point(rng)], ["gamma", "--json", *_point(rng)]]
    for field in EVAL_FIELDS:
        argv = ["eval", "--field", field, *_point(rng)]
        if field in ("S", "H", "boundaries"):
            lo = rng.uniform(0.1, 1.0)
            argv += ["--t-range", _range(lo, lo * rng.uniform(2.0, 16.0), rng.randint(4, 32))]
        else:
            argv += ["--t", _g(rng.uniform(0.25, 4.0)), "--n", str(rng.randint(21, 201))]
        if rng.random() < 0.5:
            argv.append("--json")
        plan.append(argv)
    # One sweep at the 20x20 maximum and one of drawn size, so the round's
    # cost varies little between seeds.
    for n_q, n_tm0, extra in ((20, 20, []), (rng.randint(2, 20), rng.randint(2, 20), ["--json"])):
        q_lo = rng.uniform(0.5, 1.0)
        tm0_hi = rng.uniform(0.3, 0.9)
        plan.append([
            "sweep",
            "--q-range", _range(q_lo, q_lo + rng.uniform(0.5, 1.0), n_q),
            "--tm0-range", _range(0.0, tm0_hi, n_tm0),
            *extra,
        ])
    return plan


#: Off-baseline boxes of (q range, tm0 range) at l0 = delta = 1 where every
#: identity passes at the seed commit (each box's corners and six interior
#: points were checked).  A round draws one point from every box.  The boxes
#: are narrow because the suite's cost varies with q and tm0, and a wide box
#: would make the round's cost a lottery.  Around them verify is refused or
#: fails an identity; those points are the `verify-defects` workload.
VERIFY_BOXES = (
    ((0.85, 1.0), (0.42, 0.48)),
    ((1.25, 1.45), (0.53, 0.58)),
    ((1.6, 1.9), (0.52, 0.58)),
    ((0.65, 0.8), (0.40, 0.45)),
)

#: Boxes where the seed commit refuses verify or fails an identity: the
#: first is refused (NotMonotone: T_y*Theta + T^2 changes sign inside the
#: phase), the other two fail psi-boundary-conditions.  The benchmark's
#: gated workloads must not fail, so these run only as `verify-defects`,
#: which measures the refusal and failure shares ROADMAP item 4 should cut.
DEFECT_BOXES = (
    ((1.4, 2.0), (0.24, 0.36)),
    ((0.6, 0.8), (0.02, 0.08)),
    ((1.0, 1.5), (0.72, 0.82)),
)


#: The suite's cost grows with the grid (by about a third from 12x3 to
#: 50x5), so every slot of the round has a fixed grid and the seed draws
#: only the parameters: a drawn grid made the round's cost vary by seed.
BOX_GRID = "31,4"


def _box_argv(rng: random.Random, box) -> list:
    (q_lo, q_hi), (t_lo, t_hi) = box
    argv = [
        "verify",
        "--q", _g(rng.uniform(q_lo, q_hi)),
        "--tm0", _g(rng.uniform(t_lo, t_hi)),
        "--grid", BOX_GRID,
    ]
    if rng.random() < 0.5:
        argv.append("--json")
    return argv


def verify_suite(rng: random.Random) -> list:
    """verify at the baseline q=l0=1, tm0=0.5 and at one point per box."""
    plan = []
    baseline = (["--grid", "12,3"], ["--grid", "50,5", "--json"], ["--grid", "31,4"])
    for base, box in zip(baseline + ([],), VERIFY_BOXES):
        if base:
            plan.append(["verify", *base])
        plan.append(_box_argv(rng, box))
    return plan


def verify_defects(rng: random.Random) -> list:
    """verify at one point per defect box, then the baseline 31x4."""
    return [*(_box_argv(rng, box) for box in DEFECT_BOXES), ["verify", "--grid", "31,4"]]


def _oracle_point(rng: random.Random) -> tuple:
    return rng.uniform(0.8, 1.2), rng.uniform(0.2, 0.7)


def _oracle_argv(q, tm0, n_xi, t0, t_end, dt, extra=()) -> list:
    return [
        "oracle", "--q", _g(q), "--tm0", _g(tm0), "--n-xi", str(n_xi),
        "--t0", _g(t0), "--t-end", _g(t_end), "--dt", _g(dt), *extra,
    ]


def oracle_march(rng: random.Random) -> list:
    """The shapes of acceptance criterion 7 plus one n_xi=1024 run.

    For the closed-form seed S/S_dot = 2t, so the advective CFL number is
    dt*n_xi/(2*t0) at the first step and falls afterwards.  For the linear
    seed the first step has S_dot = q/(l0*sqrt(t0)) and the CFL number is
    q*dt*n_xi/(l0*sqrt(t0)*s0).  Every dt below keeps those under 0.9.
    """
    q, tm0 = _oracle_point(rng)
    # dt is drawn in narrow ranges: the step count sets a run's cost, and a
    # wide range made the round's cost vary by seed.
    closed = _oracle_argv(q, tm0, 256, 0.1, 1.0, rng.uniform(1.9e-4, 2.1e-4), ["--json"])
    q, tm0 = _oracle_point(rng)
    # One parameter point, so the three give a convergence order.  From
    # t0=0.4 the round is short enough to run two or three times in 36 s.
    n32, n64, n128 = (_oracle_argv(q, tm0, n_xi, 0.4, 0.5, 1e-5) for n_xi in (32, 64, 128))
    # The linear seed relaxes onto the similarity profile more slowly at low
    # tm0, and criterion 7 states its 1e-2 bound at t=4 for the baseline
    # q=1, tm0=0.5.  This point stays in a box around that baseline, where
    # the relative error at the seed commit is 5.3e-3 to 7.8e-3.
    q, tm0 = rng.uniform(0.9, 1.1), rng.uniform(0.45, 0.65)
    t0, s0, n_xi = 0.02, 0.05, 128
    dt_max = 0.9 * t0**0.5 * s0 / (q * n_xi)
    linear = _oracle_argv(
        q, tm0, n_xi, t0, 4.0, min(rng.uniform(3.8e-5, 4.2e-5), dt_max),
        ["--seed", "linear", "--s0", _g(s0)],
    )
    q, tm0 = _oracle_point(rng)
    wide = _oracle_argv(q, tm0, 1024, 0.1, 0.5, rng.uniform(4.75e-5, 5.25e-5), ["--json"])
    # The n_xi 64 and 128 runs sit in the middle of the round's costs, so
    # they set invocation_p50_s; the long linear run between them keeps
    # them apart in time, and their mean covers more of the host's drift.
    return [n64, linear, n128, closed, wide, n32]


PLANS = {
    "cli-explore": cli_explore,
    "verify-suite": verify_suite,
    "oracle-march": oracle_march,
    "verify-defects": verify_defects,
}


def make_plan(workload: str, seed: int) -> list:
    """The round of argv lists for ``workload`` at ``seed``."""
    return PLANS[workload](random.Random(f"{workload}:{seed}"))
