"""Per-layer metrics from the span files that ``trace_child.py`` writes.

A span's self time is its duration minus the part of it that its child
spans cover (the union of their intervals, since `sweep` runs children on
pool threads).  Every metric is per round of the workload's plan: for each
argv the mean over its traced invocations, summed over the round's argvs.
Ratios are ratios of those sums.

The recorder costs time too, nearly all of it outside each span's own
interval and so in its parent's self time.  ``run.py`` times that cost per
span beside every traced child; the attribution subtracts it from the
parents' layers, while the ``layer.*.self_s`` metrics stay as measured.
"""

from __future__ import annotations

from collections import defaultdict

from reference import IDENTITIES

COMMANDS = ("gamma", "eval", "verify", "oracle", "sweep")
FIELD_METHODS = ("psi_parametric", "theta", "x_star", "invert_x_star", "psi_at")
CALL_ONLY = ("s_from_psi", "h_of_t", "theta_quadrature", "c_of_t_general")
#: StefanError subclasses that the transform layer raises, plus a catch-all.
ERRORS = (
    "DegenerateDenominator",
    "DomainError",
    "NotMonotone",
    "OutOfRange",
    "QuadratureFailure",
    "SingularDenominator",
    "SingularTheta",
    "other",
)
LAYERS = ("cli_import", "cli", "similarity", "transform", "verify", "oracle", "untraced")
#: Where most self time should sit, per workload, before anything is measured.
PREDICTED = {
    "cli-explore": ("cli_import",),
    "verify-suite": ("transform", "verify"),
    "oracle-march": ("oracle",),
    "verify-defects": ("transform", "verify"),
}
INVERTING = ("transform.invert_x_star", "transform.s_from_psi")

IMPORT_METRICS = (
    "cli.import_s",
    "cli.import.scipy_linalg_s",
    "cli.import.scipy_integrate_s",
    "cli.import.package_self_s",
)


def metric_names() -> list:
    """Every per-layer metric, in report order, with its unit."""
    out = [(name, "s") for name in IMPORT_METRICS]
    out += [(f"cli.{c}.self_s", "s") for c in COMMANDS]
    out += [("cli.sweep.cells", "count"), ("cli.output_bytes", "B")]
    out += [
        ("similarity.solve_gamma.calls", "count"),
        ("similarity.solve_gamma.self_s", "s"),
        ("similarity.solve_gamma.iterations", "count"),
        ("similarity.field.calls", "count"),
        ("similarity.field.points", "count"),
        ("similarity.field.self_s", "s"),
    ]
    for m in FIELD_METHODS:
        out += [(f"transform.{m}.calls", "count"), (f"transform.{m}.points", "count"),
                (f"transform.{m}.self_s", "s")]
    for m in CALL_ONLY:
        out += [(f"transform.{m}.calls", "count"), (f"transform.{m}.self_s", "s")]
    out += [
        ("transform.quad.calls", "count"),
        ("transform.quad.self_s", "s"),
        ("transform.quad.integrand_evals", "count"),
        ("transform.quad.evals_per_call", "ratio"),
        ("transform.x_star_per_inverted_point", "ratio"),
    ]
    out += [(f"transform.errors.{e}", "count") for e in ERRORS]
    for ident in IDENTITIES:
        out += [(f"verify.{ident}.self_s", "s"), (f"verify.{ident}.total_s", "s"),
                (f"verify.{ident}.failed", "count")]
    out += [("verify.run_verification_suite.self_s", "s")]
    out += [
        ("oracle.solve.calls", "count"),
        ("oracle.solve.self_s", "s"),
        ("oracle.solve.steps", "count"),
        ("oracle.us_per_step", "us"),
        ("oracle.ns_per_cell_step", "ns"),
        ("oracle.compare.self_s", "s"),
        ("oracle.max_cfl", "ratio"),
        ("oracle.max_principle_violations", "count"),
    ]
    out += [(f"layer.{layer}.self_s", "s") for layer in LAYERS]
    out += [
        ("trace.spans", "count"),
        ("trace.span_cost_ns", "ns"),
        ("trace.recorder_s", "s"),
        ("trace.dump_s", "s"),
        ("trace.invocation_p50_s", "s"),
        ("trace.overhead_frac", "ratio"),
    ]
    return out


def _layer(name: str) -> str:
    if name == "cli.import":
        return "cli_import"
    return name.split(".", 1)[0]


def _self_times(spans) -> list:
    kids = defaultdict(list)
    for i, sp in enumerate(spans):
        if sp[3] >= 0:
            kids[sp[3]].append((sp[1], sp[2]))
    out = []
    for i, sp in enumerate(spans):
        covered, reach = 0, None
        for start, end in sorted(kids.get(i, ())):
            if reach is None or start > reach:
                covered += end - start
                reach = end
            elif end > reach:
                covered += end - reach
                reach = end
        out.append(sp[2] - sp[1] - covered)
    return out


class Totals:
    """Weighted sums over the traced invocations of a run."""

    def __init__(self):
        self.sum = defaultdict(float)
        self.max_cfl = 0.0

    def add(self, command: str, wall_s: float, output_bytes: int, data: dict, weight: float,
            span_cost_ns: float):
        names, spans = data["names"], data["spans"]
        self_ns = _self_times(spans)
        s = defaultdict(float)
        s["cli.output_bytes"] += output_bytes
        s["trace.spans"] += len(spans)
        s["trace.recorder_s"] += len(spans) * span_cost_ns * 1e-9
        s["trace.dump_s"] += data["dump_ns"] * 1e-9
        inverting = [False] * len(spans)
        in_sweep = [False] * len(spans)
        roots_ns = 0
        for i, (nid, start, end, parent, extra, error) in enumerate(spans):
            name = names[nid]
            own = self_ns[i] * 1e-9
            s[f"layer.{_layer(name)}.self_s"] += own
            if parent < 0:
                roots_ns += end - start
                s["recorder.untraced"] += span_cost_ns * 1e-9
            else:
                pname = names[spans[parent][0]]
                s[f"recorder.{_layer(pname)}"] += span_cost_ns * 1e-9
                inverting[i] = inverting[parent] or pname in INVERTING
                in_sweep[i] = in_sweep[parent] or pname == "cli.sweep"
            if error is not None and name.startswith("transform."):
                key = error if error in ERRORS else "other"
                s[f"transform.errors.{key}"] += 1
            if name in ("cli.main", f"cli.{command}"):
                s[f"cli.{command}.self_s"] += own
            elif name == "similarity.solve_gamma":
                s["similarity.solve_gamma.calls"] += 1
                s["similarity.solve_gamma.self_s"] += own
                s["similarity.solve_gamma.iterations"] += extra
                s["cli.sweep.cells"] += in_sweep[i]
            elif name == "transform.quad":
                s["transform.quad.calls"] += 1
                s["transform.quad.self_s"] += own
                s["transform.quad.integrand_evals"] += extra
                if parent >= 0 and names[spans[parent][0]] == "transform.s_from_psi":
                    s["inverted_points"] += extra  # one inversion per integrand call
            elif name == "oracle.solve":
                steps, n_xi, cfl, violations = extra or (0, 0, 0.0, 0)
                s["oracle.solve.calls"] += 1
                s["oracle.solve.self_s"] += own
                s["oracle.solve.steps"] += steps
                s["oracle.cell_steps"] += steps * n_xi
                s["oracle.max_principle_violations"] += violations
                self.max_cfl = max(self.max_cfl, cfl)
            elif name == "oracle.compare":
                s["oracle.compare.self_s"] += own
            elif name.startswith("verify."):
                s[f"{name}.self_s"] += own
                if name != "verify.run_verification_suite":
                    s[f"{name}.total_s"] += (end - start) * 1e-9
                    s[f"{name}.failed"] += extra
            elif name.startswith(("similarity.", "transform.")):
                s[f"{name}.calls"] += 1
                s[f"{name}.points"] += extra
                s[f"{name}.self_s"] += own
                if name == "transform.x_star" and inverting[i]:
                    s["x_star_inverting"] += 1
                if name == "transform.invert_x_star" and not inverting[i]:
                    s["inverted_points"] += extra
        s["layer.untraced.self_s"] += max(0.0, wall_s - roots_ns * 1e-9)
        for key, value in s.items():
            self.sum[key] += weight * value

    def metrics(self, imports: dict, traced_p50: float, untraced_p50: float) -> dict:
        s = self.sum
        per_round = {name: s.get(name, 0.0) for name, _ in metric_names()}
        per_round.update(imports)

        def ratio(num, den):
            return s[num] / s[den] if s.get(den) else 0.0

        per_round["transform.quad.evals_per_call"] = ratio("transform.quad.integrand_evals", "transform.quad.calls")
        per_round["transform.x_star_per_inverted_point"] = ratio("x_star_inverting", "inverted_points")
        per_round["oracle.us_per_step"] = 1e6 * ratio("oracle.solve.self_s", "oracle.solve.steps")
        per_round["oracle.ns_per_cell_step"] = 1e9 * ratio("oracle.solve.self_s", "oracle.cell_steps")
        per_round["oracle.max_cfl"] = self.max_cfl
        per_round["trace.span_cost_ns"] = 1e9 * ratio("trace.recorder_s", "trace.spans")
        per_round["trace.invocation_p50_s"] = traced_p50
        per_round["trace.overhead_frac"] = traced_p50 / untraced_p50 - 1.0
        return per_round


    def recorder(self) -> dict:
        """Recorder time per round, by the layer whose self time it lands in."""
        return {layer: self.sum.get(f"recorder.{layer}", 0.0) for layer in LAYERS}


def attribution(workload: str, metrics: dict, recorder: dict) -> dict:
    """Each layer's share of traced self time net of the recorder, and whether
    the prediction held.

    The recorder's cost is an estimate, so the verdict is also taken with
    none and with twice that cost subtracted.  If those disagree, the
    verdict is unresolved: the margin is within the tracing overhead.
    """
    measured = {layer: metrics[f"layer.{layer}.self_s"] for layer in LAYERS}
    predicted = PREDICTED[workload]

    def net(factor):
        return {layer: v - factor * recorder[layer] for layer, v in measured.items()}

    def holds(self_s):
        return sum(self_s[p] for p in predicted) >= max(
            v for k, v in self_s.items() if k not in predicted
        )

    verdicts = {holds(net(factor)) for factor in (0.0, 1.0, 2.0)}
    if len(verdicts) > 1:
        verdict = "unresolved: within the tracing overhead"
    else:
        verdict = "holds" if verdicts.pop() else "DISAGREES"
    self_s = net(1.0)
    total = sum(self_s.values()) or 1.0
    shares = {layer: v / total for layer, v in self_s.items()}
    return {"predicted": "+".join(predicted), "top": max(shares, key=shares.get), "verdict": verdict,
            "shares": {k: round(v, 4) for k, v in shares.items()},
            "recorder_s": {k: round(v, 4) for k, v in recorder.items()}}
