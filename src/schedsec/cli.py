"""Command-line front end.

Subcommands cover the full pipeline: steady-state analysis, optimal
schedule search, cost evaluation, attack synthesis, defense construction
and verification, covariance simulation, and a one-shot reproduction of
the bundled three-sensor study.  Every output format (JSON documents, the
cost and covariance-series CSV tables) is rendered here, from the library's
result objects.  All outputs are deterministic: fixed seeds give
byte-identical files, and every output directory carries a
run_manifest.json recording inputs, parameters, and versions (never
timestamps).

Exit codes: 0 success, 2 usage, 3 validation, 4 infeasible, 5 budget.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .attack import (bnb_optimal_attack, brute_force_optimal_attack,
                     isolate_sensor_attack, random_attack)
from .errors import (BudgetError, InfeasibleError, SchedSecError,
                     ValidationError, Work, read_json)
from .lti_estimation import bundled_systems, load_systems, steady_state
from .protocol_sequences import (_factor_docs, bounds,
                                 construct_shift_invariant,
                                 is_shift_invariant, policies_from_dict,
                                 shortest_period_policies)
from .scheduling import (Schedule, ShiftTuple, average_cost,
                         optimal_schedule_search, reception)
from .simulation import exact_covariance_series, monte_carlo_expected_cost

_BUNDLED_SYSTEMS = "bundled:three-sensor-study"


def _finite(v):
    if v is None:
        return None
    v = float(v)
    return None if math.isinf(v) or math.isnan(v) else v


def _json_text(doc, sched: Schedule | None = None) -> str:
    """json.dumps(doc, indent=2, sort_keys=True) and a newline.

    A defense can have millions of entries, too many for the pure-Python
    indented encoder, so the top-level "rows" of a document written for
    `sched` is rendered from its array's bytes and spliced in where the
    encoder put null: a top-level key is the only line that starts with
    two spaces and a quote, since JSON strings escape their newlines.
    Such a document's own "rows", if it has any, is never read, so its
    writers pass only the other keys (`_head`)."""
    if sched is None:
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    head, tail = json.dumps({**doc, "rows": None}, indent=2, sort_keys=True
                            ).split('\n  "rows": null', 1)
    rows = "\n    ],\n    [\n      ".join(  # 0x30 | bit: its ASCII digit
        ",\n      ".join(row.tobytes().decode("ascii"))
        for row in sched.array | 0x30)
    return f'{head}\n  "rows": [\n    [\n      {rows}\n    ]\n  ]{tail}\n'


def _head(sched: Schedule, factors: bool = False) -> dict:
    """The keys of sched.to_dict(), or of policies_to_dict(sched) with
    `factors`, but for "rows", which _json_text renders from the array."""
    if factors:
        return {"T": sched.period, "factors": _factor_docs(sched)}
    return {"T": sched.period}


def _sha256(data: bytes) -> str:
    return f"sha256:{hashlib.sha256(data).hexdigest()}"


class _Run:
    """Collects rendered artifacts plus manifest metadata for one command."""

    def __init__(self, args, command: str):
        self.args = args
        self.command = command
        self.artifacts: dict[str, str] = {}
        self.inputs: dict[str, str] = {}
        self.parameters: dict = {}

    def add_json(self, name: str, doc, sched: Schedule | None = None):
        self.artifacts[name] = _json_text(doc, sched)

    def add_text(self, name: str, text: str):
        self.artifacts[name] = text

    def finish(self, primary: str) -> int:
        out = getattr(self.args, "out", None)
        if out is None:
            sys.stdout.write(self.artifacts[primary])
            return 0
        outdir = Path(out)
        outdir.mkdir(parents=True, exist_ok=True)
        # each artifact is encoded once: the manifest hashes the bytes that
        # are written, on every platform's line ends
        data = {name: text.encode("utf-8")
                for name, text in self.artifacts.items()}
        manifest = {
            "command": self.command,
            "parameters": self.parameters,
            "inputs": self.inputs,
            "outputs": {name: _sha256(blob)
                        for name, blob in sorted(data.items())},
            "versions": {
                "schedsec": __version__,
                "numpy": np.__version__,
                "python": "%d.%d.%d" % sys.version_info[:3],
            },
        }
        data["run_manifest.json"] = _json_text(manifest).encode("utf-8")
        for name, blob in data.items():
            (outdir / name).write_bytes(blob)
        sys.stdout.write(f"wrote {len(data)} files to {outdir}\n")
        return 0


def _load_systems_arg(run: _Run, path):
    run.parameters["systems"] = path or _BUNDLED_SYSTEMS
    if path is None or path == _BUNDLED_SYSTEMS:
        run.inputs["systems"] = _BUNDLED_SYSTEMS
        return bundled_systems()
    return _load_arg(run, "systems", path, load_systems)


def _load_arg(run: _Run, label: str, path, parse):
    """The one place an input file is opened: its bytes are read once, the
    manifest records their SHA-256, and `parse` gets the decoded document,
    so a pipe is hashed as read."""
    data = Path(path).read_bytes()
    run.inputs[label] = _sha256(data)
    return parse(read_json(data))


def _load_rows_arg(run: _Run, args):
    """The policy set or plain schedule named by exactly one of --policies
    and --schedule."""
    if bool(args.policies) == bool(args.schedule):
        raise ValidationError("pass exactly one of --policies or --schedule")
    if args.policies:
        return _load_arg(run, "policies", args.policies, policies_from_dict)
    return _load_arg(run, "schedule", args.schedule, Schedule.from_dict)


# -- renderers ------------------------------------------------------------


def _steady_state_doc(states, extra=()) -> dict:
    """P_bar and its trace per sensor, plus the SteadyState attributes
    named in `extra`."""
    return {"systems": [{"index": i,
                         "P_bar": [[float(v) for v in row] for row in st.P_bar],
                         "trace": float(np.trace(st.P_bar)),
                         **{name: getattr(st, name) for name in extra}}
                        for i, st in enumerate(states)]}


def _cost_doc(report) -> dict:
    return {
        "sensors": [{"index": i,
                     "average_trace": _finite(v),
                     "divergent": math.isinf(v)}
                    for i, v in enumerate(report.per_sensor)],
        "total": _finite(report.total),
        "any_divergent": report.any_divergent,
    }


def _cost_csv(report) -> str:
    # the csv module's dialect: \r\n line ends, flags as True/False
    lines = ["sensor_index,average_trace,divergent"]
    lines += [f"{i},{'' if math.isinf(v) else repr(v)},{math.isinf(v)}"
              for i, v in enumerate(report.per_sensor)]
    return "\r\n".join(lines) + "\r\n"


def _emit_cost(run: _Run, report, stem: str) -> str:
    if run.args.format == "csv":
        name = f"{stem}.csv"
        run.add_text(name, _cost_csv(report))
    else:
        name = f"{stem}.json"
        run.add_json(name, _cost_doc(report))
    return name


def _attack_doc(result, extra: dict | None = None) -> dict:
    doc = {
        "blocking": result.blocking,
        "taus": list(result.taus.taus) if result.taus is not None else None,
        "spoofed_count": result.spoofed_count,
        "blocked_sensors": list(result.blocked_sensors),
        "nodes_explored": result.nodes_explored,
    }
    if result.per_target_costs is not None:
        doc["per_target_costs"] = list(result.per_target_costs)
    if extra:
        doc.update(extra)
    return doc


def _bounds_doc(br) -> dict:
    return {"lower": _finite(br.lower), "upper": _finite(br.upper),
            "period": br.period,
            "per_sensor_receptions": list(br.per_sensor_receptions)}


def _series_prefixes(n_sensors: int, horizon: int) -> list[str]:
    """The "k,i," column of a series CSV, in slot-major order."""
    heads = [f",{i}," for i in range(n_sensors)]
    return [f"{k}{head}" for k in range(horizon) for head in heads]


def _series_csv(series, prefixes: list[str] | None = None) -> str:
    """One line per slot and sensor, floats as repr, Unix line ends.

    Rendered in one pass over the slot-major columns.  A periodic series
    repeats its traces, so each distinct trace is rendered once, keyed by
    its bits: 0.0 and -0.0 stay apart and every NaN renders as nan.  The
    running means seldom repeat and are rendered one by one.  The ",flag"
    line ends are built once per call; a caller that renders several
    series of one shape passes their `_series_prefixes` column.
    """
    bits, index = np.unique(series.traces.T.ravel().view(np.int64),
                            return_inverse=True)
    shown = np.array([repr(v) + "," for v in bits.view(float).tolist()],
                     dtype=object)
    if prefixes is None:
        prefixes = _series_prefixes(series.n_sensors, series.horizon)
    ends = [f",{int(d)}\n" for d in series.divergent] * series.horizon
    means = map(repr, series.running_means.T.ravel().tolist())
    return "k,sensor,trace,running_mean,divergent_flag\n" + "".join(
        map("".join, zip(prefixes, shown[index].tolist(), means, ends)))


def _summary_doc(series) -> dict:
    doc = {"period": series.period, "horizon": series.horizon,
           "sensors": [{"index": i,
                        "final_trace": _finite(series.traces[i, -1]),
                        "mean_trace": _finite(series.running_means[i, -1]),
                        "divergent": bool(series.divergent[i]),
                        "overflow_at": series.overflow_at[i]}
                       for i in range(series.n_sensors)]}
    periodic = series.periodic_average()
    if periodic is not None:
        doc["periodic_average"] = {
            "per_sensor": [_finite(v) for v in periodic.per_sensor],
            "total": _finite(periodic.total)}
    return doc


def _mc_doc(stats) -> dict:
    return {"mean": _finite(stats.mean), "std": _finite(stats.std),
            "halfwidth": _finite(stats.halfwidth),
            "n_divergent": stats.n_divergent}


# -- subcommands --------------------------------------------------------


def _cmd_steady_state(args) -> int:
    run = _Run(args, "steady-state")
    systems = _load_systems_arg(run, args.systems)
    states = [steady_state(sys) for sys in systems]
    if args.format == "csv":
        lines = ["sensor_index,trace,residual,iterations"]
        for i, st in enumerate(states):
            lines.append(f"{i},{float(np.trace(st.P_bar))!r},{st.residual!r},{st.iterations}")
        run.add_text("steady_state.csv", "\n".join(lines) + "\n")
        return run.finish("steady_state.csv")
    run.add_json("steady_state.json",
                 _steady_state_doc(states, ("residual", "iterations")))
    return run.finish("steady_state.json")


def _parse_periods(text: str) -> tuple[int, ...]:
    try:
        periods = tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise ValidationError(f"cannot parse period list {text!r}") from None
    if not periods:
        raise ValidationError("period list is empty")
    return periods


def _cmd_schedule(args) -> int:
    run = _Run(args, "schedule")
    systems = _load_systems_arg(run, args.systems)
    periods = _parse_periods(args.periods)
    run.parameters["periods"] = list(periods)
    sched, report = optimal_schedule_search(systems, periods)
    run.add_json("schedule.json", _head(sched), sched)
    _emit_cost(run, report, "schedule_cost")
    return run.finish("schedule.json")


def _cmd_cost(args) -> int:
    run = _Run(args, "cost")
    systems = _load_systems_arg(run, args.systems)
    sched = _load_arg(run, "schedule", args.schedule, Schedule.from_dict)
    run.parameters.update(schedule=args.schedule, attack=args.attack)
    attack = (_load_arg(run, "attack", args.attack, ShiftTuple.from_dict)
              if args.attack else None)
    receptions = reception(sched, attack)
    ladders = [steady_state(sys) for sys in systems]
    report = average_cost(receptions, ladders)
    name = _emit_cost(run, report, "cost")
    return run.finish(name)


def _cmd_attack_optimal(args) -> int:
    run = _Run(args, "attack optimal")
    sched = _load_arg(run, "schedule", args.schedule, Schedule.from_dict)
    run.parameters = {"schedule": args.schedule}
    result = bnb_optimal_attack(sched)
    run.add_json("attack_report.json", _attack_doc(result))
    if result.blocking:
        run.add_json("attack.json", result.taus.to_dict())
    return run.finish("attack_report.json")


def _cmd_attack_random(args) -> int:
    run = _Run(args, "attack random")
    sched = _load_arg(run, "schedule", args.schedule, Schedule.from_dict)
    run.parameters = {"schedule": args.schedule, "seed": args.seed}
    attack = random_attack(sched.period, sched.n_sensors, args.seed)
    run.add_json("attack.json", attack.to_dict())
    return run.finish("attack.json")


def _cmd_attack_isolate(args) -> int:
    run = _Run(args, "attack isolate")
    sched = _load_arg(run, "schedule", args.schedule, Schedule.from_dict)
    run.parameters = {"schedule": args.schedule, "target": args.target}
    attack = isolate_sensor_attack(sched, args.target)
    run.add_json("attack.json", attack.to_dict())
    return run.finish("attack.json")


def _cmd_defend_construct(args) -> int:
    run = _Run(args, "defend construct")
    if args.mode == "shortest-period":
        if args.n_sensors is not None:
            n = args.n_sensors
        elif args.schedule:
            n = _load_arg(run, "schedule", args.schedule,
                          Schedule.from_dict).n_sensors
        else:
            raise ValidationError(
                "shortest-period mode needs -n or --schedule to fix the "
                "sensor count")
        doc = _head(ps := shortest_period_policies(n), factors=True)
        run.parameters = {"mode": args.mode, "n_sensors": n}
    else:
        if not args.schedule:
            raise ValidationError(
                "same-duty mode needs --schedule to read duty factors from")
        sched = _load_arg(run, "schedule", args.schedule, Schedule.from_dict)
        ps = construct_shift_invariant(sched.duty_factors())
        doc = _head(ps, factors=True)
        run.parameters = {"mode": args.mode, "schedule": args.schedule,
                          "factors": doc["factors"]}
    run.add_json("policies.json", doc, ps)
    return run.finish("policies.json")


def _cmd_defend_bounds(args) -> int:
    run = _Run(args, "defend bounds")
    systems = _load_systems_arg(run, args.systems)
    ps = _load_arg(run, "policies", args.policies, policies_from_dict)
    run.parameters["policies"] = args.policies
    N, D = ps.n_sensors, ps.period  # the slots `defend construct` charges
    Work(f"bounding {N} rows of period {D}").charge(N * D)
    ladders = [steady_state(sys) for sys in systems]
    run.add_json("bounds.json", _bounds_doc(bounds(ps, ladders)))
    return run.finish("bounds.json")


def _cmd_defend_verify(args) -> int:
    run = _Run(args, "defend verify")
    rows = _load_rows_arg(run, args)
    run.parameters = {"source": args.policies or args.schedule}
    report = is_shift_invariant(rows)
    doc = {"invariant": report.invariant, "exhaustive": report.exhaustive,
           "witness": None if report.witness is None else
           {"sensors": list(report.witness[0]),
            "shifts": list(report.witness[1])}}
    run.add_json("invariance.json", doc)
    return run.finish("invariance.json")


def _cmd_simulate(args) -> int:
    run = _Run(args, "simulate")
    systems = _load_systems_arg(run, args.systems)
    policies = _load_rows_arg(run, args)
    attack = (_load_arg(run, "attack", args.attack, ShiftTuple.from_dict)
              if args.attack else None)
    run.parameters.update(schedule=args.schedule, policies=args.policies,
                          attack=args.attack, horizon=args.horizon,
                          trials=args.trials, seed=args.seed)
    ladders = [steady_state(sys) for sys in systems]
    series = exact_covariance_series(systems, policies, attack=attack,
                                     horizon=args.horizon, ladders=ladders)
    run.add_text("series.csv", _series_csv(series))
    run.add_json("summary.json", _summary_doc(series))
    if args.trials > 1:
        mc = monte_carlo_expected_cost(systems, policies, args.trials,
                                       args.seed, ladders=ladders)
        run.add_json("mc.json", {"trials": args.trials, "seed": args.seed,
                                 **_mc_doc(mc)})
    return run.finish("summary.json")


def _cmd_reproduce(args) -> int:
    run = _Run(args, "reproduce-paper")
    systems = _load_systems_arg(run, args.systems)
    periods = _parse_periods(args.periods)
    run.parameters.update(periods=list(periods), horizon=args.horizon,
                          trials=args.trials, seed=args.seed)
    ladders = [steady_state(sys) for sys in systems]
    run.add_json("steady_state.json", _steady_state_doc(ladders))

    sched, sched_report = optimal_schedule_search(systems, periods,
                                                  ladders=ladders)
    run.add_json("schedule.json", _head(sched), sched)
    _emit_cost(run, sched_report, "schedule_cost")

    result = bnb_optimal_attack(sched)
    brute = brute_force_optimal_attack(sched)
    agrees = (result.blocking == brute.blocking
              and result.spoofed_count == brute.spoofed_count)
    run.add_json("attack_report.json",
                 _attack_doc(result, {"brute_force_agrees": agrees}))
    if not result.blocking:
        raise InfeasibleError("no blocking attack exists for this schedule")
    run.add_json("attack.json", result.taus.to_dict())
    attack_report = average_cost(reception(sched, result.taus), ladders)
    _emit_cost(run, attack_report, "attack_cost")

    same_duty = construct_shift_invariant(sched.duty_factors())
    shortest = shortest_period_policies(sched.n_sensors)
    run.add_json("defense_same_duty.json", _head(same_duty, factors=True),
                 same_duty)
    run.add_json("defense_shortest.json", _head(shortest, factors=True),
                 shortest)
    run.add_json("bounds.json", {
        "same_duty": _bounds_doc(bounds(same_duty, ladders)),
        "shortest_period": _bounds_doc(bounds(shortest, ladders)),
    })

    K = args.horizon
    scenarios = [
        ("series_schedule.csv", sched, None),
        ("series_attacked.csv", sched, result.taus),
        ("series_same_duty.csv", same_duty,
         _wrap_attack(result.taus, same_duty.period)),
        ("series_shortest.csv", shortest,
         _wrap_attack(result.taus, shortest.period)),
    ]
    prefixes = _series_prefixes(sched.n_sensors, K)
    for name, pol, atk in scenarios:
        series = exact_covariance_series(systems, pol, attack=atk, horizon=K,
                                         ladders=ladders)
        run.add_text(name, _series_csv(series, prefixes))

    mc = {label: _mc_doc(monte_carlo_expected_cost(
              systems, ps, args.trials, args.seed, ladders=ladders))
          for label, ps in (("same_duty", same_duty),
                            ("shortest_period", shortest))}
    run.add_json("mc.json", {"trials": args.trials, "seed": args.seed,
                             "defenses": mc})
    return run.finish("attack_report.json")


def _wrap_attack(attack: ShiftTuple, period: int) -> ShiftTuple:
    return ShiftTuple(taus=tuple(t % period for t in attack.taus))


# -- parser -------------------------------------------------------------


def _nonnegative(text: str) -> int:
    v = int(text)
    if v < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {v}")
    return v


def _positive(text: str) -> int:
    v = int(text)
    if v < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {v}")
    return v


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schedsec",
        description="Scheduling, clock-spoofing attacks, and shift-invariant "
                    "defenses for multi-sensor remote state estimation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def out_format(p, fmt=True):
        p.add_argument("--out", help="output directory (default: print to stdout)")
        if fmt:
            p.add_argument("--format", choices=("csv", "json"), default="json",
                           help="flavor for tabular outputs (default json)")

    def systems_arg(p, required=True):
        p.add_argument("--systems", required=required,
                       help="JSON array of sensor models"
                            + ("" if required else
                               " (default: the bundled three-sensor study)"))

    p = sub.add_parser("steady-state", help="per-sensor steady-state covariance")
    systems_arg(p)
    out_format(p)
    p.set_defaults(func=_cmd_steady_state)

    p = sub.add_parser("schedule", help="optimal schedule search over rotation classes")
    systems_arg(p)
    p.add_argument("--periods", required=True,
                   help="comma-separated candidate periods, e.g. 3,4,5")
    out_format(p)
    p.set_defaults(func=_cmd_schedule)

    p = sub.add_parser("cost", help="long-run average cost of a schedule")
    systems_arg(p)
    p.add_argument("--schedule", required=True, help="schedule JSON file")
    p.add_argument("--attack", help="shift tuple JSON file")
    out_format(p)
    p.set_defaults(func=_cmd_cost)

    p = sub.add_parser("attack", help="clock-shift attack synthesis")
    asub = p.add_subparsers(dest="attack_command", required=True)
    pa = asub.add_parser("optimal", help="minimal-spoofing blocking attack")
    pa.add_argument("--schedule", required=True)
    out_format(pa, fmt=False)
    pa.set_defaults(func=_cmd_attack_optimal)
    pa = asub.add_parser("random", help="uniform random shift tuple")
    pa.add_argument("--schedule", required=True)
    pa.add_argument("--seed", type=_nonnegative, default=0)
    out_format(pa, fmt=False)
    pa.set_defaults(func=_cmd_attack_random)
    pa = asub.add_parser("isolate", help="starve one chosen sensor")
    pa.add_argument("--schedule", required=True)
    pa.add_argument("--target", type=_nonnegative, required=True)
    out_format(pa, fmt=False)
    pa.set_defaults(func=_cmd_attack_isolate)

    p = sub.add_parser("defend", help="shift-invariant countermeasures")
    dsub = p.add_subparsers(dest="defend_command", required=True)
    pd = dsub.add_parser("construct", help="build a shift-invariant policy set")
    pd.add_argument("--mode", choices=("same-duty", "shortest-period"),
                    required=True)
    pd.add_argument("--schedule", help="schedule whose duty factors to keep")
    pd.add_argument("-n", "--n-sensors", type=_positive,
                    help="sensor count for shortest-period mode")
    out_format(pd, fmt=False)
    pd.set_defaults(func=_cmd_defend_construct)
    pd = dsub.add_parser("bounds", help="attack-independent cost bounds")
    systems_arg(pd)
    pd.add_argument("--policies", required=True, help="policy set JSON file")
    out_format(pd, fmt=False)
    pd.set_defaults(func=_cmd_defend_bounds)
    pd = dsub.add_parser("verify", help="prove or refute shift invariance")
    pd.add_argument("--policies", help="policy set JSON file")
    pd.add_argument("--schedule", help="plain schedule JSON file")
    out_format(pd, fmt=False)
    pd.set_defaults(func=_cmd_defend_verify)

    p = sub.add_parser("simulate", help="exact covariance series, optional "
                                        "Monte Carlo over random attacks")
    systems_arg(p)
    p.add_argument("--schedule", help="schedule JSON file")
    p.add_argument("--policies", help="policy set JSON file")
    p.add_argument("--attack", help="shift tuple JSON file")
    p.add_argument("--horizon", type=_positive, default=1000)
    p.add_argument("--trials", type=_positive, default=1,
                   help="Monte Carlo trials over uniformly random shifts, "
                        "whatever --attack is (default 1: none)")
    p.add_argument("--seed", type=_nonnegative, default=0)
    out_format(p, fmt=False)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("reproduce-paper",
                       help="full pipeline on the bundled three-sensor study")
    systems_arg(p, required=False)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="flavor for tabular outputs (default csv)")
    p.add_argument("--periods", default="3")
    p.add_argument("--horizon", type=_positive, default=432)
    p.add_argument("--trials", type=_positive, default=200)
    p.add_argument("--seed", type=_nonnegative, default=0)
    p.set_defaults(func=_cmd_reproduce)

    return parser


# built by the first `main` call, not at import: a process that runs many
# commands (a test session, a benchmark loop) builds the tree once, and one
# that only imports the module builds none
_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except InfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (SchedSecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
