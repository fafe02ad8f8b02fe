"""Batch front end: load instances from JSON, run any layer, emit CSV/JSON.

Design points the commands share:

* one subcommand per layer (ot / ecp / exact-gn / ldp-rate / mdp-rate /
  clt / converge / sample);
* exit 0 on success, 2 on any validation problem (including malformed
  JSON, reported with line and column), 3 on a size-guard refusal;
* CSV output is a header row plus comma-separated values at 12 significant
  digits; JSON output carries full-precision numbers and echoes the loaded
  instance so emitted files round-trip;
* byte-identical output on reruns; the only randomness (sequence sampling)
  demands an explicit --seed;
* each command imports its own layers when it runs, so a process loads only
  what its subcommand needs (``clt`` loads no transport, lattice, ldp or mdp).
"""
from __future__ import annotations

import argparse
import json
import math
import random
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import SizeGuardError, StrassenLabError, ValidationError
from .measures import Dist

if TYPE_CHECKING:
    from .transport import CostMatrix


@dataclass(frozen=True)
class Instance:
    px: Dist
    py: Dist
    cost: CostMatrix
    alpha: float | None = None
    delta: float | None = None
    n: int | None = None


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise ValidationError(msg)


def _parse_dist(node, where: str) -> Dist:
    _expect(isinstance(node, dict), f"{where} must be an object")
    _expect(set(node) == {"labels", "mass"},
            f"{where} needs exactly the keys 'labels' and 'mass'")
    labels, mass = node["labels"], node["mass"]
    _expect(isinstance(labels, list) and isinstance(mass, list),
            f"{where}: 'labels' and 'mass' must be arrays")
    _expect(len(labels) == len(mass),
            f"{where}: {len(labels)} labels against {len(mass)} masses")
    for v in mass:
        _expect(isinstance(v, (int, float)) and not isinstance(v, bool)
                and math.isfinite(v), f"{where}: masses must be finite numbers")
    return Dist(tuple(labels), tuple(float(v) for v in mass))


def parse_instance(data) -> Instance:
    """Validate a decoded instance object and build the in-memory value."""
    from .transport import CostMatrix

    _expect(isinstance(data, dict), "instance file must hold a JSON object")
    allowed = {"px", "py", "cost", "alpha", "delta", "n"}
    unknown = set(data) - allowed
    _expect(not unknown, f"unknown instance keys: {sorted(unknown)}")
    for key in ("px", "py", "cost"):
        _expect(key in data, f"instance is missing '{key}'")
    px = _parse_dist(data["px"], "px")
    py = _parse_dist(data["py"], "py")
    rows = data["cost"]
    _expect(isinstance(rows, list) and rows, "cost must be a nonempty array")
    for row in rows:
        _expect(isinstance(row, list), "cost rows must be arrays")
        for v in row:
            _expect(isinstance(v, (int, float)) and not isinstance(v, bool)
                    and math.isfinite(v), "cost entries must be finite numbers")
    cost = CostMatrix.from_rows([[float(v) for v in row] for row in rows])
    _expect(cost.shape == (len(px), len(py)),
            f"cost is {cost.shape[0]}x{cost.shape[1]} but the alphabets have "
            f"sizes {len(px)} and {len(py)}")
    extras = {}
    for key in ("alpha", "delta"):
        if key in data:
            v = data[key]
            _expect(isinstance(v, (int, float)) and not isinstance(v, bool)
                    and math.isfinite(v), f"{key} must be a finite number")
            extras[key] = float(v)
    if "n" in data:
        v = data["n"]
        _expect(isinstance(v, int) and not isinstance(v, bool) and v >= 1,
                "n must be a positive integer")
        extras["n"] = v
    return Instance(px=px, py=py, cost=cost, **extras)


def instance_to_dict(inst: Instance) -> dict:
    out = {
        "px": inst.px.to_dict(),
        "py": inst.py.to_dict(),
        "cost": [list(row) for row in inst.cost.as_array().tolist()],
    }
    if inst.alpha is not None:
        out["alpha"] = inst.alpha
    if inst.delta is not None:
        out["delta"] = inst.delta
    if inst.n is not None:
        out["n"] = inst.n
    return out


def load_instance(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(json.load(fh))


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, int):
        return str(v)
    x = float(v)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return "%.12g" % x


def _json_cell(v):
    if isinstance(v, float) and not math.isfinite(v):
        return _fmt(v)
    return v


def _emit(args, columns, rows, instance: Instance | None = None) -> None:
    if args.format == "csv":
        lines = [",".join(columns)]
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    else:
        payload = {"columns": list(columns),
                   "rows": [[_json_cell(v) for v in row] for row in rows]}
        if instance is not None:
            payload["instance"] = instance_to_dict(instance)
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _need(inst_value, flag_value, name: str):
    """Flag wins over the instance field; one of the two must be present."""
    if flag_value is not None:
        return flag_value
    _expect(inst_value is not None,
            f"--{name} missing and the instance carries no '{name}'")
    return inst_value


def _parse_grid(spec: str):
    parts = spec.split(":")
    _expect(len(parts) == 3, f"grid {spec!r} is not of the form lo:hi:steps")
    try:
        lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValidationError(f"grid {spec!r} has non-numeric pieces") from None
    _expect(math.isfinite(lo) and math.isfinite(hi),
            f"grid {spec!r} has a non-finite bound")
    _expect(steps >= 1, "grid needs at least one step")
    _expect(lo <= hi, f"grid {spec!r} runs backwards")
    if steps == 1:
        return [lo]
    width = (hi - lo) / (steps - 1)
    return [lo + i * width for i in range(steps)]


def _parse_ns(spec: str):
    parts = spec.split(":")
    if len(parts) == 1:
        try:
            return [int(parts[0])]
        except ValueError:
            raise ValidationError(f"bad n value {spec!r}") from None
    _expect(len(parts) == 3, f"n spec {spec!r} is not lo:hi:rule")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValidationError(f"n spec {spec!r} has non-integer bounds") from None
    _expect(1 <= lo <= hi, f"n spec {spec!r} has a bad range")
    if parts[2] == "doubling":
        out = []
        v = lo
        while v <= hi:
            out.append(v)
            v *= 2
        return out
    try:
        count = int(parts[2])
    except ValueError:
        raise ValidationError(
            f"n rule {parts[2]!r} is neither 'doubling' nor a count"
        ) from None
    _expect(count >= 1, "n count must be positive")
    if count == 1:
        return [lo]
    step = (hi - lo) / (count - 1)
    out = sorted({int(round(lo + i * step)) for i in range(count)})
    return out


def cmd_ot(args) -> int:
    from .transport import kantorovich_certificate, ot_cost

    inst = load_instance(args.instance)
    result = ot_cost(inst.px, inst.py, inst.cost)
    columns = ["value"]
    row = [result.objective]
    if args.certify:
        _, _, gap = kantorovich_certificate(inst.px, inst.py, inst.cost, result)
        columns += ["duality_gap"]
        row += [gap]
    _emit(args, columns, [row], inst)
    return 0


def cmd_ecp(args) -> int:
    from .transport import ecp, ecp_dual_bruteforce

    inst = load_instance(args.instance)
    alpha = _need(inst.alpha, args.alpha, "alpha")
    res = ecp(inst.px, inst.py, inst.cost, alpha)
    columns = ["alpha", "value", "complement"]
    row = [alpha, res.value, res.complement]
    if args.oracle:
        dual, _ = ecp_dual_bruteforce(inst.px, inst.py, inst.cost, alpha)
        columns.append("oracle")
        row.append(dual)
    _emit(args, columns, [row], inst)
    return 0


def cmd_exact_gn(args) -> int:
    from .lattice import direct_gn_oracle, gn_tails

    inst = load_instance(args.instance)
    alpha = _need(inst.alpha, args.alpha, "alpha")
    n = _need(inst.n, args.n, "n")
    g, comp = gn_tails(inst.px, inst.py, inst.cost, alpha, n)
    columns = ["alpha", "n", "value", "complement"]
    row = [alpha, n, g, comp]
    if args.oracle:
        columns.append("oracle")
        row.append(direct_gn_oracle(inst.px, inst.py, inst.cost, alpha, n))
    _emit(args, columns, [row], inst)
    return 0


def cmd_ldp_rate(args) -> int:
    from .ldp import RateQuery, rate_f, rate_g

    inst = load_instance(args.instance)
    alpha = _need(inst.alpha, args.alpha, "alpha")
    query = RateQuery(inst.px, inst.py, inst.cost, alpha)
    rows = []
    if args.kind in ("f", "both"):
        rows.append(["f", alpha, rate_f(query)])
    if args.kind in ("g", "both"):
        rows.append(["g", alpha, rate_g(query)])
    _emit(args, ["kind", "alpha", "rate"], rows, inst)
    return 0


def cmd_mdp_rate(args) -> int:
    from .mdp import mdp_rate_lower, mdp_rate_upper

    inst = load_instance(args.instance)
    delta = _need(inst.delta, args.delta, "delta")
    _expect(delta != 0.0, "delta must be nonzero (sign picks the tail)")
    if delta < 0.0:
        side, value = "lower", mdp_rate_lower(
            inst.px, inst.py, inst.cost, delta, directions=args.directions)
    else:
        side, value = "upper", mdp_rate_upper(
            inst.px, inst.py, inst.cost, delta, directions=args.directions)
    _emit(args, ["side", "delta", "rate"], [[side, delta, value]], inst)
    return 0


def cmd_clt(args) -> int:
    from .clt import lambda_binary, lambda_dual_grid

    rows = []
    for d in _parse_grid(args.delta_grid):
        row = [d, lambda_binary(args.a, args.b, d)]
        if args.oracle:
            row.append(lambda_dual_grid(args.a, args.b, d))
        rows.append(row)
    columns = ["delta", "lambda"] + (["lambda_dual"] if args.oracle else [])
    _emit(args, columns, rows)
    return 0


def cmd_converge(args) -> int:
    from .lattice import exponent_series

    inst = load_instance(args.instance)
    alpha = _need(inst.alpha, args.alpha, "alpha")
    ns = _parse_ns(args.n)
    mode = {"lower": "lower-tail", "upper": "upper-tail"}[args.mode]
    curve = exponent_series(inst.px, inst.py, inst.cost,
                            lambda _n: alpha, ns, mode)
    rows = [[int(n), e] for n, e in zip(curve.params, curve.values)]
    _emit(args, ["n", "exponent"], rows, inst)
    return 0


def cmd_sample(args) -> int:
    from .lattice import lift_coupling, nested_instance, optimal_outer_plan

    inst = load_instance(args.instance)
    alpha = _need(inst.alpha, args.alpha, "alpha")
    n = _need(inst.n, args.n, "n")
    _expect(args.count >= 1, "--count must be positive")
    nested = nested_instance(inst.px, inst.py, inst.cost, n)
    plan = optimal_outer_plan(nested, alpha)
    sampler = lift_coupling(plan, nested)
    rng = random.Random(args.seed)
    carr = inst.cost.as_array()
    rows = []
    for draw in range(args.count):
        xs, ys = sampler.sample(rng)
        cost = sum(carr[i, j] for i, j in zip(xs, ys)) / n
        rows.append([
            draw,
            "|".join(str(inst.px.labels[i]) for i in xs),
            "|".join(str(inst.py.labels[j]) for j in ys),
            cost,
        ])
    _emit(args, ["draw", "x", "y", "cost"], rows, inst)
    return 0


def _add_common(sub, instance: bool = True) -> None:
    if instance:
        sub.add_argument("instance", help="path to an instance JSON file")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--out", help="output file (default: stdout)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strassen-lab",
        description="Excess-cost probabilities over product laws: exact "
                    "finite-n values, deviation rates, and limit curves.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("ot", help="optimal transport value")
    _add_common(p)
    p.add_argument("--certify", action="store_true",
                   help="attach the dual-feasibility duality gap")
    p.set_defaults(func=cmd_ot)

    p = subs.add_parser("ecp", help="excess-cost probability of one pair")
    _add_common(p)
    p.add_argument("--alpha", type=float)
    p.add_argument("--exact", action="store_true",
                   help="ignored; kept so existing command lines still run "
                        "(the max-flow is always big-integer exact)")
    p.add_argument("--oracle", action="store_true",
                   help="attach the subset-enumeration dual value")
    p.set_defaults(func=cmd_ecp)

    p = subs.add_parser("exact-gn",
                        help="exact n-sample excess-cost probability")
    _add_common(p)
    p.add_argument("--alpha", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--oracle", action="store_true",
                   help="attach the full product-space enumeration value")
    p.set_defaults(func=cmd_exact_gn)

    p = subs.add_parser("ldp-rate", help="large-deviation rate functions")
    _add_common(p)
    p.add_argument("--alpha", type=float)
    p.add_argument("--kind", choices=("f", "g", "both"), default="both")
    p.set_defaults(func=cmd_ldp_rate)

    p = subs.add_parser("mdp-rate", help="moderate-deviation rate kernels")
    _add_common(p)
    p.add_argument("--delta", type=float)
    p.add_argument("--directions", type=int, default=720,
                   help="ignored; kept so existing command lines still run "
                        "(the kernels come from the optimal dual face)")
    p.set_defaults(func=cmd_mdp_rate)

    p = subs.add_parser("clt", help="binary root-n limit curve")
    _add_common(p, instance=False)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--delta-grid", required=True, metavar="LO:HI:STEPS")
    p.add_argument("--oracle", action="store_true",
                   help="attach the grid-maximization value")
    p.set_defaults(func=cmd_clt)

    p = subs.add_parser("converge", help="decay-exponent series over n")
    _add_common(p)
    p.add_argument("--mode", choices=("lower", "upper"), required=True)
    p.add_argument("--alpha", type=float)
    p.add_argument("--n", required=True, metavar="LO:HI:RULE",
                   help="e.g. 50:800:doubling or 50:800:5 or a single value")
    p.set_defaults(func=cmd_converge)

    p = subs.add_parser("sample",
                        help="draw sequence pairs from an optimal coupling")
    _add_common(p)
    p.add_argument("--alpha", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--seed", type=int, required=True,
                   help="sampling is never silently seeded")
    p.add_argument("--count", type=int, default=1)
    p.set_defaults(func=cmd_sample)

    return parser


def _glue_grid_values(argv):
    """Join ``--delta-grid -3:3:61`` into one token.

    argparse would otherwise read the leading dash of a negative bound as a
    new flag; colon grids are not plain negative numbers, so its built-in
    heuristic does not cover them.
    """
    out, i = [], 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--delta-grid" and i + 1 < len(argv):
            out.append(tok + "=" + argv[i + 1])
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_glue_grid_values(argv))
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON at line {exc.lineno}, column "
              f"{exc.colno}: {exc.msg}", file=sys.stderr)
        return 2
    except SizeGuardError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except (StrassenLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
