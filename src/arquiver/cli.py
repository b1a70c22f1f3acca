"""Command-line front end: arq roots|build|order|pairs|denom|dorey|verify."""

from __future__ import annotations

import argparse
import os
import re
import sys
from functools import partial

from . import __version__, ar_quiver, orders, qaffine, verify
from . import root_system as rs
from .quiver import make_height_function, parse_arrow_spec, parse_xi_anchor
from .root_system import ArquiverError, CartanDatum


class CliError(ArquiverError):
    pass


def _add_quiver_args(parser: argparse.ArgumentParser, need_arrows: bool = True):
    parser.add_argument("--type", dest="diagram_type", choices=("A", "D"), required=True)
    parser.add_argument("--rank", type=int, required=True)
    if need_arrows:
        parser.add_argument(
            "--arrows", required=True, help="directed edges, e.g. 2>1,3>2,2>4"
        )
        parser.add_argument(
            "--xi",
            default=None,
            help="height anchor vertex=value (default: last vertex = 0)",
        )


def _add_output_args(parser: argparse.ArgumentParser, formats=("ascii", "json")):
    parser.add_argument("--format", choices=formats, default="ascii")
    parser.add_argument("--out", default=None, help="write output to a file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arq",
        description="Auslander-Reiten quivers of type A/D: orders, pairs, "
        "denominators, Dorey predicates, exhaustive verification",
    )
    parser.add_argument("--version", action="version", version=f"arq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("roots", help="list the positive roots")
    p.set_defaults(run=cmd_roots)
    _add_quiver_args(p, need_arrows=False)
    _add_output_args(p)

    p = sub.add_parser("build", help="build and render Gamma_Q")
    p.set_defaults(run=cmd_build)
    _add_quiver_args(p)
    _add_output_args(p, formats=("ascii", "dot", "json"))

    p = sub.add_parser("order", help="one of the four canonical convex orders")
    p.set_defaults(run=cmd_order)
    _add_quiver_args(p)
    p.add_argument("--strategy", type=str.upper, choices=orders.STRATEGIES, required=True)
    _add_output_args(p)

    p = sub.add_parser("pairs", help="classify the pairs of a positive root")
    p.set_defaults(run=cmd_pairs)
    _add_quiver_args(p)
    p.add_argument("--gamma", required=True, help="a root: [..], e1+e2, or <1,-4>")
    _add_output_args(p)

    p = sub.add_parser("denom", help="denominator polynomial zeros")
    p.set_defaults(run=cmd_denom)
    p.add_argument("--family", choices=("D1", "D2"), required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-l", type=int, required=True)
    p.add_argument("--at", default=None, help="evaluate multiplicity at a printed parameter")
    _add_output_args(p)

    p = sub.add_parser("dorey", help="evaluate a Dorey-rule predicate")
    p.set_defaults(run=cmd_dorey)
    p.add_argument("--family", choices=("D1", "D2"), required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument(
        "--triple",
        required=True,
        help='levels and parameters "(i,x);(j,y);(k,z)", each x as arq prints it '
        "or a bare integer p for (-q)^p",
    )
    _add_output_args(p)

    p = sub.add_parser("verify", help="run the exhaustive theorem harness")
    p.set_defaults(run=cmd_verify)
    p.add_argument("--rank-max", type=int, default=4)
    p.add_argument(
        "--suite",
        choices=(*verify.SUITES, "all"),
        default="all",
    )
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--json", dest="json_out", default=None, help="write the report here")
    return parser


def _write(path: str, text: str, mode: str = "w") -> None:
    """Write text to path; a path that cannot be written is bad input."""
    try:
        with open(path, mode) as handle:
            handle.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror or exc}") from None


def _emit(text: str, out: str | None) -> None:
    if out is not None:
        _write(out, text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _gamma_q_from_args(args) -> ar_quiver.ARQuiver:
    datum = CartanDatum(args.diagram_type, args.rank)
    quiver = parse_arrow_spec(datum, args.arrows)
    vertex, value = parse_xi_anchor(args.xi) if args.xi else (datum.rank, 0)
    return ar_quiver.build(quiver, make_height_function(quiver, vertex, value))


# --- ascii rendering of Gamma_Q -------------------------------------------------

def render_grid(ar: ar_quiver.ARQuiver) -> str:
    datum = ar.datum
    labels = {
        coord: rs.format_root(datum, root) for coord, root in ar.root_at.items()
    }
    width = max(len(s) for s in labels.values())
    p_values = sorted({p for (_, p) in ar.root_at})
    p_min = p_values[0]
    slot = width + 2  # a label column plus a two-character arrow gutter
    left = 7

    def x_of(p: int) -> int:
        return left + (p - p_min) * slot

    rows = 2 * datum.rank - 1
    cols = x_of(p_values[-1]) + width + 1
    canvas = [[" "] * cols for _ in range(rows)]

    def put(y: int, x: int, text: str):
        for k, ch in enumerate(text):
            if 0 <= x + k < cols:
                canvas[y][x + k] = ch

    for (i, p), label in labels.items():
        put(2 * (i - 1), x_of(p), label)
    for (i, p), (j, q) in sorted(ar.arrows):
        y0, y1 = 2 * (i - 1), 2 * (j - 1)
        x0 = x_of(p) + len(labels[(i, p)])
        x1 = x_of(q) - 1
        steps = abs(y1 - y0)
        for t in range(1, steps):
            y = y0 + t if y1 > y0 else y0 - t
            x = x0 + round(t * (x1 - x0) / steps)
            ch = "\\" if y1 > y0 else "/"
            if canvas[y][x] == " ":
                canvas[y][x] = ch

    header = " (i,p) " + "".join(str(p).center(slot) for p in p_values)
    lines = [header, "-" * len(header)]
    for i in datum.vertices:
        body = "".join(canvas[2 * (i - 1)]).rstrip()
        lines.append(f"{i:>4}   " + body[left:])
        if i < datum.rank:
            gutter = "".join(canvas[2 * i - 1]).rstrip()
            if gutter:
                lines.append("       " + gutter[left:])
    lines.append("")
    lines.append("xi = " + " ".join(f"{v}={x}" for v, x in zip(datum.vertices, ar.xi)))
    lines.append("m  = " + " ".join(f"{v}={x}" for v, x in zip(datum.vertices, ar.m)))
    return "\n".join(lines)


# --- hom triples -------------------------------------------------------------------

_TRIPLE_RE = re.compile(r"^\s*\(\s*(\d+)\s*,(.*)\)\s*$")


def parse_triple(text: str) -> qaffine.HomTriple:
    """Components (level, param); a bare integer p is short for (-q)^p."""
    chunks = text.split(";")
    if len(chunks) != 3:
        raise CliError('triple must look like "(i,p);(j,p);(k,p)"')
    parts = []
    for chunk in chunks:
        m = _TRIPLE_RE.match(chunk)
        if not m:
            raise CliError(f"cannot parse triple component {chunk!r}")
        level, param = m.group(1), m.group(2).strip()
        if param.lstrip("-").isdigit():
            param = f"(-q)^{param}"
        try:
            parts.append((int(level), qaffine.parse_param(param)))
        except qaffine.QAffineError:
            raise CliError(f"cannot parse triple component {chunk!r}") from None
    (i, x), (j, y), (k, z) = parts
    return qaffine.HomTriple(i, x, j, y, k, z)


# --- subcommands ---------------------------------------------------------------------

def _show(args, payload, text: str) -> int:
    """Print a query's result: its payload under --format json, else its text."""
    if args.format == "json":
        import json

        text = json.dumps(payload, indent=2)
    _emit(text, args.out)
    return 0


def cmd_roots(args) -> int:
    datum = CartanDatum(args.diagram_type, args.rank)
    roots = sorted(rs.enumerate_positive_roots(datum), key=lambda r: (rs.ht(r), r))
    payload = []
    lines = [f"{len(roots)} positive roots of type {datum.diagram_type}_{datum.rank}"]
    for root in roots:
        entry = {"coeffs": list(root), "ht": rs.ht(root), "mul": rs.mul(root)}
        tag = ""
        if datum.diagram_type == "D":
            eps = rs.epsilon_form(datum, root)
            entry["eps"] = [eps.a, eps.b_signed]
            tag = f"  {eps}"
        payload.append(entry)
        vec = "[" + ",".join(str(c) for c in root) + "]"
        lines.append(f"  {vec}{tag}  ht={entry['ht']} mul={entry['mul']}")
    return _show(args, payload, "\n".join(lines))


def cmd_build(args) -> int:
    render = {"ascii": render_grid, "dot": ar_quiver.ARQuiver.to_dot,
              "json": ar_quiver.ARQuiver.to_json}[args.format]
    _emit(render(_gamma_q_from_args(args)), args.out)
    return 0


def cmd_order(args) -> int:
    ar = _gamma_q_from_args(args)
    order = orders.canonical_reading(ar, args.strategy)
    names = [rs.format_root(ar.datum, r) for r in order.roots]
    payload = {
        "strategy": args.strategy,
        "word": list(order.word),
        "roots": names,
        "coeffs": [list(r) for r in order.roots],
    }
    word = " ".join(f"s{i}" for i in order.word)
    return _show(args, payload, " < ".join(names) + f"\nword: {word}")


def cmd_pairs(args) -> int:
    ar = _gamma_q_from_args(args)
    gamma = rs.parse_root(ar.datum, args.gamma)
    name = partial(rs.format_root, ar.datum)
    payload, lines = [], []
    for pair in orders.pairs_of(ar, gamma):
        pv = orders.classify_pair(ar, gamma, pair)
        witness = [name(w) for w in pv.witness] if pv.witness else None
        payload.append({
            "gamma": name(pv.gamma),
            "alpha": name(pv.alpha),
            "beta": name(pv.beta),
            "verdict": pv.verdict.value,
            "witness": witness,
            "order_tag": pv.order_tag,
        })
        extra = ""
        if witness:
            extra = f"  dominated by ({', '.join(witness)})"
        elif pv.order_tag:
            extra = f"  minimal under {pv.order_tag}"
        lines.append(f"  ({name(pv.alpha)}, {name(pv.beta)})  {pv.verdict.value}{extra}")
    return _show(args, payload, "\n".join([f"pairs of {name(gamma)}:", *lines]))


def cmd_denom(args) -> int:
    fn = qaffine.denom_D1 if args.family == "D1" else qaffine.denom_D2
    poly = fn(args.rank, args.k, args.l)
    payload = {
        "family": args.family,
        "rank": args.rank,
        "k": args.k,
        "l": args.l,
        "factors": [{"u": r.u, "p": r.p} for r in poly.roots],
    }
    lines = [
        f"d_{{{args.k},{args.l}}} for {args.family} rank {args.rank}: "
        f"{len(poly.roots)} zeros",
        *(f"  z = {root}" for root in poly.roots),
    ]
    if args.at:
        at = qaffine.parse_param(args.at)
        payload["at"] = {"u": at.u, "p": at.p}
        payload["multiplicity"] = poly.zero_multiplicity(at)
        lines.append(f"multiplicity at {at}: {payload['multiplicity']}")
    return _show(args, payload, "\n".join(lines))


def cmd_dorey(args) -> int:
    triple = parse_triple(args.triple)
    rule = qaffine.dorey_D1 if args.family == "D1" else qaffine.dorey_D2
    verdict = rule(args.rank, triple)
    payload = {
        "family": args.family,
        "rank": args.rank,
        "admissible": verdict.admissible,
        "case": verdict.case,
        "exhaustive": verdict.exhaustive,
    }
    note = "" if verdict.exhaustive else "  (one-way rule: no means unknown)"
    answer = f"yes, case ({verdict.case})" if verdict.admissible else "no"
    return _show(args, payload, answer + note)


def cmd_verify(args) -> int:
    suites = None if args.suite == "all" else {args.suite}
    # fail before the sweep; never empty an old report or leave a new one
    if args.json_out is not None:
        existed = os.path.exists(args.json_out)
        _write(args.json_out, "", mode="a")
        if not existed:
            os.remove(args.json_out)
    report = verify.run_suite(args.rank_max, suites=suites, parallelism=args.jobs)
    if args.json_out is not None:
        _write(args.json_out, report.to_json())
    for record in report.failures():
        print(
            f"{record.status.upper()} {record.check_id} rank={record.rank} "
            f"orientation={record.orientation}: {record.counterexample}",
            file=sys.stderr,
        )
    print(report.summary())
    return 0 if report.ok else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.run(args)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return code
    except BrokenPipeError as exc:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        try:
            print(f"error: cannot write stdout: {exc.strerror or exc}", file=sys.stderr, flush=True)
        except BrokenPipeError:  # stderr is the same closed pipe, as under 2>&1
            os.dup2(devnull, sys.stderr.fileno())
        return 2
    except ArquiverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
