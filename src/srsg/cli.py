"""Command-line interface.

Machine-readable JSON goes to stdout (sorted keys, deterministic content);
human diagnostics and timings go to stderr.  Exit codes: 0 for success
(including searches that found nothing), 1 for data errors (with a JSON
error object on stderr), 2 for usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields

from . import catalog as cat
from .core import is_balanced, triangle_census
from .errors import ParseError, SignedGraphError
from .iso import are_isomorphic, canonical_form
from .params import FeasibleSet, ParamQuery, feasible_param_sets
from .regularity import SrsgParams, char_poly, classify
from .search import DEDUPE_MODES, Hit, SearchConfig, search_catalog
from .sgio import emit_sg, export_dot, parse_sg_file, read_graph6_file
from .verify import run_verification


def _params_json(p: SrsgParams | None):
    return None if p is None else asdict(p)


def _row_json(row: FeasibleSet):
    return {**asdict(row), "n_free": row.n_free}


def _hit_json(h: Hit):
    return {
        "n": h.graph.n,
        "params": _params_json(h.params),
        "class": h.cls.value,
        "canonical_form": h.canonical.hex(),
        "edges": [[u, v, s] for u, v, s in h.graph.edges()],
    }


def _stats_json(stats):
    # the counters only: wall_time would make stdout non-deterministic
    return {k: v for k, v in asdict(stats).items() if k != "wall_time"}


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))


def _cmd_check(args) -> int:
    g = parse_sg_file(args.file)
    degs = g.degrees()
    nets = g.net_degrees()
    cls, p = classify(g)
    out = {
        "n": g.n,
        "m": g.edge_count(),
        "params": _params_json(p),
        "class": cls.value,
        "balanced": is_balanced(g),
        "triangle_census": list(triangle_census(g).counts),
        "canonical_form": canonical_form(g).hex(),
    }
    if min(degs) == max(degs):
        out["r"] = degs[0]
    else:
        out["degrees"] = degs
    if min(nets) == max(nets):
        out["rho"] = nets[0]
    else:
        out["net_degrees"] = nets
    _emit(out)
    return 0


def _cmd_params(args) -> int:
    # the params options are named after the ParamQuery fields
    rows = feasible_param_sets(ParamQuery(**{f.name: getattr(args, f.name) for f in fields(ParamQuery)}))
    _emit([_row_json(r) for r in rows])
    return 0


def _parse_param_tuple(text: str) -> SrsgParams:
    parts = [t.strip() for t in text.split(",")]
    if len(parts) != 5:
        raise SignedGraphError(f"--params expects 'n,r,a,b,c', got {text!r}")
    try:
        vals = [None if t in ("?", "None", "*") else int(t) for t in parts]
    except ValueError:
        raise ParseError(f"--params entries must be integers or '?', got {text!r}") from None
    if vals[0] is None or vals[1] is None:
        raise SignedGraphError("--params requires concrete n and r")
    return SrsgParams(*vals)


def _int_at_least(lo: int):
    """argparse type for an integer option with a lower bound; anything else
    is a usage error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < lo:
            raise argparse.ArgumentTypeError(f"expected an integer >= {lo}, got {value}")
        return value

    return parse


def _cmd_search(args) -> int:
    graphs = []
    for path in args.underlying:
        for i, g in enumerate(read_graph6_file(path)):
            graphs.append((f"{path}[{i}]", g))
    filt = tuple(_parse_param_tuple(t) for t in args.params) if args.params else None
    cfg = SearchConfig(
        rho=args.rho,
        param_filter=filt,
        dedupe=args.dedupe,
        node_budget=args.budget,
        jobs=args.jobs,
    )
    rep = search_catalog(graphs, cfg)
    _emit(
        {
            "rho": rep.rho,
            "dedupe": args.dedupe,
            "exhaustive": rep.exhaustive,
            "hit_count": len(rep.hits),
            "hits": [_hit_json(h) for h in rep.hits],
            "stats": _stats_json(rep.stats),
            "per_graph": rep.per_graph,
        }
    )
    print(f"searched {len(graphs)} graph(s) in {rep.stats.wall_time:.2f}s", file=sys.stderr)
    return 0


def _cmd_catalog(args) -> int:
    if args.name is None:
        rows = []
        for name in cat.list_names():
            e = cat.build(name)
            rows.append(
                {
                    "name": e.name,
                    "n": e.graph.n,
                    "rho": e.expected_rho,
                    "params": _params_json(e.expected_params),
                    "provenance": e.provenance,
                    "canonical_form": canonical_form(e.graph).hex(),
                }
            )
        _emit(rows)
        return 0
    e = cat.build(args.name)
    if args.emit == "dot":
        sys.stdout.write(export_dot(e.graph))
    else:
        sys.stdout.write(emit_sg(e.graph))
    return 0


def _cmd_iso(args) -> int:
    g = parse_sg_file(args.a)
    h = parse_sg_file(args.b)
    ok, witness = are_isomorphic(g, h)
    _emit({"isomorphic": ok, "witness": witness})
    return 0


def _cmd_spectrum(args) -> int:
    g = parse_sg_file(args.file)
    _emit({"n": g.n, "char_poly": char_poly(g)})
    return 0


# -- verify-classification ----------------------------------------------------


def _cmd_verify(args) -> int:
    if args.degree != 6:
        raise SignedGraphError("only --degree 6 is supported; the built-in catalog covers degree 6")
    result = run_verification(args.fixtures, jobs=args.jobs)
    status = lambda ok: "PASS" if ok else "FAIL"
    for key, t in result["theorems"].items():
        print(f"{key}: {status(t['pass'])} ({t['found_total']} classes, expected {t['expected_total']})",
              file=sys.stderr)
        for c in t["checks"]:
            print(f"  {c['search']}: {status(c['pass'])} (expected {c['expected']}, found {c['found']})",
                  file=sys.stderr)
    _emit(result)
    return 0 if result["pass"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="srsg",
        description="Exact toolkit for net-regular strongly regular signed graphs",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="classify one .sg file")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("params", help="enumerate feasible parameter sets")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--rho", type=int, required=True)
    p.add_argument("--fix-b", dest="fix_b", type=int, default=None)
    p.add_argument("--n-max", dest="n_max", type=int, default=None)
    p.add_argument("--n-min", dest="n_min", type=int, default=None)
    p.add_argument("--even-n", dest="even_n", action="store_true")
    p.add_argument("--div-n", dest="div_n", type=_int_at_least(1), default=None)
    p.add_argument("--a-min", dest="a_min", type=int, default=None)
    p.add_argument("--a-max", dest="a_max", type=int, default=None)
    p.set_defaults(fn=_cmd_params)

    p = sub.add_parser("search", help="search signings of graph6 underlying graphs")
    p.add_argument("--underlying", nargs="+", required=True, metavar="FILE.g6")
    p.add_argument("--rho", type=int, required=True)
    p.add_argument("--params", nargs="*", default=None, metavar="n,r,a,b,c")
    p.add_argument("--dedupe", choices=DEDUPE_MODES, default="iso")
    p.add_argument("--jobs", type=_int_at_least(1), default=1)
    p.add_argument("--budget", type=_int_at_least(0), default=None)
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("catalog", help="list or emit built-in catalog entries")
    p.add_argument("--name", default=None)
    p.add_argument("--emit", choices=["sg", "dot"], default="sg")
    p.set_defaults(fn=_cmd_catalog)

    p = sub.add_parser("iso", help="decide signed-graph isomorphism of two .sg files")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(fn=_cmd_iso)

    p = sub.add_parser("spectrum", help="exact characteristic polynomial of a .sg file")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_spectrum)

    p = sub.add_parser(
        "verify-classification",
        help="reproduce the degree-6 net-regular classification from fixture catalogs",
    )
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--fixtures", required=True)
    p.add_argument("--jobs", type=_int_at_least(1), default=1)
    p.set_defaults(fn=_cmd_verify)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except SignedGraphError as exc:
        err = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(err, sort_keys=True), file=sys.stderr)
        return 1
    except OSError as exc:
        err = {"error": {"type": "OSError", "message": str(exc)}}
        print(json.dumps(err, sort_keys=True), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
