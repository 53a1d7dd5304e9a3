"""Command line interface.

Subcommands: gen, decompose, protocol, label, label-verify, oracle.
Exit codes: 0 success or verified, 1 verification failed, 2 usage error,
3 capacity (cost ceiling or sampling limit hit).
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import generators as gen
from . import geometry, oracles
from .graphs import format_graph_text, parse_graph_text, BipartiteGraph, Graph
from .gyarfas import decompose
from .labeling import (
    CostCeilingExceeded,
    LabelError,
    build_labels,
    decode_pair,
    measure,
    read_labels,
    write_labels,
)
from .protocol import (
    BipartiteProtocol,
    SignRankProtocol,
    UnitDiskProtocol,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3


class UsageError(ValueError):
    pass


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(path, text: str) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def load_instance(path: str):
    """(kind, object) from an instance file, detected by its header."""
    text = _read(path)
    head = ""
    for line in text.splitlines():
        line = line.strip()
        if line:
            head = line.split()[0]
            break
    if head in ("bipartite", "graph"):
        return head, parse_graph_text(text)
    if head == "udg":
        return "udg", geometry.parse_udg(text)
    if head == "signrank3":
        return "signrank3", geometry.parse_signrank3(text)
    if head == "scene":
        return "scene", geometry.parse_scene(text)
    raise UsageError(f"unrecognized instance header {head!r}")


def _make_protocol(kind: str, obj):
    if kind == "bipartite":
        return BipartiteProtocol(obj)
    if kind == "udg":
        return UnitDiskProtocol(obj)
    if kind == "signrank3":
        return SignRankProtocol(*obj)
    raise UsageError(f"no protocol for {kind!r} instances")


def _pairs(kind: str, proto):
    if kind == "signrank3":
        return (
            (u, w) for u in range(proto.n_u) for w in range(proto.n_w)
        )
    return ((u, w) for u in range(proto.n) for w in range(proto.n))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen(args) -> int:
    fam = args.family
    seed = args.seed
    if fam == "path":
        out = format_graph_text(gen.path_graph(args.t))
    elif fam == "cycle":
        out = format_graph_text(gen.cycle_graph(args.t))
    elif fam == "star":
        out = format_graph_text(gen.subdivided_star(args.s, args.t))
    elif fam == "biclique":
        out = format_graph_text(gen.biclique(args.s, args.t))
    elif fam == "half":
        out = format_graph_text(gen.half_graph(args.k))
    elif fam == "random":
        out = format_graph_text(gen.random_bipartite(args.nl, args.nr, args.p, seed))
    elif fam == "connected":
        out = format_graph_text(
            gen.random_connected_bipartite(args.nl, args.nr, args.p, seed)
        )
    elif fam == "equivalence":
        out = format_graph_text(
            gen.random_equivalence(args.nl, args.nr, args.blocks, seed)
        )
    elif fam == "udg":
        out = geometry.format_udg(
            gen.random_udg(args.n, args.box, Fraction(args.radius), seed)
        )
    elif fam == "signrank3":
        avs, bvs = gen.random_signrank3(args.nl, args.nr, seed)
        out = geometry.format_signrank3(avs, bvs)
    elif fam == "scene":
        out = geometry.format_scene(
            gen.random_halfspace_scene(
                args.dim, args.points, args.halfspaces, seed, s=args.s
            )
        )
    elif fam == "lines":
        pts, lns = gen.random_point_line_scene(args.points, args.halfspaces, seed)
        out = format_graph_text(geometry.point_line_incidence(pts, lns))
    elif fam == "boxes":
        pts, bxs = gen.random_point_boxes(args.points, args.halfspaces, seed)
        out = format_graph_text(geometry.point_box_incidence(pts, bxs))
    else:
        raise UsageError(f"unknown family {fam!r}")
    _write_text(args.out, out)
    return EXIT_OK


def _cmd_decompose(args) -> int:
    kind, g = load_instance(args.input)
    if kind != "bipartite":
        raise UsageError("decompose needs a bipartite graph file")
    dec = decompose(g, args.root)
    lines = [f"decomposition {dec.n_bags} root {dec.root}"]
    for b in range(dec.n_bags):
        verts = " ".join(str(v) for v in dec.bags[b])
        lines.append(
            f"bag {b} parent {dec.parent[b]} hook {dec.hook[b]} : {verts}"
        )
    _write_text(args.out, "\n".join(lines) + "\n")
    if args.verify:
        bad = oracles.verify_decomposition(g, dec)
        if bad:
            for msg in bad:
                print(f"violation: {msg}", file=sys.stderr)
            return EXIT_FAIL
    return EXIT_OK


def _cmd_protocol(args) -> int:
    kind, obj = load_instance(args.input)
    proto = _make_protocol(kind, obj)
    if args.pair:
        u, w = (int(x) for x in args.pair.split(","))
        run = proto.run(u, w)
        word = "adjacent" if run.output > 0 else "non-adjacent"
        print(f"{u} {w} {word} cost={run.cost} depth={run.depth}")
        if args.cost_ceiling and run.cost > args.cost_ceiling:
            return EXIT_CAPACITY
        if args.verify and run.output != proto.truth(u, w):
            print("mismatch against the instance adjacency", file=sys.stderr)
            return EXIT_FAIL
        return EXIT_OK
    pairs = 0
    max_cost = 0
    max_depth = 0
    mismatches = 0
    for u, w in _pairs(kind, proto):
        run = proto.run(u, w)
        pairs += 1
        max_cost = max(max_cost, run.cost)
        max_depth = max(max_depth, run.depth)
        if args.verify and run.output != proto.truth(u, w):
            mismatches += 1
    print(
        f"pairs={pairs} max_cost={max_cost} max_depth={max_depth}"
        + (f" mismatches={mismatches}" if args.verify else "")
    )
    if args.cost_ceiling and max_cost > args.cost_ceiling:
        return EXIT_CAPACITY
    return EXIT_FAIL if mismatches else EXIT_OK


def _cmd_label(args) -> int:
    kind, obj = load_instance(args.input)
    if kind not in ("bipartite", "udg"):
        raise UsageError("labels exist for bipartite and udg instances")
    proto = _make_protocol(kind, obj)
    family = build_labels(proto.run, proto.n, ceiling=args.cost_ceiling)
    write_labels(family, args.out)
    print(
        f"labels n={family.n} cost={family.cost} opwidth={family.op_width} "
        f"max_bits={family.max_label_bits}"
    )
    return EXIT_OK


def _cmd_label_verify(args) -> int:
    kind, obj = load_instance(args.input)
    if kind not in ("bipartite", "udg"):
        raise UsageError("labels exist for bipartite and udg instances")
    proto = _make_protocol(kind, obj)
    lf = read_labels(args.labels)
    if lf.n != proto.n:
        print("label count does not match the instance", file=sys.stderr)
        return EXIT_FAIL
    bad = sum(
        1
        for u in range(proto.n)
        for w in range(proto.n)
        if decode_pair(lf, u, w) != proto.truth(u, w)
    )
    mx, mean, per = measure(lf)
    print(f"labels max_bits={mx} mean_bits={mean:.1f} per_log={per:.1f}")
    print(f"pairs={proto.n * proto.n} mismatches={bad}")
    return EXIT_FAIL if bad else EXIT_OK


def _cmd_oracle(args) -> int:
    kind, obj = load_instance(args.input)
    check = args.check
    if check == "chain":
        if kind != "bipartite":
            raise UsageError("chain index needs a bipartite graph")
        print(oracles.chain_index(obj))
        return EXIT_OK
    if check == "equivalence":
        if kind != "bipartite":
            raise UsageError("equivalence check needs a bipartite graph")
        ok = oracles.is_equivalence_graph(obj)
        print("true" if ok else "false")
        return EXIT_OK if ok else EXIT_FAIL
    if check == "eat":
        if kind not in ("bipartite", "graph"):
            raise UsageError("eat check needs a graph")
        trip = oracles.edge_asteroidal_triple(obj)
        if trip is None:
            print("none")
            return EXIT_OK
        print(" ".join(f"{u}-{w}" for u, w in trip))
        return EXIT_FAIL
    if check == "degeneracy":
        if kind == "scene":
            rep = geometry.verify_incidence_degeneracy(obj, args.s)
            print(
                f"dim={rep.dim} s={rep.s} degeneracy={rep.degeneracy} "
                f"bound={rep.bound} convex={str(rep.convex_position).lower()} "
                f"caratheodory={rep.caratheodory_degree if rep.caratheodory_checked else 'na'} "
                f"ok={str(rep.ok).lower()}"
            )
            return EXIT_OK if rep.ok else EXIT_FAIL
        if kind in ("bipartite", "graph"):
            k, order = oracles.degeneracy(obj)
            print(f"degeneracy={k}")
            return EXIT_OK
        raise UsageError("degeneracy needs a scene or graph file")
    if check == "biclique":
        if kind != "bipartite":
            raise UsageError("biclique check needs a bipartite graph")
        found = oracles.has_biclique(obj, args.s, args.t)
        print("true" if found else "false")
        return EXIT_FAIL if found else EXIT_OK
    raise UsageError(f"unknown check {check!r}")


# ---------------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="eqlabel",
        description="equality-oracle adjacency protocols, bag decompositions "
        "and adjacency labels",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate an instance file")
    g.add_argument("--family", required=True)
    g.add_argument("--out", default="-")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--t", type=int, default=6)
    g.add_argument("--s", type=int, default=3)
    g.add_argument("--k", type=int, default=4)
    g.add_argument("--nl", type=int, default=8)
    g.add_argument("--nr", type=int, default=8)
    g.add_argument("--p", type=float, default=0.35)
    g.add_argument("--blocks", type=int, default=3)
    g.add_argument("--n", type=int, default=30)
    g.add_argument("--box", type=int, default=14)
    g.add_argument("--radius", default="2")
    g.add_argument("--dim", type=int, default=2)
    g.add_argument("--points", type=int, default=10)
    g.add_argument("--halfspaces", type=int, default=8)
    g.set_defaults(fn=_cmd_gen)

    d = sub.add_parser("decompose", help="build a bag decomposition")
    d.add_argument("--in", dest="input", required=True)
    d.add_argument("--root", type=int, default=0)
    d.add_argument("--out", default="-")
    d.add_argument("--verify", action="store_true")
    d.set_defaults(fn=_cmd_decompose)

    r = sub.add_parser("protocol", help="run the adjacency protocol")
    r.add_argument("--in", dest="input", required=True)
    r.add_argument("--pair", help="single ordered pair, e.g. 3,7")
    r.add_argument("--verify", action="store_true")
    r.add_argument("--cost-ceiling", type=int, default=0)
    r.set_defaults(fn=_cmd_protocol)

    l = sub.add_parser("label", help="compile adjacency labels")
    l.add_argument("--in", dest="input", required=True)
    l.add_argument("--out", required=True)
    l.add_argument("--cost-ceiling", type=int, default=16)
    l.set_defaults(fn=_cmd_label)

    v = sub.add_parser("label-verify", help="decode labels against the instance")
    v.add_argument("--in", dest="input", required=True)
    v.add_argument("--labels", required=True)
    v.set_defaults(fn=_cmd_label_verify)

    o = sub.add_parser("oracle", help="brute-force structural checks")
    o.add_argument("--in", dest="input", required=True)
    o.add_argument("--check", required=True)
    o.add_argument("--s", type=int, default=3)
    o.add_argument("--t", type=int, default=3)
    o.set_defaults(fn=_cmd_oracle)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CostCeilingExceeded, RuntimeError) as exc:
        # RuntimeError covers ProtocolError, the protocol's event limit
        print(f"capacity: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (ValueError, OSError, LabelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
