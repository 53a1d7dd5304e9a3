#!/usr/bin/env python3
"""Seeded benchmark of eqlabel: label build, label decode and exact
incidence-degeneracy checks, timed end to end and, in traced mode, per layer.

    python3 perfbench/run.py --workload udg --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports the library from
./src and writes instance files, traces and results under perfbench/out/.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import math
import random
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import truth  # noqa: E402

CEILING = 255  # largest cost ceiling build_labels accepts
S = 3  # forbidden biclique parameter of every scene, as in criterion 7

# Affinely dependent point sets that in_convex_position calls convex although
# one point lies in the hull of the others. Each is one operation per round;
# they fail until the fault in geometry._in_simplex is mended.
DEPENDENT_SETS = (
    (3, ((0, 1, 0), (0, 4, 0), (1, 3, 0), (2, 1, 0), (3, 3, 0))),
    (3, ((0, 3, 0), (1, 4, 0), (4, 2, 0), (2, 2, 0), (3, 2, 0))),
    (3, ((2, 1, 0), (3, 0, 0), (3, 1, 0), (0, 4, 0), (2, 0, 0))),
)

# workload -> label instances and scene batch. Scenes: (count per dim,
# number of distinct point counts starting at 8). Every workload also checks
# FRESH scenes per dim drawn from the seed, untimed.
WORKLOADS = {
    "udg": {"udg": (1, 128, 11), "signrank3": None, "scenes": (4, 2),
            "dependent": False},
    "signrank3": {"udg": None, "signrank3": (8, 64), "scenes": (4, 2),
                  "dependent": False},
    "degeneracy": {"udg": None, "signrank3": None, "scenes": (24, 5),
                   "dependent": True},
}
FRESH = 2


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    raise SystemExit(2)


def _import_library():
    src = ROOT / "src"
    if not (src / "eqlabel" / "__init__.py").is_file():
        _fail(f"no eqlabel sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import eqlabel
    from eqlabel import cli, generators, geometry, graphs, gyarfas
    from eqlabel import labeling, oracles, protocol

    if Path(eqlabel.__file__).resolve().parent != (src / "eqlabel").resolve():
        _fail(f"imported eqlabel from {eqlabel.__file__}, not from {src}")
    return argparse.Namespace(
        cli=cli, gen=generators, geometry=geometry, graphs=graphs,
        gyarfas=gyarfas, labeling=labeling, oracles=oracles,
        protocol=protocol,
    )


# ---------------------------------------------------------------------------
# inputs


def _affine(rng: random.Random, d: int) -> tuple:
    """Random unimodular integer matrix A, its inverse, and a shift b."""
    perm = list(range(d))
    rng.shuffle(perm)
    a = [[rng.choice((-1, 1)) if perm[i] == j else 0 for j in range(d)]
         for i in range(d)]
    ainv = [[a[j][i] for j in range(d)] for i in range(d)]
    for _ in range(2 if d > 1 else 0):
        i, j = rng.sample(range(d), 2)
        c = rng.choice((-1, 1))
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]  # row i += c row j
        for row in ainv:  # column j -= c column i
            row[j] -= c * row[i]
    b = [rng.randint(-3, 3) for _ in range(d)]
    return a, ainv, b


def _scene_image(L, scene, rng: random.Random):
    """Affine image of a scene: the same incidences, convexity and peeling
    in other coordinates."""
    d = scene.dim
    a, ainv, b = _affine(rng, d)
    pts = [tuple(sum(a[i][k] * p[k] for k in range(d)) + b[i] for i in range(d))
           for p in scene.points]
    hs = []
    for w, t in scene.halfspaces:
        w2 = tuple(sum(ainv[m][k] * w[m] for m in range(d)) for k in range(d))
        hs.append((w2, t + sum(x * y for x, y in zip(w2, b))))
    return L.geometry.Scene.make(d, pts, hs)


def make_inputs(L, workload: str, seed: int, run_dir: Path) -> dict:
    """Write every instance of the workload as instance text; return the
    file lists. Label instances and fresh scenes are drawn from the seed.
    Timed scenes are affine images, chosen by the seed, of criterion 7's
    scenes."""
    cfg = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}")
    run_dir.mkdir(parents=True, exist_ok=True)
    labels, scenes, fresh, dependent = [], [], [], []

    def write(name: str, text: str) -> tuple:
        path = run_dir / name
        path.write_text(text, encoding="utf-8")
        return path, text

    if cfg["udg"]:
        count, n, box = cfg["udg"]
        for j in range(count):
            r = L.gen.random_udg(n, box, 2, rng.getrandbits(63))
            labels.append(write(f"udg-{j}.txt", L.geometry.format_udg(r)))
    if cfg["signrank3"]:
        count, side = cfg["signrank3"]
        for j in range(count):
            avs, bvs = L.gen.random_signrank3(side, side, rng.getrandbits(63))
            labels.append(
                write(f"signrank3-{j}.txt", L.geometry.format_signrank3(avs, bvs)))
    per_dim, sizes = cfg["scenes"]
    for dim in (1, 2, 3):
        for i in range(per_dim):
            base = L.gen.random_halfspace_scene(
                dim, 8 + i % sizes, 4 + i % 7, seed=7000 + 100 * dim + i, s=S)
            text = L.geometry.format_scene(_scene_image(L, base, rng))
            scenes.append(write(f"scene-{dim}-{i}.txt", text))
    for dim in (1, 2, 3):
        for i in range(FRESH):
            sc = L.gen.random_halfspace_scene(
                dim, 8 + i, 4 + i, seed=rng.getrandbits(63), s=S)
            fresh.append(write(f"fresh-{dim}-{i}.txt", L.geometry.format_scene(sc)))
    if workload == "degeneracy":
        labels = list(scenes)
    if cfg["dependent"]:
        for k, (dim, pts) in enumerate(DEPENDENT_SETS):
            lines = [f"scene {dim} {len(pts)} 0"]
            lines += ["p " + " ".join(map(str, p)) for p in pts]
            dependent.append(write(f"dependent-{k}.txt", "\n".join(lines) + "\n"))
    return {"labels": labels, "scenes": scenes, "fresh": fresh,
            "dependent": dependent}


# ---------------------------------------------------------------------------
# set-up and ground truth


class Instance:
    """One labelled instance: its text, the loaded object, the graph the
    protocol runs on, and the benchmark's own adjacency matrix."""

    def __init__(self, path: Path, text: str):
        self.path = path
        self.text = text
        self.kind = None
        self.obj = None
        self.graph = None
        self.proto = None
        self.n = 0
        self.adj = None

    def truth(self) -> bytearray:
        if self.kind == "udg":
            return truth.udg_adjacency(self.text)
        if self.kind == "signrank3":
            return truth.signrank_adjacency(self.text)
        return truth.incidence_adjacency(self.text)


def make_protocol(L, inst: Instance):
    if inst.kind == "udg":
        return L.protocol.UnitDiskProtocol(inst.obj)
    return L.protocol.BipartiteProtocol(inst.graph)


def set_up(L, files: dict, tracer) -> tuple:
    """Load every instance and build its protocol: the set-up a user of
    `eqlabel label` pays before the first run."""
    labels = []
    for path, text in files["labels"]:
        inst = Instance(path, text)
        with tracer.span("cli.load_instance"):
            inst.kind, inst.obj = L.cli.load_instance(str(path))
        if inst.kind == "signrank3":
            with tracer.span("geometry.signrank_graph"):
                inst.graph = L.geometry.signrank_graph(*inst.obj)
        elif inst.kind == "scene":
            with tracer.span("geometry.incidence"):
                inst.graph = L.geometry.incidence_graph(inst.obj)
        with tracer.span("protocol.init"):
            inst.proto = make_protocol(L, inst)
        inst.n = inst.graph.n if inst.graph is not None else inst.obj.n
        labels.append(inst)
    loaded = {inst.path: inst.obj for inst in labels}
    scenes = []
    for path, text in files["scenes"]:
        if path not in loaded:
            with tracer.span("cli.load_instance"):
                loaded[path] = L.cli.load_instance(str(path))[1]
        scenes.append((text, loaded[path]))
    dependent = []
    for path, _ in files["dependent"]:
        with tracer.span("cli.load_instance"):
            dependent.append(L.cli.load_instance(str(path))[1])
    return labels, scenes, dependent


# ---------------------------------------------------------------------------
# tracing


class Tracer:
    """Spans kept in memory: (id, parent, name, start, end, calls). A span
    with calls > 1 aggregates that many calls of one function, so that a
    build's hundred thousand protocol runs cost one record, not one each."""

    def __init__(self, on: bool):
        self.on = on
        self.spans = []
        self._stack = [0]

    def span(self, name: str):
        return _Span(self, name)

    def add(self, name: str, start: float, end: float, calls: int = 1) -> None:
        if self.on:
            self.spans.append((len(self.spans) + 1, self._stack[-1], name,
                               start, end, calls))

    def total(self, name: str, since: int = 0) -> float:
        return sum((s[4] - s[3] for s in self.spans[since:] if s[2] == name), 0.0)


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.start = time.perf_counter()
        if tr.on:
            self.sid = len(tr.spans) + 1
            tr.spans.append(None)  # reserved; filled in on exit
            tr._stack.append(self.sid)
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        tr = self.tracer
        if tr.on:
            tr._stack.pop()
            tr.spans[self.sid - 1] = (self.sid, tr._stack[-1], self.name,
                                      self.start, end, 1)
        self.elapsed = end - self.start
        return False


# ---------------------------------------------------------------------------
# one round


class Round:
    """Results of one round of the workload's operations."""

    def __init__(self):
        # seconds of the round's timed units, each timed whole: every
        # build_labels call, every LabelFile parse plus decode of all pairs,
        # every verify_incidence_degeneracy call on a timed scene
        self.build_s = 0.0
        self.decode_s = 0.0
        self.scenes_s = 0.0
        self.pairs = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.max_cost = []
        self.events = 0
        self.max_bits = []
        self.mean_bits = []
        self.labels = []  # label file images, to compare rounds
        self.layer = {}


def run_round(L, labels, scenes, fresh, dependent, tracer, first: bool):
    rd = Round()
    lab = L.labeling
    since = len(tracer.spans)
    on = tracer.on
    clock = time.perf_counter
    for inst in labels:
        n = inst.n
        proto = inst.proto if first else make_protocol(L, inst)
        # drop the set-up protocol once used: its warm memo would stay on
        # the heap and slow every later collection of the garbage collector
        inst.proto = None
        run = proto.run
        outs = [0] * (n * n)
        costs = [0] * (n * n)
        acc = [0.0, 0, 0]  # run seconds, max depth, recursive runs

        # neither wrapper keeps a Run: holding every run alive slows the
        # build through garbage-collector pressure
        def rec(u, w):
            r = run(u, w)
            i = u * n + w
            outs[i] = r.output
            costs[i] = r.cost
            return r

        def rec_traced(u, w):
            t0 = clock()
            r = run(u, w)
            acc[0] += clock() - t0
            i = u * n + w
            outs[i] = r.output
            costs[i] = r.cost
            if r.depth > acc[1]:
                acc[1] = r.depth
            if r.depth > 1:
                acc[2] += 1
            return r

        with tracer.span("labeling.build_labels") as sp:
            fam = lab.build_labels(rec_traced if on else rec, n, CEILING)
            tracer.add("protocol.run", sp.start, sp.start + acc[0], n * n)
        rd.build_s += sp.elapsed
        rd.attempted += 2 * n * n
        if 0 in outs:
            rd.problems.append(f"{inst.path.name}: a pair was never run")
        rd.problems += truth.check_pairs(f"{inst.path.name} protocol", outs, inst.adj, n)
        mx, mean, _ = lab.measure(fam)
        rd.max_bits.append(mx)
        rd.mean_bits.append(mean)
        rd.max_cost.append(max(costs))
        rd.events += sum(costs)
        rd.labels.append(fam.data)

        if on:
            ly = rd.layer
            ly["runs"] = ly.get("runs", 0) + n * n
            ly["max_depth"] = max(ly.get("max_depth", 0), acc[1])
            ly["recursive_runs"] = ly.get("recursive_runs", 0) + acc[2]
            ly["op_width"] = max(ly.get("op_width", 0), fam.op_width)
            ly.setdefault("bits_per_log2n", []).append(
                mx / max(1, math.ceil(math.log2(n))))
            ly.setdefault("bits_per_n", []).append(mx / n)
            with tracer.span("protocol.rerun"):
                again = [run(u, w).output for u in range(n) for w in range(n)]
            if again != outs:
                rd.problems.append(f"{inst.path.name}: warm rerun disagrees")
            with tracer.span("labeling.decode") as sp:
                with tracer.span("labeling.load"):
                    lf = lab.LabelFile(fam.data)
                with tracer.span("labeling.tree_parse"):
                    nodes = sum(len(lf.tree(v, role))
                                for v in range(n) for role in ("A", "B"))
                with tracer.span("labeling.walk"):
                    dec = [lab.decode_pair(lf, u, w)
                           for u in range(n) for w in range(n)]
            ly["tree_nodes"] = ly.get("tree_nodes", 0) + nodes
            _trace_sign_graph(L, inst, tracer, rd)
        else:
            with tracer.span("labeling.decode") as sp:
                lf = lab.LabelFile(fam.data)
                dec = [lab.decode_pair(lf, u, w)
                       for u in range(n) for w in range(n)]
        rd.decode_s += sp.elapsed
        rd.pairs += n * n
        rd.problems += truth.check_pairs(f"{inst.path.name} decode", dec, inst.adj, n)

    reports = []
    for _, sc, _ in scenes:
        with tracer.span("geometry.verify_incidence_degeneracy") as sp:
            reports.append(L.geometry.verify_incidence_degeneracy(sc, S))
        rd.scenes_s += sp.elapsed
    # fresh scenes: new geometry on every seed, checked but not timed
    reports += [L.geometry.verify_incidence_degeneracy(sc, S) for _, sc, _ in fresh]
    rd.attempted += len(reports)
    for (text, _, convex), rep in zip(scenes + fresh, reports):
        rd.problems += truth.check_report("scene", rep, text, S, convex)
    if on:
        _trace_scene_pieces(L, scenes, tracer, rd)

    for sc in dependent:
        rd.attempted += 1
        got = L.geometry.in_convex_position(sc.points, sc.dim)
        if got != truth.in_convex_position(sc.points):
            rd.failed += 1

    if on:
        ly = rd.layer
        for name in ("protocol.run", "protocol.rerun", "labeling.load",
                     "labeling.tree_parse", "labeling.walk",
                     "gyarfas.decompose", "geometry.incidence",
                     "oracles.biclique", "oracles.degeneracy",
                     "geometry.convex_dim2", "geometry.convex_dim3"):
            ly[name + "_s"] = tracer.total(name, since)
        ly["labeling.compile_s"] = (tracer.total("labeling.build_labels", since)
                                    - ly["protocol.run_s"])
        ly["events"] = rd.events
    return rd


def _trace_sign_graph(L, inst: Instance, tracer: Tracer, rd: Round) -> None:
    """Bag decomposition of each component of the instance's sign graph.
    For unit-disk points (rank-4 lift) and scenes ((p, 1)/(w, -t) lift) the
    lifted sign graph is built here, untimed, and checked against the
    benchmark's adjacency."""
    geo = L.geometry
    if inst.kind == "signrank3":
        g = inst.graph
    else:
        if inst.kind == "udg":
            avs, bvs = geo.udg_to_signrank4(inst.obj)
        else:
            sc = inst.obj
            avs = [tuple(p) + (1,) for p in sc.points]
            bvs = [tuple(w) + (-t,) for w, t in sc.halfspaces]
        g = geo.signrank_graph(avs, bvs)
        nl = len(avs)
        n = inst.n
        want = {(u, w) for u in range(n) for w in range(n) if inst.adj[u * n + w]}
        if inst.kind == "scene":
            want = {(u, w - nl) for u, w in want if u < nl <= w}
        if set(g.edges) != want:
            rd.problems.append(f"{inst.path.name}: sign graph differs")
    nbrs = L.gyarfas.neighbor_map(g)
    bags = 0
    for comp in L.graphs.connected_components(g):
        sub = {v: nbrs[v] for v in comp}
        with tracer.span("gyarfas.decompose"):
            dec = L.gyarfas.decompose_neighbors(sub, comp[0])
        bags += dec.n_bags
    rd.layer["bags"] = rd.layer.get("bags", 0) + bags


def _trace_scene_pieces(L, scenes, tracer: Tracer, rd: Round) -> None:
    """The public pieces verify_incidence_degeneracy calls, each on its own."""
    geo, orc = L.geometry, L.oracles
    points = 0
    for text, sc, convex in scenes:
        with tracer.span("geometry.incidence"):
            g = geo.incidence_graph(sc)
        with tracer.span("oracles.biclique"):
            found = orc.has_biclique(g, S if sc.dim == 1 else 2, S)
        with tracer.span("oracles.degeneracy"):
            k, _, _ = orc.degeneracy_with_residuals(g)
        adj = truth.incidence_adjacency(text)
        if found or k != truth.peel(adj, g.n)[0] or g.m != sum(adj) // 2:
            rd.problems.append("scene pieces disagree with the reference")
        if sc.dim >= 2 and len(sc.points) >= sc.dim + 2:
            with tracer.span(f"geometry.convex_dim{sc.dim}"):
                got = geo.in_convex_position(sc.points, sc.dim)
            points += len(sc.points)
            if got != convex:
                rd.problems.append("in_convex_position disagrees")
    rd.layer["convex_points"] = points


# ---------------------------------------------------------------------------
# main


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _timed_s(rd: Round) -> float:
    return rd.build_s + rd.decode_s + rd.scenes_s


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # setup_s counts the library's cold import (work moved to import time
    # shows) and the cold set-up; not the benchmark's own imports and inputs
    t0 = time.perf_counter()
    L = _import_library()
    import_s = time.perf_counter() - t0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    missed = truth.self_test()
    if missed:
        _fail("checker self-test failed: " + "; ".join(missed))
    run_dir = OUT / f"{args.workload}-{args.seed}"
    files = make_inputs(L, args.workload, args.seed, run_dir)

    tracer = Tracer(bool(args.trace))
    t0 = time.perf_counter()
    labels, scenes, dependent = set_up(L, files, tracer)
    setup_s = import_s + time.perf_counter() - t0
    setup_layer = {name: tracer.total(name) for name in
                   ("cli.load_instance", "geometry.signrank_graph",
                    "protocol.init")}

    for inst in labels:
        inst.adj = inst.truth()
    scenes = [(text, sc, truth.in_convex_position(sc.points))
              for text, sc in scenes]
    fresh = []
    for path, text in files["fresh"]:
        sc = L.cli.load_instance(str(path))[1]
        fresh.append((text, sc, truth.in_convex_position(sc.points)))

    rounds, traced = [], []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        tracer.on = False
        rounds.append(run_round(L, labels, scenes, fresh, dependent, tracer,
                                not rounds))
        if args.trace:
            tracer.on = True
            traced.append(run_round(L, labels, scenes, fresh, dependent,
                                    tracer, False))

    every = rounds + traced
    problems = [p for rd in every for p in rd.problems]
    if any(rd.labels != every[0].labels for rd in every):
        problems.append("label files differ between rounds")
    for p in problems[:20]:
        print("perfbench: wrong:", p, file=sys.stderr)
    attempted = sum(rd.attempted for rd in every)
    failed = sum(rd.failed for rd in every)

    first = rounds[0]
    if args.trace:
        ly = {k: min(rd.layer[k] for rd in traced)
              for k in traced[0].layer if k.endswith("_s")}
        last = traced[-1].layer
        events = last["events"]
        values = {
            "cli.load_instance_s": setup_layer["cli.load_instance"],
            "geometry.signrank_graph_s": setup_layer["geometry.signrank_graph"],
            "protocol.init_s": setup_layer["protocol.init"],
            "protocol.run_s": ly["protocol.run_s"],
            "protocol.rerun_s": ly["protocol.rerun_s"],
            "protocol.runs": last["runs"],
            "protocol.events": events,
            "protocol.us_per_event": ly["protocol.run_s"] / events * 1e6,
            "protocol.max_depth": last["max_depth"],
            "protocol.recursive_runs": last["recursive_runs"],
            "gyarfas.decompose_s": ly["gyarfas.decompose_s"],
            "gyarfas.bags": last["bags"],
            "labeling.compile_s": ly["labeling.compile_s"],
            "labeling.tree_nodes": last["tree_nodes"],
            "labeling.op_width": last["op_width"],
            "labeling.max_bits_per_log2n": statistics.fmean(last["bits_per_log2n"]),
            "labeling.max_bits_per_n": statistics.fmean(last["bits_per_n"]),
            "labeling.load_s": ly["labeling.load_s"],
            "labeling.tree_parse_s": ly["labeling.tree_parse_s"],
            "labeling.walk_s": ly["labeling.walk_s"],
            "labeling.walk_us_per_step": ly["labeling.walk_s"] / events * 1e6,
            "geometry.incidence_s": ly["geometry.incidence_s"],
            "oracles.biclique_s": ly["oracles.biclique_s"],
            "oracles.degeneracy_s": ly["oracles.degeneracy_s"],
            "geometry.convex_dim2_s": ly["geometry.convex_dim2_s"],
            "geometry.convex_dim3_s": ly["geometry.convex_dim3_s"],
            "geometry.convex_points": last["convex_points"],
            "trace.overhead_s": min(map(_timed_s, traced)) - min(map(_timed_s, rounds)),
        }
        metrics = {m["name"]: _metric(values[m["name"]], m["unit"])
                   for m in spec["per_layer"]}
    else:
        values = {
            "setup_s": setup_s,
            "label_build_s": min(rd.build_s for rd in rounds),
            "decode_pairs_per_s": first.pairs / min(rd.decode_s for rd in rounds),
            "max_label_bits": statistics.fmean(first.max_bits),
            "mean_label_bits": statistics.fmean(first.mean_bits),
            "max_cost": statistics.fmean(first.max_cost),
            "mean_cost": first.events / first.pairs,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "degeneracy_scenes_per_s": len(scenes) / min(rd.scenes_s for rd in rounds),
        }
        metrics = {m["name"]: _metric(values[m["name"]], m["unit"])
                   for m in spec["end_to_end"]}

    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    line = json.dumps(result)
    (run_dir / f"result-trace{args.trace}.json").write_text(line + "\n")
    if args.trace:
        spans = [dict(zip(("id", "parent", "name", "start", "end", "calls"), s))
                 for s in tracer.spans]
        (run_dir / "trace.json").write_text(json.dumps(spans) + "\n")
    print(f"rounds={len(rounds)} traced_rounds={len(traced)}", file=sys.stderr)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
