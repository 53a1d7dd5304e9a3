import random
from collections import Counter
from fractions import Fraction

import pytest

from eqlabel import generators as gen
from eqlabel.cli import main
from eqlabel.geometry import (
    Scene,
    format_scene,
    format_udg,
    verify_incidence_degeneracy,
)
from eqlabel.graphs import format_graph_text, parse_graph_text
from eqlabel.labeling import LabelFile


def run_cli(*argv):
    return main(list(argv))


def write_instance(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def cycle_file(tmp_path, t=6):
    return write_instance(
        tmp_path, f"c{t}.graph", format_graph_text(gen.cycle_graph(t))
    )


# gen -------------------------------------------------------------------------


def test_gen_writes_parseable_instance(tmp_path, capsys):
    out = tmp_path / "g.graph"
    assert run_cli("gen", "--family", "cycle", "--t", "8", "--out", str(out)) == 0
    g = parse_graph_text(out.read_text())
    assert g == gen.cycle_graph(8)


def test_gen_stdout_and_determinism(tmp_path, capsys):
    assert run_cli("gen", "--family", "connected", "--nl", "5", "--nr", "5",
                   "--seed", "7") == 0
    first = capsys.readouterr().out
    assert run_cli("gen", "--family", "connected", "--nl", "5", "--nr", "5",
                   "--seed", "7") == 0
    assert capsys.readouterr().out == first
    assert parse_graph_text(first) == gen.random_connected_bipartite(5, 5, 0.35, 7)


def test_gen_every_family(tmp_path):
    cases = (
        ("path", ["--t", "5"]),
        ("cycle", ["--t", "6"]),
        ("star", ["--s", "3", "--t", "2"]),
        ("biclique", ["--s", "2", "--t", "3"]),
        ("half", ["--k", "4"]),
        ("random", ["--nl", "4", "--nr", "4"]),
        ("connected", ["--nl", "4", "--nr", "4"]),
        ("equivalence", ["--nl", "5", "--nr", "5", "--blocks", "2"]),
        ("udg", ["--n", "12", "--box", "6"]),
        ("signrank3", ["--nl", "6", "--nr", "6"]),
        ("scene", ["--dim", "2", "--points", "8", "--halfspaces", "5"]),
        ("lines", ["--points", "8", "--halfspaces", "5"]),
        ("boxes", ["--points", "8", "--halfspaces", "5"]),
    )
    for fam, extra in cases:
        out = tmp_path / f"{fam}.txt"
        assert run_cli("gen", "--family", fam, "--out", str(out), *extra) == 0
        assert out.read_text().strip()


def test_gen_unknown_family(capsys):
    assert run_cli("gen", "--family", "moebius") == 2
    assert "error" in capsys.readouterr().err


# decompose ---------------------------------------------------------------------


def test_decompose_output_and_verify(tmp_path, capsys):
    inp = cycle_file(tmp_path)
    assert run_cli("decompose", "--in", inp, "--verify") == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "decomposition 5 root 0"
    assert out[1] == "bag 0 parent -1 hook -1 : 0"
    assert out[2] == "bag 1 parent 0 hook 0 : 3 5"


def test_decompose_rejects_plain_graph(tmp_path, capsys):
    inp = write_instance(
        tmp_path, "star.graph", format_graph_text(gen.subdivided_star(3, 3))
    )
    assert run_cli("decompose", "--in", inp) == 2


def test_decompose_missing_file():
    assert run_cli("decompose", "--in", "/nonexistent/g.graph") == 2


# protocol ------------------------------------------------------------------------


def test_protocol_verify_summary(tmp_path, capsys):
    inp = cycle_file(tmp_path)
    assert run_cli("protocol", "--in", inp, "--verify") == 0
    line = capsys.readouterr().out.strip()
    assert line == "pairs=36 max_cost=9 max_depth=2 mismatches=0"


def test_protocol_single_pair(tmp_path, capsys):
    inp = cycle_file(tmp_path)
    assert run_cli("protocol", "--in", inp, "--pair", "0,3", "--verify") == 0
    assert capsys.readouterr().out.startswith("0 3 adjacent")
    assert run_cli("protocol", "--in", inp, "--pair", "0,1", "--verify") == 0
    assert capsys.readouterr().out.startswith("0 1 non-adjacent")


def test_protocol_cost_ceiling_breach(tmp_path):
    inp = cycle_file(tmp_path, t=8)  # worst cost 11
    assert run_cli("protocol", "--in", inp, "--cost-ceiling", "5") == 3
    assert run_cli("protocol", "--in", inp, "--cost-ceiling", "11") == 0


def test_protocol_on_udg_and_signrank(tmp_path, capsys):
    udg = tmp_path / "u.udg"
    assert run_cli("gen", "--family", "udg", "--n", "15", "--box", "6",
                   "--out", str(udg)) == 0
    assert run_cli("protocol", "--in", str(udg), "--verify") == 0
    assert "mismatches=0" in capsys.readouterr().out
    sr = tmp_path / "s.sr3"
    assert run_cli("gen", "--family", "signrank3", "--nl", "8", "--nr", "8",
                   "--out", str(sr)) == 0
    assert run_cli("protocol", "--in", str(sr), "--verify") == 0
    assert "mismatches=0" in capsys.readouterr().out


def test_protocol_needs_protocol_kind(tmp_path):
    inp = write_instance(
        tmp_path, "s.scene",
        format_scene(gen.random_halfspace_scene(2, 8, 4, seed=1)),
    )
    assert run_cli("protocol", "--in", inp) == 2


def test_protocol_on_fuzzed_udg_files(tmp_path, capsys):
    # a cut or mutated unit-disk file either verifies exactly (exit 0) or
    # is a usage error (exit 2): no traceback, no verification failure
    rng = random.Random(17)
    text = format_udg(gen.random_udg(10, box=5, radius=2, seed=3))
    alphabet = "0123456789-/. pu\n"
    inp = str(tmp_path / "f.udg")
    codes = Counter()
    for k in range(300):
        if k % 3 == 0:
            mutant = text[: rng.randrange(len(text))]
        else:
            chars = list(text)
            for _ in range(rng.randint(1, 3)):
                i = rng.randrange(len(chars))
                op = rng.randrange(3)
                if op == 0:
                    chars[i] = rng.choice(alphabet)
                elif op == 1:
                    chars.insert(i, rng.choice(alphabet))
                else:
                    del chars[i]
            mutant = "".join(chars)
        with open(inp, "w") as fh:
            fh.write(mutant)
        code = run_cli("protocol", "--in", inp, "--verify")
        assert code in (0, 2), mutant
        codes[code] += 1
    capsys.readouterr()
    assert codes[0] > 0 and codes[2] > 0


# label / label-verify ---------------------------------------------------------


def test_label_and_verify_round_trip(tmp_path, capsys):
    inp = cycle_file(tmp_path)
    lab = tmp_path / "c6.labels"
    assert run_cli("label", "--in", inp, "--out", str(lab)) == 0
    head = capsys.readouterr().out
    assert head.startswith("labels n=6 cost=9")
    f = LabelFile(lab.read_bytes())
    assert f.n == 6
    assert run_cli("label-verify", "--in", inp, "--labels", str(lab)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "labels max_bits=224 mean_bits=176.0 per_log=74.7"
    assert lines[1] == "pairs=36 mismatches=0"


def test_label_ceiling_exceeded(tmp_path):
    inp = cycle_file(tmp_path, t=8)
    assert run_cli("label", "--in", inp, "--out", str(tmp_path / "x.labels"),
                   "--cost-ceiling", "5") == 3


def test_label_verify_catches_foreign_labels(tmp_path, capsys):
    a = write_instance(
        tmp_path, "a.graph",
        format_graph_text(gen.random_equivalence(8, 8, 3, seed=0)),
    )
    b = write_instance(
        tmp_path, "b.graph",
        format_graph_text(gen.random_equivalence(8, 8, 3, seed=5)),
    )
    lab = tmp_path / "b.labels"
    assert run_cli("label", "--in", b, "--out", str(lab)) == 0
    capsys.readouterr()
    assert run_cli("label-verify", "--in", a, "--labels", str(lab)) == 1
    out = capsys.readouterr().out
    assert "mismatches=0" not in out


def test_label_verify_rejects_truncated_file(tmp_path, capsys):
    inp = cycle_file(tmp_path)
    lab = tmp_path / "c6.labels"
    assert run_cli("label", "--in", inp, "--out", str(lab)) == 0
    cut = tmp_path / "cut.labels"
    for size in (8, 12, 30):
        cut.write_bytes(lab.read_bytes()[:size])
        capsys.readouterr()
        assert run_cli("label-verify", "--in", inp, "--labels", str(cut)) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_label_empty_instance(tmp_path, capsys):
    inp = write_instance(tmp_path, "e.graph", "bipartite 0 0 0\n")
    lab = tmp_path / "e.labels"
    assert run_cli("label", "--in", inp, "--out", str(lab)) == 0
    assert capsys.readouterr().out.strip().endswith("max_bits=0")
    assert run_cli("label-verify", "--in", inp, "--labels", str(lab)) == 0


def test_label_rejects_signrank(tmp_path):
    sr = tmp_path / "s.sr3"
    run_cli("gen", "--family", "signrank3", "--out", str(sr))
    assert run_cli("label", "--in", str(sr), "--out",
                   str(tmp_path / "s.labels")) == 2


# oracle -------------------------------------------------------------------------


def test_oracle_chain(tmp_path, capsys):
    inp = write_instance(
        tmp_path, "h4.graph", format_graph_text(gen.half_graph(4))
    )
    assert run_cli("oracle", "--in", inp, "--check", "chain") == 0
    assert capsys.readouterr().out.strip() == "4"


def test_oracle_equivalence(tmp_path, capsys):
    eq = write_instance(
        tmp_path, "eq.graph",
        format_graph_text(gen.random_equivalence(5, 5, 2, seed=1)),
    )
    assert run_cli("oracle", "--in", eq, "--check", "equivalence") == 0
    assert capsys.readouterr().out.strip() == "true"
    p4 = write_instance(
        tmp_path, "p4.graph", format_graph_text(gen.path_graph(4))
    )
    assert run_cli("oracle", "--in", p4, "--check", "equivalence") == 1


def test_oracle_eat(tmp_path, capsys):
    star = write_instance(
        tmp_path, "s33.graph", format_graph_text(gen.subdivided_star(3, 3))
    )
    assert run_cli("oracle", "--in", star, "--check", "eat") == 1
    trip = capsys.readouterr().out.strip().split()
    assert len(trip) == 3 and all("-" in e for e in trip)
    path = write_instance(
        tmp_path, "p6.graph", format_graph_text(gen.path_graph(6))
    )
    assert run_cli("oracle", "--in", path, "--check", "eat") == 0
    assert capsys.readouterr().out.strip() == "none"


def test_oracle_biclique(tmp_path, capsys):
    k23 = write_instance(
        tmp_path, "k23.graph", format_graph_text(gen.biclique(2, 3))
    )
    assert run_cli("oracle", "--in", k23, "--check", "biclique",
                   "--s", "2", "--t", "3") == 1
    assert run_cli("oracle", "--in", k23, "--check", "biclique",
                   "--s", "3", "--t", "3") == 0


def test_oracle_degeneracy_scene(tmp_path, capsys):
    scn = tmp_path / "d2.scene"
    assert run_cli("gen", "--family", "scene", "--dim", "2", "--points", "10",
                   "--halfspaces", "6", "--seed", "3", "--out", str(scn)) == 0
    assert run_cli("oracle", "--in", str(scn), "--check", "degeneracy") == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("dim=2 s=3 degeneracy=")
    assert "ok=true" in line


def test_oracle_degeneracy_coplanar_scene(tmp_path, capsys):
    # coplanar points, (1, 3, 0) inside the other four: not in convex
    # position, so the Caratheodory residual check runs
    pts = [(0, 1, 0), (0, 4, 0), (1, 3, 0), (2, 1, 0), (3, 3, 0)]
    hs = [((1, 0, 0), Fraction(5, 2)), ((0, 1, 0), Fraction(7, 2)),
          ((0, 0, 1), -1)]
    sc = Scene.make(3, pts, hs)
    rep = verify_incidence_degeneracy(sc, 3)
    assert not rep.convex_position
    assert rep.caratheodory_checked
    scn = tmp_path / "coplanar.scene"
    scn.write_text(format_scene(sc))
    assert run_cli("oracle", "--in", str(scn), "--check", "degeneracy") == 0
    line = capsys.readouterr().out.strip()
    assert "convex=false" in line
    assert f"caratheodory={rep.caratheodory_degree} " in line


def test_oracle_degeneracy_graph(tmp_path, capsys):
    inp = cycle_file(tmp_path)
    assert run_cli("oracle", "--in", inp, "--check", "degeneracy") == 0
    assert capsys.readouterr().out.strip() == "degeneracy=2"


def test_oracle_unknown_check(tmp_path):
    inp = cycle_file(tmp_path)
    assert run_cli("oracle", "--in", inp, "--check", "girth") == 2


def test_unrecognized_instance_header(tmp_path):
    bad = write_instance(tmp_path, "bad.txt", "widget 3 3\n")
    assert run_cli("protocol", "--in", bad) == 2


def test_zero_denominator_is_a_usage_error(tmp_path, capsys):
    cases = (
        ("protocol", "udg 1 1\np 1/0 0\n"),
        ("protocol", "udg 1 1/0\np 0 0\n"),
        ("protocol", "signrank3 1 1\na 1/0 1 1\nb 1 1 1\n"),
        ("oracle", "scene 2 1 0\np 1/0 0\n"),
        ("oracle", "scene 2 0 1\nh 1 0 1/0\n"),
    )
    for i, (cmd, text) in enumerate(cases):
        inp = write_instance(tmp_path, f"z{i}.txt", text)
        extra = ("--check", "degeneracy") if cmd == "oracle" else ()
        capsys.readouterr()
        assert run_cli(cmd, "--in", inp, *extra) == 2, text
        assert capsys.readouterr().err.startswith("error: "), text
