import argparse
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from positroids import cli, lediag, perm, plabic, plabic_json, shapes
from positroids.cli import main
from conftest import skew_pairs

RUN = [sys.executable, "-m", "positroids.cli"]


def run_cli(args, stdin_text=None):
    proc = subprocess.run(
        RUN + args, input=stdin_text, capture_output=True, text=True, timeout=300
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_perm_columnar_golden():
    code, out, _ = run_cli(["perm", "columnar", "--k", "4", "--n", "8", "--x", "2 4 7 8 1 3 5 6"])
    assert code == 0
    assert out.strip() == "s6 s7 s5 s6 s3 s4 s5 s1 s2 s3 s4"


def test_perm_columnar_identity():
    code, out, _ = run_cli(["perm", "columnar", "--k", "2", "--n", "5", "--x", "identity"])
    assert code == 0
    assert out.strip() == ""


def test_perm_necklace():
    code, out, _ = run_cli(["perm", "necklace", "--pi", "3 4 5 1 2"])
    assert code == 0
    assert out.splitlines() == ["1 2", "2 3", "3 4", "4 5", "1 5"]


def test_perm_bounded_affine():
    code, out, _ = run_cli(["perm", "bounded-affine", "--pi", "3 4 5 1 2"])
    assert code == 0
    assert out.strip() == "3 4 5 6 7"


def test_perm_pds():
    code, out, _ = run_cli(
        ["perm", "pds", "--v", "2 5 1 4 3", "--word", "1 2 3 4 2 3 1 2 1"]
    )
    assert code == 0
    assert "positions: 2 3 4 6 7" in out


def test_plabic_pipe_bridge_faces():
    code, graph_json, _ = run_cli(["plabic", "bridge", "--k", "2", "--n", "5", "--x", "3 5 1 2 4"])
    assert code == 0
    code, out, _ = run_cli(["plabic", "faces", "--mode", "target"], stdin_text=graph_json)
    assert code == 0
    labels = {line.split("  ")[0] for line in out.splitlines()}
    assert labels == {"1 2", "1 3", "1 4", "1 5", "2 3", "3 4"}


def test_plabic_trips_pipe():
    code, graph_json, _ = run_cli(["plabic", "bridge", "--k", "2", "--n", "5", "--x", "3 5 1 2 4"])
    code, out, _ = run_cli(["plabic", "trips"], stdin_text=graph_json)
    assert code == 0
    assert out.splitlines()[0] == "3 4 1 5 2"


def test_plabic_move_square_bad_face_exit_2():
    _, graph_json, _ = run_cli(["plabic", "bridge", "--k", "2", "--n", "5", "--x", "3 5 1 2 4"])
    code, _, err = run_cli(
        ["plabic", "move", "square", "--face", "2 5"], stdin_text=graph_json
    )
    assert code == 2


def test_plabic_move_square_ok():
    _, graph_json, _ = run_cli(["plabic", "bridge", "--k", "2", "--n", "5", "--x", "3 5 1 2 4"])
    code, out, _ = run_cli(
        ["plabic", "move", "square", "--face", "1 3"], stdin_text=graph_json
    )
    assert code == 0
    code, trips_out, _ = run_cli(["plabic", "trips"], stdin_text=out)
    assert trips_out.splitlines()[0] == "3 4 1 5 2"


def test_plabic_relabel_and_mirror_compose():
    _, graph_json, _ = run_cli(["plabic", "bridge", "--k", "2", "--n", "5", "--x", "3 5 1 2 4"])
    code, relabeled, _ = run_cli(["plabic", "relabel", "--perm", "2 1 5 4 3"], stdin_text=graph_json)
    assert code == 0
    code, mirrored, _ = run_cli(["plabic", "mirror"], stdin_text=relabeled)
    assert code == 0
    code, out, _ = run_cli(["plabic", "faces", "--mode", "source"], stdin_text=mirrored)
    assert code == 0


def test_seed_rectangles_matches_library():
    code, out, _ = run_cli(
        ["seed", "rectangles", "--k", "3", "--n", "7", "--v", "wK", "--x", "3 5 7 1 2 4 6"]
    )
    assert code == 0
    data = json.loads(out)
    labels = {"".join(map(str, v["label"])) for v in data["vertices"]}
    assert labels == {"237", "236", "235", "234", "137", "367", "356", "127", "167"}
    assert len(data["arrows"]) == 9


def test_seed_classify():
    for lam, want in (("2 2", "D4"), ("3 3", "E6"), ("4 3 1", "Infinite")):
        code, out, _ = run_cli(["seed", "classify", "--lambda", lam])
        assert code == 0 and out.strip() == want


def test_seed_from_graph_pipe():
    _, graph_json, _ = run_cli(["plabic", "bridge", "--k", "2", "--n", "5", "--x", "3 5 1 2 4"])
    code, out, _ = run_cli(
        ["seed", "from-graph", "--mode", "target", "--delete", "1 2"], stdin_text=graph_json
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["vertices"]) == 5


def test_seed_verify_exchange_report():
    code, out, _ = run_cli(
        [
            "seed", "verify-exchange", "--k", "2", "--n", "5", "--v", "wK",
            "--x", "3 5 1 2 4", "--samples", "5", "--steps", "4", "--rng-seed", "7",
        ]
    )
    assert code == 0
    report = json.loads(out)
    assert report["failures"] == 0
    assert report["rng_seed"] == 7
    assert all(c["status"] == "ok" for c in report["checks"])


def test_verify_exchange_fails_when_a_move_lands_elsewhere(monkeypatch, capsys):
    argv = ["seed", "verify-exchange", "--k", "3", "--n", "7", "--v", "wK",
            "--x", "3 5 7 1 2 4 6", "--samples", "5", "--steps", "4", "--rng-seed", "3"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["failures"] == 0
    real_move = plabic.square_move
    corrupted = []

    def first_move_elsewhere(G, label):
        # the first step moves another eligible face than the one mutated
        if not corrupted:
            corrupted.append(label)
            label = next(l for l in plabic.square_eligible_labels(G) if l != label)
        return real_move(G, label)

    monkeypatch.setattr(plabic, "square_move", first_move_elsewhere)
    assert main(argv) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["failures"] == 1
    assert [c["status"] for c in report["checks"]] == ["fail", "ok", "ok", "ok"]


def test_le_pipe():
    code, skew, _ = run_cli(
        ["le", "skew", "--k", "4", "--n", "8", "--x", "1 2 4 7 3 5 6 8", "--v", "4 3 8 2 7 6 1 5"]
    )
    assert code == 0
    assert skew.strip().splitlines() == ["+ + + 0", "+ 0 0 0", "0 0 0", "0"]
    code, out, _ = run_cli(["le", "leify"], stdin_text=skew)
    assert code == 0
    assert out.strip().splitlines() == ["0 0 + 0", "+ + + 0", "0 0 0", "0"]


def test_le_read():
    code, out, _ = run_cli(
        ["le", "read", "--k", "2", "--n", "5"], stdin_text="0 0 0\n0 0\n"
    )
    assert code == 0
    assert out.strip() == "3 5 1 2 4"


def test_ppalg_module_pretty():
    code, out, _ = run_cli(
        [
            "ppalg", "module", "--k", "3", "--n", "7",
            "--v", "3 2 7 1 6 5 4", "--x", "3 6 7 1 2 4 5", "--j", "14",
        ]
    )
    assert code == 0
    # staggered diagram with 5 3 1 over 4 2
    lines = [l.rstrip() for l in out.splitlines() if l.strip()]
    assert lines[0].split() == ["1", "3", "5"] or lines[0].split() == ["5", "3", "1"]


def test_ppalg_crosscheck_small():
    code, out, _ = run_cli(["ppalg", "crosscheck", "--n", "4"])
    assert code == 0
    data = json.loads(out)
    assert data["failures"] == 0


def test_usage_error_exit_2():
    code, _, err = run_cli(["perm", "columnar", "--k", "2", "--x", "1 1 2"])
    assert code == 2


def test_main_entry_direct():
    assert main(["seed", "classify", "--lambda", "2 2"]) == 0


def test_verify_exchange_deterministic_under_seed():
    args = [
        "seed", "verify-exchange", "--k", "2", "--n", "5", "--v", "wK",
        "--x", "3 5 1 2 4", "--samples", "4", "--steps", "3", "--rng-seed", "11",
    ]
    _, out1, _ = run_cli(args)
    _, out2, _ = run_cli(args)
    assert out1 == out2


def test_graph_json_pipeline_composes_everywhere():
    # graph JSON emitted by any producer is accepted by every consumer
    _, graph_json, _ = run_cli(["plabic", "bridge", "--k", "3", "--n", "6", "--x", "2 4 6 1 3 5"])
    for consumer in (
        ["plabic", "trips"],
        ["plabic", "faces", "--mode", "source"],
        ["plabic", "mirror"],
        ["plabic", "relabel", "--perm", "3 2 1 6 5 4"],
        ["plabic", "dualquiver"],
        ["seed", "from-graph"],
    ):
        code, _, err = run_cli(consumer, stdin_text=graph_json)
        assert code == 0, (consumer, err)


def test_le_read_missing_dims_exit_2():
    code, _, err = run_cli(["le", "read"], stdin_text="0 0\n0\n")
    assert code == 2


def test_plabic_dualquiver_dot():
    _, graph_json, _ = run_cli(["plabic", "bridge", "--k", "2", "--n", "5", "--x", "3 5 1 2 4"])
    code, out, _ = run_cli(["plabic", "dualquiver", "--dot"], stdin_text=graph_json)
    assert code == 0
    assert out.startswith("digraph") and "shape=box" in out


def test_ppalg_quiver_json():
    code, out, _ = run_cli(
        ["ppalg", "quiver", "--k", "3", "--n", "7",
         "--v", "3 2 7 1 6 5 4", "--x", "3 6 7 1 2 4 5"]
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["vertices"]) == 10
    assert sum(1 for v in data["vertices"] if v["frozen"]) == 6


def test_ppalg_crosscheck_jobs_clamped_to_cpus(monkeypatch, capsys):
    import concurrent.futures

    started = []

    class FakePool:
        """Records the pool size and maps in this process; starts nothing."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    assert main(["ppalg", "crosscheck", "--n", "3", "--jobs", "100000"]) == 0
    assert started == [3]
    assert json.loads(capsys.readouterr().out)["failures"] == 0
    assert main(["ppalg", "crosscheck", "--n", "3", "--jobs", "2"]) == 0
    assert started == [3, 2]


# ---------------------------------------------------------------------------
# malformed graph JSON: exit 2 with one error line, never a traceback
# ---------------------------------------------------------------------------

GRAPH_COMMANDS = (
    ["plabic", "faces", "--mode", "target"],
    ["plabic", "trips"],
    ["seed", "from-graph"],
    ["plabic", "mirror"],
    ["plabic", "relabel", "--perm", "2 1 5 4 3"],
    ["plabic", "dualquiver"],
    ["plabic", "move", "square", "--face", "1 3"],
    ["seed", "mutate", "--seq", "1 3"],
)


def run_main_on(argv, stdin_text, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_ppalg_quiver_prints_the_rectangles_seed(monkeypatch, capsys):
    # the seed read off the tilting summands is the rectangles seed (the
    # paper's main theorem), so the two commands print the same bytes
    pairs = 0
    for n in range(2, 6):
        for k, v, x in skew_pairs(n):
            args = ["--k", str(k), "--n", str(n), "--v", " ".join(map(str, v)),
                    "--x", " ".join(map(str, x))]
            got = run_main_on(["ppalg", "quiver", *args], "", monkeypatch, capsys)
            assert got == run_main_on(["seed", "rectangles", *args], "", monkeypatch, capsys), args
            assert got[0] == 0
            pairs += 1
    assert pairs == 185


def malformed_graphs():
    good = plabic_json.to_json(plabic.bridge_graph(2, 5, (3, 5, 1, 2, 4)))
    cases = {"list": [1], "n not int": {"n": "x"}, "null": None}
    for key in good:
        cases[f"no {key}"] = {k: v for k, v in good.items() if k != key}
    twice = json.loads(json.dumps(good))
    twice["rotations"]["6"] = [8, 8, 2]  # 6 and 8 share one edge
    cases["neighbour twice"] = twice
    stranger = json.loads(json.dumps(good))
    stranger["rotations"]["6"] = [8, 1, 5]  # 5 is not a neighbour of 6
    cases["not a neighbour"] = stranger
    cases["bool n"] = dict(good, n=True)
    cases["edge of 3"] = dict(good, edges=[[-1, 1, 2]] + good["edges"][1:])
    cases["bad color"] = dict(good, vertices=[{"id": 1, "color": "red"}] + good["vertices"][1:])
    cases["short labels"] = dict(good, boundary_labels=[1, 2])
    cases["n 0"] = {"n": 0, "boundary_labels": [], "vertices": [], "edges": [], "rotations": {}}
    cases["n 0 with a digon"] = dict(cases["n 0"], vertices=[{"id": 1, "color": "w"}, {"id": 2, "color": "b"}],
                                     edges=[[1, 2], [1, 2]], rotations={"1": [2, 2], "2": [1, 1]})

    def with_4cycle(graph):
        # a separate internal 4-cycle passes validate() but breaks Euler's formula
        cycle = json.loads(json.dumps(graph))
        ids = [max(v["id"] for v in graph["vertices"]) + i for i in range(1, 5)]
        cycle["vertices"] += [{"id": v, "color": "bw"[i % 2]} for i, v in enumerate(ids)]
        cycle["edges"] += [[ids[i], ids[(i + 1) % 4]] for i in range(4)]
        cycle["rotations"].update({str(v): [ids[i - 1], ids[(i + 1) % 4]] for i, v in enumerate(ids)})
        return cycle

    cases["disconnected 4-cycle"] = with_4cycle(good)
    cases["n 1 with a 4-cycle"] = with_4cycle(plabic_json.to_json(plabic.lollipop_graph(1, 1)))
    return cases


@pytest.mark.parametrize("argv", GRAPH_COMMANDS, ids=" ".join)
@pytest.mark.parametrize("name", sorted(malformed_graphs()))
def test_malformed_graph_json_exits_2(name, argv, monkeypatch, capsys):
    text = json.dumps(malformed_graphs()[name])
    code, out, err = run_main_on(argv, text, monkeypatch, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-8, 8) | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=12,
)
graph_like = st.fixed_dictionaries(
    {key: json_values for key in ("n", "boundary_labels", "vertices", "edges", "rotations")}
)


@seed(20260)
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=json_values | graph_like)
def test_plabic_faces_on_arbitrary_json_exits_0_or_2(data, monkeypatch, capsys):
    code, _, err = run_main_on(["plabic", "faces", "--mode", "target"], json.dumps(data), monkeypatch, capsys)
    assert code in (0, 2)
    if code == 2:
        assert err.startswith("error: ")


# ---------------------------------------------------------------------------
# usage errors of the non-graph commands: exit 2 with one error line
# ---------------------------------------------------------------------------

def assert_usage_error(argv, monkeypatch, capsys, stdin_text=""):
    code, out, err = run_main_on(argv, stdin_text, monkeypatch, capsys)
    assert code == 2, (argv, out, err)
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv", (
    ["plabic", "faces", "--mode", "target", "--in", "MISSING"],
    ["le", "leify", "--in", "MISSING"],
    ["plabic", "bridge", "--k", "2", "--n", "4", "--x", "3 4 1 2", "--out", "MISSING/x.json"],
), ids=" ".join)
def test_bad_file_path_exits_2(argv, tmp_path, monkeypatch, capsys):
    missing = str(tmp_path / "missing")
    assert_usage_error([a.replace("MISSING", missing) for a in argv], monkeypatch, capsys)


def test_le_leify_closes_its_input_file(tmp_path):
    path = tmp_path / "oplus.txt"
    path.write_text("0 +\n+ +\n")
    proc = subprocess.run(
        [sys.executable, "-W", "error::ResourceWarning", *RUN[1:], "le", "leify", "--in", str(path)],
        capture_output=True, text=True, timeout=300,
    )
    # a warning raised while the file object is collected is printed, not raised
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.strip()


def test_plabic_move_square_ineligible_face_exits_2(monkeypatch, capsys):
    G = plabic.bridge_graph(2, 5, (3, 5, 1, 2, 4))
    eligible = plabic.square_eligible_labels(G)
    face = next(lab for lab in plabic.face_labeling(G, "target").labels if lab not in eligible)
    with pytest.raises(plabic.NotSquareEligible):
        plabic.square_move(G, face)
    argv = ["plabic", "move", "square", "--face", _fmt(sorted(face))]
    assert_usage_error(argv, monkeypatch, capsys, json.dumps(plabic_json.to_json(G)))


# a set given with a repeated entry is refused, not read as the set
REPEATED_ENTRIES = (
    (["plabic", "move", "square", "--face", "1 1 3"], "entry 1 is repeated in '1 1 3'"),
    (["plabic", "move", "square", "--face", "1,3, 3"], "entry 3 is repeated in '1,3, 3'"),
    (["seed", "mutate", "--mode", "target", "--seq", "1 3;2 4 2"],
     "entry 2 is repeated in '2 4 2'"),
    (["seed", "from-graph", "--mode", "target", "--delete", "1 5 1"],
     "entry 1 is repeated in '1 5 1'"),
    (["perm", "necklace", "--pi", "3 5 1 2 4", "--white", "3 3"], "entry 3 is repeated in '3 3'"),
)


@pytest.mark.parametrize("argv, message", REPEATED_ENTRIES,
                         ids=[" ".join(argv) for argv, _ in REPEATED_ENTRIES])
def test_repeated_subset_entry_is_a_usage_error(argv, message, monkeypatch, capsys):
    G = plabic.bridge_graph(2, 5, (3, 5, 1, 2, 4))
    code, out, err = run_main_on(argv, json.dumps(plabic_json.to_json(G)), monkeypatch, capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_missing_face_error_prints_its_message(monkeypatch, capsys):
    G = plabic.bridge_graph(2, 5, (3, 5, 1, 2, 4))
    code, out, err = run_main_on(["plabic", "move", "square", "--face", "1"],
                                 json.dumps(plabic_json.to_json(G)), monkeypatch, capsys)
    assert (code, out, err) == (2, "", "error: no face labeled [1]\n")


@pytest.mark.parametrize("argv", (["seed", "from-graph", "--mode", "target", "--delete", ""],
                                  ["plabic", "move", "square", "--face", ""]),
                         ids=("delete", "face"))
def test_empty_face_names_no_face(argv, monkeypatch, capsys):
    # the empty set is a set like any other: no face carries it
    G = plabic.bridge_graph(2, 5, (3, 5, 1, 2, 4))
    got = run_main_on(argv, json.dumps(plabic_json.to_json(G)), monkeypatch, capsys)
    assert got == (2, "", "error: no face labeled []\n")


# (k, n, v, x) that are not length-additive skew pairs
BAD_SKEW_PAIRS = (
    (2, 4, "1 2 3 4", "3 4 1 2"),  # v not in W^K_max
    (2, 4, "wK", "2 1 3 4"),  # x not in ^K W
    (2, 4, "2 4 1 3", "3 4 1 2"),  # v <= xv, but l(xv) = 5 < l(x) + l(v) = 7
    (3, 6, "3 2 6 1 5 4", "4 5 6 1 2 3"),  # the same failure in Gr(3, 6)
)
SKEW_COMMANDS = (
    ["seed", "rectangles"],
    ["le", "skew"],
    ["ppalg", "module", "--j", "1"],
    ["ppalg", "quiver"],
    ["seed", "verify-exchange", "--samples", "2", "--steps", "2"],
)


def test_bad_skew_pairs_below_xv():
    # the last two pairs fail only length-additivity, with v below xv
    for k, n, v_text, x_text in BAD_SKEW_PAIRS[2:]:
        v, x = cli.parse_perm(v_text, k, n), cli.parse_perm(x_text, k, n)
        assert perm.is_max_rep(v, k) and perm.is_grassmannian(x, k)
        assert perm.bruhat_leq(v, perm.multiply(x, v))


@pytest.mark.parametrize("command", SKEW_COMMANDS, ids=" ".join)
@pytest.mark.parametrize("pair", BAD_SKEW_PAIRS, ids=lambda p: f"v={p[2]} x={p[3]}")
def test_bad_skew_pair_exits_2(pair, command, monkeypatch, capsys):
    k, n, v, x = pair
    argv = command + ["--k", str(k), "--n", str(n), "--v", v, "--x", x]
    assert_usage_error(argv, monkeypatch, capsys)


@pytest.mark.parametrize("argv", (
    ["perm", "pds", "--v", "2 1 3"],  # neither --w nor --word
    ["perm", "pds", "--v", "2 1 3", "--w", "w0", "--word", "1"],  # both
    ["perm", "pds", "--v", "", "--word", "1"],
    ["perm", "pds", "--v", "2 1", "--word", "5"],
    ["perm", "pds", "--v", "2 1 3", "--word", "0 1"],
    ["perm", "pds", "--v", "2 1 3", "--w", "4 3 2 1"],
), ids=" ".join)
def test_perm_pds_bad_input_exits_2(argv, monkeypatch, capsys):
    assert_usage_error(argv, monkeypatch, capsys)


@pytest.mark.parametrize("argv", (
    ["perm", "columnar", "--k", "5", "--x", "1 2 3"],
    ["perm", "columnar", "--k", "4", "--n", "3", "--x", "1 2 3"],
), ids=" ".join)
def test_perm_columnar_k_beyond_n_exits_2(argv, monkeypatch, capsys):
    # x([k]) has fewer than k labels, which shapes.from_vert_ne rejects
    assert_usage_error(argv, monkeypatch, capsys)


@pytest.mark.parametrize("k, n, x", (
    (2, 4, "1 3 2 4"), (2, 4, "1 2 3 4"), (3, 6, "1 2 4 3 5 6"),
), ids=str)
def test_verify_exchange_without_an_eligible_face_exits_2(k, n, x, monkeypatch, capsys):
    # no interior 2x2 block in the shape of x: the walk could not take a step
    G = plabic.bridge_graph(k, n, cli.parse_perm(x, k, n))
    assert plabic.square_eligible_labels(G) == ()
    argv = ["seed", "verify-exchange", "--k", str(k), "--n", str(n), "--v", "wK", "--x", x,
            "--samples", "2", "--steps", "3"]
    assert_usage_error(argv, monkeypatch, capsys)


@pytest.mark.parametrize("lam", ("2 -1 2", "3 0 2", "-1", "1 2"))
def test_seed_classify_malformed_lambda_exits_2(lam, monkeypatch, capsys):
    assert_usage_error(["seed", "classify", "--lambda", lam], monkeypatch, capsys)


def test_seed_classify_trailing_zeros_still_read():
    assert main(["seed", "classify", "--lambda", "2 2 0"]) == 0


def test_seed_classify_decides_wide_shapes_without_their_transpose(capsys):
    t0 = time.perf_counter()
    assert main(["seed", "classify", "--lambda", "1000000000 1000000000"]) == 0
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().out == "Infinite\n"


class FailingStdin:
    def read(self, *args):
        raise AssertionError("stdin read before the options were checked")


def test_le_read_checks_its_options_before_reading(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", FailingStdin())
    assert main(["le", "read"]) == 2
    assert capsys.readouterr() == ("", "error: le read needs --k and --n\n")


@pytest.mark.parametrize("k", ("5", "-1"))
def test_le_read_with_k_outside_0_to_n_exits_2(k, monkeypatch, capsys):
    # k = 5 > n = 3 leaves no box; the empty diagram once read as 1 2 3
    code, out, err = run_main_on(["le", "read", "--k", k, "--n", "3"], "", monkeypatch, capsys)
    assert (code, out) == (2, "")
    assert err == f"error: shape () does not fit {k} x {3 - int(k)}\n"


@pytest.mark.parametrize("side", (13, 200))
@pytest.mark.parametrize("pattern", ("checkerboard", "antidiagonal"))
def test_le_leify_takes_any_side(side, pattern, monkeypatch, capsys):
    # the slowest fillings for a search over Le-move sites; Le-ification is
    # linear in the area, so le leify has no side cap
    def plus(r, c):
        return (r + c) % 2 == 0 if pattern == "checkerboard" else r + c == side - 1

    diagram = "\n".join(" ".join("+" if plus(r, c) else "0" for c in range(side))
                        for r in range(side))
    code, out, err = run_main_on(["le", "leify"], diagram, monkeypatch, capsys)
    assert (code, err) == (0, "")
    O, M = lediag.parse(diagram), lediag.parse(out)
    assert M.shape == O.shape and lediag.is_le_diagram(M)
    assert lediag.reading_word(M, side, 2 * side) == lediag.reading_word(O, side, 2 * side)


def test_wk_with_k_outside_0_to_n_is_not_built(monkeypatch, capsys):
    # built, w_K would hold |k| letters before it is found not to be of [5]
    monkeypatch.setattr(perm, "parabolic_longest", None)
    for k in ("1000000000", "-1000000000"):
        argv = ["perm", "pds", "--k", k, "--n", "5", "--v", "wK", "--w", "w0"]
        assert run_main_on(argv, "", monkeypatch, capsys) == (
            2, "", "error: not a permutation of [5]: 'wK'\n")


# ---------------------------------------------------------------------------
# caps: main checks each row of cli.CAPS before the command's handler runs, so
# one step past a bound exits 2 with no work done
# ---------------------------------------------------------------------------

VERIFY_EXCHANGE = ["seed", "verify-exchange", "--k", "2", "--n", "5", "--v", "wK",
                   "--x", "3 5 1 2 4"]
WALK = VERIFY_EXCHANGE + ["--samples", "1", "--steps", "1"]
CROSSCHECK = ["ppalg", "crosscheck", "--n", "3", "--jobs", "1"]


def cap(command, option="--n"):
    """(lowest, highest, what) of ``command``'s ``option`` in cli.CAPS."""
    (row,) = [row[2:] for row in cli.CAPS if row[:2] == (command, option)]
    return row


def past_bounds(command, option="--n"):
    """Each value one step past a bound of the row, with the stderr it brings."""
    low, high, what = cap(command, option)
    message = f"error: {option} must be {cli._bounds(low, high)}{f' for {what}' if what else ''}\n"
    values = ([] if low is None else [low - 1]) + ([] if high is None else [high + 1])
    return [(value, message) for value in values]


def with_option(argv, option, value):
    i = argv.index(option) + 1
    return argv[:i] + [str(value)] + argv[i + 1:]


def cap_argv(command, option, value, one_line=False):
    """argv of ``command`` with ``option`` at ``value``: any option but --n is the
    walk's on Gr(2,5); at --n = n, k = n // 2, v = wK, the full shape for x, w0 for w
    and pi and the last summand for --j.  ``one_line`` spells them out, with no --n."""
    if option != "--n":
        return with_option(WALK, option, value)
    n, k = value, value // 2
    x = _fmt(perm.grassmannian_from_image(shapes.vert_ne((n - k,) * k, k, n), k, n))
    wK, w0 = ((_fmt(perm.parabolic_longest(k, n)), _fmt(perm.longest_element(n))) if one_line
              else ("wK", "w0"))
    pair = ["--v", wK, "--x", x]
    return command.split() + ["--k", str(k)] + ([] if one_line else ["--n", str(n)]) + {
        "perm columnar": ["--x", x], "plabic bridge": ["--x", x], "le read": [],
        "perm pds": ["--v", wK, "--w", "w0"],
        "perm necklace": ["--pi", w0], "perm bounded-affine": ["--pi", w0],
        "seed verify-exchange": pair + ["--samples", "1", "--steps", "1"],
        "ppalg module": pair + ["--j", str(k * (n - k))],
    }.get(command, pair)


def assert_stops_before_work(argv, message, monkeypatch, capsys):
    """``main(argv)`` exits 2 with ``message`` and an empty stdout, without
    running the command's handler or reading stdin."""
    monkeypatch.setattr(cli, "_".join(argv[:2]).replace("-", "_"), None)
    monkeypatch.setattr(sys, "stdin", FailingStdin())
    assert (main(argv), *capsys.readouterr()) == (2, "", message)


def help_entry(command, option, capsys) -> str:
    """The --help text of ``command``'s ``option``, on one line."""
    with pytest.raises(SystemExit):
        main(command.split() + ["--help"])
    text = " ".join(capsys.readouterr().out.split("options:", 1)[1].split())
    return text.split(f" {option} {option[2:].upper()} ", 1)[1].split(" --", 1)[0]


def assert_capped(command, option, monkeypatch, capsys):
    """Past each bound of the row, main stops before any work; --help names the bounds."""
    for value, message in past_bounds(command, option):
        assert_stops_before_work(cap_argv(command, option, value), message, monkeypatch, capsys)
    assert cli._bounds(*cap(command, option)[:2]) in help_entry(command, option, capsys)


def run_at_cap(command, option, monkeypatch, capsys, stdin_text=""):
    argv = cap_argv(command, option, cap(command, option)[1])
    code, out, _ = run_main_on(argv, stdin_text, monkeypatch, capsys)
    assert code == 0
    return out


WALK_OPTIONS = ("--samples", "--steps")


def walk_ids(step):
    return [" ".join(with_option(WALK, option, cap("seed verify-exchange", option)[1] + step)[-4:])
            for option in WALK_OPTIONS]


@pytest.mark.parametrize("flag", WALK_OPTIONS)
@pytest.mark.parametrize("value", ("0", "-1"))
def test_verify_exchange_needs_something_to_check(flag, value, monkeypatch, capsys):
    ((_, message), _) = past_bounds("seed verify-exchange", flag)
    assert_stops_before_work(with_option(WALK, flag, value), message, monkeypatch, capsys)


@pytest.mark.parametrize("flag", WALK_OPTIONS, ids=walk_ids(1))
def test_verify_exchange_beyond_its_caps_exits_2(flag, monkeypatch, capsys):
    assert_capped("seed verify-exchange", flag, monkeypatch, capsys)


@pytest.mark.parametrize("flag", WALK_OPTIONS, ids=walk_ids(0))
def test_verify_exchange_at_its_caps_runs(flag, monkeypatch, capsys):
    report = json.loads(run_at_cap("seed verify-exchange", flag, monkeypatch, capsys))
    assert report["failures"] == 0 and report["checks"]


GR36_BRIDGE = plabic_json.to_json(plabic.bridge_graph(3, 6, (4, 5, 6, 1, 2, 3)))


def mutate_argv(steps, faces=("1 4 5", "1 2 4")):
    """seed mutate with a --seq of ``steps`` steps cycling through ``faces``;
    alternating 145 and 124 of the Gr(3,6) bridge graph grows its labels
    fastest of any two adjacent faces."""
    return ["seed", "mutate", "--seq", ";".join(faces[i % len(faces)] for i in range(steps))]


def test_seed_mutate_beyond_its_step_cap_exits_2(monkeypatch, capsys):
    ((steps, message),) = past_bounds("seed mutate", "--seq")
    assert message == f"error: --seq must be at most {steps - 1} for seed mutate\n"
    assert_stops_before_work(mutate_argv(steps), message, monkeypatch, capsys)
    assert cli._bounds(*cap("seed mutate", "--seq")[:2]) in help_entry("seed mutate", "--seq", capsys)


def test_seed_mutate_at_its_step_cap_runs(monkeypatch, capsys):
    # mutating one face over and over nests one label a step, so the cap's
    # 20 steps run here in a blink
    steps = cap("seed mutate", "--seq")[1]
    code, out, _ = run_main_on(mutate_argv(steps, ("1 4 5",)), json.dumps(GR36_BRIDGE),
                               monkeypatch, capsys)
    assert code == 0 and len(json.loads(out)["vertices"]) == 10


BRIDGE_COMMANDS = ("plabic bridge", "seed verify-exchange")
BRIDGE_COMMANDS = ("plabic bridge", "seed verify-exchange")


@pytest.mark.parametrize("command", BRIDGE_COMMANDS)
def test_bridge_beyond_its_cap_exits_2(command, monkeypatch, capsys):
    assert_capped(command, "--n", monkeypatch, capsys)


@pytest.mark.parametrize("command", BRIDGE_COMMANDS)
def test_bridge_at_its_cap_runs(command, monkeypatch, capsys):
    data = json.loads(run_at_cap(command, "--n", monkeypatch, capsys))
    if command == "plabic bridge":
        assert data["n"] == cap(command)[1]
    else:
        assert data["failures"] == 0 and data["checks"]


@pytest.mark.parametrize("n", ("1", "0", "-3", "10", "100"))
def test_ppalg_crosscheck_n_out_of_range_exits_2(n, monkeypatch, capsys):
    # below 2 there is no skew pair to check; at n = 10 the pair list alone
    # holds 82,478 entries before any check
    ((_, message), _) = past_bounds("ppalg crosscheck")
    assert_stops_before_work(with_option(CROSSCHECK, "--n", n), message, monkeypatch, capsys)


@pytest.mark.parametrize("jobs", ("0", "-1"))
def test_ppalg_crosscheck_jobs_below_1_exits_2(jobs, monkeypatch, capsys):
    assert_stops_before_work(with_option(CROSSCHECK, "--jobs", jobs),
                             "error: --jobs must be at least 1\n", monkeypatch, capsys)


def test_ppalg_crosscheck_caps_are_in_the_help(capsys):
    for option in ("--n", "--jobs"):
        bounds = cli._bounds(*cap("ppalg crosscheck", option)[:2])
        assert bounds in help_entry("ppalg crosscheck", option, capsys)


def test_ppalg_crosscheck_smallest_n_checks_something(monkeypatch, capsys):
    # at its highest n, 9, the crosscheck takes about 13 s; its lowest runs here
    code, out, _ = run_main_on(["ppalg", "crosscheck", "--n", "2"], "", monkeypatch, capsys)
    assert (code, json.loads(out)) == (0, {"checks": 3, "failures": 0})


def test_le_read_beyond_its_cap_exits_2(monkeypatch, capsys):
    assert_capped("le read", "--n", monkeypatch, capsys)


def test_le_read_at_its_cap_runs(monkeypatch, capsys):
    out = run_at_cap("le read", "--n", monkeypatch, capsys, "0 0\n")
    assert sorted(map(int, out.split())) == list(range(1, cap("le read")[1] + 1))


@pytest.mark.parametrize("command", ("module", "quiver"))
def test_ppalg_beyond_its_cap_exits_2(command, monkeypatch, capsys):
    assert_capped(f"ppalg {command}", "--n", monkeypatch, capsys)


@pytest.mark.parametrize("command", ("module", "quiver"))
def test_ppalg_at_its_cap_runs(command, monkeypatch, capsys):
    assert run_at_cap(f"ppalg {command}", "--n", monkeypatch, capsys).strip()


# the capped commands with no cap test of their own above
CAPPED = ("seed rectangles", "perm pds", "perm columnar", "perm necklace", "perm bounded-affine",
          "le skew")


def test_every_capped_command_has_a_cap_test():
    tested = {*CAPPED, *BRIDGE_COMMANDS, "le read", "ppalg module", "ppalg quiver",
              "ppalg crosscheck", "seed mutate"}
    assert {row[0] for row in cli.CAPS} == tested


@pytest.mark.parametrize("command", CAPPED)
def test_capped_command_beyond_its_cap_exits_2(command, monkeypatch, capsys):
    assert_capped(command, "--n", monkeypatch, capsys)


@pytest.mark.parametrize("command", CAPPED)
def test_capped_command_at_its_cap_runs(command, monkeypatch, capsys):
    assert run_at_cap(command, "--n", monkeypatch, capsys).strip()


@pytest.mark.parametrize("command", ("perm pds", "perm columnar", "perm necklace",
                                     "perm bounded-affine"))
def test_one_line_permutation_beyond_its_cap_exits_2(command, monkeypatch, capsys):
    # with no --n, a command's n is the letter count of its permutation
    ((n, stderr),) = past_bounds(command)
    assert_stops_before_work(cap_argv(command, "--n", n, one_line=True), stderr, monkeypatch, capsys)


# ---------------------------------------------------------------------------
# every non-graph command on small arbitrary arguments: exit 0, 1 or 2, and
# exit 2 with one error line; never a traceback
# ---------------------------------------------------------------------------

def _fmt(values) -> str:
    return " ".join(map(str, values))


@st.composite
def cli_argv(draw) -> tuple[list[str], str]:
    """The argv of one non-graph command, mostly with k and n in range, and
    its stdin."""
    if draw(st.booleans()):
        n = draw(st.integers(2, 6))
        k = draw(st.integers(1, n - 1))
    else:
        n, k = draw(st.integers(-1, 6)), draw(st.integers(-1, 6))

    def perm_text() -> str:
        return draw(st.one_of(
            st.sampled_from(["e", "w0", "wK", "", "1 x"]),
            st.permutations(range(1, max(n, 1) + 1)).map(_fmt),
            st.lists(st.integers(-1, 7), max_size=7).map(_fmt),
        ))

    def pair() -> list[str]:
        """--v and --x: mostly a skew pair (v, x) when k and n allow one."""
        if 1 <= k < n and draw(st.integers(0, 3)):
            lam_v = shapes.from_vert_sw(draw(st.permutations(range(1, n + 1)))[:k], k, n)
            lam_x = draw(st.sampled_from(sorted(shapes.subpartitions(lam_v))))
            v, x = perm.skew_pair(k, n, lam_v, lam_x)
            return ["--v", _fmt(v), "--x", _fmt(x)]
        return ["--v", perm_text(), "--x", perm_text()]

    kn = ["--k", str(k), "--n", str(n)]
    stdin = ""
    command = draw(st.sampled_from((
        "perm columnar", "perm pds", "perm necklace", "perm bounded-affine",
        "seed classify", "seed rectangles", "seed verify-exchange",
        "le skew", "le leify", "le read", "ppalg module", "ppalg quiver", "ppalg crosscheck",
    )))
    argv = command.split()
    if command == "perm columnar":
        x_text = pair()[3]
        argv += ["--k", str(k), "--x", x_text] + draw(st.sampled_from([[], ["--n", str(n)]]))
    elif command == "perm pds":
        argv += ["--v", perm_text()] + draw(st.sampled_from([[], kn]))
        argv += draw(st.sampled_from([[], ["--w", "w0"], ["--w", perm_text()], ["--word", draw(
            st.lists(st.integers(-1, 6), max_size=6).map(_fmt))]]))
    elif command in ("perm necklace", "perm bounded-affine"):
        argv += ["--pi", perm_text()] + draw(st.sampled_from([[], kn]))
        argv += draw(st.sampled_from([[], ["--white", draw(
            st.lists(st.integers(-1, 7), max_size=3).map(_fmt))]]))
    elif command == "seed classify":
        argv += ["--lambda", draw(st.lists(st.integers(-1, 4), max_size=4).map(_fmt))]
    elif command in ("seed rectangles", "le skew", "ppalg quiver"):
        argv += kn + pair()
    elif command == "seed verify-exchange":
        small = st.integers(1, 3) | st.sampled_from((-1, 0))
        argv += kn + pair() + ["--samples", str(draw(small)), "--steps", str(draw(small)),
                               "--rng-seed", str(draw(st.integers(0, 9)))]
    elif command == "ppalg module":
        argv += kn + pair() + ["--j", str(draw(st.integers(-1, 12)))]
    elif command == "ppalg crosscheck":
        argv += ["--n", str(draw(st.integers(-1, 4))), "--jobs", "1"]
    else:  # le leify / le read
        if command == "le read":
            argv += draw(st.sampled_from([[], kn]))
        rows = st.lists(st.sampled_from(["0", "+", "x", "00"]), max_size=5).map(_fmt)
        stdin = "\n".join(draw(st.lists(rows, max_size=4)))
    return argv, stdin


@seed(20261)
@settings(max_examples=600, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=cli_argv())
def test_cli_commands_on_arbitrary_arguments(case, monkeypatch, capsys):
    argv, stdin_text = case
    code, _, err = run_main_on(argv, stdin_text, monkeypatch, capsys)
    assert code in (0, 1, 2)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err


# ---------------------------------------------------------------------------
# a reader that closes the output pipe early: exit 0, nothing on stderr
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("buffered", (True, False), ids=("buffered", "unbuffered"))
@pytest.mark.parametrize("argv", (
    # "D4\n" stays in the buffer until main flushes it
    ["seed", "classify", "--lambda", "2 2"],
    # about 21 kB, more than the buffer holds, so the command's own write fails
    VERIFY_EXCHANGE + ["--samples", "1", "--steps", "400"],
), ids=("small", "large"))
def test_closed_output_pipe_exits_0(argv, buffered):
    env = dict(os.environ)
    if buffered:
        env.pop("PYTHONUNBUFFERED", None)
    else:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(RUN + argv, stdout=write_end, stderr=subprocess.PIPE,
                              env=env, text=True, timeout=300)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, "")


# ---------------------------------------------------------------------------
# import footprint: `import positroids` loads no module, and each command
# loads only its group's modules (checked in a fresh interpreter)
# ---------------------------------------------------------------------------

def fresh_modules(code: str, *argv: str) -> list[str]:
    """The ``positroids.*`` modules loaded after running ``code`` in a fresh
    interpreter, which must print nothing of its own."""
    report = "\nprint(*sorted(m for m in sys.modules if m.startswith('positroids.')))"
    proc = subprocess.run([sys.executable, "-c", "import sys\n" + code + report, *argv],
                          capture_output=True, text=True, timeout=300, check=True)
    return proc.stdout.split()


def test_import_positroids_loads_no_submodule():
    assert fresh_modules("import positroids") == []


def test_star_import_binds_every_module():
    code = (
        "from positroids import *\n"
        "import positroids, types\n"
        "assert all(isinstance(globals()[name], types.ModuleType) for name in positroids.__all__)"
    )
    names = {"perm", "shapes", "plabic", "seeds", "pluecker", "lediag", "ppalg"}
    assert set(fresh_modules(code)) == {f"positroids.{name}" for name in names}


RUN_QUIETLY = (
    "import contextlib, io\n"
    "from positroids.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    assert main(sys.argv[1:]) == 0"
)


@pytest.mark.parametrize("argv, modules", (
    (["perm", "necklace", "--pi", "3 5 1 2 4"], "perm"),
    (["plabic", "bridge", "--k", "2", "--n", "5", "--x", "3 5 1 2 4"], "perm plabic plabic_json shapes"),
    (["seed", "classify", "--lambda", "2 2"], "perm pluecker seeds shapes"),
    (["le", "skew", "--k", "4", "--n", "8", "--x", "1 2 4 7 3 5 6 8",
      "--v", "4 3 8 2 7 6 1 5"], "lediag perm shapes"),
    (["ppalg", "module", "--k", "3", "--n", "7", "--v", "3 2 7 1 6 5 4",
      "--x", "3 6 7 1 2 4 5", "--j", "14"], "perm ppalg shapes"),
), ids=("perm", "plabic", "seed", "le", "ppalg"))
def test_each_command_loads_only_its_modules(argv, modules):
    want = ["positroids.cli"] + [f"positroids.{m}" for m in modules.split()]
    assert fresh_modules(RUN_QUIETLY, *argv) == sorted(want)


# ---------------------------------------------------------------------------
# golden corpus: argv, stdin, exit code, stdout and stderr of the README and
# CI commands, of every subcommand and of ten seeded draws of each
# perfbench.workloads.cli_command kind, recorded from `python -m
# positroids.cli` in fresh interpreters; an entry's "source" says where its
# argv comes from, and stdout over 4 kB is kept as its sha256.  Each entry
# records its test id, so adding an entry renames no other: entries older
# than the "id" field keep the id pytest gave their joined argv (with its
# numeric suffixes), later ones take "<source>: <joined argv>"
# ---------------------------------------------------------------------------

GOLDEN = json.loads((pathlib.Path(__file__).parent / "testdata" / "cli_golden.json").read_text())


def test_cli_golden_ids_are_unique():
    # pytest would suffix a repeated id, renaming the entries that carry it
    ids = [e["id"] for e in GOLDEN]
    assert len(set(ids)) == len(ids)


@pytest.mark.parametrize("entry", GOLDEN, ids=lambda e: e["id"])
def test_cli_golden_corpus(entry, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # so `--in missing.json` names no file
    code, out, err = run_main_on(entry["argv"], entry["stdin"], monkeypatch, capsys)
    if "stdout" in entry:
        assert out == entry["stdout"]
    else:
        assert (len(out.encode()), hashlib.sha256(out.encode()).hexdigest()) == (
            entry["stdout_len"], entry["stdout_sha256"])
    assert (code, err) == (entry["exit"], entry["stderr"])


# ---------------------------------------------------------------------------
# --in and --out: declared only where they act
# ---------------------------------------------------------------------------

def declared(option: str) -> set[str]:
    """The subcommands ("group sub") whose parser declares ``option``."""
    def subparsers(parser):
        action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return action.choices.items()

    return {f"{group} {sub}" for group, g in subparsers(cli.build_parser())
            for sub, p in subparsers(g) if option in p._option_string_actions}


GR25_JSON = json.dumps(plabic_json.to_json(plabic.bridge_graph(2, 5, (3, 5, 1, 2, 4))))
SKEW_ARGS = ["--k", "3", "--n", "7", "--v", "3 2 7 1 6 5 4", "--x", "3 6 7 1 2 4 5"]
# every command that declares --out, with a stdin it reads
OUT_COMMANDS = (
    (["plabic", "bridge", "--k", "2", "--n", "5", "--x", "3 5 1 2 4"], ""),
    (["plabic", "trips"], GR25_JSON),
    (["plabic", "faces", "--mode", "target"], GR25_JSON),
    (["plabic", "mirror"], GR25_JSON),
    (["plabic", "relabel", "--perm", "2 1 5 4 3"], GR25_JSON),
    (["plabic", "move", "square", "--face", "1 3"], GR25_JSON),
    (["plabic", "dualquiver"], GR25_JSON),
    (["plabic", "dualquiver", "--dot"], GR25_JSON),
    (["seed", "rectangles", *SKEW_ARGS], ""),
    (["seed", "from-graph"], GR25_JSON),
    (["seed", "mutate", "--seq", "1 3"], GR25_JSON),
    (VERIFY_EXCHANGE + ["--samples", "3", "--steps", "3"], ""),
    (["le", "leify"], "+ + + 0\n+ 0 0 0\n0 0 0\n0\n"),
    (["le", "read", "--k", "2", "--n", "5"], "0 0 0\n0 0\n"),
    (["ppalg", "quiver", *SKEW_ARGS], ""),
    (["ppalg", "crosscheck", "--n", "4"], ""),
    (["ppalg", "crosscheck", "--n", "3", "--verbose"], ""),
)
READERS = {"plabic trips", "plabic faces", "plabic mirror", "plabic relabel", "plabic move",
           "plabic dualquiver", "seed from-graph", "seed mutate", "le leify", "le read"}


def test_out_commands_are_every_command_declaring_out():
    assert {" ".join(argv[:2]) for argv, _ in OUT_COMMANDS} == declared("--out")


@pytest.mark.parametrize("argv, stdin_text", OUT_COMMANDS, ids=[" ".join(a) for a, _ in OUT_COMMANDS])
def test_out_file_holds_exactly_the_stdout_bytes(argv, stdin_text, tmp_path, monkeypatch, capsys):
    code, out, err = run_main_on(argv, stdin_text, monkeypatch, capsys)
    assert (code, err) == (0, "") and out
    path = tmp_path / "out.txt"
    assert run_main_on(argv + ["--out", str(path)], stdin_text, monkeypatch, capsys) == (0, "", "")
    assert path.read_bytes() == out.encode()


def test_in_is_declared_by_the_readers_only():
    assert declared("--in") == READERS


@pytest.mark.parametrize("argv", (
    ["plabic", "bridge", "--k", "2", "--n", "5", "--x", "3 5 1 2 4"],
    ["seed", "rectangles", *SKEW_ARGS],
    VERIFY_EXCHANGE + ["--samples", "1", "--steps", "1"],
    ["ppalg", "quiver", *SKEW_ARGS],
    ["ppalg", "crosscheck", "--n", "3"],
), ids=lambda argv: " ".join(argv[:2]))
def test_producers_reject_in(argv, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(GR25_JSON)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--in", str(path)])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "unrecognized arguments: --in" in err


def test_seed_mutate_at_a_missing_label_names_it(monkeypatch, capsys):
    code, out, err = run_main_on(["seed", "mutate", "--seq", ""], GR25_JSON, monkeypatch, capsys)
    assert (code, out, err) == (2, "", "error: cannot mutate at []\n")
