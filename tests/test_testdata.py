"""Frozen golden files stay in lockstep with the constructions, and the CLI
accepts them directly."""

import json
import pathlib

from positroids import cli, lediag, perm, plabic, plabic_json, ppalg, seeds
from conftest import golden_gr25_graph, golden_gr37_graph
from test_cli import run_cli

DATA = pathlib.Path(__file__).parent / "testdata"


def load(name):
    return json.loads((DATA / name).read_text())


def test_graph_goldens_match_fixtures():
    for name, builder in (
        ("graph_gr25.json", golden_gr25_graph),
        ("graph_gr37.json", golden_gr37_graph),
        ("bridge_gr25.json", lambda: plabic.bridge_graph(2, 5, (3, 5, 1, 2, 4))),
    ):
        assert load(name) == plabic_json.to_json(builder())


def test_cli_trips_on_golden_json():
    code, out, _ = run_cli(["plabic", "trips", "--in", str(DATA / "graph_gr25.json")])
    assert code == 0
    assert out.splitlines()[0] == "3 4 5 1 2"
    code, out, _ = run_cli(["plabic", "trips", "--in", str(DATA / "graph_gr37.json")])
    assert out.splitlines()[0] == "2 4 6 7 1 3 5"


def test_seed_golden_file():
    S = seeds.rectangles_seed(3, 7, perm.parabolic_longest(3, 7), (3, 5, 7, 1, 2, 4, 6))
    assert load("seed_rectangles_gr37.json") == seeds.seed_to_json(S)


def test_lediag_golden_files():
    x = (1, 2, 4, 7, 3, 5, 6, 8)
    v = (4, 3, 8, 2, 7, 6, 1, 5)
    skew = (DATA / "lediag_skew.txt").read_text()
    assert lediag.parse(skew) == lediag.skew_oplus(4, 8, x, v)
    leified = (DATA / "lediag_leified.txt").read_text()
    assert lediag.parse(leified) == lediag.leify(lediag.skew_oplus(4, 8, x, v))


def test_running_modules_golden_file():
    k, n = 3, 7
    v = perm.multiply(perm.parabolic_longest(k, n), perm.simple_reflection(3, n))
    x = (3, 6, 7, 1, 2, 4, 5)
    stored = load("modules_running_example.json")
    U = ppalg.tilting_module(k, n, v, x)
    assert [str(j) for j in U.positions] == sorted(stored, key=int)
    for j, M in zip(U.positions, U.summands):
        assert sorted(map(list, M.normalized().cells)) == stored[str(j)]["cells"]
        assert M.n == stored[str(j)]["n"]


def test_ppalg_module_stdout_golden(capsys):
    # stdout and exit code of `ppalg module` for every position of the
    # running example's word, the ones in the subexpression for v and two
    # outside the word included
    stored = load("ppalg_module_running.json")
    assert [r["j"] for r in stored["runs"]] == list(range(22))
    for run in stored["runs"]:
        code = cli.main(stored["argv"] + [str(run["j"])])
        assert (code, capsys.readouterr().out) == (run["exit"], run["stdout"]), run["j"]
