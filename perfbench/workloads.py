"""The four benchmark workloads.

Each workload function takes the seed and returns a :class:`Pass`: the ops to
time, the expectation each op is checked against, and the input properties
reported beside the metrics.  An op is a
zero-argument callable; its return value (the observation) is compared with
``Pass.expect[i]`` by ``Pass.check`` after the timed loop, so the checks cost
nothing inside the timed region.

The library only ever sees inputs generated here; every pass runs in a fresh
interpreter, so nothing a pass leaves behind in the library is reused.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from positroids import lediag, perm, plabic, pluecker, ppalg, seeds, shapes

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


@dataclass
class Pass:
    ops: list[Callable[[], Any]]
    expect: list[Any]
    check: Callable[[Any, Any], bool] = lambda got, want: got == want
    # called after the timed loop with the observations; returns the
    # workload's input properties (op count, repeat share, ...)
    props: Callable[[list], dict] = lambda observations: {}
    # fills in expectations for the first ``count`` ops after the loop
    # (cli-pipeline computes its in-process reference there, outside the
    # timed region)
    finish: Callable[[int], None] = lambda count: None


# ---------------------------------------------------------------------------
# mutation-class: criterion 13's BFS traffic
# ---------------------------------------------------------------------------

# Class sizes the seed commit's mutation_class_explore produces when run to
# closure.  D4-D6 and E6-E8 match the published counts (Buan-Torkildsen,
# Torkildsen); A_n is the count of quivers of type A_n up to isomorphism.
CLASS_SIZE = {
    "A1": 1, "A2": 1, "A3": 4, "A4": 6, "A5": 19, "A6": 49, "A7": 150,
    "D4": 6, "D5": 26, "D6": 80, "D7": 246,
    "E6": 67, "E7": 416, "E8": 1574,
}
# The minimal infinite shape's class is mutation-finite: it closes at 1080
# quivers, with a double arrow (which certifies infinite type) inside.
INFINITE_CLASS_SIZE = {(4, 3, 1): 1080}
MUTATION_EXTRA_SHAPES = ((5, 3), (4, 3, 1))


def mutation_shapes() -> list[tuple[int, ...]]:
    """Every mutable shape with at most 7 boxes, then one E8 shape and one
    minimal infinite shape."""
    small = [
        lam
        for m in range(1, 8)
        for lam in shapes.partitions_in_box(m, m)
        if shapes.size(lam) == m
    ]
    return small + list(MUTATION_EXTRA_SHAPES)


def expected_class(mut: tuple[int, ...]) -> tuple[str, int]:
    kind = seeds.classify_mutable_shape(mut)
    if kind == "Infinite":
        return "infinite", INFINITE_CLASS_SIZE[tuple(mut)]
    return "finite", CLASS_SIZE[kind]


def scrambled_grid_quiver(mut, rng: random.Random) -> seeds.Quiver:
    """The grid quiver of ``mut``, its boxes relabelled by a random bijection
    and then mutated along a random sequence: a different quiver in the same
    mutation class, so the expected class and size do not change."""
    Q = seeds.mutable_grid_quiver(mut)
    verts = list(Q.frozen)
    image = verts[:]
    rng.shuffle(image)
    relabel = dict(zip(verts, image))
    Q = seeds.Quiver(
        {relabel[v]: False for v in verts},
        tuple((relabel[s], relabel[t]) for s, t in Q.arrows),
    )
    for _ in range(rng.randint(1, 2 * len(verts))):
        Q = seeds.mutate_quiver(Q, rng.choice(verts))
    return Q


def mutation_class(seed: int) -> Pass:
    rng = random.Random(seed)
    muts = mutation_shapes()
    # seed-shuffled order: ops of similar cost do not run back to back, so a
    # slow spell of the machine does not land on all of them at once
    rng.shuffle(muts)
    starts = [scrambled_grid_quiver(mut, rng) for mut in muts]

    def op(Q):
        def run():
            rep = seeds.mutation_class_explore(Q, stop_on_multiple_arrow=False)
            return rep.verdict, rep.class_size
        return run

    def props(_observations) -> dict:
        # a shape and its transpose share one class: the share of ops whose
        # class an earlier op already explored (25 distinct of the 44 shapes
        # with <= 7 boxes)
        keys = [seeds.canonical_form(seeds.mutable_grid_quiver(m)) for m in muts]
        return {"ops": len(muts), "repeat_share": 1 - len(set(keys)) / len(keys)}

    return Pass(
        ops=[op(Q) for Q in starts],
        expect=[expected_class(m) for m in muts],
        props=props,
    )


# ---------------------------------------------------------------------------
# exchange-walk: criterion 6, mutation = square move at exact samples
# ---------------------------------------------------------------------------

# (k, n, lambda, steps per pass); lambda is the shape of the skew pair.  A
# step on Gr(3,8) costs about midway between one on Gr(3,7) and one on
# Gr(4,8), and its latencies spread widely.  The median step falls among
# them, so it follows the machine's speed smoothly; with the other two
# instances alone it sat at the edge of a tight cluster of latencies and
# jumped whenever the machine slowed.
EXCHANGE_INSTANCES = (
    (3, 7, (4, 3, 2), 50),
    (3, 8, (5, 5, 5), 60),
    (4, 8, (4, 4, 4, 4), 50),
)
EXCHANGE_SAMPLES = 20
EXCHANGE_MAX_WALK = 8


class Walk:
    """Random square-move walk on the relabelled bridge graph of one Gr(k, n)
    instance; restarts from the start graph after a seed-drawn number of
    steps."""

    def __init__(self, k: int, n: int, lam, rng: random.Random):
        v = perm.max_rep_from_image(shapes.vert_sw(lam, k, n), k, n)
        x = perm.grassmannian_from_image(shapes.vert_ne(lam, k, n), k, n)
        vi = perm.inverse(v)
        necklace = perm.grassmann_necklace(perm.positroid_decoration(v, perm.multiply(x, v), k))
        self.samples = [
            pluecker.sample_schubert_cell(
                k, n, frozenset(vi[:k]), rng, require_nonzero=necklace
            ).matrix
            for _ in range(EXCHANGE_SAMPLES)
        ]
        self.start = plabic.relabel_boundary(plabic.bridge_graph(k, n, x), vi)
        self.rng = rng
        self.G = self.start
        self.left = 0
        self.eligible_counts: list[int] = []

    def step(self, wrong_label: frozenset[int] | None = None) -> bool:
        """One op: pick an eligible face, mutate the seed there and square-move
        the graph there; the exchange expression must agree with the Pluecker
        coordinate of the new face label at every sample (or, for testing the
        check, with ``wrong_label``)."""
        if self.left == 0:
            self.G, self.left = self.start, self.rng.randint(1, EXCHANGE_MAX_WALK)
        self.left -= 1
        G = self.G
        eligible = plabic.square_eligible_labels(G)
        self.eligible_counts.append(len(eligible))
        lab = eligible[self.rng.randrange(len(eligible))]
        S = seeds.seed_from_graph(G, "target")
        mutated = seeds.mutate_seed(S, lab)
        H = plabic.square_move(G, lab)
        (new_label,) = set(plabic.face_labeling(H, "target").labels) - set(S.labels)
        self.G = H
        target = new_label if wrong_label is None else wrong_label
        return seeds.expressions_agree(
            mutated.labels[lab], seeds.PluckerSymbol(target), self.samples
        )


def exchange_walk(seed: int) -> Pass:
    rng = random.Random(seed)
    walks = [(Walk(k, n, lam, rng), steps) for k, n, lam, steps in EXCHANGE_INSTANCES]
    # the walks' steps interleave in a seed-drawn order
    ops = [w.step for w, steps in walks for _ in range(steps)]
    rng.shuffle(ops)

    def props(_observations) -> dict:
        counts = [c for w, _ in walks for c in w.eligible_counts]
        return {"ops": len(ops), "mean_eligible_faces": sum(counts) / max(len(counts), 1)}

    return Pass(ops=ops, expect=[True] * len(ops), props=props)


# ---------------------------------------------------------------------------
# module-crosscheck: criteria 10 and 12 on every skew pair with n <= 7
# ---------------------------------------------------------------------------

MODULE_MAX_N = 7


def skew_pairs(max_n: int):
    """Every (k, n, v, x) with v in W^K_max, x in ^K W, x*v length-additive
    and 2 <= n <= max_n."""
    out = []
    for n in range(2, max_n + 1):
        for k in range(1, n):
            for lam_v in shapes.partitions_in_box(k, n - k):
                v = perm.max_rep_from_image(shapes.vert_sw(lam_v, k, n), k, n)
                for lam_x in shapes.subpartitions(lam_v):
                    x = perm.grassmannian_from_image(shapes.vert_ne(lam_x, k, n), k, n)
                    out.append((k, n, v, x))
    return out


def crosscheck_pair(k: int, n: int, v, x):
    """One op: each tilting summand against its region module, and the
    Le-ified skew diagram's decoration against the positroid's.  Returns the
    observed values and the values they must equal."""
    word = perm.standard_reduced_expression(x, v, k)
    got, want = [], []
    for j in perm.summand_index_set(v, word):
        P = ppalg.plucker_of_module(k, n, v, word, j)
        got.append(ppalg.tilting_summand(k, n, v, word, j).normalized())
        want.append(ppalg.region_module(k, n, v, P))
    got.append(lediag.le_decoration(lediag.leify(lediag.skew_oplus(k, n, x, v)), k, n))
    want.append(perm.positroid_decoration(v, perm.multiply(x, v), k))
    return got, want


def module_crosscheck(seed: int) -> Pass:
    pairs = skew_pairs(MODULE_MAX_N)
    random.Random(seed).shuffle(pairs)

    def op(pair):
        return lambda: crosscheck_pair(*pair)

    return Pass(
        ops=[op(p) for p in pairs],
        expect=[None] * len(pairs),
        check=lambda got, _: got[0] == got[1],
        props=lambda _obs: {"ops": len(pairs)},
    )


# ---------------------------------------------------------------------------
# cli-pipeline: the README's commands as subprocesses
# ---------------------------------------------------------------------------

CLI_OPS = 100
CLI_KINDS = (
    "perm-columnar",
    "bridge-faces",
    "bridge-square",
    "seed-rectangles",
    "seed-classify",
    "le-skew-leify",
    "ppalg-module",
    "verify-exchange",
)
CLI_TIMEOUT_S = 60
# `positroids` console-script entry point, without needing an install
CLI_ENTRY = "import sys; from positroids.cli import main; sys.exit(main())"


def _fmt(w) -> str:
    return " ".join(map(str, w))


def _random_pair(rng: random.Random, lo: int, hi: int, min_boxes: int):
    """Random skew pair (k, n, v, x) whose x-shape has at least ``min_boxes``
    boxes."""
    while True:
        n = rng.randint(lo, hi)
        k = rng.randint(1, n - 1)
        cells = sorted(rng.sample(range(1, n + 1), k))
        lam_v = shapes.from_vert_sw(cells, k, n)
        subs = [s for s in shapes.subpartitions(lam_v) if shapes.size(s) >= min_boxes]
        if subs:
            lam_x = subs[rng.randrange(len(subs))]
            v = perm.max_rep_from_image(shapes.vert_sw(lam_v, k, n), k, n)
            x = perm.grassmannian_from_image(shapes.vert_ne(lam_x, k, n), k, n)
            return k, n, v, x


def cli_command(kind: str, rng: random.Random) -> list[list[str]]:
    """The argv lists of one pipeline (one or two stages) of the given kind,
    with inputs drawn from ``rng`` through the library."""
    if kind == "seed-classify":
        lam = sorted((rng.randint(1, 4) for _ in range(rng.randint(1, 3))), reverse=True)
        return [["seed", "classify", "--lambda", _fmt(lam)]]
    if kind == "verify-exchange":
        return [["seed", "verify-exchange", "--k", "2", "--n", "5", "--v", "wK",
                 "--x", "3 5 1 2 4", "--samples", "5", "--steps", "4",
                 "--rng-seed", str(rng.randrange(10**6))]]
    while True:
        # a square face needs an interior 2x2 block of the x-shape
        k, n, v, x = _random_pair(rng, 4, 7, 4 if kind == "bridge-square" else 1)
        kn = ["--k", str(k), "--n", str(n)]
        bridge = ["plabic", "bridge", *kn, "--x", _fmt(x)]
        if kind == "perm-columnar":
            return [["perm", "columnar", *kn, "--x", _fmt(x)]]
        if kind == "bridge-faces":
            return [bridge, ["plabic", "faces", "--mode", rng.choice(("source", "target"))]]
        if kind == "bridge-square":
            eligible = plabic.square_eligible_labels(plabic.bridge_graph(k, n, x))
            if eligible:
                face = sorted(eligible[rng.randrange(len(eligible))])
                return [bridge, ["plabic", "move", "square", "--face", _fmt(face)]]
        elif kind == "seed-rectangles":
            return [["seed", "rectangles", *kn, "--v", _fmt(v), "--x", _fmt(x)]]
        elif kind == "le-skew-leify":
            return [["le", "skew", *kn, "--x", _fmt(x), "--v", _fmt(v)], ["le", "leify"]]
        elif kind == "ppalg-module":
            J = perm.summand_index_set(v, perm.standard_reduced_expression(x, v, k))
            if J:
                return [["ppalg", "module", *kn, "--v", _fmt(v), "--x", _fmt(x),
                         "--j", str(rng.choice(J))]]
        else:
            raise ValueError(f"unknown cli op kind {kind!r}")


def run_subprocess_pipeline(stages: list[list[str]]) -> tuple:
    """Run one or two CLI stages as processes joined by a pipe; at most two
    processes are alive at once, and every one has ended on return.  Returns
    (exit codes, stdout bytes)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    procs: list[subprocess.Popen] = []
    try:
        stdin = subprocess.DEVNULL
        for argv in stages:
            p = subprocess.Popen(
                [sys.executable, "-c", CLI_ENTRY, *argv],
                stdin=stdin, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
            )
            if procs:
                procs[-1].stdout.close()  # the next stage owns the read end now
            procs.append(p)
            stdin = p.stdout
        out, _ = procs[-1].communicate(timeout=CLI_TIMEOUT_S)
        for p in procs[:-1]:
            p.wait(timeout=CLI_TIMEOUT_S)
    finally:
        for p in procs:
            if p.returncode is None:
                p.kill()
                p.wait()
    return tuple(p.returncode for p in procs), out


def run_inprocess_pipeline(stages: list[list[str]]) -> tuple:
    """The same pipeline through ``positroids.cli.main`` in this process, with
    stdin and stdout redirected."""
    from positroids import cli

    codes, text = [], ""
    for argv in stages:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            saved, sys.stdin = sys.stdin, io.StringIO(text)
            try:
                codes.append(cli.main(argv))
            finally:
                sys.stdin = saved
        text = out.getvalue()
    return tuple(codes), text.encode()


def cli_check(got: tuple, want: tuple) -> bool:
    """Every stage exits 0 and the output is byte-equal to the in-process
    result."""
    return got == want and all(code == 0 for code in got[0])


def cli_pipeline(seed: int) -> Pass:
    rng = random.Random(seed)
    # every kind equally often, in a seed-drawn order and with seed-drawn inputs
    kinds = [CLI_KINDS[i % len(CLI_KINDS)] for i in range(CLI_OPS)]
    rng.shuffle(kinds)
    pipelines = [cli_command(kind, rng) for kind in kinds]
    expect: list = [None] * len(pipelines)

    def finish(count: int) -> None:
        for i, stages in enumerate(pipelines[:count]):
            expect[i] = run_inprocess_pipeline(stages)

    def op(stages):
        return lambda: run_subprocess_pipeline(stages)

    return Pass(
        ops=[op(s) for s in pipelines],
        expect=expect,
        check=cli_check,
        props=lambda _obs: {"ops": len(pipelines)},
        finish=finish,
    )


WORKLOADS = {
    "mutation-class": mutation_class,
    "exchange-walk": exchange_walk,
    "module-crosscheck": module_crosscheck,
    "cli-pipeline": cli_pipeline,
}
