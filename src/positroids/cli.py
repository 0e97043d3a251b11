"""Command-line front end.

Subcommand groups mirror the library modules::

    positroids perm columnar --k 4 --n 8 --x "2 4 7 8 1 3 5 6"
    positroids plabic bridge --k 2 --n 5 --x "3 5 1 2 4" | positroids plabic faces --mode target
    positroids seed classify --lambda "2 2"
    positroids le skew --k 3 --n 8 --x "..." --v "..." | positroids le leify
    positroids ppalg module --k 3 --n 7 --v "..." --x "..." --j 14

The commands that read a graph (``plabic trips``, ``faces``, ``mirror``,
``relabel``, ``move`` and ``dualquiver``; ``seed from-graph`` and ``mutate``)
or an oplus-diagram (``le leify`` and ``read``) take it from ``--in`` or
stdin; no other command accepts ``--in``.  A command that accepts ``--out``
writes to that file exactly the bytes it would print, so commands compose
under pipes and files alike.  Exit codes: 0 success, 1 verification failure,
2 usage or precondition error.  A reader that closes the output pipe early
(``| head``) is none of these: the command stops writing and exits 0, with
nothing on stderr.

Each subcommand's parser names its one handler (``set_defaults(func=...)``).
A handler returns what the command prints, text or a value written as one
line of JSON, and ``main`` alone writes it; a JSON report with failures exits
1.  Each handler imports the library modules it calls, so a command loads only
its own group's modules (``perm`` is shared by all of them).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from positroids import perm

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


def parse_perm(text: str, k: int | None = None, n: int | None = None) -> perm.Permutation:
    """A permutation in one-line notation, or a named one: ``e``/``identity``,
    ``w0`` or ``wK``.  When n is given the permutation must have n letters."""
    text = text.strip()
    if text in ("e", "identity", "w0"):
        if n is None:
            raise UsageError("named permutation needs --n")
        w = perm.longest_element(n) if text == "w0" else perm.identity(n)
    elif text == "wK":
        if n is None or k is None:
            raise UsageError("wK needs --k and --n")
        # a k outside [0, n] names no permutation of [n], and would build |k| letters
        w = perm.parabolic_longest(k, n) if 0 <= k <= n else ()
    else:
        w = tuple(int(t) for t in text.replace(",", " ").split())
    if not w or not perm.is_permutation(w) or n is not None and len(w) != n:
        raise UsageError(f"not a permutation{'' if n is None else f' of [{n}]'}: {text!r}")
    return w


def parse_pair(args) -> tuple[perm.Permutation, perm.Permutation]:
    """(v, x) from ``--v`` and ``--x``, each a permutation of [--n]."""
    return parse_perm(args.v, args.k, args.n), parse_perm(args.x, args.k, args.n)


def parse_subset(text: str) -> frozenset[int]:
    """Integers separated by spaces or commas; an entry given twice is a
    usage error, not read as one."""
    entries = [int(t) for t in text.replace(",", " ").split()]
    subset = frozenset(entries)
    if len(subset) < len(entries):
        repeated = next(i for i in entries if entries.count(i) > 1)
        raise UsageError(f"entry {repeated} is repeated in {text!r}")
    return subset


def read_input(args) -> str:
    """The text of the ``--in`` file, or of stdin without ``--in``."""
    if args.infile:
        with open(args.infile) as fh:
            return fh.read()
    return sys.stdin.read()


def read_graph(args):
    from positroids import plabic_json

    return plabic_json.from_json(json.loads(read_input(args)))


def fmt_word(word) -> str:
    """Display a reduced word in product order (leftmost letter acts last)."""
    return " ".join(f"s{i}" for i in reversed(word))


def fmt_subset(s) -> str:
    return " ".join(str(i) for i in sorted(s))


def run_report(command: str, checks: list[dict], rng_seed: int | None, **inputs) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "checks": checks,
        "failures": sum(1 for c in checks if c["status"] != "ok"),
        "rng_seed": rng_seed,
    }


# ---------------------------------------------------------------------------
# perm subcommands
# ---------------------------------------------------------------------------

def perm_columnar(args) -> str:
    x = parse_perm(args.x, args.k, args.n)
    return fmt_word(perm.columnar_expression(x, args.k))


def perm_pds(args) -> str:
    if (args.w is None) == (args.word is None):
        raise UsageError("perm pds needs exactly one of --w and --word")
    v = parse_perm(args.v, args.k, args.n)
    if args.w is not None:
        word = perm.any_reduced_word(parse_perm(args.w, args.k, len(v)))
    else:
        word = tuple(int(t) for t in args.word.replace(",", " ").split())
    used = perm.positive_distinguished_subexpression(v, word)
    return (f"positions: {fmt_subset(used)}\n"
            f"index set: {fmt_subset(perm.summand_index_set(v, word))}")


def parse_decorated(args) -> perm.DecoratedPermutation:
    return perm.DecoratedPermutation(parse_perm(args.pi, args.k, args.n), parse_subset(args.white))


def perm_necklace(args) -> str:
    return "\n".join(fmt_subset(J) for J in perm.grassmann_necklace(parse_decorated(args)))


def perm_bounded_affine(args) -> str:
    return " ".join(str(f) for f in perm.bounded_affine(parse_decorated(args)).window)


# ---------------------------------------------------------------------------
# plabic subcommands
# ---------------------------------------------------------------------------

def plabic_bridge(args) -> dict:
    from positroids import plabic, plabic_json

    x = parse_perm(args.x, args.k, args.n)
    return plabic_json.to_json(plabic.bridge_graph(args.k, args.n, x))


def plabic_trips(args) -> str:
    from positroids import plabic

    _, sigma = plabic.trips(read_graph(args))
    text = " ".join(str(i) for i in sigma.perm)
    if sigma.white_fixed:
        text += "\nwhite fixed: " + fmt_subset(sigma.white_fixed)
    return text


def plabic_faces(args) -> str:
    from positroids import plabic

    labeling = plabic.face_labeling(read_graph(args), args.mode)
    return "\n".join(
        f"{fmt_subset(lab)}  [{'boundary' if labeling.faces.faces[i].boundary else 'internal'}]"
        for i, lab in enumerate(labeling.labels)
    )


def plabic_relabel(args) -> dict:
    from positroids import plabic, plabic_json

    G = read_graph(args)
    return plabic_json.to_json(plabic.relabel_boundary(G, parse_perm(args.perm, None, G.n)))


def plabic_mirror(args) -> dict:
    from positroids import plabic, plabic_json

    return plabic_json.to_json(plabic.mirror(read_graph(args)))


def plabic_move(args) -> dict:
    from positroids import plabic, plabic_json

    G = read_graph(args)
    return plabic_json.to_json(plabic.square_move(G, parse_subset(args.face)))


def plabic_dualquiver(args) -> str | dict:
    from positroids import seeds

    seed = seeds.seed_from_graph(read_graph(args), "target")
    return seeds.seed_to_dot(seed) if args.dot else seeds.seed_to_json(seed)


# ---------------------------------------------------------------------------
# seed subcommands
# ---------------------------------------------------------------------------

def seed_rectangles(args) -> dict:
    from positroids import seeds

    return seeds.seed_to_json(seeds.rectangles_seed(args.k, args.n, *parse_pair(args)))


def seed_classify(args) -> str:
    from positroids import seeds

    return seeds.classify_mutable_shape(int(t) for t in args.lam.replace(",", " ").split())


def seed_from_graph(args) -> dict:
    from positroids import seeds

    G = read_graph(args)
    delete = parse_subset(args.delete) if args.delete is not None else None
    return seeds.seed_to_json(seeds.seed_from_graph(G, args.mode, delete))


def seed_mutate(args) -> dict:
    from positroids import seeds

    S = seeds.seed_from_graph(read_graph(args), args.mode)
    for step in args.seq.split(";"):
        S = seeds.mutate_seed(S, parse_subset(step))
    return seeds.seed_to_json(S)


def seed_verify_exchange(args) -> dict:
    """Criterion 6 as a seeded walk: square-move the bridge graph of x,
    relabelled by v^-1, at a random eligible face; the exchange expression of
    the seed mutated at that face must equal the Pluecker coordinate of the
    face's new label at every Schubert-cell sample.  A bridge graph with no
    eligible face is a usage error, since there is nothing to check."""
    from positroids import plabic, pluecker, seeds

    rng = random.Random(args.rng_seed)
    v, x = parse_pair(args)
    perm.check_skew_pair(v, x, args.k)
    vi = perm.inverse(v)
    cell = frozenset(vi[:args.k])
    necklace = perm.grassmann_necklace(perm.positroid_decoration(v, perm.multiply(x, v), args.k))
    samples = [
        pluecker.sample_schubert_cell(args.k, args.n, cell, rng, require_nonzero=necklace).matrix
        for _ in range(args.samples)
    ]
    checks = []
    G = plabic.relabel_boundary(plabic.bridge_graph(args.k, args.n, x), vi)
    for step in range(args.steps):
        eligible = plabic.square_eligible_labels(G)
        if not eligible:
            if step == 0:
                raise UsageError("no face of the bridge graph of x is square-eligible, "
                                 "so there is no exchange to check")
            break
        q = eligible[rng.randrange(len(eligible))]
        S = seeds.seed_from_graph(G, "target")
        G = plabic.square_move(G, q)
        new_labels = set(plabic.face_labeling(G, "target").labels) - set(S.labels)
        ok = len(new_labels) == 1 and seeds.expressions_agree(
            seeds.mutate_seed(S, q).labels[q], seeds.PluckerSymbol(*new_labels), samples
        )
        name = f"exchange step {step} at {''.join(map(str, sorted(q)))}"
        checks.append({"name": name, "status": "ok" if ok else "fail"})
    return run_report(
        "seed verify-exchange", checks, args.rng_seed,
        k=args.k, n=args.n, v=list(v), x=list(x), samples=args.samples,
    )


# ---------------------------------------------------------------------------
# le subcommands
# ---------------------------------------------------------------------------

def le_skew(args) -> str:
    from positroids import lediag

    v, x = parse_pair(args)
    return lediag.skew_oplus(args.k, args.n, x, v).render()


def le_leify(args) -> str:
    from positroids import lediag

    return lediag.leify(lediag.parse(read_input(args))).render()


def le_read(args) -> str:
    from positroids import lediag

    if args.k is None or args.n is None:
        raise UsageError("le read needs --k and --n")
    O = lediag.parse(read_input(args))
    return " ".join(str(i) for i in lediag.reading_word(O, args.k, args.n))


# ---------------------------------------------------------------------------
# ppalg subcommands
# ---------------------------------------------------------------------------

def ppalg_module(args) -> str:
    from positroids import ppalg

    v, x = parse_pair(args)
    word = perm.standard_reduced_expression(x, v, args.k)
    return ppalg.tilting_summand(args.k, args.n, v, word, args.j).render()


def ppalg_quiver(args) -> dict:
    from positroids import ppalg, seeds

    quiver, labels = ppalg.endomorphism_quiver(args.k, args.n, *parse_pair(args))
    S = seeds.LabeledSeed(quiver, {b: seeds.PluckerSymbol(l) for b, l in labels.items()})
    return seeds.seed_to_json(S)


def _crosscheck_instance(task) -> dict:
    # imported here too: a pool worker that does not fork starts from this
    # module alone
    from positroids import ppalg

    n, k, lam_v, lam_x = task
    v, x = perm.skew_pair(k, n, lam_v, lam_x)
    U = ppalg.tilting_module(k, n, v, x)
    ok = all(M.normalized() == ppalg.region_module(k, n, v, P)
             for M, P in zip(U.summands, U.labels))
    return {
        "name": f"n={n} k={k} lam_v={list(lam_v)} lam_x={list(lam_x)}",
        "status": "ok" if ok else "fail",
    }


def ppalg_crosscheck(args) -> dict:
    """Every skew pair with 2 <= n <= --n: tilting summands against region
    modules."""
    from positroids import shapes

    tasks = [
        (n, k, lam_v, lam_x)
        for n in range(2, args.n + 1)
        for k in range(1, n)
        for lam_v in shapes.partitions_in_box(k, n - k)
        for lam_x in shapes.subpartitions(lam_v)
    ]
    # the pool forks all its workers at once, so never more than the CPUs
    jobs = min(args.jobs, os.cpu_count() or 1)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            checks = list(pool.map(_crosscheck_instance, tasks, chunksize=16))
    else:
        checks = [_crosscheck_instance(t) for t in tasks]
    report = run_report("ppalg crosscheck", checks, None, n=args.n)
    return report if args.verbose else {"checks": len(checks), "failures": report["failures"]}


# ---------------------------------------------------------------------------
# Caps
# ---------------------------------------------------------------------------

# Every argument that sizes a command's work, as (command, option, lowest,
# highest, what an "at most" message names); main checks them before the
# handler runs.  Costs are medians of subprocess runs on one CPU of a shared
# 2-CPU Xeon (Python 3.11, no bytecode cache) at k = n/2, the full shape,
# v = wK and w or pi = w0.
CAPS = (
    # 0.16 s, 1.2 MB out, 43 MB peak RSS at n = 1000; 0.63 s, 128 MB at 2000
    ("perm columnar", "--n", None, 1000, "perm columnar"),
    # 0.31 s at n = 300 and 0.55 s at 400 (n^2.8); a 1,000-letter --v: 6.9 s
    ("perm pds", "--n", None, 300, "perm pds"),
    # 0.15 s, 2 MB out, 33 MB at n = 1000; 0.41 s, 9 MB out, 87 MB at 2000
    ("perm necklace", "--n", None, 1000, "perm necklace"),
    # 0.07 s and 16 MB, interpreter start included, at n = 1000 and 2000
    ("perm bounded-affine", "--n", None, 1000, "perm bounded-affine"),
    # up to n^2/4 + 1 faces, built in 0.11 s at n = 20 and 0.25 s at 24 (n^5)
    ("plabic bridge", "--n", None, 24, "a bridge graph"),
    # JSON of about n^3 bytes: 2.7 MB in 0.38 s with an 81 MB peak at n = 160,
    # and 5.1 MB in 0.58 s with 118 MB at n = 200
    ("seed rectangles", "--n", None, 160, "seed rectangles"),
    # every sample keeps the minors it was asked, so cost grows with samples x
    # steps: on Gr(4,8) 1,000 x 1,000 take 3.1 s, peaking at 23 MB; on
    # Gr(8,16) 15 s and 43 MB; on Gr(12,24) 1,000 x 100 take 12 s and 35 MB
    ("seed verify-exchange", "--samples", 1, 1000, None),
    ("seed verify-exchange", "--steps", 1, 1000, None),
    # the default walk takes 0.6 s at n = 24
    ("seed verify-exchange", "--n", None, 24, "a bridge graph"),
    # --seq counts its ;-separated steps.  Each exchange label nests its
    # neighbours' labels and the JSON writes every shared subtree in full, so
    # output grows about 1.6x a step.  At 20 steps, alternating the worst two
    # adjacent faces of the bridge graph of x = 4 5 6 1 2 3 in Gr(3,6) (145,
    # 124) prints 2.4 MB in 0.43 s with a 48 MB peak; of x = 5 6 7 8 1 2 3 4
    # in Gr(4,8) (1456, 1567) 3.2 MB in 0.47 s and 52 MB.  The greedily
    # largest sequences: 4.5 MB in 0.69 s and 74 MB, 7.2 MB in 1.3 s and 103 MB
    ("seed mutate", "--seq", None, 20, "seed mutate"),
    # 0.29 s and 44 MB at n = 1000; 1.8 s and 136 MB at 2000
    ("le skew", "--n", None, 1000, "le skew"),
    # about 100 bytes of memory per unit of n; 18 ms in process at n = 1000
    ("le read", "--n", None, 1000, "le read"),
    # 0.2-0.4 s at n = 40 and 0.9 s at n = 60, about as n^4.5
    ("ppalg module", "--n", None, 40, "ppalg module and quiver"),
    ("ppalg quiver", "--n", None, 40, "ppalg module and quiver"),
    # no skew pair below n = 2; each step of n brings 3.4x the pairs and 4-5x
    # the time: 6,900 in 2.4-2.8 s at n = 8, 23,694 in 12-14 s at 9 (--jobs 1)
    ("ppalg crosscheck", "--n", 2, 9, None),
    ("ppalg crosscheck", "--jobs", 1, None, None),
)


def _bounds(low: int | None, high: int | None) -> str:
    if low is None:
        return f"at most {high}"
    return f"at least {low}" if high is None else f"between {low} and {high}"


def check_caps(args) -> None:
    """Raise UsageError unless every capped argument of the command is within
    its row of CAPS.  A command's n is --n when given, else the letter count
    of its one-line permutation (--x, --v or --pi), read before it is parsed;
    a --seq counts its ;-separated steps."""
    command = f"{args.group} {args.sub}"
    for option, low, high, what in (row[1:] for row in CAPS if row[0] == command):
        value = getattr(args, option[2:])
        if isinstance(value, str):
            value = value.count(";") + 1
        elif value is None:
            text = getattr(args, "x", None) or getattr(args, "v", None) or getattr(args, "pi", "")
            value = len(text.replace(",", " ").split())
        if low is not None and value < low or high is not None and value > high:
            raise UsageError(f"{option} must be {_bounds(low, high)}"
                             + (f" for {what}" if what else ""))


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="positroids", description=__doc__.splitlines()[0])
    groups = top.add_subparsers(dest="group", required=True)

    def command(group, name, func, reads=False, writes=False):
        p = group.add_parser(name)
        p.set_defaults(func=func)
        if reads:
            p.add_argument("--in", dest="infile")
        if writes:
            p.add_argument("--out", dest="outfile")
        return p

    def sized(p, option, text=None, **kwargs):
        """An option, an int unless kwargs give its type, whose help names its
        bounds from CAPS."""
        row = (p.prog.partition(" ")[2], option)  # p.prog is "positroids group sub"
        bounds = [_bounds(low, high) for *key, low, high, _ in CAPS if tuple(key) == row]
        kwargs.setdefault("type", int)
        p.add_argument(option, help="; ".join(filter(None, [text, *bounds])), **kwargs)

    def kn(p, required=True):
        p.add_argument("--k", type=int, required=required)
        sized(p, "--n", required=required)

    def pair(p):
        kn(p)
        p.add_argument("--v", required=True)
        p.add_argument("--x", required=True)

    g = groups.add_parser("perm").add_subparsers(dest="sub", required=True)
    p = command(g, "columnar", perm_columnar)
    p.add_argument("--k", type=int, required=True)
    sized(p, "--n")
    p.add_argument("--x", required=True)
    p = command(g, "pds", perm_pds)
    kn(p, required=False)
    p.add_argument("--v", required=True)
    p.add_argument("--w")
    p.add_argument("--word", help="reduced word letters in application order")
    for name, func in (("necklace", perm_necklace), ("bounded-affine", perm_bounded_affine)):
        p = command(g, name, func)
        kn(p, required=False)
        p.add_argument("--pi", required=True)
        p.add_argument("--white", default="")

    g = groups.add_parser("plabic").add_subparsers(dest="sub", required=True)
    p = command(g, "bridge", plabic_bridge, writes=True)
    kn(p)
    p.add_argument("--x", required=True)
    command(g, "trips", plabic_trips, reads=True, writes=True)
    command(g, "mirror", plabic_mirror, reads=True, writes=True)
    p = command(g, "faces", plabic_faces, reads=True, writes=True)
    p.add_argument("--mode", choices=("source", "target"), required=True)
    p = command(g, "relabel", plabic_relabel, reads=True, writes=True)
    p.add_argument("--perm", required=True)
    p = command(g, "move", plabic_move, reads=True, writes=True)
    p.add_argument("kind", choices=("square",))
    p.add_argument("--face", required=True)
    p = command(g, "dualquiver", plabic_dualquiver, reads=True, writes=True)
    p.add_argument("--dot", action="store_true")

    g = groups.add_parser("seed").add_subparsers(dest="sub", required=True)
    pair(command(g, "rectangles", seed_rectangles, writes=True))
    p = command(g, "classify", seed_classify)
    p.add_argument("--lambda", dest="lam", required=True)
    p = command(g, "from-graph", seed_from_graph, reads=True, writes=True)
    p.add_argument("--mode", choices=("source", "target"), default="target")
    p.add_argument("--delete")
    p = command(g, "mutate", seed_mutate, reads=True, writes=True)
    p.add_argument("--mode", choices=("source", "target"), default="target")
    sized(p, "--seq", "semicolon-separated face labels, one step each", type=str, required=True)
    p = command(g, "verify-exchange", seed_verify_exchange, writes=True)
    pair(p)
    sized(p, "--samples", default=20)
    sized(p, "--steps", default=8)
    p.add_argument("--rng-seed", type=int, default=0)

    g = groups.add_parser("le").add_subparsers(dest="sub", required=True)
    pair(command(g, "skew", le_skew))
    command(g, "leify", le_leify, reads=True, writes=True)
    kn(command(g, "read", le_read, reads=True, writes=True), required=False)

    g = groups.add_parser("ppalg").add_subparsers(dest="sub", required=True)
    p = command(g, "module", ppalg_module)
    pair(p)
    p.add_argument("--j", type=int, required=True)
    pair(command(g, "quiver", ppalg_quiver, writes=True))
    p = command(g, "crosscheck", ppalg_crosscheck, writes=True)
    sized(p, "--n", "check every skew pair with n at most this", required=True)
    p.add_argument("--verbose", action="store_true")
    sized(p, "--jobs", "worker processes, capped at the CPU count", default=1)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        check_caps(args)
        result = args.func(args)
        text = (result if isinstance(result, str) else json.dumps(result)) + "\n"
        if getattr(args, "outfile", None):
            with open(args.outfile, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
            # flushed here, not at interpreter exit, so a closed pipe is seen below
            sys.stdout.flush()
        return EXIT_VERIFY if isinstance(result, dict) and result.get("failures") else EXIT_OK
    except BrokenPipeError:
        # the reader has closed stdout: send what is still buffered to
        # devnull, so the flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except (UsageError, ValueError, KeyError, OSError) as exc:
        # a KeyError prints as the repr of its message; the message is wanted
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
