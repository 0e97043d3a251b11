import itertools
import random
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

from positroids import perm, plabic, pluecker, seeds, shapes
from conftest import exact_type, random_skew_pair, reversed_seed


def linear_a3():
    return seeds.Quiver({1: False, 2: False, 3: False}, ((1, 2), (2, 3)))


def test_quiver_invariants():
    with pytest.raises(ValueError):
        seeds.Quiver({1: False}, ((1, 1),))
    with pytest.raises(ValueError):
        seeds.Quiver({1: False, 2: False}, ((1, 2), (2, 1)))
    with pytest.raises(ValueError):
        seeds.Quiver({1: True, 2: True}, ((1, 2),))


def test_mutate_quiver_involution():
    Q = linear_a3()
    assert seeds.mutate_quiver(seeds.mutate_quiver(Q, 2), 2) == Q


def test_mutate_quiver_middle_of_a3():
    # hand-applied three steps: composite 1->3, reverse at 2, no 2-cycles
    Q = seeds.mutate_quiver(linear_a3(), 2)
    from collections import Counter

    assert Counter(Q.arrows) == Counter([(1, 3), (2, 1), (3, 2)])


def test_mutate_quiver_frozen_rejected():
    Q = seeds.Quiver({1: False, 2: True}, ((1, 2),))
    with pytest.raises(ValueError):
        seeds.mutate_quiver(Q, 2)


def test_mutate_quiver_frozen_frozen_composites_dropped():
    Q = seeds.Quiver({1: True, 2: False, 3: True}, ((1, 2), (2, 3)))
    M = seeds.mutate_quiver(Q, 2)
    assert (1, 3) not in M.arrows and (3, 1) not in M.arrows


def test_mutate_seed_involution_numeric():
    k, n = 2, 5
    v = perm.parabolic_longest(k, n)
    x = (3, 5, 1, 2, 4)
    S = seeds.rectangles_seed(k, n, v, x)
    rng = random.Random(9)
    samples = [
        pluecker.sample_schubert_cell(k, n, frozenset(perm.inverse(v)[:k]), rng).matrix
        for _ in range(20)
    ]
    q = S.quiver.mutable_vertices()[0]
    back = seeds.mutate_seed(seeds.mutate_seed(S, q), q)
    assert back.quiver == S.quiver
    assert seeds.expressions_agree(back.labels[q], S.labels[q], samples)


@pytest.mark.parametrize("q", (frozenset(), frozenset({1, 5}), frozenset({1, 2})), ids=str)
def test_mutate_seed_at_a_missing_or_frozen_label_raises_value_error(q):
    # a label the seed lacks raised a bare KeyError before the quiver was asked
    S = seeds.rectangles_seed(2, 5, perm.parabolic_longest(2, 5), (3, 5, 1, 2, 4))
    assert q not in S.labels or S.quiver.frozen[q]
    with pytest.raises(ValueError) as info:
        seeds.mutate_seed(S, q)
    assert str(info.value) == f"cannot mutate at {sorted(q)}"


@pytest.mark.parametrize("q, shown", (
    (frozenset(), "[]"), (frozenset({4, 1}), "[1, 4]"), (2, "2"), ((1, 1), "(1, 1)"), ("a", "'a'"),
), ids=str)
def test_mutate_quiver_names_the_vertex_a_label_as_a_sorted_list(q, shown):
    Q = seeds.Quiver({2: True, (1, 1): True, "a": True, frozenset({1, 4}): True, 3: False}, ())
    with pytest.raises(ValueError) as info:
        seeds.mutate_quiver(Q, q)
    assert str(info.value) == f"cannot mutate at {shown}"


def test_expressions_agree_checks_every_sample():
    # D12 and D13 agree at the first sample only; each sample keeps its own minors
    d12, d13 = seeds.PluckerSymbol(frozenset({1, 2})), seeds.PluckerSymbol(frozenset({1, 3}))
    ratio = seeds.ExchangeExpr((d12,), (d13,), d12)
    first = pluecker.matrix([[1, 0, 0], [0, 1, 1]])
    second = pluecker.matrix([[1, 0, 0], [0, 1, 2]])
    assert seeds.expressions_agree(d12, d13, [first])
    assert not seeds.expressions_agree(d12, d13, [first, second])
    assert seeds.expressions_agree(ratio, seeds.ExchangeExpr((d13,), (d12,), d12), [first, second])
    assert not seeds.expressions_agree(ratio, seeds.ExchangeExpr((d12,), (d12,), d12), [first, second])


def walk_instance(k, n, lam, rng, count=5):
    """Samples of the Schubert cell and the relabelled bridge graph of the
    skew pair of shape lam, as the exchange walk builds them."""
    v, x = perm.skew_pair(k, n, lam, lam)
    vi = perm.inverse(v)
    necklace = perm.grassmann_necklace(perm.positroid_decoration(v, perm.multiply(x, v), k))
    samples = [
        pluecker.sample_schubert_cell(k, n, frozenset(vi[:k]), rng, require_nonzero=necklace).matrix
        for _ in range(count)
    ]
    return samples, plabic.relabel_boundary(plabic.bridge_graph(k, n, x), vi)


def plucker_columns(expr, seen=None) -> set:
    """Column sets of the Pluecker symbols in an expression DAG."""
    seen = set() if seen is None else seen
    if isinstance(expr, seeds.PluckerSymbol):
        return {expr.columns}
    if id(expr) in seen:
        return set()
    seen.add(id(expr))
    out = set()
    for f in (*expr.out_factors, *expr.in_factors, expr.divisor):
        out |= plucker_columns(f, seen)
    return out


def test_expressions_agree_again_computes_no_determinant(count_determinants):
    rng = random.Random(21)
    samples, G = walk_instance(3, 7, (4, 3, 2), rng)
    S = seeds.seed_from_graph(G, "target")
    q = plabic.square_eligible_labels(G)[0]
    (new,) = set(plabic.face_labeling(plabic.square_move(G, q), "target").labels) - set(S.labels)
    expr, target = seeds.mutate_seed(S, q).labels[q], seeds.PluckerSymbol(new)
    count_determinants.clear()
    assert seeds.expressions_agree(expr, target, samples)
    first = len(count_determinants)
    assert 0 < first <= len(samples) * len(plucker_columns(expr) | {new})
    assert seeds.expressions_agree(expr, target, samples)
    assert len(count_determinants) == first


def test_plain_tuple_samples_agree_and_keep_nothing(count_determinants):
    rng = random.Random(22)
    samples, G = walk_instance(3, 7, (4, 3, 2), rng, count=4)
    plain = [tuple(M) for M in samples]
    S = seeds.seed_from_graph(G, "target")
    q = plabic.square_eligible_labels(G)[0]
    (new,) = set(plabic.face_labeling(plabic.square_move(G, q), "target").labels) - set(S.labels)
    expr, target = seeds.mutate_seed(S, q).labels[q], seeds.PluckerSymbol(new)
    for P, M in zip(plain, samples):
        value = target.evaluate(P, {})
        assert value == pluecker.plucker(M, new) and type(value) is int
        assert expr.evaluate(P, {}) == value
    count_determinants.clear()
    assert seeds.expressions_agree(expr, target, plain)
    first = len(count_determinants)
    assert not seeds.expressions_agree(expr, seeds.PluckerSymbol(S.labels[q].columns), plain)
    # the plain samples keep no minor, so a second check computes them all again
    count_determinants.clear()
    assert seeds.expressions_agree(expr, target, plain)
    assert len(count_determinants) == first > 0
    assert all(type(P) is tuple and not hasattr(P, "minors") for P in plain)


@pytest.mark.parametrize("k, n, lam", ((3, 7, (4, 3, 2)), (4, 8, (4, 4, 4, 4))))
def test_walk_step_computes_each_new_minor_once(k, n, lam, count_determinants):
    rng = random.Random(8)
    samples, G = walk_instance(k, n, lam, rng)
    asked = set()  # (sample, column set) pairs evaluated by earlier steps
    evaluated = computed = 0
    for _ in range(25):
        eligible = plabic.square_eligible_labels(G)
        q = eligible[rng.randrange(len(eligible))]
        S = seeds.seed_from_graph(G, "target")
        expr = seeds.mutate_seed(S, q).labels[q]
        G = plabic.square_move(G, q)
        (new,) = set(plabic.face_labeling(G, "target").labels) - set(S.labels)
        pairs = {(i, c) for i in range(len(samples)) for c in plucker_columns(expr) | {new}}
        before = len(count_determinants)
        assert seeds.expressions_agree(expr, seeds.PluckerSymbol(new), samples)
        step = len(count_determinants) - before
        assert step <= len(pairs - asked)
        asked |= pairs
        evaluated += len(pairs)
        computed += step
    # the samples were asked far more minors than they computed
    assert 0 < computed <= len(asked) < evaluated


class CountedExpr(seeds.ClusterExpression):
    """Evaluates ``inner`` and counts the evaluations."""

    def __init__(self, inner):
        self.inner, self.calls = inner, 0

    def evaluate(self, M, memo):
        self.calls += 1
        return self.inner.evaluate(M, memo)


def test_exchange_quotients_never_carry_over_between_calls():
    d12, d13, d23 = (seeds.PluckerSymbol(frozenset(c)) for c in ({1, 2}, {1, 3}, {2, 3}))
    rng = random.Random(5)
    samples = [pluecker.sample_schubert_cell(2, 4, {1, 2}, rng).matrix for _ in range(6)]
    spy = CountedExpr(d13)
    quotient = seeds.ExchangeExpr((spy,), (d12,), d23)
    # within a call the quotient is evaluated once per sample and shared by
    # both sides; a second call evaluates it afresh
    assert seeds.expressions_agree(quotient, quotient, samples)
    assert spy.calls == len(samples)
    assert seeds.expressions_agree(quotient, quotient, samples)
    assert spy.calls == 2 * len(samples)
    # quotients built and dropped one after another reuse id()s; a value kept
    # under a stale id would answer for the next quotient
    # (D12 = 1 at these samples, so the powers are taken of D13)
    for j in range(1, 30):
        a = seeds.ExchangeExpr((d13,) * j, (d12,), d23)
        assert seeds.expressions_agree(a, seeds.ExchangeExpr((d12,), (d13,) * j, d23), samples)
        assert not seeds.expressions_agree(a, seeds.ExchangeExpr((d13,) * (j + 1), (d12,), d23), samples)


def fraction_evaluate(expr, M, memo):
    """An exchange expression's value with every product taken over
    ``Fraction``: the reference for ``ExchangeExpr.evaluate``."""
    if isinstance(expr, seeds.PluckerSymbol):
        return pluecker.plucker(M, expr.columns)
    if id(expr) not in memo:
        num, num2 = Fraction(1), Fraction(1)
        for f in expr.out_factors:
            num *= fraction_evaluate(f, M, memo)
        for f in expr.in_factors:
            num2 *= fraction_evaluate(f, M, memo)
        den = fraction_evaluate(expr.divisor, M, memo)
        if den == 0:
            raise ZeroDivisionError("exchange denominator vanishes at this sample point")
        memo[id(expr)] = (num + num2) / den
    return memo[id(expr)]


def value_or_error(evaluate, expr, M):
    try:
        return evaluate(expr, M, {})
    except ZeroDivisionError as exc:
        return str(exc)


def nested_expressions(rng):
    """Labels after seeded mutation sequences from the Gr(3,7) rectangles
    seed, and random quotients of Pluecker symbols nested up to four deep."""
    samples, G = walk_instance(3, 7, (4, 3, 2), rng, count=4)
    S = seeds.seed_from_graph(G, "target")
    exprs = []
    for _ in range(6):
        T = S
        for _ in range(6):
            T = seeds.mutate_seed(T, rng.choice(T.quiver.mutable_vertices()))
        exprs += T.labels.values()
    pool = [seeds.PluckerSymbol(frozenset(c)) for c in itertools.combinations(range(1, 8), 3)]
    for _ in range(200):
        e = seeds.ExchangeExpr(tuple(rng.sample(pool, rng.randint(0, 3))),
                               tuple(rng.sample(pool, rng.randint(0, 3))), rng.choice(pool))
        pool.append(e)
        exprs.append(e)
    return samples, exprs


def test_exchange_evaluate_matches_fraction_products():
    rng = random.Random(17)
    samples, exprs = nested_expressions(rng)
    rational = pluecker.matrix([[Fraction(rng.randint(-9, 9), rng.randint(2, 7)) for _ in range(7)]
                                for _ in range(3)])
    assert any(x.denominator != 1 for row in rational for x in row)
    kinds = set()
    for M in (*samples, rational):
        for expr in exprs:
            got = value_or_error(lambda e, M, memo: e.evaluate(M, memo), expr, M)
            want = value_or_error(fraction_evaluate, expr, M)
            assert got == want, (M, expr)
            if isinstance(got, str):
                kinds.add("zero divisor")
            else:
                assert type(got) is exact_type(want), (M, expr)
                kinds.add((want.denominator == 1, M is rational))
    # integral values and true fractions at integer samples, true fractions
    # at the rational one, and zero divisors
    assert kinds >= {(True, False), (False, False), (False, True), "zero divisor"}, kinds


def test_exchange_evaluate_zero_divisor_message():
    d12, d13, d23 = (seeds.PluckerSymbol(frozenset(c)) for c in ({1, 2}, {1, 3}, {2, 3}))
    M = pluecker.matrix([[1, 0, 0], [0, 1, 1]])  # D23 = 0
    with pytest.raises(ZeroDivisionError) as info:
        seeds.ExchangeExpr((d12,), (d13,), d23).evaluate(M, {})
    assert str(info.value) == "exchange denominator vanishes at this sample point"


def test_square_move_label_is_plucker():
    # Gr(2,5) top-cell seed: mutating the face 24 yields D_{35} numerically
    from conftest import golden_gr25_graph

    G = golden_gr25_graph()
    S = seeds.seed_from_graph(G, "target")
    mut = seeds.mutate_seed(S, frozenset({2, 4}))
    rng = random.Random(4)
    samples = [
        pluecker.sample_schubert_cell(2, 5, {1, 2}, rng).matrix for _ in range(20)
    ]
    assert seeds.expressions_agree(
        mut.labels[frozenset({2, 4})], seeds.PluckerSymbol(frozenset({1, 3})), samples
    )


def test_rectangles_seed_golden():
    k, n = 3, 7
    v = perm.parabolic_longest(k, n)
    S = seeds.rectangles_seed(k, n, v, (3, 5, 7, 1, 2, 4, 6))
    labels = {b: "".join(map(str, sorted(l.columns))) for b, l in S.labels.items()}
    assert labels == {
        (1, 1): "237", (1, 2): "236", (1, 3): "235", (1, 4): "234",
        (2, 1): "137", (2, 2): "367", (2, 3): "356",
        (3, 1): "127", (3, 2): "167",
    }
    frozen = {b for b, f in S.quiver.frozen.items() if f}
    assert frozen == {(1, 3), (1, 4), (2, 2), (2, 3), (3, 1), (3, 2)}
    assert sorted(S.quiver.arrows) == sorted(
        [
            ((1, 2), (1, 1)), ((1, 3), (1, 2)), ((2, 2), (2, 1)),
            ((2, 1), (1, 1)), ((2, 2), (1, 2)), ((3, 1), (2, 1)),
            ((1, 1), (2, 2)), ((1, 2), (2, 3)), ((2, 1), (3, 2)),
        ]
    )


def test_rectangles_seed_single_row():
    k, n = 2, 6
    v, x = perm.skew_pair(k, n, (n - k,) * k, (3,))
    S = seeds.rectangles_seed(k, n, v, x)
    assert len(S.quiver.vertices) == 3
    assert not S.quiver.mutable_vertices()


def test_rectangles_seed_vertex_count():
    rng = random.Random(12)
    for _ in range(20):
        n = rng.randint(3, 8)
        k, v, x = random_skew_pair(n, rng)
        S = seeds.rectangles_seed(k, n, v, x)
        lam = shapes.from_vert_ne(x[:k], k, n)
        assert len(S.quiver.vertices) == shapes.size(lam)
        frozen = {b for b, f in S.quiver.frozen.items() if f}
        assert frozen == {b for b in shapes.boxes(lam) if shapes.is_lambda_frozen(lam, b)}


def test_seed_from_graph_deletion():
    G = plabic.bridge_graph(2, 5, (3, 5, 1, 2, 4))
    S = seeds.seed_from_graph(G, "target", delete_label={1, 2})
    assert frozenset({1, 2}) not in S.labels
    with pytest.raises(KeyError):
        seeds.seed_from_graph(G, "target", delete_label={2, 5})


def test_all_graph_variants_give_rectangles_seed():
    k, n = 3, 7
    v = perm.parabolic_longest(k, n)
    x = (3, 5, 7, 1, 2, 4, 6)
    w = perm.multiply(x, v)
    S_rect = seeds.rectangles_seed(k, n, v, x)
    B = plabic.bridge_graph(k, n, x)
    vi, wi = perm.inverse(v), perm.inverse(w)
    cell = frozenset(vi[:k])
    S_reversed = reversed_seed(S_rect)
    variants = [
        (plabic.relabel_boundary(B, vi), "target", False),
        (plabic.mirror(plabic.relabel_boundary(B, vi)), "source", True),
        (plabic.relabel_boundary(B, wi), "source", False),
        (plabic.mirror(plabic.relabel_boundary(B, wi)), "target", True),
    ]
    for G, mode, mirrored in variants:
        S = seeds.seed_from_graph(G, mode, delete_label=cell)
        # a mirrored variant gives the rectangles seed with its arrows reversed
        assert seeds.seeds_equal(S, S_rect) == (not mirrored)
        assert seeds.seeds_equal(S, S_reversed) == mirrored


def test_seeds_equal_basics():
    S = seeds.rectangles_seed(2, 5, perm.parabolic_longest(2, 5), (3, 5, 1, 2, 4))
    assert seeds.seeds_equal(S, S)
    S2 = seeds.rectangles_seed(2, 5, perm.parabolic_longest(2, 5), (2, 5, 1, 3, 4))
    assert not seeds.seeds_equal(S, S2)


# ---------------------------------------------------------------------------
# finite type
# ---------------------------------------------------------------------------

def test_classify_finite_type_goldens():
    assert seeds.classify_mutable_shape((2, 2)) == "D4"
    assert seeds.classify_mutable_shape((3, 3)) == "E6"
    assert seeds.classify_mutable_shape((4, 3, 1)) == "Infinite"
    assert seeds.classify_mutable_shape((3,)) == "A3"
    assert seeds.classify_mutable_shape(()) == "A0"
    assert seeds.classify_mutable_shape((4, 2)) == "D6"
    assert seeds.classify_mutable_shape((2, 2, 1)) == "D5"  # transpose of (3, 2)
    assert seeds.classify_mutable_shape((4, 2, 2)) == "E8"  # transpose of (3, 3, 1, 1)


def reference_classify_mutable_shape(mut):
    """The classification with the transpose always built."""
    mut = shapes.normalize(mut)
    m = shapes.size(mut)
    if len(mut) < 2 or mut[1] < 2:
        return f"A{m}"
    t = shapes.transpose(mut)
    for cand in (mut, t):
        if len(cand) == 2 and cand[1] == 2 and cand[0] >= 2:
            return f"D{m}"
    for cand in (mut, t):
        if cand in seeds._EXCEPTIONAL:
            return seeds._EXCEPTIONAL[cand]
    return "Infinite"


def test_classify_mutable_shape_matches_the_transposing_rule():
    shapes_seen = 0
    for mut in shapes.partitions_in_box(8, 8):
        assert seeds.classify_mutable_shape(mut) == reference_classify_mutable_shape(mut), mut
        shapes_seen += 1
    assert shapes_seen == 12870


def test_classify_via_lambda():
    assert seeds.classify_finite_type((3, 3, 3)) == "D4"
    assert seeds.classify_finite_type((4, 4, 4)) == "E6"
    assert seeds.classify_finite_type((2, 2)) == "A1"


def test_mutation_class_a2():
    Q = seeds.Quiver({1: False, 2: False}, ((1, 2),))
    rep = seeds.mutation_class_explore(Q)
    assert rep.verdict == "finite" and rep.class_size == 1


def test_mutation_class_d4_and_known_sizes():
    rep = seeds.mutation_class_explore(seeds.mutable_grid_quiver((2, 2)))
    assert rep.verdict == "finite"
    assert rep.class_size == 6 == len(rep.classes)
    assert seeds.canonical_form(seeds.dynkin_quiver("D4")) in rep.classes
    assert seeds.canonical_form(seeds.dynkin_quiver("A4")) not in rep.classes


def test_mutation_class_infinite_shape():
    rep = seeds.mutation_class_explore(seeds.mutable_grid_quiver((4, 3, 1)))
    assert rep.verdict == "infinite"


def test_canonical_form_isomorphism_invariance():
    Q = seeds.mutable_grid_quiver((2, 2))
    relabeled = seeds.Quiver(
        {f"v{r}{c}": False for (r, c) in Q.frozen},
        tuple((f"v{s[0]}{s[1]}", f"v{t[0]}{t[1]}") for s, t in Q.arrows),
    )
    assert seeds.canonical_form(Q) == seeds.canonical_form(relabeled)
    other = seeds.mutate_quiver(Q, (1, 1))
    assert seeds.canonical_form(Q) != seeds.canonical_form(other)


def random_quiver(rng, n):
    """Random quiver on 0..n-1: about a third of the vertices frozen, arrows
    of multiplicity 1-3 in random directions, listed in random order."""
    frozen = {v: rng.random() < 0.3 for v in range(n)}
    arrows = []
    for i in range(n):
        for j in range(i + 1, n):
            if frozen[i] and frozen[j] or rng.random() < 0.5:
                continue
            pair = (i, j) if rng.random() < 0.5 else (j, i)
            arrows += [pair] * rng.choice((1, 1, 2, 3))
    rng.shuffle(arrows)
    return seeds.Quiver(frozen, tuple(arrows))


def relabel(Q, rng):
    """Q under a random bijection of its vertices, with vertices and arrows
    also listed in a random order."""
    verts = list(Q.frozen)
    image = verts[:]
    rng.shuffle(image)
    f = dict(zip(verts, image))
    rng.shuffle(verts)
    arrows = [(f[s], f[t]) for s, t in Q.arrows]
    rng.shuffle(arrows)
    return seeds.Quiver({f[v]: Q.frozen[v] for v in verts}, tuple(arrows))


def reference_mutate_quiver(Q, q):
    """The arrow-list mutation rule: compose paths through q, reverse the
    arrows at q, cancel 2-cycles, list arrows by (str(source), str(target))."""
    from collections import Counter

    net = Counter(Q.arrows)
    for r in Q.arrows_into(q):
        for s in Q.arrows_from(q):
            if not (Q.frozen[r] and Q.frozen[s]):
                net[(r, s)] += 1
    for s, t in list(net):
        if q in (s, t):
            net[(t, s)] += net.pop((s, t))
    arrows = []
    for (s, t), m in sorted(net.items(), key=lambda kv: (str(kv[0][0]), str(kv[0][1]))):
        m -= net.get((t, s), 0)
        if m > 0 and not (Q.frozen[s] and Q.frozen[t]):
            arrows.extend([(s, t)] * m)
    return seeds.Quiver(dict(Q.frozen), tuple(arrows))


def test_mutate_quiver_matches_arrow_rule():
    rng = random.Random(21)
    for _ in range(300):
        Q = random_quiver(rng, rng.randint(1, 9))
        for q in Q.mutable_vertices():
            got, want = seeds.mutate_quiver(Q, q), reference_mutate_quiver(Q, q)
            assert got.arrows == want.arrows and got == want


def reference_seeds_equal(S1, S2, up_to_arrow_reversal=False):
    """Label-preserving quiver isomorphism by brute force: vertices are
    matched by label key (column set of a Pluecker symbol, else id()), and
    every assignment within each tie of label keys is tried."""
    from collections import Counter
    from itertools import permutations

    def key(lab):
        return lab.columns if isinstance(lab, seeds.PluckerSymbol) else id(lab)

    by_label1, by_label2 = {}, {}
    for S, by_label in ((S1, by_label1), (S2, by_label2)):
        for v, lab in S.labels.items():
            by_label.setdefault(key(lab), []).append(v)
    if set(by_label1) != set(by_label2):
        return False
    if any(len(by_label1[k]) != len(by_label2[k]) for k in by_label1):
        return False

    def map_ok(mapping):
        if any(S1.quiver.frozen[v] != S2.quiver.frozen[mapping[v]] for v in mapping):
            return False
        a1 = Counter((mapping[s], mapping[t]) for s, t in S1.quiver.arrows)
        a2 = Counter(S2.quiver.arrows)
        if a1 == a2:
            return True
        if up_to_arrow_reversal:
            return Counter((t, s) for s, t in a1.elements()) == a2
        return False

    def try_maps(keys, mapping):
        if not keys:
            return map_ok(mapping)
        k, rest = keys[0], keys[1:]
        for assignment in permutations(by_label2[k]):
            trial = dict(mapping)
            trial.update(zip(by_label1[k], assignment))
            if try_maps(rest, trial):
                return True
        return False

    return try_maps(list(by_label1), {})


def relabel_seed(S, rng, reverse=False):
    """S on new vertex names under a random bijection, vertices and arrows
    listed in a random order, arrows reversed if asked."""
    verts = list(S.quiver.frozen)
    image = [("v", v) for v in verts]
    rng.shuffle(image)
    f = dict(zip(verts, image))
    rng.shuffle(verts)
    arrows = [(f[t], f[s]) if reverse else (f[s], f[t]) for s, t in S.quiver.arrows]
    rng.shuffle(arrows)
    quiver = seeds.Quiver({f[v]: S.quiver.frozen[v] for v in verts}, tuple(arrows))
    return seeds.LabeledSeed(quiver, {f[v]: S.labels[v] for v in verts})


def perturb_seed(S, rng, pool):
    """S with one local change, which may or may not leave its class: a
    label replaced, two labels swapped, a frozen vertex unfrozen, one arrow
    removed, or the arrows between two vertices reversed."""
    frozen, labels, arrows = dict(S.quiver.frozen), dict(S.labels), list(S.quiver.arrows)
    verts = list(frozen)
    kind = rng.randrange(5)
    if kind == 0:
        labels[rng.choice(verts)] = rng.choice(pool)
    elif kind == 1:
        a, b = rng.choice(verts), rng.choice(verts)
        labels[a], labels[b] = labels[b], labels[a]
    elif kind == 2 and any(frozen.values()):
        frozen[rng.choice([v for v in verts if frozen[v]])] = False
    elif kind == 3 and arrows:
        arrows.pop(rng.randrange(len(arrows)))
    elif arrows:
        a, b = rng.choice(arrows)
        arrows = [(t, s) if {s, t} == {a, b} else (s, t) for s, t in arrows]
    return seeds.LabeledSeed(seeds.Quiver(frozen, tuple(arrows)), labels)


def test_seeds_equal_matches_brute_force():
    rng = random.Random(31)
    d12 = seeds.PluckerSymbol(frozenset({1, 2}))
    expr = seeds.ExchangeExpr((d12,), (), d12)
    # the second {1, 2} symbol is a different object with an equal key
    labels = [d12, seeds.PluckerSymbol(frozenset({1, 2})), seeds.PluckerSymbol(frozenset({1, 3})),
              seeds.PluckerSymbol(frozenset({2, 3})), expr]
    outcomes = {}
    compared = 0
    while compared < 2400:
        pool = rng.sample(labels, rng.randint(1, 3))
        Q = random_quiver(rng, rng.randint(1, 6))
        S1 = seeds.LabeledSeed(Q, {v: rng.choice(pool) for v in Q.frozen})
        kind = rng.randrange(4)
        if kind == 0:
            S2 = S1
        elif kind == 1:
            S2 = perturb_seed(S1, rng, pool)
        elif kind == 2:
            S2 = perturb_seed(perturb_seed(S1, rng, pool), rng, pool)
        else:
            Q2 = random_quiver(rng, len(Q.frozen))
            S2 = seeds.LabeledSeed(Q2, dict(zip(Q2.frozen, S1.labels.values())))
        S2 = relabel_seed(S2, rng, reverse=rng.random() < 0.5)
        for reversal in (False, True):
            # up to reversal: equal to S2 or to S2 with its arrows reversed
            got = seeds.seeds_equal(S1, S2) or reversal and seeds.seeds_equal(S1, reversed_seed(S2))
            assert got == reference_seeds_equal(S1, S2, reversal), (S1, S2, reversal)
            outcomes[reversal, got] = outcomes.get((reversal, got), 0) + 1
            compared += 1
    assert set(outcomes) == {(False, False), (False, True), (True, False), (True, True)}
    assert min(outcomes.values()) >= 200, outcomes


def reference_grid_quivers(lam):
    """``rectangles_quiver(lam)`` and ``mutable_grid_quiver(lam)`` as each
    built its own arrows: boxes in ``shapes.boxes`` order (frozen on the
    southeast boundary, frozen-frozen arrows dropped, arrows sorted) and in
    sorted order (all mutable, arrows in the order they are found)."""
    frozen = {b: shapes.is_lambda_frozen(lam, b) for b in shapes.boxes(lam)}
    arrows = []
    for (r, c) in frozen:
        for target in ((r - 1, c), (r, c - 1), (r + 1, c + 1)):
            if target in frozen and not (frozen[(r, c)] and frozen[target]):
                arrows.append(((r, c), target))
    rect = seeds.Quiver(frozen, tuple(sorted(arrows)))
    boxes = set(shapes.boxes(lam))
    arrows = []
    for (r, c) in sorted(boxes):
        for target in ((r - 1, c), (r, c - 1), (r + 1, c + 1)):
            if target in boxes:
                arrows.append(((r, c), target))
    return rect, seeds.Quiver({b: False for b in sorted(boxes)}, tuple(arrows))


def test_grid_quivers_match_their_old_construction():
    shapes_tried = [lam for m in range(1, 8) for lam in shapes.partitions_in_box(m, m)
                    if shapes.size(lam) == m]
    shapes_tried += [(5, 3), (4, 3, 1), (4, 3, 2), (5, 5, 5), (4, 4, 4, 4), (6, 5, 3, 3, 1)]
    for lam in shapes_tried:
        for got, want in zip((seeds.rectangles_quiver(lam), seeds.mutable_grid_quiver(lam)),
                             reference_grid_quivers(lam)):
            assert list(got.frozen.items()) == list(want.frozen.items())
            assert got.arrows == want.arrows


def test_matrix_mutation_is_involution():
    rng = random.Random(22)
    for _ in range(100):
        Q = random_quiver(rng, rng.randint(1, 9))
        B = seeds._b_matrix(Q, list(Q.frozen))
        for k in range(len(B)):
            assert seeds._mutate_b(seeds._mutate_b(B, k), k) == B


def random_exchange_matrix(rng, n):
    """A random skew-symmetric n x n matrix with entries in -3..3 (so
    multiple arrows), each entry above the diagonal nonzero with a random
    density drawn per matrix."""
    B = [[0] * n for _ in range(n)]
    density = rng.random()
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                B[i][j] = rng.choice((-1, 1)) * rng.randint(1, 3)
                B[j][i] = -B[i][j]
    return tuple(map(tuple, B))


def reference_mutate_b(B, k):
    """Fomin-Zelevinsky matrix mutation, entry by entry."""
    n = len(B)
    return tuple(
        tuple(
            -B[i][j] if k in (i, j)
            else B[i][j] + (abs(B[i][k]) * B[k][j] + B[i][k] * abs(B[k][j])) // 2
            for j in range(n)
        )
        for i in range(n)
    )


def test_matrix_mutation_matches_dense_rule_and_shares_rows():
    rng = random.Random(26)
    multiple = 0
    for _ in range(300):
        B = random_exchange_matrix(rng, rng.randint(1, 9))
        multiple += seeds._max_multiplicity(B) >= 2
        for k in range(len(B)):
            out = seeds._mutate_b(B, k)
            assert out == reference_mutate_b(B, k), (B, k)
            # a row with b_ik = 0 is the input's row, not a copy
            for i, row in enumerate(B):
                if i != k and row[k] == 0:
                    assert out[i] is row
    assert multiple > 150


def reference_canonical_label(B, colour, nodes):
    """seeds._canonical_label in its plain form: every label runs the search
    from the unrefined root, and every round reads neighbour lists built per
    label.  Appends the path of each search-tree node it visits to
    ``nodes``."""
    n = len(B)
    nbrs = [[(j, b) for j, b in enumerate(row) if b] for row in B]

    def refine(col):
        cells = len(set(col))
        while True:
            sig = [(col[i], sorted([n * b + col[j] for j, b in nbrs[i]])) for i in range(n)]
            order = sorted(range(n), key=sig.__getitem__)
            new = [0] * n
            start, count, prev = 0, 0, None
            for pos, i in enumerate(order):
                if sig[i] != prev:
                    start, prev = pos, sig[i]
                    count += 1
                new[i] = start
            if count == cells or count == n:
                return new
            col, cells = new, count

    first = best = None
    gens = []

    def parting_depth(path_a, path_b):
        d = 0
        while path_a[d] == path_b[d]:
            d += 1
        return d

    def orbit_roots(path):
        root = list(range(n))

        def find(v):
            while root[v] != v:
                root[v] = root[root[v]]
                v = root[v]
            return v

        for g in gens:
            if all(g[p] == p for p in path):
                for v in range(n):
                    a, b = find(v), find(g[v])
                    if a != b:
                        root[max(a, b)] = min(a, b)
        return [find(v) for v in range(n)]

    def search(col, path):
        nonlocal first, best
        nodes.append(path)
        col = refine(col)
        depth = len(path)
        size = [0] * n
        for c in col:
            size[c] += 1
        open_cells = [(m, s) for s, m in enumerate(size) if m > 1]
        if not open_cells:
            leaf = [0] * n
            for v, c in enumerate(col):
                leaf[c] = v
            form = tuple([B[i][j] for i in leaf for j in leaf])
            if first is None:
                first = best = (form, leaf, path)
                return depth
            for known in (first, best):
                if form == known[0]:
                    g = [0] * n
                    for u, v in zip(known[1], leaf):
                        g[u] = v
                    gens.append(g)
                    return parting_depth(known[2], path)
            if form < best[0]:
                best = (form, leaf, path)
            return depth
        s = min(open_cells)[1]
        cell = [v for v in range(n) if col[v] == s]
        tried = []
        roots, seen_gens = None, -1
        for v in cell:
            if tried and gens:
                if seen_gens != len(gens):
                    roots, seen_gens = orbit_roots(path), len(gens)
                if any(roots[u] == roots[v] for u in tried):
                    continue
            tried.append(v)
            child = col[:]
            for u in cell:
                child[u] = s + 1
            child[v] = s
            back = search(child, path + [v])
            if back < depth:
                return back
        return depth

    start = {}
    for pos, c in enumerate(sorted(colour)):
        start.setdefault(c, pos)
    search([start[c] for c in colour], [])
    return best[0], best[1]


def label_and_search_calls(B, colour):
    """seeds._canonical_label(B, colour) and the number of calls it made to
    its search closure."""
    code = next(c for c in seeds._canonical_label.__code__.co_consts
                if getattr(c, "co_name", None) == "search")
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is code:
            calls += 1

    old = sys.getprofile()
    sys.setprofile(profile)
    try:
        out = seeds._canonical_label(B, colour)
    finally:
        sys.setprofile(old)
    return out, calls


def test_canonical_label_matches_reference():
    rng = random.Random(27)
    cases = []
    for _ in range(1500):
        n = rng.randint(1, 10)
        B = random_exchange_matrix(rng, n)
        if rng.random() < 0.5:  # the symmetric |B|
            B = tuple(tuple(map(abs, row)) for row in B)
        colours = rng.randint(1, 3)
        cases.append((B, [rng.randrange(colours) for _ in range(n)]))

    # families with many automorphisms, each relabelled and coloured
    def matrix(n, arrows):
        B = [[0] * n for _ in range(n)]
        for s, t in arrows:
            B[s][t], B[t][s] = B[s][t] + 1, B[t][s] - 1
        return B

    families = [matrix(m, [(i, (i + 1) % m) for i in range(m)]) for m in range(3, 11)]
    families += [matrix(3 * c, [(3 * t + i, 3 * t + (i + 1) % 3) for t in range(c) for i in range(3)])
                 for c in (2, 3)]
    families += [matrix(6, [(i, j) for i in range(3) for j in range(3, 6)])]
    families += [matrix(m, []) for m in range(1, 11)]
    for B in families:
        n = len(B)
        for colours in (1, 1, 2, 3):
            p = list(range(n))
            rng.shuffle(p)
            R = tuple(tuple(B[p[i]][p[j]] for j in range(n)) for i in range(n))
            cases.append((R, [rng.randrange(colours) for _ in range(n)]))

    discrete_root = set()
    for B, colour in cases:
        nodes = []
        want = reference_canonical_label(B, colour, nodes)
        got, calls = label_and_search_calls(B, colour)
        assert got == want, (B, colour)
        # the root is the tree's only node exactly when no search runs
        assert (calls == 0) == (nodes == [[]]), (B, colour)
        discrete_root.add(calls == 0)
    assert discrete_root == {True, False}


def test_canonical_form_matches_networkx_isomorphism():
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import categorical_edge_match, categorical_node_match

    def to_nx(Q, G):
        # arrows as edges with multiplicity m; a quiver has no 2-cycles, so
        # in an undirected G the multiplicity is that of the one direction
        G.add_nodes_from((v, {"frozen": f}) for v, f in Q.frozen.items())
        for s, t in Q.arrows:
            G.add_edge(s, t, m=G.edges[s, t]["m"] + 1 if G.has_edge(s, t) else 1)
        return G

    node, edge = categorical_node_match("frozen", None), categorical_edge_match("m", None)
    rng = random.Random(23)
    outcomes = set()
    for _ in range(200):
        n = rng.randint(1, 7)
        Q1 = random_quiver(rng, n)
        # an isomorphic copy, a mutation of one, or an unrelated quiver
        Q2 = relabel(Q1, rng)
        pick = rng.random()
        if pick < 0.3 and Q2.mutable_vertices():
            Q2 = seeds.mutate_quiver(Q2, rng.choice(Q2.mutable_vertices()))
        elif pick < 0.5:
            Q2 = random_quiver(rng, n)
        iso = nx.is_isomorphic(to_nx(Q1, nx.DiGraph()), to_nx(Q2, nx.DiGraph()),
                               node_match=node, edge_match=edge)
        assert (seeds.canonical_form(Q1) == seeds.canonical_form(Q2)) == iso, (Q1, Q2)
        outcomes.add(iso)
    assert outcomes == {True, False}


def test_canonical_form_symmetric_quivers():
    # unions of oriented cycles and disjoint copies of one quiver have many
    # automorphisms, so the labeling search prunes by them
    def cycles(*sizes):
        arrows, off = [], 0
        for m in sizes:
            arrows += [(off + i, off + (i + 1) % m) for i in range(m)]
            off += m
        return seeds.Quiver({i: False for i in range(off)}, tuple(arrows))

    def copies(Q, c):
        return seeds.Quiver(
            {(t, v): f for t in range(c) for v, f in Q.frozen.items()},
            tuple(((t, s), (t, u)) for t in range(c) for s, u in Q.arrows),
        )

    rng = random.Random(24)
    quivers = [cycles(3, 3, 6), cycles(3, 6), cycles(4, 4, 3), cycles(3, 9), cycles(5, 5)]
    quivers += [copies(random_quiver(rng, rng.randint(2, 4)), rng.randint(2, 3)) for _ in range(20)]
    for Q in quivers:
        want = seeds.canonical_form(Q)
        for _ in range(10):
            R = relabel(Q, rng)
            assert seeds.canonical_form(R) == want, Q


@pytest.mark.parametrize("n", [9, 10, 12])
def test_canonical_form_oriented_cycle_is_fast(n):
    import time

    rng = random.Random(n)
    cycle = seeds.Quiver({i: False for i in range(n)}, tuple((i, (i + 1) % n) for i in range(n)))
    t0 = time.perf_counter()
    want = seeds.canonical_form(cycle)
    for _ in range(5):
        assert seeds.canonical_form(relabel(cycle, rng)) == want
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize(
    "name,size",
    [("D4", 6), ("D5", 26), ("D6", 80), ("D7", 246), ("E6", 67), ("E7", 416), ("E8", 1574)],
)
def test_mutation_class_sizes_from_scrambled_starts(name, size):
    # published class sizes (Buan-Torkildsen; Torkildsen), from a relabelled
    # start mutated along a random sequence
    rng = random.Random(size)
    Q = relabel(seeds.dynkin_quiver(name), rng)
    for _ in range(2 * len(Q.frozen)):
        Q = seeds.mutate_quiver(Q, rng.choice(Q.mutable_vertices()))
    rep = seeds.mutation_class_explore(Q)
    assert rep.verdict == "finite" and rep.class_size == size == len(rep.classes)
    # a closed class holds every orientation of its Dynkin tree (sink and
    # source mutations reach them all) and the start
    assert seeds.canonical_form(seeds.dynkin_quiver(name)) in rep.classes
    assert seeds.canonical_form(Q) in rep.classes
    assert 1 + sum(rep.frontier_sizes) == size and all(rep.frontier_sizes)
    # every class mutates at each vertex, by a label or by a skip; each new
    # class skips the move back to its parent, and the marks skip more
    n = len(Q.frozen)
    assert rep.labelled - 1 + rep.skipped == size * n
    assert rep.skipped > size - 1
    if name == "E8":
        assert rep.labelled <= 6400


def test_mutation_class_vertex_cap():
    Q = seeds.Quiver({i: False for i in range(13)}, tuple((i, i + 1) for i in range(12)))
    with pytest.raises(ValueError, match="12 mutable vertices"):
        seeds.mutation_class_explore(Q)


def reference_mutation_class_explore(Q, stop_on_multiple_arrow=True):
    """The BFS with no repeat filter: every mutated matrix is labelled, so
    ``labelled`` is one more than the number of mutations made.  Its classes
    are keyed by ``canonical_form`` of the mutated quiver."""
    Q0 = Q.restrict_mutable()
    verts = list(Q0.frozen)
    B0 = seeds._b_matrix(Q0, verts)
    seen = {seeds.canonical_form(Q0)}
    labelled = 1
    frontier = [(B0, -1)]
    frontier_sizes = []
    saw_multiple = seeds._max_multiplicity(B0) >= 2
    bound_hit = False
    while frontier and not (saw_multiple and stop_on_multiple_arrow):
        nxt = []
        for cur, via in frontier:
            for q in range(len(verts)):
                if q == via:
                    continue
                new = seeds._mutate_b(cur, q)
                key = seeds.canonical_form(seeds._quiver_from_b(verts, Q0.frozen, new))
                labelled += 1
                if key in seen:
                    continue
                seen.add(key)
                if seeds._max_multiplicity(new) >= 2:
                    saw_multiple = True
                nxt.append((new, q))
                if len(seen) > seeds.MAX_CLASS_SIZE:
                    bound_hit = True
                    break
            if bound_hit:
                break
        if nxt:
            frontier_sizes.append(len(nxt))
        if bound_hit:
            break
        frontier = nxt
    closed = not bound_hit and not frontier
    if saw_multiple and stop_on_multiple_arrow:
        closed = False
    return seeds.MutationClassReport(
        closed, len(seen), bound_hit, saw_multiple, seen,
        tuple(frontier_sizes), labelled,
    )


def assert_bfs_matches_reference(starts):
    """Every report field but ``labelled`` and ``skipped`` equals the
    reference's, ``classes`` included, and a closed search mutates every
    class at every vertex, by a label or a skip.  Both stopping modes are run
    where they differ: a class without a double arrow is searched the same
    way in both."""
    for Q in starts:
        wants = {False: reference_mutation_class_explore(Q, stop_on_multiple_arrow=False)}
        if wants[False].saw_multiple_arrow:
            wants[True] = reference_mutation_class_explore(Q, stop_on_multiple_arrow=True)
        for stop, want in wants.items():
            got = seeds.mutation_class_explore(Q, stop_on_multiple_arrow=stop)
            assert got.labelled <= want.labelled
            assert replace(got, labelled=want.labelled, skipped=want.skipped) == want, (Q, stop)
            assert 1 + sum(got.frontier_sizes) == got.class_size
            if got.closed:
                n = len(Q.mutable_vertices())
                assert got.labelled - 1 + got.skipped == got.class_size * n


def scrambled_start(Q, rng):
    """Q relabelled, then mutated along a random sequence: the same class."""
    Q = relabel(Q, rng)
    for _ in range(rng.randint(1, 2 * len(Q.frozen))):
        Q = seeds.mutate_quiver(Q, rng.choice(Q.mutable_vertices()))
    return Q


def test_mutation_class_marks_match_reference_on_shapes():
    rng = random.Random(14)
    muts = [
        lam
        for m in range(1, 8)
        for lam in shapes.partitions_in_box(m, m)
        if shapes.size(lam) == m
    ] + [(5, 3), (4, 3, 1)]
    starts = [scrambled_start(seeds.mutable_grid_quiver(mut), rng) for mut in muts]
    assert_bfs_matches_reference(starts)


def test_mutation_class_marks_match_reference_with_frozen_vertices(monkeypatch):
    # random quivers are mostly mutation-infinite, and their entries grow
    # fast under mutation: simple arrows, at least 4 mutable vertices and a
    # small bound keep the search shallow
    monkeypatch.setattr(seeds, "MAX_CLASS_SIZE", 60)
    rng = random.Random(1403)
    starts = []
    while len(starts) < 6:
        Q = random_quiver(rng, rng.randint(6, 9))
        if any(Q.frozen.values()) and len(Q.mutable_vertices()) >= 4:
            starts.append(seeds.Quiver(Q.frozen, tuple(dict.fromkeys(Q.arrows))))
    assert_bfs_matches_reference(starts)


def test_mutation_class_of_minimal_infinite_shape_closes():
    # the workload's mode: a double arrow does not stop the search
    rep = seeds.mutation_class_explore(seeds.mutable_grid_quiver((4, 3, 1)), stop_on_multiple_arrow=False)
    assert rep.closed and rep.class_size == 1080 and rep.saw_multiple_arrow
    assert rep.verdict == "infinite"


def test_mutation_class_bound_hit(monkeypatch):
    monkeypatch.setattr(seeds, "MAX_CLASS_SIZE", 100)
    Q = seeds.mutable_grid_quiver((5, 3))
    rep = seeds.mutation_class_explore(Q)
    assert rep.bound_hit and rep.closed is False and rep.class_size == 101
    assert rep.verdict == "unknown"
    want = reference_mutation_class_explore(Q)
    assert replace(rep, labelled=want.labelled, skipped=want.skipped) == want


def test_mutation_class_report_keeps_no_quivers(monkeypatch):
    # a mutation-infinite start whose arrow multiplicities grow exponentially
    # with depth: the report holds canonical forms only, so searching to the
    # bound stays small (building a quiver per class, one list entry per
    # arrow, ran out of memory here)
    monkeypatch.setattr(seeds, "MAX_CLASS_SIZE", 300)
    rng = random.Random(1403)
    Q = [random_quiver(rng, n) for n in (3, 4)][1]
    rep = seeds.mutation_class_explore(Q, stop_on_multiple_arrow=False)
    assert rep.bound_hit and rep.class_size == 301
    assert len(rep.classes) == rep.class_size
    assert seeds.canonical_form(Q.restrict_mutable()) in rep.classes


def test_mutation_class_explore_stop_is_keyword_only():
    # a second positional argument raises instead of setting stop
    with pytest.raises(TypeError):
        seeds.mutation_class_explore(seeds.mutable_grid_quiver((2, 2)), True)


def test_gr2n_labels_stay_plucker():
    # finite type A: full closure of the Gr(2,5) and Gr(2,6) top-cell seed
    # patterns; every label reached by mutation identifies with a Pluecker
    # symbol at the exact sample points
    from itertools import combinations

    for k, n, top in ((2, 5, (3, 3)), (2, 6, (4, 4))):
        v, x = perm.skew_pair(k, n, top, top)
        S0 = seeds.rectangles_seed(k, n, v, x)
        rng = random.Random(17)
        samples = [
            pluecker.sample_schubert_cell(k, n, frozenset(perm.inverse(v)[:k]), rng).matrix
            for _ in range(12)
        ]
        symbols = [seeds.PluckerSymbol(frozenset(c)) for c in combinations(range(1, n + 1), k)]

        def identify(expr):
            match = [s for s in symbols if seeds.expressions_agree(expr, s, samples)]
            assert len(match) == 1
            return match[0].columns

        def state(S):
            return frozenset((vtx, identify(lab)) for vtx, lab in S.labels.items())

        seen = {state(S0)}
        frontier = [S0]
        clusters = set()
        while frontier:
            nxt = []
            for S in frontier:
                clusters.add(frozenset(identify(S.labels[q]) for q in S.quiver.mutable_vertices()))
                for q in S.quiver.mutable_vertices():
                    M = seeds.mutate_seed(S, q)
                    key = state(M)
                    if key not in seen:
                        seen.add(key)
                        nxt.append(M)
            frontier = nxt
        # type A_{n-3}: the number of clusters is the Catalan number C_{n-2}
        catalan = {5: 5, 6: 14}[n]
        assert len(clusters) == catalan


def test_seed_json_and_dot():
    S = seeds.rectangles_seed(2, 5, perm.parabolic_longest(2, 5), (3, 5, 1, 2, 4))
    data = seeds.seed_to_json(S)
    assert len(data["vertices"]) == 5
    assert all(isinstance(v["label"], list) for v in data["vertices"])
    text = seeds.seed_to_dot(S)
    assert "digraph" in text


def test_seed_from_graph_traces_faces_once(monkeypatch):
    calls = []
    real_faces = plabic.faces

    def counting(G):
        calls.append(G)
        return real_faces(G)

    monkeypatch.setattr(plabic, "faces", counting)
    G = plabic.bridge_graph(3, 7, (3, 5, 7, 1, 2, 4, 6))
    S = seeds.seed_from_graph(G, "target")
    assert len(calls) == 1
    assert len(S.quiver.frozen) == 10
