"""Seeded input generation for the four workloads.

Everything here is a pure function of the seed: the same seed gives the
same files, byte for byte.  Each item is a dict with

    id      short stable name, also the stem of its input file
    files   {file name: text} to write into the work directory
    argv    the jumploci command line, naming only those files
    oracle  what oracles.check_item needs to judge the --json output
    warmup  a cheap item of the same shape (command, flags, generator
            count), run during set-up; items sharing a shape share it

The program only ever sees the generated files.  The isomorphism-class
tables do not depend on the seed and are computed once per process.
"""

import itertools
import random
from functools import lru_cache

DEFAULT_SEED = 20261017

HEISENBERG = "gens: x y z\nrels:\n[x,y] z^-1\n[x,z]\n[y,z]\n"


def _canonical(edges, perms):
    """The least relabelled edge list: one key per isomorphism class."""
    return min(tuple(sorted(tuple(sorted((p[a], p[b]))) for a, b in edges)) for p in perms)


@lru_cache(maxsize=None)
def graph_classes(n):
    """Canonical edge lists of the isomorphism classes of n-vertex graphs."""
    pairs = list(itertools.combinations(range(n), 2))
    perms = list(itertools.permutations(range(n)))
    classes = {
        _canonical([pairs[i] for i in range(len(pairs)) if mask >> i & 1], perms)
        for mask in range(1 << len(pairs))
    }
    return sorted(classes, key=lambda e: (len(e), e))


@lru_cache(maxsize=None)
def dense6_classes():
    """Six-vertex graphs whose complement has at most three edges, up to iso.

    Returned as edge lists of the graphs themselves (K6, K6-e, ..., K2,2,2).
    """
    pairs = list(itertools.combinations(range(6), 2))
    perms = list(itertools.permutations(range(6)))
    complements = {
        _canonical(comp, perms) for r in range(4) for comp in itertools.combinations(pairs, r)
    }
    return [
        tuple(e for e in pairs if e not in set(comp))
        for comp in sorted(complements, key=lambda e: (len(e), e))
    ]


def path_edges(n):
    return tuple((i, i + 1) for i in range(n - 1))


def cycle_edges(n):
    return path_edges(n) + ((0, n - 1),)


def bipartite_edges(a, b):
    return tuple((i, a + j) for i in range(a) for j in range(b))


def relabel(n, edges, rng, prefix="v"):
    """Seeded vertex names for a graph on vertices 0..n-1.

    Vertex i is listed i-th under a name drawn by the seed, so coordinate i
    of the RAAG is still vertex i: every seed gives a different file for the
    same labelled graph and the same amount of work.  (Permuting the
    coordinates instead moves the resonance search's random samples and
    changes its work by up to a factor of 1.7 on one graph.)
    Returns (vertex names in listing order, named edges).
    """
    names = ["%s%d" % (prefix, i) for i in range(n)]
    rng.shuffle(names)
    return names, [(names[a], names[b]) for a, b in edges]


def graph_text(names, named_edges):
    lines = ["vertices: " + " ".join(names), "edges:"]
    lines += ["%s %s" % e for e in named_edges]
    return "\n".join(lines) + "\n"


def raag_text(names, named_edges):
    lines = ["gens: " + " ".join(names), "rels:"]
    lines += ["[%s,%s]" % e for e in named_edges]
    return "\n".join(lines) + "\n"


def surface_text(genus):
    gens = " ".join("a%d b%d" % (i, i) for i in range(1, genus + 1))
    rel = " ".join("[a%d,b%d]" % (i, i) for i in range(1, genus + 1))
    return "gens: %s\nrels:\n%s\n" % (gens, rel)


def free_text(rank):
    return "gens: %s\nrels:\n" % " ".join("x%d" % i for i in range(1, rank + 1))


def _command(head, fname, tail):
    where = ["--graph", fname] if fname.endswith(".graph") else [fname]
    return list(head) + where + list(tail)


def _item(fname, text, head, tail, oracle, warmup):
    """A timed item: the CLI command `head FILE tail` on one generated file."""
    return {
        "id": fname.rsplit(".", 1)[0],
        "files": {fname: text},
        "argv": _command(head, fname, tail),
        "oracle": oracle,
        "warmup": warmup,
    }


def _warmup(fname, text, head, tail):
    """A cheap item of the same shape (command, flags, generator count)."""
    fname = "warm_" + fname
    return {
        "id": fname.replace(".", "_"),
        "files": {fname: text},
        "argv": _command(head, fname, tail),
        "oracle": {"kind": "runs"},
    }


def _names(n):
    return ["v%d" % i for i in range(n)]


OBSTRUCT_QP = ["--class", "quasiprojective", "--json"]


def _graph_item(item_id, n, edges, rng):
    names, named = relabel(n, edges, rng)
    return _item(
        item_id + ".graph",
        graph_text(names, named),
        ["obstruct"],
        OBSTRUCT_QP,
        {"kind": "raag_obstruct", "n": n, "edges": [list(e) for e in edges]},
        _warmup("edgeless%d.graph" % n, graph_text(_names(n), []), ["obstruct"], OBSTRUCT_QP),
    )


def _pres_obstruct_item(item_id, text, klass, ngens):
    tail = ["--class", klass, "--json"]
    return _item(
        item_id + ".pres",
        text,
        ["obstruct"],
        tail,
        {"kind": "expect_pass"},
        _warmup("free%d.pres" % ngens, free_text(ngens), ["obstruct"], tail),
    )


def obstruct_raag5(rng):
    items = [
        _graph_item("g5_%02d" % i, 5, edges, rng)
        for i, edges in enumerate(graph_classes(5))
    ]
    items.append(_pres_obstruct_item("sigma2", surface_text(2), "projective", 4))
    items.append(_pres_obstruct_item("sigma3", surface_text(3), "projective", 6))
    items.append(_pres_obstruct_item("free4", free_text(4), "quasiprojective", 4))
    return items


def obstruct_dense6(rng):
    return [
        _graph_item("d6_%d" % i, 6, edges, rng)
        for i, edges in enumerate(dense6_classes())
    ]


def _malcev_item(item_id, text, degree, oracle, ngens):
    # the free abelian group of the same rank fills the Lie basis caches
    # for this (rank, degree) cheaply
    tail = ["--degree", str(degree), "--json"]
    full = list(itertools.combinations(_names(ngens), 2))
    warm = _warmup("abelian%d.pres" % ngens, raag_text(_names(ngens), full), ["malcev"], tail)
    return _item(item_id + ".pres", text, ["malcev"], tail, oracle, warm)


# Edge counts at the octiles of Binomial(15, 1/2), the edge count of
# G(6, 1/2); the graphs are drawn as complementary pairs (5, 10), (6, 9),
# (7, 8), (7, 8).
MALCEV_EDGE_COUNTS = (5, 6, 7, 7)


def malcev_lcs(rng):
    """Seeded G(6, 1/2) RAAGs at degree 4, plus Sigma_2, Sigma_3, Heisenberg.

    The random graphs are a stratified sample of G(6, 1/2): one graph per
    octile of its edge count, uniform among labelled graphs with that many
    edges.  With freely drawn graphs the median item moved by about 30%
    from one seed to the next; with the strata fixed only the shape of each
    graph varies.
    """
    pairs_all = list(itertools.combinations(range(6), 2))
    items = []
    for i, m in enumerate(MALCEV_EDGE_COUNTS):
        edges = tuple(sorted(rng.sample(pairs_all, m)))
        comp = tuple(e for e in pairs_all if e not in edges)
        for tag, es in (("a", edges), ("b", comp)):
            names, named = relabel(6, es, rng)
            items.append(
                _malcev_item(
                    "m6_%d%s" % (i, tag),
                    raag_text(names, named),
                    4,
                    {"kind": "lcs_raag", "n": 6, "edges": [list(e) for e in es], "degree": 4},
                    6,
                )
            )
    for item_id, text, degree, oracle, ngens in (
        ("sigma2", surface_text(2), 5, {"kind": "lcs_surface", "genus": 2}, 4),
        ("sigma3", surface_text(3), 4, {"kind": "lcs_surface", "genus": 3}, 6),
        ("heisenberg", HEISENBERG, 5, {"kind": "lcs_heisenberg"}, 3),
    ):
        items.append(_malcev_item(item_id, text, degree, dict(oracle, degree=degree), ngens))
    return items


COVER_BASES = (
    ("c6", 6, cycle_edges(6)),
    ("p7", 7, path_edges(7)),
    ("k33", 6, bipartite_edges(3, 3)),
)
# One order per band: the bands spread over 16..96 and are narrow, because
# a cover's cost grows with the cube of N and the spread of N would
# otherwise swamp every timing.  Each RAAG takes PHI_DRAWS maps per band:
# the cost of one cover moves by about 10% with phi, and more draws keep
# the sum and the percentiles of a pass close from seed to seed.
COVER_ORDER_BANDS = ((17, 19), (41, 43), (65, 67), (89, 91))
PHI_DRAWS = 2


def small_phi(ngens, rng):
    """A seeded phi: Z^ngens -> Z/N with entries in {-1, 0, 1}, not all 0.

    A +-1 entry makes phi onto for every N.  Entries drawn from all of Z/N
    are not used: with some of them (c6 at N = 88, phi = 17,72,8,32,15,63)
    the Smith form of the cover runs for minutes and grows past 1.9 GB.
    """
    while True:
        phi = [rng.randrange(-1, 2) for _ in range(ngens)]
        if any(phi):
            return phi


def cover_oracle(rng):
    bases = []
    for tag, n, edges in COVER_BASES:
        names, named = relabel(n, edges, rng)
        bases.append((tag, n, raag_text(names, named), PHI_DRAWS))
    bases.append(("sigma2", 4, surface_text(2), 1))
    bases.append(("sigma3", 6, surface_text(3), 1))
    items = []
    for tag, ngens, text, draws in bases:
        unit = ",".join(["1"] + ["0"] * (ngens - 1))
        warm = _warmup(
            "free%d.pres" % ngens,
            free_text(ngens),
            ["cover"],
            ["--phi=" + unit, "--order", str(COVER_ORDER_BANDS[0][0]), "--json"],
        )
        for lo, hi in COVER_ORDER_BANDS:
            for draw in range(draws):
                order = rng.randint(lo, hi)
                phi = small_phi(ngens, rng)
                # --phi=... because argparse takes a separate "-1,0" for an option
                tail = ["--phi=" + ",".join(map(str, phi)), "--order", str(order), "--json"]
                fname = "%s_n%d_%d.pres" % (tag, order, draw)
                oracle = {"kind": "cover", "order": order}
                items.append(_item(fname, text, ["cover"], tail, oracle, warm))
    return items


# workload -> (item generator, fewest passes of an untraced run).  The pass
# count fixes the sample count, and with it the percentile that
# item_tail_s reports, so the budget of a run cannot move it.
WORKLOADS = {
    "obstruct_raag5": (obstruct_raag5, 1),
    "obstruct_dense6": (obstruct_dense6, 2),
    "malcev_lcs": (malcev_lcs, 2),
    "cover_oracle": (cover_oracle, 1),
}


def make_items(workload, seed):
    """The ordered item list of a workload for one seed."""
    rng = random.Random("%s/%d" % (workload, seed))
    return WORKLOADS[workload][0](rng)
