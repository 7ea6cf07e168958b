"""Independent oracles for the --json output of each workload item.

None of this imports jumploci.  The facts used:

* Papadima-Suciu (Math. Ann. 2006): for the right-angled Artin group of a
  graph G, the components of R^1_1 are the coordinate subspaces C^W for the
  maximal vertex sets W whose induced subgraph is disconnected, and the
  lower-central-series ranks phi_k satisfy prod_k (1 - t^k)^phi_k = P_G(-t),
  with P_G(t) = sum over cliques C of t^|C| the clique polynomial.
* Labute (1970): for the one-relator surface group Sigma_g the same product
  equals 1 - 2g t + t^2.
* A RAAG is a product of free groups (the fundamental group of a
  quasi-projective variety) exactly when G is complete multipartite, i.e.
  its complement is a disjoint union of cliques.
* The first Betti number of a Z/N cover is the sum of the dimensions of
  H^1 over the N characters of order dividing N.
"""

import itertools
import json
from fractions import Fraction

# -- small exact linear algebra --------------------------------------------


def echelon(rows):
    """Reduced echelon basis of the span of rows, as a list of (pivot, row)."""
    basis = []
    for r in rows:
        v = reduce(basis, r)
        p = next((i for i, x in enumerate(v) if x), None)
        if p is None:
            continue
        v = [x / v[p] for x in v]
        basis = [(q, [a - b[p] * c for a, c in zip(b, v)]) for q, b in basis]
        basis.append((p, v))
    return basis


def reduce(basis, row):
    v = [Fraction(x) for x in row]
    for p, b in basis:
        if v[p]:
            c = v[p]
            v = [x - c * y for x, y in zip(v, b)]
    return v


def in_span(basis, row):
    return not any(reduce(basis, row))


def rank(rows):
    return len(echelon(rows))


# -- graphs ----------------------------------------------------------------


def _adjacency(n, edges):
    adj = [set() for _ in range(n)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def _connected(vertices, adj):
    vertices = set(vertices)
    start = next(iter(vertices))
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in adj[v] & vertices:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == vertices


def raag_resonance_components(n, edges):
    """Maximal W with G[W] disconnected, as sorted coordinate tuples."""
    adj = _adjacency(n, edges)
    good = [
        set(w)
        for r in range(2, n + 1)
        for w in itertools.combinations(range(n), r)
        if not _connected(w, adj)
    ]
    return {tuple(sorted(w)) for w in good if not any(w < u for u in good)}


def complement_path(n, edges):
    """None if G is complete multipartite, else an induced path u-v-w of the
    complement (u, v and v, w non-adjacent in G, u, w adjacent in G)."""
    adj = _adjacency(n, edges)
    for v in range(n):
        for u, w in itertools.combinations(range(n), 2):
            if v in (u, w):
                continue
            if v not in adj[u] and v not in adj[w] and w in adj[u]:
                return (u, v, w)
    return None


def clique_polynomial(n, edges):
    """Coefficients c_j of P_G(t) = sum_j c_j t^j (c_j = number of j-cliques)."""
    adj = _adjacency(n, edges)
    coeffs = [1]
    for r in range(1, n + 1):
        c = sum(
            1
            for w in itertools.combinations(range(n), r)
            if all(b in adj[a] for a, b in itertools.combinations(w, 2))
        )
        if not c:
            break
        coeffs.append(c)
    return coeffs


# -- lower central series ranks ---------------------------------------------


def _poly_mul(a, b, degree):
    out = [0] * (degree + 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b[: degree + 1 - i]):
                out[i + j] += x * y
    return out


def lcs_ranks(series, degree):
    """phi_1..phi_degree with prod_k (1 - t^k)^phi_k = series (mod t^(degree+1)).

    series is the coefficient list of the right-hand side, constant term 1.
    At degree n only (1 - t^n)^phi_n contributes -phi_n t^n beyond the
    product of the lower factors, which gives phi_n directly.
    """
    target = list(series) + [0] * (degree + 1)
    prod = [1] + [0] * degree
    phis = []
    for n in range(1, degree + 1):
        phi = prod[n] - target[n]
        if phi < 0:
            raise ValueError("negative rank %d in degree %d" % (phi, n))
        phis.append(phi)
        factor = [0] * (degree + 1)
        for j in range(0, degree // n + 1):
            # binomial coefficient of (1 - t^n)^phi at t^(n j)
            factor[n * j] = (-1) ** j * _binom(phi, j)
        prod = _poly_mul(prod, factor, degree)
    return phis


def _binom(a, b):
    out = 1
    for i in range(b):
        out = out * (a - i) // (i + 1)
    return out


def raag_lcs_ranks(n, edges, degree):
    p = clique_polynomial(n, edges)
    return lcs_ranks([(-1) ** j * c for j, c in enumerate(p)], degree)


def surface_lcs_ranks(genus, degree):
    return lcs_ranks([1, -2 * genus, 1], degree)


# -- item checks ------------------------------------------------------------


def _component_supports(components, n):
    """Supports of the certified components, if each is a coordinate subspace."""
    supports = set()
    problems = []
    for comp in components:
        if not comp.get("certified"):
            problems.append("uncertified component %s" % (comp.get("basis"),))
            continue
        rows = comp["basis"]
        support = tuple(sorted({i for r in rows for i, x in enumerate(r) if x}))
        if len(rows) != len(support) or rank(rows) != len(support) or any(
            len(r) != n for r in rows
        ):
            problems.append("component %s is not a coordinate subspace" % (rows,))
            continue
        supports.add(support)
    return supports, problems


def _swallowed_errors(payload):
    problems = []
    for c in payload.get("checks", []):
        ev = c.get("evidence")
        if isinstance(ev, dict) and "error" in ev:
            problems.append("check %s swallowed an exception: %s" % (c["name"], ev["error"]))
    return problems


def check_raag_obstruct(payload, n, edges):
    problems = _swallowed_errors(payload)
    expected = raag_resonance_components(n, edges)
    supports, bad = _component_supports(payload["components"], n)
    problems += bad
    if supports != expected:
        problems.append(
            "resonance components %s, expected %s" % (sorted(supports), sorted(expected))
        )
    multipartite = complement_path(n, edges) is None
    if (payload["overall"] == "fail") == multipartite:
        problems.append(
            "overall %s for a graph that is%s complete multipartite"
            % (payload["overall"], "" if multipartite else " not")
        )
    raag = [c for c in payload["checks"] if c["name"] == "raag_classification"]
    if len(raag) != 1 or (raag[0]["verdict"] == "pass") != multipartite:
        problems.append("raag_classification disagrees with the graph")
    return problems


def check_expect_pass(payload):
    problems = _swallowed_errors(payload)
    if payload["overall"] != "pass":
        problems.append("overall %s, expected pass" % payload["overall"])
    return problems


def _check_dims(payload, degree, expected):
    if payload["truncation_degree"] != degree or payload["graded_dims"] != expected:
        return [
            "graded_dims %s to degree %s, expected %s to degree %d"
            % (payload["graded_dims"], payload["truncation_degree"], expected, degree)
        ]
    return []


def check_item(oracle, rc, stdout):
    """Problems with one item's output; an empty list means it is correct."""
    if rc != 0:
        return ["exit code %r" % (rc,)]
    try:
        payload = json.loads(stdout)
    except ValueError as exc:
        return ["output is not JSON: %s" % exc]
    kind = oracle["kind"]
    try:
        if kind == "raag_obstruct":
            return check_raag_obstruct(payload, oracle["n"], oracle["edges"])
        if kind == "expect_pass":
            return check_expect_pass(payload)
        if kind == "runs":
            return _swallowed_errors(payload)
        if kind == "lcs_raag":
            d = oracle["degree"]
            return _check_dims(payload, d, raag_lcs_ranks(oracle["n"], oracle["edges"], d))
        if kind == "lcs_surface":
            d = oracle["degree"]
            return _check_dims(payload, d, surface_lcs_ranks(oracle["genus"], d))
        if kind == "lcs_heisenberg":
            d = oracle["degree"]
            problems = _check_dims(payload, d, [2, 1] + [0] * (d - 2))
            proj = payload["morgan"].get("projective") or {}
            if proj.get("passed") is not False or proj.get("witness") != ["relation", 3]:
                problems.append("projective Morgan verdict %s, expected witness relation 3" % proj)
            return problems
        if kind == "cover":
            dec = payload["character_decomposition"]
            if len(dec) != oracle["order"] or payload["cover_b1"] != sum(dec):
                return [
                    "cover_b1 %s but the %d characters sum to %s"
                    % (payload["cover_b1"], len(dec), sum(dec))
                ]
            return []
    except (KeyError, TypeError, IndexError) as exc:
        return ["malformed payload: %r" % (exc,)]
    raise ValueError("unknown oracle kind %r" % kind)
