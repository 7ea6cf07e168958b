"""Per-layer metrics from a traced run: calls, self time, errors and ratios.

Every count and time is per pass over the workload's item list.  A ratio
whose base is zero (the layer never ran on this workload) reads 0; its base
is always reported too, as the matching ``.calls`` metric.
"""

from collections import defaultdict

import oracles
from tracer import BATTERY, CERTIFY, CHARVAR, COMPONENTS, ITEM, MEMBER, SPAN_NAMES, enclosing, self_times

MALCEV = "lie.malcev_truncation"
MODP = "exact.linalg.rank_mod_p"
RATIONAL = "exact.linalg.rank_rational"


def _ratio(a, b):
    return a / b if b else 0.0


def _mask(rows):
    m = 0
    for r in rows:
        for i, x in enumerate(r):
            if x:
                m |= 1 << i
    return m


def implied_count(calls):
    """How many certify_subspace calls an earlier call of the same search implied.

    calls is the ordered list of (basis rows, accepted) of one
    resonance_components span.  A call is implied when its subspace lies in
    an already accepted one (acceptance is inherited by subspaces) or
    contains an already rejected one (rejection is inherited by
    superspaces).  A support bitmask and the dimension screen out most
    pairs before the exact span test.
    """
    accepted = []  # (mask, dim, echelon basis)
    rejected = []  # (mask, dim, rows)
    implied = 0
    for rows, ok in calls:
        mask, dim = _mask(rows), len(rows)
        own = None
        hit = any(
            (mask & ~m) == 0 and dim <= d and all(oracles.in_span(ech, r) for r in rows)
            for m, d, ech in accepted
        )
        if not hit:
            for m, d, rrows in rejected:
                if (m & ~mask) == 0 and d <= dim:
                    if own is None:
                        own = oracles.echelon(rows)
                    if all(oracles.in_span(own, r) for r in rrows):
                        hit = True
                        break
        if hit:
            implied += 1
        elif ok:
            accepted.append((mask, dim, own if own is not None else oracles.echelon(rows)))
        else:
            rejected.append((mask, dim, rows))
    return implied


def metrics(tracer, passes, untraced_s, traced_s):
    """(metrics, units, checks) for `passes` traced passes over the items."""
    spans = tracer.spans
    own = self_times(spans)
    calls = defaultdict(int)
    selfs = defaultdict(float)
    for (name, *_), s in zip(spans, own):
        calls[name] += 1
        selfs[name] += s
    errors = defaultdict(int)
    for idx in tracer.errors:
        errors[spans[idx][0]] += 1

    out, units = {}, {}

    def put(name, value, unit):
        out[name] = value
        units[name] = unit

    for name in SPAN_NAMES:
        put(name + ".calls", calls[name] / passes, "count")
        put(name + ".self_s", selfs[name] / passes, "s")
        put(name + ".errors", errors[name] / passes, "count")

    obs = tracer.observed
    by_name = defaultdict(list)
    for idx in sorted(obs):
        by_name[spans[idx][0]].append(idx)

    cert = by_name[CERTIFY]
    put(CERTIFY + ".accept_ratio", _ratio(sum(obs[i][1] for i in cert), len(cert)), "ratio")
    member = by_name[MEMBER]
    put(MEMBER + ".accept_ratio", _ratio(sum(obs[i] for i in member), len(member)), "ratio")
    searches = defaultdict(list)
    owner = enclosing(spans, COMPONENTS)
    for i in cert:
        searches[owner[i]].append(obs[i])
    implied = sum(implied_count(c) for c in searches.values())
    put(CERTIFY + ".implied_ratio", _ratio(implied, len(cert)), "ratio")
    comps = by_name[COMPONENTS]
    put(COMPONENTS + ".components", sum(obs[i][0] for i in comps) / passes, "count")
    put(COMPONENTS + ".uncertified", sum(obs[i][1] for i in comps) / passes, "count")
    put(CHARVAR + ".generators", sum(obs[i] for i in by_name[CHARVAR]) / passes, "count")

    under = enclosing(spans, MALCEV)
    in_malcev = defaultdict(int)
    for i, (name, *_rest) in enumerate(spans):
        if under[i] >= 0 and name in (MODP, RATIONAL):
            in_malcev[name] += 1
    put("lie.rank_fallback_ratio", _ratio(in_malcev[RATIONAL], in_malcev[MODP]), "ratio")

    item_s = sum(end - start for name, start, end, _, _ in spans if name == ITEM)
    put("linalg.rank_mod_p.share", _ratio(selfs[MODP], item_s), "ratio")
    put(
        BATTERY + ".inconclusive",
        sum(1 for i in by_name[BATTERY] if obs[i] == "inconclusive") / passes,
        "count",
    )
    put("trace.overhead_s", (traced_s - untraced_s) / passes, "s")
    put("trace.overhead_share", _ratio(traced_s - untraced_s, untraced_s), "ratio")

    # self times of an item's spans must add up to the item's wall time
    per_item = defaultdict(float)
    walls = {}
    for i, (name, start, end, _, item) in enumerate(spans):
        if name == ITEM:
            walls[i] = end - start
    root = enclosing(spans, ITEM)
    for i, s in enumerate(own):
        per_item[root[i]] += s
    worst = max((abs(per_item[i] - w) for i, w in walls.items()), default=0.0)
    checks = {
        "max_self_sum_error_s": worst,
        "spans": len(spans),
        "certify_calls": len(cert),
        "certify_implied": implied,
        "rank_mod_p_under_malcev": in_malcev[MODP],
        "rank_rational_under_malcev": in_malcev[RATIONAL],
        "item_traced_s": item_s,
    }
    return out, units, checks
