"""Self-test of the benchmark: oracles, input generation, tracing, results.

    python3 -m pytest -q perfbench/tests
"""

import math
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import inputs  # noqa: E402
import layers  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
from tracer import ITEM, Tracer, enclosing, self_times  # noqa: E402


def test_raag_lcs_ranks_of_the_hexagon():
    assert oracles.raag_lcs_ranks(6, inputs.cycle_edges(6), 4) == [6, 9, 34, 120]


def test_surface_lcs_ranks_of_genus_two():
    assert oracles.surface_lcs_ranks(2, 5) == [4, 5, 16, 45, 144]


def test_free_and_abelian_lcs_ranks():
    # F_2: Witt's formula; Z^3: nothing above degree one
    assert oracles.raag_lcs_ranks(2, [], 5) == [2, 1, 2, 3, 6]
    assert oracles.raag_lcs_ranks(3, [(0, 1), (0, 2), (1, 2)], 4) == [3, 0, 0, 0]


def test_path_p4_fails_with_a_complement_path():
    edges = inputs.path_edges(4)
    u, v, w = oracles.complement_path(4, edges)
    adj = {frozenset(e) for e in edges}
    assert frozenset((u, v)) not in adj and frozenset((v, w)) not in adj
    assert frozenset((u, w)) in adj
    payload = {
        "overall": "pass",
        "components": [],
        "checks": [{"name": "raag_classification", "verdict": "pass", "evidence": {}}],
    }
    problems = oracles.check_raag_obstruct(payload, 4, edges)
    assert any("not complete multipartite" in p for p in problems)


def test_complete_multipartite_has_no_complement_path():
    assert oracles.complement_path(4, inputs.bipartite_edges(2, 2)) is None
    assert oracles.complement_path(3, []) is None


def test_raag_resonance_components_of_the_square():
    assert oracles.raag_resonance_components(4, inputs.cycle_edges(4)) == {(0, 2), (1, 3)}


def test_cover_oracle_compares_b1_with_the_character_sum():
    good = '{"order": 3, "cover_b1": 4, "character_decomposition": [2, 1, 1]}'
    bad = '{"order": 3, "cover_b1": 5, "character_decomposition": [2, 1, 1]}'
    oracle = {"kind": "cover", "order": 3}
    assert oracles.check_item(oracle, 0, good) == []
    assert oracles.check_item(oracle, 0, bad)
    assert oracles.check_item(dict(oracle, order=4), 0, good)
    assert oracles.check_item(oracle, 2, good) == ["exit code 2"]


def test_swallowed_exception_fails_an_item():
    payload = '{"overall": "pass", "checks": [{"name": "tangent_cone", "verdict": "inconclusive", "evidence": {"error": "boom"}}]}'
    assert oracles.check_item({"kind": "expect_pass"}, 0, payload)


def test_inputs_depend_only_on_the_seed():
    for name in inputs.WORKLOADS:
        assert inputs.make_items(name, 5) == inputs.make_items(name, 5)
        assert inputs.make_items(name, 5) != inputs.make_items(name, 6)


def test_workload_sizes_and_cover_maps_are_onto():
    assert len(inputs.graph_classes(5)) == 34
    assert len(inputs.dense6_classes()) == 9
    for it in inputs.make_items("cover_oracle", 3):
        argv = it["argv"]
        order = int(argv[argv.index("--order") + 1])
        phi = [int(x) for x in next(a for a in argv if a.startswith("--phi=")).split("=")[1].split(",")]
        assert 16 <= order <= 96
        assert math.gcd(order, *phi) == 1


P4_RAAG = "gens: a b c d\nrels:\n[a,b]\n[b,c]\n[c,d]\n"


def test_calls_through_from_imports_are_traced():
    run.load_program()
    import jumploci.obstructions as obstructions
    from jumploci.magnus import cup_tensor
    from jumploci.presentations import parse_presentation
    from jumploci.resonance import ResonanceLocus, SamplerConfig

    pres = parse_presentation(P4_RAAG)
    cup = cup_tensor(pres)
    locus = ResonanceLocus(k=1, b1=cup.b1, cup=cup)
    original = obstructions.resonance_components
    tracer = Tracer()
    with tracer:
        assert obstructions.resonance_components is not original
        with tracer.item("p4"):
            obstructions.resonance_components(locus, SamplerConfig())
            obstructions.check_morgan(pres, "quasiprojective", degree=4)
    assert obstructions.resonance_components is original
    spans = tracer.spans
    names = [s[0] for s in spans]
    assert names[0] == ITEM
    # obstructions binds resonance_components by from-import
    assert names[1] == "resonance.resonance_components"
    # resonance binds rank_mod_p by from-import; lie imports it lazily
    under_rc = enclosing(spans, "resonance.resonance_components")
    under_lie = enclosing(spans, "lie.malcev_truncation")
    modp = [i for i, n in enumerate(names) if n == "exact.linalg.rank_mod_p"]
    assert any(under_rc[i] >= 0 for i in modp)
    assert any(under_lie[i] >= 0 for i in modp)


def test_self_times_add_up_to_the_item():
    cli = run.load_program()
    tracer = Tracer()
    item = {"id": "z2", "argv": ["--help"]}
    with tracer:
        rc, _, _, wall = run.run_item(cli, item, tracer)
    assert rc == 0
    assert abs(sum(self_times(tracer.spans)) - wall) < 1e-9
    assert [s[0] for s in tracer.spans] == [ITEM, "cli.main"]


def test_implied_certifications():
    e = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    calls = [
        ((tuple(e[0]), tuple(e[1])), True),
        ((tuple(e[0]),), True),  # inside an accepted plane
        ((tuple(e[2]),), False),
        ((tuple(e[1]), tuple(e[2])), False),  # contains a rejected line
        ((tuple(e[1]), (1, 0, 1)), False),  # neither
    ]
    assert layers.implied_count(calls) == 2


def test_tail_has_ten_samples_beyond_it():
    xs = [float(i) for i in range(1, 41)]
    assert run.tail(xs, 40) == (30.0, 75.0, 40)
    # more passes keep the percentile and leave more than ten beyond it
    assert run.tail(xs + xs, 40) == (30.0, 75.0, 80)


def test_results_record_the_environment():
    run.load_program()
    env = run.environment()
    assert env["python"].count(".") == 2
    assert isinstance(env["HAVE_COMPILED_KERNEL"], bool)
    assert env["nproc"] >= 1


def test_a_run_over_its_budget_exits_without_a_result(capsys, monkeypatch):
    monkeypatch.setattr(run, "RUN_BUDGET_S", 1)
    assert run.main(["--workload", "obstruct_dense6", "--seed", "1", "--seconds", "0"]) == 3
    assert '"correct"' not in capsys.readouterr().out


def test_malcev_oracle_checks_the_requested_degree():
    oracle = {"kind": "lcs_surface", "genus": 2, "degree": 5}
    full = '{"truncation_degree": 5, "graded_dims": [4, 5, 16, 45, 144]}'
    short = '{"truncation_degree": 4, "graded_dims": [4, 5, 16, 45]}'
    assert oracles.check_item(oracle, 0, full) == []
    assert oracles.check_item(oracle, 0, short)
