"""Tests of the benchmark's own reference computations and failure counting.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""
import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from strassen_lab import CostMatrix, Dist, direct_gn_oracle  # noqa: E402
from strassen_lab.ldp import rate_f_binary, rate_g_binary  # noqa: E402

HAMMING = CostMatrix.hamming(2)


@pytest.mark.parametrize("a,b", [(0.1, 0.5), (0.3, 0.8), (0.45, 0.45)])
def test_binary_bracket_matches_product_space_oracle(a, b):
    px, py = Dist.bernoulli(a), Dist.bernoulli(b)
    for n in range(1, 7):
        for alpha in (0.0, 0.2, 0.34, 0.5, 0.9):
            br = ref.binary_bracket(px.mass, py.mass, alpha, n)
            want = direct_gn_oracle(px, py, HAMMING, alpha, n)
            assert float(br["g_hi"] - br["g_lo"]) <= 1e-60
            assert abs(float(br["g_lo"]) - want) <= 1e-9
            assert abs(float(br["comp_lo"]) - (1.0 - want)) <= 1e-9


def _compositions(n, k):
    return [c for c in itertools.product(range(n + 1), repeat=k)
            if sum(c) == n]


@pytest.mark.parametrize("seed", [3, 4])
def test_outer_lp_matches_product_space_oracle(seed):
    rng = np.random.default_rng(seed)
    px, py = (Dist.from_mass(list(rng.dirichlet(np.ones(k)))) for k in (2, 3))
    carr = rng.integers(0, 101, size=(2, 3)) / 100.0
    cost = CostMatrix.from_rows(carr.tolist())
    for n in (1, 2, 3):
        cx = np.array(_compositions(n, 2))
        cy = np.array(_compositions(n, 3))
        inner = np.array([[ref.ot_lp(x / n, y / n, carr) for y in cy]
                          for x in cx])
        mu = np.exp(ref.type_log_masses(cx, px.mass))
        nu = np.exp(ref.type_log_masses(cy, py.mass))
        for alpha in np.linspace(0.0, carr.max(), 7):
            adm = inner <= alpha + ref.TIE_EPS
            got = ref.outer_g_lp(mu, nu, adm)
            want = direct_gn_oracle(px, py, cost, float(alpha), n)
            assert abs(got - want) <= 1e-8


@pytest.mark.parametrize("a,b,alpha", wl.RATE_TRIPLES)
def test_closed_forms_match_program_binary_rates(a, b, alpha):
    for mine, theirs in ((ref.rate_f_closed, rate_f_binary),
                         (ref.rate_g_closed, rate_g_binary)):
        got, want = mine(a, b, alpha), theirs(a, b, alpha)
        if math.isinf(want):
            assert math.isinf(got)
        else:
            assert abs(got - want) <= 1e-6


def test_mdp_binary_closed_values():
    assert ref.mdp_binary(0.1, 0.5, -1.0) == pytest.approx(12.5, rel=1e-12)
    assert ref.mdp_binary(0.1, 0.5, 1.0) == pytest.approx(0.78125, rel=1e-12)


def _returning(value):
    return lambda *args, **kwargs: value


def test_result_off_by_more_than_tolerance_is_a_failed_operation():
    tails = wl.BinaryTails(seed=0)
    px, py = Dist.bernoulli(0.1), Dist.bernoulli(0.5)
    br = ref.binary_bracket(px.mass, py.mass, 0.45, 200)
    g = float(br["g_lo"])
    rates = wl.RateSolvers(seed=0)
    want_f = ref.rate_f_closed(0.1, 0.5, 0.2)
    ops = [
        wl.Op("gn_tail", "x", _returning((g, 1.0 - g)), (),
              check=tails._checker(px, py, 0.45, 200)),
        wl.Op("gn_tail", "x", _returning((g * (1 + 1e-6), 1.0 - g)), (),
              check=tails._checker(px, py, 0.45, 200)),
        wl.Op("rate_f", "x", _returning(want_f + 5e-5), (),
              check=rates._closed(ref.rate_f_closed, 0.1, 0.5, 0.2)),
        wl.Op("rate_f", "x", _returning(want_f + 2e-4), (),
              check=rates._closed(ref.rate_f_closed, 0.1, 0.5, 0.2)),
        wl.Op("rate_f", "x", _returning(math.inf), (),
              check=rates._closed(ref.rate_f_closed, 0.1, 0.5, 0.2)),
    ]
    failed, cross, lines = run.check_passes(tails, [run.run_pass(ops)])
    assert failed == 3 and cross == [] and len(lines) == 3


def test_raising_call_is_a_failed_operation():
    def boom():
        raise ValueError("no")
    ops = [wl.Op("rate_f", "x", boom, ())]
    failed, _, lines = run.check_passes(wl.RateSolvers(seed=0),
                                        [run.run_pass(ops)])
    assert failed == 1 and "ValueError" in lines[0]


def test_benchmark_json_lists_every_per_layer_metric():
    import json
    from spans import per_layer_names
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_tracer_attributes_spans_to_their_top_level_kind():
    from spans import Tracer
    tracer = Tracer()
    leaf = tracer.wrap("flow.ssp", lambda: None)
    outer = tracer.wrap("transport.ot_value", lambda: (leaf(), leaf()))
    leaf()  # outside any top-level call: not recorded
    tracer.top("rate_f", "ldp.rate_f", outer)
    tracer.top("gn_cold", "lattice.gn_tails", leaf)
    tracer.count("rate_f", "ldp.stalls", 2)
    m = tracer.layer_metrics()
    assert m["rate_f.flow.ssp.calls"] == 2
    assert m["rate_f.transport.ot_value.calls"] == 1
    assert m["gn_cold.flow.ssp.calls"] == 1
    assert m["gn_tail.flow.ssp.calls"] == 0
    assert m["rate_f.ldp.stalls"] == 2
    assert 0.0 <= m["rate_f.ldp.rate_f.s"] <= m["rate_f.transport.ot_value.s"] + 1.0
    assert len(tracer.spans) == 6
