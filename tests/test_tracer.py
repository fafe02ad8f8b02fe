"""The benchmark's tracer wraps the live package and puts it back.

``perfbench/spans.py`` replaces layer functions and the scipy entry points
``ldp.minimize``, ``mdp.minimize`` and ``mdp.linprog`` by attribute, so
each of those must stay a module-level binding that the layer calls.  They
are small functions that import scipy.optimize on their first call, so the
wrapped binding is what reaches scipy.
"""
import importlib.util
import warnings
from pathlib import Path

from strassen_lab import CostMatrix, Dist, RateQuery, ldp, mdp
from test_acceptance import THETA_INSTANCES

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_and_restore_on_live_package():
    spans = _spans()
    bound = {(ldp, "minimize"): ldp.minimize, (mdp, "minimize"): mdp.minimize,
             (mdp, "linprog"): mdp.linprog, (mdp, "theta"): mdp.theta}
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        for (owner, attr), fn in bound.items():
            assert getattr(owner, attr).__wrapped__ is fn
        # a face with four vertices runs the multistart ascent through
        # mdp.minimize, with no SLSQP and no LP
        c = CostMatrix.from_rows([[3, 1, 2, 2], [0, 1, 0, 1], [2, 0, 0, 1],
                                  [3, 3, 2, 1]])
        px = Dist.from_mass([1 / 6, 1 / 6, 1 / 6, 3 / 6])
        py = Dist.from_mass([1 / 6, 1 / 6, 2 / 6, 2 / 6])
        tracer.top("mdp_lower", "mdp.mdp_rate_lower", mdp.mdp_rate_lower,
                   px, py, c, -1.0, directions=16)
        tracer.top("mdp_upper", "mdp.mdp_rate_upper", mdp.mdp_rate_upper,
                   px, py, c, 1.0, directions=48)
    finally:
        restore()
    for (owner, attr), fn in bound.items():
        assert getattr(owner, attr) is fn
    metrics = tracer.layer_metrics()
    assert any(name == "mdp.minimize" for _, _, _, name, _, _ in tracer.spans)
    for kind in ("mdp_lower", "mdp_upper"):
        assert metrics[f"{kind}.mdp.slsqp.calls"] == 0
        assert metrics[f"{kind}.mdp.linprog.calls"] == 0


def test_rate_solvers_run_no_slsqp_and_warn_nothing():
    # the binary triple whose upper-tail rate stalled the old solver, and
    # the 3x3 instance at the kink where its lower-tail rate stalled
    spans = _spans()
    tracer = spans.Tracer()
    binary = RateQuery(Dist.bernoulli(0.1), Dist.bernoulli(0.5),
                       CostMatrix.hamming(2), 0.45)
    px, py, c = THETA_INSTANCES[2]
    theta = RateQuery(px, py, c, 0.05), RateQuery(px, py, c, 0.28)
    restore = spans.install(tracer)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for query in (binary, theta[0]):
                tracer.top("rate_f", "ldp.rate_f", ldp.rate_f, query)
            for query, grid in ((binary, 201), (theta[1], 4)):
                tracer.top("rate_g", "ldp.rate_g", ldp.rate_g, query, grid)
    finally:
        restore()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    metrics = tracer.layer_metrics()
    for kind in ("rate_f", "rate_g"):
        assert metrics[f"{kind}.ldp.slsqp.calls"] == 0
    assert not any(name == "ldp.minimize"
                   for _, _, _, name, _, _ in tracer.spans)
