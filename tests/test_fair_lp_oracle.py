"""The closed-form fair LP against ``scipy.optimize.linprog`` (HiGHS).

The oracle states the LP over doubly stochastic matrices literally: n*n
entries of P plus the slack xi, unit row and column sums, and the one
group-exposure constraint.  scipy is needed only here.
"""
import numpy as np
import pytest

from fairltr import baselines, fairness, metrics

optimize = pytest.importorskip("scipy.optimize")

LAMBDAS = (0.0, 0.01, 0.05, 0.2, 1.0, 5.0)
SIZES = (1, 2, 5, 10, 30)


def lp_data(r_hat, groups, lam, merit=fairness.MeritFunction()):
    """Normalized gains w, constraint vector a (zero when unconstrained)
    and position bias v of the instance."""
    n = len(r_hat)
    v = metrics.position_bias_vector(n)
    scale = metrics.ideal_dcg(r_hat)
    w = metrics.gains(r_hat) / (scale if scale > 0.0 else 1.0)
    a = np.zeros(n)
    if groups is not None and lam > 0.0:
        g = np.asarray(groups)
        merits = merit(np.maximum(r_hat, 0.0))
        a = fairness.group_rows(merits, g) \
            * (merits[g == 0].sum() + merits[g == 1].sum()) / v.sum()
    return w, a, v


def highs_objective(r_hat, groups, lam):
    w, a, v = lp_data(r_hat, groups, lam)
    n = len(r_hat)
    c = np.append(-np.outer(w, v).ravel(), lam)
    A_eq = np.zeros((2 * n, n * n + 1))
    for i in range(n):
        A_eq[i, i * n:(i + 1) * n] = 1.0
        A_eq[n + i, i:n * n:n] = 1.0
    A_ub = np.append(np.outer(a, v).ravel(), -1.0)[None, :]
    res = optimize.linprog(c, A_ub=A_ub, b_ub=[0.0], A_eq=A_eq,
                           b_eq=np.ones(2 * n),
                           bounds=[(0.0, 1.0)] * (n * n) + [(0.0, None)],
                           method="highs")
    assert res.status == 0, res.message
    return -res.fun


def check_solution(res, r_hat, groups, lam):
    """Feasibility, and that the reported objective is the solution's; a
    lone ranking is padded with a weight-0 copy of itself."""
    w, a, _ = lp_data(r_hat, groups, lam)
    n = len(r_hat)
    assert res.orders.shape == (2, n) and res.weights.shape == (2,)
    if res.weights[1] == 0.0:
        assert res.weights[0] == 1.0 and (res.orders[0] == res.orders[1]).all()
    for order in res.orders:
        assert sorted(order.tolist()) == list(range(n))
    assert (res.weights >= 0.0).all()
    assert res.weights.sum() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(
        res.exposures, res.weights @ fairness.ranking_exposures(res.orders),
        rtol=0.0, atol=1e-12)
    assert res.xi >= 0.0
    assert a @ res.exposures <= res.xi + 1e-12
    assert res.objective == pytest.approx(w @ res.exposures - lam * res.xi,
                                          abs=1e-12)


def knots(r_hat, groups):
    """Multipliers in (0, 5] where two entries of w - mu*a swap."""
    w, a, _ = lp_data(r_hat, groups, 1.0)
    i, j = np.triu_indices(len(r_hat), 1)
    cross = a[i] != a[j]
    mu = (w[i] - w[j])[cross] / (a[i] - a[j])[cross]
    return sorted(set(mu[(mu > 0.0) & (mu <= 5.0)].tolist()))


def instances():
    rng = np.random.default_rng(0)
    for n in SIZES:
        for k in range(4):
            groups = rng.integers(0, 2, size=n)
            if n > 1:
                groups[:2] = [0, 1]
            r_hat = rng.normal(1.0, 1.0, size=n)
            yield "random", r_hat, groups, LAMBDAS
            tied = np.round(r_hat)
            yield "ties", tied, groups, LAMBDAS
            # Half-integer estimates repeat the same knot over several
            # pairs; lambda placed on a knot and between two knots.
            halves = np.round(2.0 * np.abs(r_hat)) / 2.0
            at = knots(halves, groups)[:3]
            between = [(x + y) / 2.0 for x, y in zip(at, at[1:])]
            yield "knot", halves, groups, (0.0, *at, *between)


@pytest.mark.parametrize("kind", ["random", "ties", "knot"])
def test_closed_form_is_never_below_highs(kind):
    solved = 0
    for name, r_hat, groups, lambdas in instances():
        if name != kind:
            continue
        for lam in lambdas:
            res = baselines.solve_fair_lp(r_hat, groups, lam)
            check_solution(res, r_hat, groups, lam)
            assert res.objective >= highs_objective(r_hat, groups, lam) - 1e-9
            if lam == 0.0:
                assert res.orders.tolist() == [
                    np.argsort(-r_hat, kind="stable").tolist()] * 2
            solved += 1
    assert solved >= 60


def test_a_block_of_queries_is_never_below_highs():
    """Each size's random and tied instances solved as one ``(Q, n)``
    block at every weight, its queries with different numbers of knots:
    every query's optimum is feasible, reports its own objective and is
    never below HiGHS."""
    by_size = {}
    for name, r_hat, groups, _ in instances():
        if name != "knot":
            by_size.setdefault(len(r_hat), []).append((r_hat, groups))
    multi = 0
    for n, block in by_size.items():
        estimates = np.array([r_hat for r_hat, _ in block])
        groups = np.array([g for _, g in block])
        counts = {len(knots(r_hat, g)) for r_hat, g in block}
        multi += len(counts) > 1
        res = baselines.solve_fair_lp_grid(estimates, groups, LAMBDAS)
        assert res.orders.shape == (len(LAMBDAS), len(block), 2, n)
        for l, lam in enumerate(LAMBDAS):
            for q, (r_hat, g) in enumerate(block):
                one = baselines.FairLPResult(*(value[l, q] for value in vars(res).values()))
                check_solution(one, r_hat, g, lam)
                assert one.objective >= highs_objective(r_hat, g, lam) - 1e-9
    assert multi >= 3


@pytest.mark.parametrize("case", [
    "all-zero", "single-group", "tied-mean-merits", "no-groups"])
def test_degenerate_instances_sort_by_estimate(case):
    r_hat = np.array([0.5, 2.0, 1.0, 2.0, 0.0, 1.5])
    groups = np.array([0, 1, 0, 1, 1, 0])
    if case == "all-zero":
        r_hat = np.zeros(6)
    elif case == "single-group":
        groups = np.zeros(6, dtype=int)
    elif case == "tied-mean-merits":
        r_hat = np.array([1.0, 2.0, 3.0, 3.0, 2.0, 1.0])
        groups = np.array([0, 0, 0, 1, 1, 1])
    elif case == "no-groups":
        groups = None
    for lam in LAMBDAS:
        res = baselines.solve_fair_lp(r_hat, groups, lam)
        check_solution(res, r_hat, groups, lam)
        assert res.orders.tolist() == [np.argsort(-r_hat, kind="stable").tolist()] * 2
        assert res.weights.tolist() == [1.0, 0.0]
        assert res.xi == 0.0
        assert res.objective == pytest.approx(
            highs_objective(r_hat, groups, lam), abs=1e-9)


def test_slack_then_mixture_along_lambda():
    """The higher-merit group sorts on top and is over-exposed per merit.  A
    small lambda keeps one ranking and pays the slack; a larger one mixes
    two rankings with zero slack and the constraint met with equality."""
    r_hat = np.array([2.0, 1.9, 1.8, 1.7, 1.6, 1.5])
    groups = np.array([0, 0, 0, 1, 1, 1])
    cases = set()
    for lam in np.linspace(0.01, 5.0, 60):
        res = baselines.solve_fair_lp(r_hat, groups, lam)
        _, a, _ = lp_data(r_hat, groups, lam)
        if res.weights[1] == 0.0:
            assert res.xi > 0.0
            assert res.xi == pytest.approx(a @ res.exposures, abs=1e-15)
            cases.add("slack")
        else:
            assert res.xi == 0.0
            assert a @ res.exposures == pytest.approx(0.0, abs=1e-12)
            assert 0.0 < res.weights[0] < 1.0
            cases.add("mixture")
    assert cases == {"slack", "mixture"}
