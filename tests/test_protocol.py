"""The smoothed-density protocol every denoiser implements.

IsoMixture knows the density of Y = X + N(0, sigma^2 I) in
closed form; an EnergyNet learns phi = -log f_Y at one scale.  Consumers
(the attack, the sampler) rely only on the methods checked here: the three
density methods and linearize, which gives the denoised point and the
denoiser's transpose-Jacobian action from one pass; that vjp is the only
route to the score's Jacobian.  Every method takes a batch (n, d) of points
and rejects a single point (d,).  Identity, the denoiser of plain
smoothing, has only bayes_estimate and linearize.
"""

import numpy as np
import pytest

from ebsmooth.densities import Identity, IsoMixture
from ebsmooth.energy import EnergyNet
from ebsmooth.stats import rng_stream

SIGMA = 0.6
MODELS = {
    "gaussian": lambda: IsoMixture(means=np.array([[0.5, -1.0, 0.2]]), sigma0=0.8),
    "mixture": lambda: IsoMixture(
        means=np.array([[1.0, 0.0, -1.0], [-0.5, 1.0, 0.5], [0.0, 0.0, 2.0]]),
        sigma0=0.7, weights=np.array([0.2, 0.5, 0.3])),
    "energy": lambda: EnergyNet.init(3, (8, 6), SIGMA, rng_stream(0, 7)),
    "energy-no-hidden": lambda: EnergyNet.init(3, (), SIGMA, rng_stream(0, 8)),
}


@pytest.fixture(params=sorted(MODELS))
def model(request):
    return MODELS[request.param]()


def _points(n=6, seed=1):
    return 1.5 * rng_stream(seed, 0).standard_normal((n, 3))


def test_bayes_estimate_is_y_plus_sigma2_score(model):
    ys = _points()
    want = ys + SIGMA**2 * model.smoothed_score(ys, SIGMA)
    np.testing.assert_allclose(model.bayes_estimate(ys, SIGMA), want, rtol=0, atol=1e-14)


def test_score_matches_finite_differences_of_log_density(model):
    h = 1e-5
    ys = _points()
    fd = np.stack([
        (model.log_density_y(ys + h * e, SIGMA) - model.log_density_y(ys - h * e, SIGMA))
        / (2 * h) for e in np.eye(3)
    ], axis=1)
    np.testing.assert_allclose(model.smoothed_score(ys, SIGMA), fd, rtol=0, atol=1e-7)


def test_score_hvp_is_symmetric(model):
    ys, us, vs = _points(seed=1), _points(seed=2), _points(seed=3)
    _, vjp = model.linearize(ys, SIGMA)
    uhv = np.sum(us * vjp(vs), axis=1)
    vhu = np.sum(vs * vjp(us), axis=1)
    np.testing.assert_allclose(uhv, vhu, rtol=1e-12, atol=1e-14)


def _evaluations(model, ys, vs):
    return [model.log_density_y(ys, SIGMA), model.smoothed_score(ys, SIGMA),
            model.linearize(ys, SIGMA)[1](vs), model.bayes_estimate(ys, SIGMA)]


def test_single_point_matches_batch_row(model):
    # a single point is a one-row batch, and its row is the batch's
    ys, vs = _points(seed=4), _points(seed=5)
    batch = _evaluations(model, ys, vs)
    assert [np.shape(b) for b in batch] == [(6,), (6, 3), (6, 3), (6, 3)]
    for i in range(len(ys)):
        single = _evaluations(model, ys[i:i + 1], vs[i:i + 1])
        assert [np.shape(s) for s in single] == [(1,), (1, 3), (1, 3), (1, 3)]
        for got, rows in zip(single, batch):
            np.testing.assert_allclose(got[0], rows[i], rtol=1e-14, atol=1e-14)


def test_a_single_point_is_a_value_error(model):
    y, v = _points(n=1)[0], _points(n=1, seed=2)[0]
    calls = [lambda: model.log_density_y(y, SIGMA), lambda: model.smoothed_score(y, SIGMA),
             lambda: model.bayes_estimate(y, SIGMA), lambda: model.linearize(y, SIGMA),
             lambda: model.linearize(y[None], SIGMA)[1](v)]
    for call in calls:
        with pytest.raises(ValueError, match="shape"):
            call()


def test_scale_mismatch(model):
    y, v = _points(n=1), _points(n=1, seed=2)
    calls = [lambda s: model.log_density_y(y, s), lambda s: model.smoothed_score(y, s),
             lambda s: model.bayes_estimate(y, s), lambda s: model.linearize(y, s)[0],
             lambda s: model.linearize(y, s)[1](v)]
    for call in calls:
        if isinstance(model, EnergyNet):
            with pytest.raises(ValueError):
                call(SIGMA + 1e-9)
        else:
            assert np.all(np.isfinite(call(SIGMA + 0.3)))


@pytest.mark.parametrize("n", [None, 6, 0])
def test_linearize_is_bayes_estimate_and_hvp_bitwise(model, n):
    # the attack's gradient pass reads xhat and vjp from linearize: xhat must
    # be bitwise the Bayes estimate, so training runs are the same bytes
    # whichever path computes it, and (vjp(u) - u) / sigma^2 the score's
    # Jacobian applied to u
    # n None: one point, which is a one-row batch; n 0: an empty (0, d) batch
    k = 1 if n is None else n
    ys = _points(n=max(k, 1), seed=6)[:k]
    us = _points(n=max(k, 1), seed=7)[:k]
    assert ys.shape == (k, 3)
    xhat, vjp = model.linearize(ys, SIGMA)
    assert np.array_equal(xhat, model.bayes_estimate(ys, SIGMA))
    got = vjp(us)
    assert got.shape == np.shape(ys)
    h = 1e-5
    fd = (model.smoothed_score(ys + h * us, SIGMA)
          - model.smoothed_score(ys - h * us, SIGMA)) / (2 * h)
    np.testing.assert_allclose((got - us) / SIGMA**2, fd, rtol=0, atol=1e-7)
    # the cached pass serves any number of vjp calls, and each is linear
    assert np.array_equal(vjp(2.0 * us), 2.0 * got)


def test_linearize_vjp_rejects_a_shape_mismatch(model):
    _, vjp = model.linearize(_points(n=4), SIGMA)
    with pytest.raises(ValueError):
        vjp(_points(n=3))


class TestIdentity:
    def test_estimate_and_vjp_are_the_input(self):
        ys, us = _points(seed=8), _points(seed=9)
        xhat, vjp = Identity().linearize(ys, SIGMA)
        assert np.array_equal(xhat, ys) and np.array_equal(vjp(us), us)
        assert np.array_equal(Identity().bayes_estimate(ys.astype(np.float32), SIGMA),
                              ys.astype(np.float32).astype(float))
        assert Identity().bayes_estimate(ys, SIGMA).dtype == np.float64

    def test_a_single_point_is_a_value_error(self):
        y = _points(n=1)
        for call in (lambda: Identity().bayes_estimate(y[0], SIGMA),
                     lambda: Identity().linearize(y[0], SIGMA),
                     lambda: Identity().linearize(y, SIGMA)[1](y[0])):
            with pytest.raises(ValueError):
                call()
