import numpy as np
import pytest

from ebsmooth.densities import IsoGaussian, IsoMixture, beta_of
from ebsmooth.energy import EnergyNet
from ebsmooth.sampler import (
    WalkJumpConfig,
    jump,
    langevin_walk,
    walk_jump,
)
from ebsmooth import stats
from ebsmooth.stats import RowStreams, rng_stream


def zero_energy(dim, sigma):
    gen = rng_stream(0, 0)
    net = EnergyNet.init(dim, (8,), sigma, gen)
    for w in net.weights:
        w[:] = 0.0
    for b in net.biases:
        b[:] = 0.0
    return net


class TestConfig:
    @pytest.mark.parametrize("kwargs", [
        {"sigma_prime": 0.0}, {"delta": 0.0}, {"tau": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            WalkJumpConfig(**kwargs)


class TestLangevinWalk:
    def test_quadratic_energy_reaches_known_stationary_law(self):
        # a Gaussian model with sigma0^2 + sigma'^2 = s^2 has exactly
        # quadratic energy |y|^2/(2 s^2); the discretized chain is then the
        # AR(1) y <- (1 - delta^2/s^2) y + sqrt(2) delta eps with stationary
        # variance 2 delta^2 / (1 - a^2) per coordinate
        s, sp = 1.0, 0.1
        model = IsoGaussian(sigma0=np.sqrt(s * s - sp * sp), dim=2)
        cfg = WalkJumpConfig(sigma_prime=sp, delta=0.05 * s, tau=10_000)
        ends = langevin_walk(model, np.zeros((500, 2)), cfg, rng_stream(1, 0))
        assert np.all(np.abs(ends.mean(axis=0)) < 5.0 * s / np.sqrt(500))
        a = 1.0 - cfg.delta**2 / s**2
        var_pred = 2.0 * cfg.delta**2 / (1.0 - a * a)
        assert np.all(np.abs(ends.var(axis=0, ddof=1) - var_pred) < 0.15 * s * s)

    def test_tiny_step_barely_moves(self):
        model = IsoGaussian(sigma0=1.0, dim=2)
        cfg = WalkJumpConfig(sigma_prime=0.5, delta=1e-6, tau=1)
        y0 = np.array([[2.0, -1.0]])
        y1 = langevin_walk(model, y0, cfg, rng_stream(2, 0))
        bound = 1e-4 * (1.0 + np.linalg.norm(model.smoothed_score(y0, 0.5)))
        assert np.linalg.norm(y1 - y0) <= bound

    def test_zero_score_is_pure_random_walk(self):
        net = zero_energy(2, 0.2)
        cfg = WalkJumpConfig(sigma_prime=0.2, delta=0.1, tau=50)
        ends = langevin_walk(net, np.zeros((4000, 2)), cfg, rng_stream(3, 0))
        want = 2.0 * cfg.delta**2 * cfg.tau  # sum of tau independent steps
        got = ends.var(axis=0, ddof=1)
        assert np.all(np.abs(got - want) < 0.1 * want)

    def test_update_matches_hand_stepped_reference(self):
        # one independent reimplementation of the exact update rule,
        # consuming the same generator stream
        model = IsoMixture.symmetric(np.array([1.0, 0.0]), 0.5)
        cfg = WalkJumpConfig(sigma_prime=0.3, delta=0.01, tau=7)
        y0 = np.array([[0.4, -0.2]])
        got = langevin_walk(model, y0, cfg, rng_stream(4, 0))
        gen = rng_stream(4, 0)
        y = y0.copy()
        for _ in range(cfg.tau):
            drift = -model.smoothed_score(y, cfg.sigma_prime)
            y = y - cfg.delta**2 * drift + np.sqrt(2.0) * cfg.delta * gen.standard_normal((1, 2))
        np.testing.assert_array_equal(got, y)

    def test_trajectory_shape(self):
        model = IsoGaussian(sigma0=1.0, dim=3)
        cfg = WalkJumpConfig(sigma_prime=0.1, delta=0.01, tau=5)
        _, traj = langevin_walk(model, np.zeros((2, 3)), cfg, rng_stream(5, 0), record=1)
        assert traj.shape == (6, 3)

    def test_a_single_point_is_a_value_error(self):
        model = IsoGaussian(sigma0=1.0, dim=3)
        cfg = WalkJumpConfig(sigma_prime=0.1, delta=0.01, tau=2)
        with pytest.raises(ValueError, match="shape"):
            langevin_walk(model, np.zeros(3), cfg, rng_stream(5, 0))
        with pytest.raises(ValueError, match="shape"):
            walk_jump(model, model, np.zeros(3), 1.0, cfg, rng_stream(5, 0))

    def test_batch_trajectory_matches_list_and_stack(self):
        # the trajectory is preallocated; for each recorded chain it must
        # hold exactly the iterates a list of per-step copies of the batch,
        # stacked at the end, would hold
        model = IsoMixture(means=np.array([[1.0, 0.0, 0.5], [-1.0, 0.5, 0.0]]), sigma0=0.5)
        cfg = WalkJumpConfig(sigma_prime=0.3, delta=0.05, tau=6)
        y0 = rng_stream(7, 1).standard_normal((4, 3))
        streams = lambda: RowStreams((rng_stream(7, 10 + i) for i in range(4)),  # noqa: E731
                                     cfg.tau)
        gen, y, want = streams(), y0.copy(), [y0.copy()]
        for _ in range(cfg.tau):
            y = y + cfg.delta**2 * model.smoothed_score(y, cfg.sigma_prime) \
                + np.sqrt(2.0) * cfg.delta * gen.standard_normal(y.shape)
            want.append(y.copy())
        want = np.asarray(want)
        for chain in range(4):
            final, traj = langevin_walk(model, y0, cfg, streams(), record=chain)
            assert traj.shape == (cfg.tau + 1, 3)
            np.testing.assert_array_equal(traj, want[:, chain])
            np.testing.assert_array_equal(final, want[-1])
        np.testing.assert_array_equal(want[-1], langevin_walk(model, y0, cfg, streams()))

    @pytest.mark.parametrize("chain", [0, 2])
    def test_recorded_chain_is_that_chain_of_the_batch(self, chain):
        # recording one chain keeps (tau + 1, d) values, and walks the batch
        # as before; walk_jump records the walk from the coarse estimates
        model = IsoMixture(means=np.array([[1.0, 0.0, 0.5], [-1.0, 0.5, 0.0]]), sigma0=0.5)
        cfg = WalkJumpConfig(sigma_prime=0.3, delta=0.05, tau=6)
        y0 = rng_stream(7, 2).standard_normal((4, 3))
        streams = lambda: RowStreams((rng_stream(7, 20 + i) for i in range(4)),  # noqa: E731
                                     cfg.tau)
        final, path = langevin_walk(model, y0, cfg, streams(), record=chain)
        assert path.shape == (cfg.tau + 1, 3)
        np.testing.assert_array_equal(path[0], y0[chain])
        np.testing.assert_array_equal(path[-1], final[chain])
        np.testing.assert_array_equal(final, langevin_walk(model, y0, cfg, streams()))
        out, wj_path = walk_jump(model, model, y0, 1.0, cfg, streams(), record=chain)
        np.testing.assert_array_equal(out, walk_jump(model, model, y0, 1.0, cfg, streams()))
        _, walked = langevin_walk(model, model.bayes_estimate(y0, 1.0), cfg, streams(),
                                  record=chain)
        np.testing.assert_array_equal(wj_path, walked)

    def test_energy_net_scale_mismatch_rejected(self):
        net = zero_energy(2, 0.2)
        cfg = WalkJumpConfig(sigma_prime=0.3, delta=0.01, tau=2)
        with pytest.raises(ValueError):
            langevin_walk(net, np.zeros((1, 2)), cfg, rng_stream(6, 0))


class TestJump:
    def test_gaussian_closed_form_contracts_by_beta(self):
        model = IsoGaussian(sigma0=1.0, dim=2)
        y = np.array([[1.5, -2.0]])
        bp = beta_of(0.05, 1.0)
        np.testing.assert_allclose(jump(model, y, 0.05), bp * y, rtol=1e-12)

    def test_zero_score_is_identity(self):
        net = zero_energy(2, 0.05)
        y = np.array([[0.3, 0.9]])
        np.testing.assert_array_equal(jump(net, y, 0.05), y)


class TestWalkJump:
    def test_short_walk_composes_denoise_and_contract(self):
        # with a negligible walk (delta -> 0, tau = 1) the pipeline is the
        # coarse denoiser followed by the fine contraction
        model = IsoGaussian(sigma0=1.0, dim=2)
        sigma, sp = 1.0, 0.05
        cfg = WalkJumpConfig(sigma_prime=sp, delta=1e-9, tau=1)
        y = np.array([[2.0, -1.0]])
        out = walk_jump(model, model, y, sigma, cfg, rng_stream(7, 0))
        want = beta_of(sp, 1.0) * (beta_of(sigma, 1.0) * y)
        np.testing.assert_allclose(out, want, atol=1e-6)

    def test_variance_reduction_for_fixed_observation(self):
        # run-to-run spread of the pipeline output on one fixed observation
        # is set by the fine scale, far below the coarse-estimate spread
        model = IsoGaussian(sigma0=1.0, dim=2)
        sigma = 1.0
        gen = rng_stream(8, 0)
        x = model.sample(1, gen)[0]
        y = x + sigma * gen.standard_normal(2)
        single = model.bayes_estimate(x[None, :] + sigma * gen.standard_normal((2000, 2)), sigma)
        cfg = WalkJumpConfig(sigma_prime=0.05, delta=0.001, tau=100)
        outs = walk_jump(model, model, np.tile(y, (2000, 1)), sigma, cfg,
                         rng_stream(8, 1))
        assert np.all(outs.var(axis=0, ddof=1) <= 0.5 * single.var(axis=0, ddof=1))

    def test_mixture_outputs_land_near_a_mode(self):
        mix = IsoMixture.symmetric(np.array([2.0, 0.0]), 1.0)
        sigma = 1.0
        gen = rng_stream(9, 0)
        clean = mix.sample(200, gen)
        noisy = clean + sigma * gen.standard_normal((200, 2))
        cfg = WalkJumpConfig(sigma_prime=0.05, delta=0.001, tau=100)
        outs = walk_jump(mix, mix, noisy, sigma, cfg, rng_stream(9, 1))
        d_plus = np.linalg.norm(outs - np.array([2.0, 0.0]), axis=1)
        d_minus = np.linalg.norm(outs + np.array([2.0, 0.0]), axis=1)
        near = np.minimum(d_plus, d_minus) <= 3.0  # 3 sigma0 of a mode
        assert near.mean() >= 0.95


class _NanEstimate:
    """An IsoGaussian whose Bayes estimate at one scale is NaN in one row;
    its score, and so the walk, stays finite."""

    def __init__(self, dim, bad_sigma, bad_row):
        self.model = IsoGaussian(sigma0=1.0, dim=dim)
        self.bad_sigma, self.bad_row = bad_sigma, bad_row

    def smoothed_score(self, y, sigma):
        return self.model.smoothed_score(y, sigma)

    def bayes_estimate(self, y, sigma):
        out = self.model.bayes_estimate(y, sigma)
        if sigma == self.bad_sigma:
            out[self.bad_row] = np.nan
        return out


class TestNonFinite:
    CFG = WalkJumpConfig(sigma_prime=0.05, delta=0.001, tau=3)

    @pytest.mark.parametrize("bad_sigma, what", [(1.0, "coarse estimate"), (0.05, "jump")])
    def test_names_the_stage_and_the_first_bad_chain(self, bad_sigma, what):
        source = _NanEstimate(2, bad_sigma, bad_row=2)
        with pytest.raises(FloatingPointError, match=f"non-finite {what} in chain 2"):
            walk_jump(source, source, np.ones((4, 2)), 1.0, self.CFG, rng_stream(1, 0))

    def test_walk_names_the_first_bad_chain(self):
        model = IsoGaussian(sigma0=1.0, dim=2)
        y0 = np.zeros((3, 2))
        y0[1, 0] = np.nan
        with pytest.raises(FloatingPointError, match="walk step 0 in chain 1"):
            langevin_walk(model, y0, self.CFG, rng_stream(2, 0))


class TestRowStreams:
    def test_batch_draws_what_each_row_draws_alone(self):
        streams = RowStreams((rng_stream(3, i) for i in range(4)), 3)
        batch = [streams.standard_normal((4, 5)) for _ in range(3)]
        for i in range(4):
            alone = rng_stream(3, i)
            for drawn in batch:
                np.testing.assert_array_equal(drawn[i], alone.standard_normal(5))

    def test_row_count_must_match(self):
        streams = RowStreams((rng_stream(5, i) for i in range(2)), 1)
        with pytest.raises(ValueError):
            streams.standard_normal((3, 2))

    @pytest.mark.parametrize("block", [1, 12, stats._ROW_BLOCK])
    def test_blocks_draw_what_per_step_draws_do(self, monkeypatch, block):
        # each row draws several steps per call of its generator (2, 2, 2, 1
        # at block 12); the steps, and every generator's state after the
        # last, must be what one draw per row per step gives
        monkeypatch.setattr(stats, "_ROW_BLOCK", block)
        steps = 7
        streams = RowStreams((rng_stream(4, i) for i in range(3)), steps)
        gens = [rng_stream(4, i) for i in range(3)]
        for _ in range(steps):
            want = np.stack([g.standard_normal(2) for g in gens])
            np.testing.assert_array_equal(streams.standard_normal((3, 2)), want)
        for blocked, alone in zip(streams.gens, gens):
            np.testing.assert_equal(blocked.bit_generator.state, alone.bit_generator.state)
        with pytest.raises(ValueError, match="all their steps"):
            streams.standard_normal((3, 2))

    def test_shape_is_fixed_within_a_block(self):
        streams = RowStreams((rng_stream(6, i) for i in range(2)), 3)
        streams.standard_normal((2, 3))
        with pytest.raises(ValueError, match="cannot draw"):
            streams.standard_normal((2, 4))

