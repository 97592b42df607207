"""Unit tests for the value network (PPO's critic)."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.rl import ValueNetwork


class TestValueNetwork:
    def test_prediction_shape_and_nonnegative(self, rng):
        net = ValueNetwork(5, hidden_sizes=(8,), seed=0)
        predictions = net.predict(rng.normal(size=(4, 5)))
        assert predictions.shape == (4,)
        assert np.all(predictions >= 0)

    def test_invalid_construction(self):
        with pytest.raises(ConfigError):
            ValueNetwork(0)
        with pytest.raises(ConfigError):
            ValueNetwork(5, hidden_sizes=())

    def test_wrong_input_width_rejected(self, rng):
        net = ValueNetwork(5, seed=0)
        with pytest.raises(ConfigError):
            net.predict(rng.normal(size=(2, 7)))

    def test_fit_reduces_loss(self, rng):
        net = ValueNetwork(3, hidden_sizes=(16, 8), seed=0)
        states = rng.normal(size=(200, 3))
        targets = 10 + 5 * states[:, 0] + states[:, 1] ** 2
        losses = net.fit(states, targets, epochs=40, seed=1)
        assert losses[-1] < losses[0]

    def test_fit_learns_a_linear_map_well(self, rng):
        net = ValueNetwork(2, hidden_sizes=(32,), seed=0)
        states = rng.normal(size=(400, 2))
        targets = 20 + 3 * states[:, 0] - 2 * states[:, 1]
        net.fit(states, targets, epochs=150, learning_rate=3e-3, seed=1)
        predictions = net.predict(states)
        correlation = np.corrcoef(predictions, targets)[0, 1]
        assert correlation > 0.9

    def test_misaligned_rejected(self, rng):
        net = ValueNetwork(3, seed=0)
        with pytest.raises(ConfigError):
            net.fit(rng.normal(size=(4, 3)), [1.0, 2.0])

    def test_num_parameters(self):
        net = ValueNetwork(4, hidden_sizes=(8,), seed=0)
        # (4*8 + 8) + (8*1 + 1) = 40 + 9 = 49
        assert net.num_parameters() == 49
