"""Unit tests for RMSProp and checkpoint round-tripping."""

import numpy as np
import pytest

from repro.config import NetworkConfig
from repro.errors import CheckpointError, ConfigError
from repro.rl import PolicyNetwork, RmsProp, load_checkpoint, save_checkpoint


class TestRmsProp:
    def test_descends_a_quadratic(self):
        """Minimize f(x) = x^2 elementwise; rmsprop must reduce |x|."""
        params = {"x": np.array([5.0, -3.0])}
        opt = RmsProp(learning_rate=0.1, rho=0.9, eps=1e-9)
        for _ in range(200):
            grads = {"x": 2 * params["x"]}
            opt.step(params, grads)
        assert np.all(np.abs(params["x"]) < 0.5)

    def test_update_is_in_place(self):
        params = {"x": np.array([1.0])}
        ref = params["x"]
        RmsProp(0.01).step(params, {"x": np.array([1.0])})
        assert params["x"] is ref

    def test_first_step_magnitude_is_learning_rate(self):
        # cache = 0.1 * g^2; step = lr * g / (sqrt(0.1) |g|) ~ lr * 3.16.
        params = {"x": np.array([0.0])}
        RmsProp(learning_rate=0.5, rho=0.9).step(params, {"x": np.array([4.0])})
        assert params["x"][0] == pytest.approx(-0.5 / np.sqrt(0.1), rel=1e-6)

    def test_missing_gradient_rejected(self):
        with pytest.raises(ConfigError):
            RmsProp(0.01).step({"x": np.zeros(2)}, {})

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            RmsProp(0.01).step({"x": np.zeros(2)}, {"x": np.zeros(3)})

    def test_reset_clears_cache(self):
        opt = RmsProp(0.5)
        params = {"x": np.array([0.0])}
        opt.step(params, {"x": np.array([4.0])})
        first = params["x"][0]
        opt.reset()
        params2 = {"x": np.array([0.0])}
        opt.step(params2, {"x": np.array([4.0])})
        assert params2["x"][0] == pytest.approx(first)

    @pytest.mark.parametrize(
        "kwargs",
        [{"learning_rate": 0}, {"rho": 1.0}, {"rho": -0.1}, {"eps": 0}],
    )
    def test_invalid_hyperparameters(self, kwargs):
        with pytest.raises(ConfigError):
            RmsProp(**{"learning_rate": 0.01, **kwargs})

    def test_nan_gradient_guard(self):
        params = {"x": np.zeros(2)}
        with pytest.raises(ConfigError, match="non-finite"):
            RmsProp(0.01).step(params, {"x": np.array([np.nan, 1.0])})


class TestCheckpoints:
    @pytest.fixture
    def net(self):
        return PolicyNetwork(
            12, NetworkConfig(hidden_sizes=(8, 4), max_ready=3), seed=2
        )

    def test_roundtrip_preserves_weights(self, net, tmp_path):
        path = tmp_path / "net.npz"
        save_checkpoint(net, path)
        restored = load_checkpoint(path)
        assert restored.input_size == net.input_size
        assert restored.config.hidden_sizes == net.config.hidden_sizes
        assert restored.config.max_ready == net.config.max_ready
        for key in net.params:
            assert np.array_equal(restored.params[key], net.params[key])

    def test_roundtrip_preserves_behaviour(self, net, tmp_path, rng):
        path = tmp_path / "net.npz"
        save_checkpoint(net, path)
        restored = load_checkpoint(path)
        states = rng.normal(size=(4, 12))
        masks = np.ones((4, 4), dtype=bool)
        assert np.allclose(
            restored.probabilities(states, masks),
            net.probabilities(states, masks),
        )

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="does not exist"):
            load_checkpoint(tmp_path / "nope.npz")

    def test_corrupt_file_raises(self, tmp_path, net):
        path = tmp_path / "net.npz"
        save_checkpoint(net, path)
        # Strip a required key by rewriting the archive.
        with np.load(path) as data:
            payload = {k: data[k] for k in data.files if k != "meta_input_size"}
        np.savez(path, **payload)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_creates_parent_directories(self, net, tmp_path):
        path = tmp_path / "deep" / "dir" / "net.npz"
        save_checkpoint(net, path)
        assert path.exists()


class TestClipGlobalNorm:
    def test_noop_below_threshold(self):
        from repro.rl import clip_global_norm

        grads = {"a": np.array([3.0, 4.0])}  # norm 5
        norm = clip_global_norm(grads, 10.0)
        assert norm == pytest.approx(5.0)
        assert np.array_equal(grads["a"], [3.0, 4.0])

    def test_scales_above_threshold(self):
        from repro.rl import clip_global_norm

        grads = {"a": np.array([3.0, 0.0]), "b": np.array([[0.0, 4.0]])}
        norm = clip_global_norm(grads, 1.0)
        assert norm == pytest.approx(5.0)
        total = np.sqrt(
            sum(float(np.sum(g * g)) for g in grads.values())
        )
        assert total == pytest.approx(1.0)
        # Direction is preserved.
        assert grads["a"][0] == pytest.approx(3.0 / 5.0)
        assert grads["b"][0, 1] == pytest.approx(4.0 / 5.0)

    def test_clips_in_place(self):
        from repro.rl import clip_global_norm

        grads = {"a": np.array([10.0])}
        ref = grads["a"]
        clip_global_norm(grads, 1.0)
        assert grads["a"] is ref

    @pytest.mark.parametrize("max_norm", [0.0, -1.0])
    def test_nonpositive_max_norm_rejected(self, max_norm):
        from repro.rl import clip_global_norm

        with pytest.raises(ConfigError, match="max_norm"):
            clip_global_norm({"a": np.ones(2)}, max_norm)


class TestCheckpointV2:
    """Schema v2: kind-discriminated policy checkpoints."""

    def _gnn(self, seed=4):
        from repro.config import GnnConfig
        from repro.rl import GraphPolicyNetwork

        config = GnnConfig(
            hidden_size=8, rounds=1, head_hidden=4, global_hidden=8
        )
        return GraphPolicyNetwork(2, config, seed=seed)

    def test_gnn_roundtrip(self, tmp_path):
        from repro.rl import load_policy_checkpoint

        net = self._gnn()
        path = tmp_path / "gnn.npz"
        save_checkpoint(net, path)
        restored = load_policy_checkpoint(path)
        assert restored.kind == "policy_gnn"
        assert restored.num_resources == net.num_resources
        assert restored.config == net.config
        for key in net.params:
            assert np.array_equal(restored.params[key], net.params[key])

    def test_load_policy_checkpoint_dispatches_mlp(self, tmp_path):
        from repro.rl import load_policy_checkpoint

        net = PolicyNetwork(
            12, NetworkConfig(hidden_sizes=(8, 4), max_ready=3), seed=2
        )
        path = tmp_path / "mlp.npz"
        save_checkpoint(net, path)
        restored = load_policy_checkpoint(path)
        assert restored.kind == "policy_mlp"
        assert restored.input_size == net.input_size

    def test_legacy_v1_file_loads_as_mlp(self, tmp_path):
        # A v1 checkpoint: version marker 1, no meta_kind.
        net = PolicyNetwork(
            12, NetworkConfig(hidden_sizes=(8, 4), max_ready=3), seed=2
        )
        path = tmp_path / "v1.npz"
        payload = {f"param_{k}": v for k, v in net.params.items()}
        payload["meta_version"] = np.asarray([1])
        payload["meta_input_size"] = np.asarray([net.input_size])
        payload["meta_hidden_sizes"] = np.asarray(net.config.hidden_sizes)
        payload["meta_max_ready"] = np.asarray([net.config.max_ready])
        np.savez(path, **payload)
        restored = load_checkpoint(path)
        for key in net.params:
            assert np.array_equal(restored.params[key], net.params[key])

    def test_kind_mismatch_raises_clear_error(self, tmp_path):
        net = self._gnn()
        path = tmp_path / "gnn.npz"
        save_checkpoint(net, path)
        with pytest.raises(CheckpointError, match="policy_gnn"):
            load_checkpoint(path)

    def test_unsupported_version_rejected(self, tmp_path):
        from repro.rl import load_policy_checkpoint

        net = self._gnn()
        path = tmp_path / "future.npz"
        save_checkpoint(net, path)
        with np.load(path) as data:
            payload = {k: data[k] for k in data.files}
        payload["meta_version"] = np.asarray([99])
        np.savez(path, **payload)
        with pytest.raises(CheckpointError, match="version"):
            load_policy_checkpoint(path)

    def test_unknown_kind_rejected(self, tmp_path):
        from repro.rl import load_policy_checkpoint

        net = self._gnn()
        path = tmp_path / "odd.npz"
        save_checkpoint(net, path)
        with np.load(path) as data:
            payload = {k: data[k] for k in data.files}
        payload["meta_kind"] = np.asarray(["policy_quantum"])
        np.savez(path, **payload)
        with pytest.raises(CheckpointError, match="unknown model kind"):
            load_policy_checkpoint(path)

    def test_unsaveable_model_rejected(self, tmp_path):
        class Strange:
            kind = "value"
            params = {}

        with pytest.raises(CheckpointError, match="cannot checkpoint"):
            save_checkpoint(Strange(), tmp_path / "x.npz")


class TestNonFiniteParametersRejected:
    """A NaN/inf weight must fail at the loader, not as a sampling error
    deep inside a rollout — and forced moves never reach the sampler."""

    @staticmethod
    def _poison(path, key, value=np.nan):
        with np.load(path) as data:
            payload = {k: data[k] for k in data.files}
        poisoned = payload[key].astype(np.float64)
        poisoned.flat[0] = value
        payload[key] = poisoned
        np.savez(path, **payload)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_poisoned_mlp_checkpoint(self, tmp_path, value):
        from repro.rl import load_policy_checkpoint

        net = PolicyNetwork(
            10, NetworkConfig(hidden_sizes=(8, 4), max_ready=3), seed=1
        )
        path = tmp_path / "mlp.npz"
        save_checkpoint(net, path)
        self._poison(path, "param_W1", value)
        with pytest.raises(CheckpointError, match="non-finite"):
            load_checkpoint(path)
        with pytest.raises(CheckpointError, match="non-finite"):
            load_policy_checkpoint(path)

    def test_poisoned_gnn_checkpoint(self, tmp_path):
        from repro.config import GnnConfig
        from repro.rl import GraphPolicyNetwork, load_policy_checkpoint

        net = GraphPolicyNetwork(
            2, GnnConfig(hidden_size=8, rounds=1, head_hidden=4, global_hidden=4),
            seed=2,
        )
        path = tmp_path / "gnn.npz"
        save_checkpoint(net, path)
        self._poison(path, "param_head.w")
        with pytest.raises(CheckpointError, match="non-finite"):
            load_policy_checkpoint(path)

    def test_set_params_rejects_non_finite(self):
        from repro.config import GnnConfig
        from repro.rl import GraphPolicyNetwork

        networks = [
            PolicyNetwork(
                10, NetworkConfig(hidden_sizes=(8, 4), max_ready=3), seed=1
            ),
            GraphPolicyNetwork(
                2,
                GnnConfig(hidden_size=8, rounds=1, head_hidden=4, global_hidden=4),
                seed=2,
            ),
        ]
        for network in networks:
            before = network.get_params()
            poisoned = network.get_params()
            next(iter(poisoned.values())).flat[0] = np.nan
            with pytest.raises(ConfigError, match="non-finite"):
                network.set_params(poisoned)
            # A rejected load leaves the live parameters untouched.
            for key, value in before.items():
                assert np.array_equal(network.params[key], value)
