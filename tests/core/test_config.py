"""Runtime configuration switches."""

import pytest

from repro import CheckpointConfig, ConfigurationError, RuntimeConfig


class TestRuntimeConfig:
    def test_baseline_disables_everything(self):
        config = RuntimeConfig.baseline()
        assert not config.optimized_logging
        assert not config.read_only_method_optimization
        assert not config.multicall_optimization
        assert not config.reply_attachment_omission

    def test_optimized_defaults(self):
        config = RuntimeConfig.optimized()
        assert config.optimized_logging
        assert config.read_only_method_optimization
        assert config.reply_attachment_omission
        assert not config.multicall_optimization  # extension, off by default

    def test_overrides_on_constructors(self):
        config = RuntimeConfig.optimized(multicall_optimization=True)
        assert config.multicall_optimization
        config = RuntimeConfig.baseline(max_call_retries=2)
        assert config.max_call_retries == 2

    def test_with_overrides_copies(self):
        config = RuntimeConfig.optimized()
        other = config.with_overrides(auto_recover=False)
        assert config.auto_recover and not other.auto_recover

    def test_frozen(self):
        with pytest.raises(Exception):
            RuntimeConfig.optimized().auto_recover = False

    def test_pipelined_commit_requires_group_commit(self):
        """Pipelined commit pipelines group-commit batches: alone it
        would alias the both-on runtime, so the cell is rejected — by
        the constructors and by overrides alike."""
        with pytest.raises(ConfigurationError, match="group_commit"):
            RuntimeConfig.optimized(pipelined_commit=True)
        both = RuntimeConfig.optimized(
            group_commit=True, pipelined_commit=True
        )
        with pytest.raises(ConfigurationError, match="group_commit"):
            both.with_overrides(group_commit=False)


class TestCheckpointConfig:
    def test_disabled_by_default(self):
        assert not CheckpointConfig().enabled
        assert not RuntimeConfig.optimized().checkpoint.enabled

    def test_enabled_when_interval_set(self):
        assert CheckpointConfig(context_state_every_n_calls=100).enabled
