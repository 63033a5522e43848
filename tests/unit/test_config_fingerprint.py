"""Unit tests for the config fingerprint (repro.core.experiment).

Segment-store campaign directories embed the fingerprint, so its digest
is pinned: a change would orphan every store already on disk.
"""

import dataclasses

from repro.core.experiment import ExperimentConfig, config_fingerprint

TINY = ExperimentConfig(
    skills_per_persona=2,
    pre_iterations=1,
    post_iterations=1,
    crawl_sites=2,
    prebid_discovery_target=5,
    audio_hours=0.5,
)


class TestFingerprint:
    def test_stable_for_equal_configs(self):
        assert config_fingerprint(TINY) == config_fingerprint(
            dataclasses.replace(TINY)
        )

    def test_sensitive_to_every_field(self):
        base = config_fingerprint(TINY)
        changed = dataclasses.replace(TINY, second_interaction_wave=False)
        assert config_fingerprint(changed) != base

    def test_digest_is_pinned(self):
        assert config_fingerprint(ExperimentConfig()) == "2eb6ee91198969af"
        assert config_fingerprint(TINY) == "0a8ca28c95b71c4b"
        mild = dataclasses.replace(TINY, fault_profile="mild")
        assert config_fingerprint(mild) == "9ae645cf8d744bdc"
