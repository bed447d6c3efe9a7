"""Tests for data pools, authorization and rogue-contributor detection."""

import numpy as np
import pytest

from repro.service.pools import (
    ContributorAuditor,
    DataPool,
    PoolAuthorizationError,
)


#: shared class geometry — every device in a pool sees the same classes.
_CENTERS = np.random.default_rng(1234).normal(0, 3.0, size=(3, 6))


def gaussian_class_data(rng, n):
    """Linearly separable blobs around the shared class centers."""
    labels = rng.integers(0, len(_CENTERS), size=n)
    samples = _CENTERS[labels] + rng.normal(0, 0.6, size=(n, _CENTERS.shape[1]))
    return samples, labels


class TestDataPoolBasics:
    def test_requires_name(self):
        with pytest.raises(ValueError):
            DataPool("")

    def test_authorization_enforced(self):
        pool = DataPool("mall-cams", authorized=["cam-1"])
        rng = np.random.default_rng(0)
        x, y = gaussian_class_data(rng, 5)
        pool.contribute("cam-1", x, y)
        with pytest.raises(PoolAuthorizationError):
            pool.contribute("intruder", x, y)

    def test_authorize_and_revoke(self):
        pool = DataPool("p")
        pool.authorize("d")
        assert pool.is_authorized("d")
        pool.revoke("d")
        assert not pool.is_authorized("d")

    def test_contribution_alignment_checked(self):
        pool = DataPool("p", authorized=["d"])
        with pytest.raises(ValueError):
            pool.contribute("d", np.zeros((3, 2)), np.zeros(4, dtype=int))

    def test_provenance_recorded(self):
        pool = DataPool("p", authorized=["a", "b"])
        rng = np.random.default_rng(1)
        xa, ya = gaussian_class_data(rng, 4)
        xb, yb = gaussian_class_data(rng, 6)
        pool.contribute("a", xa, ya)
        pool.contribute("b", xb, yb)
        assert pool.size == 10
        assert pool.contributors() == ["a", "b"]
        x_dev, y_dev = pool.device_view("b")
        assert len(x_dev) == 6

    def test_training_view_excludes_quarantined(self):
        pool = DataPool("p", authorized=["a", "b"])
        rng = np.random.default_rng(2)
        pool.contribute("a", *gaussian_class_data(rng, 4))
        pool.contribute("b", *gaussian_class_data(rng, 6))
        pool.quarantine("b")
        x, y = pool.training_view()
        assert len(x) == 4
        pool.release("b")
        x, _ = pool.training_view()
        assert len(x) == 10

    def test_excluding_device_also_skips_quarantined(self):
        pool = DataPool("p", authorized=["a", "b", "c"])
        rng = np.random.default_rng(3)
        for d in ("a", "b", "c"):
            pool.contribute(d, *gaussian_class_data(rng, 4))
        pool.quarantine("c")
        x, _ = pool.excluding_device("a")
        assert len(x) == 4  # only b's data

    def test_empty_views(self):
        pool = DataPool("p", authorized=["a"])
        x, y = pool.training_view()
        assert len(x) == 0 and len(y) == 0


class TestContributorAuditor:
    def build_pool(self, poison_fraction=1.0, num_honest=4, seed=0):
        """Honest devices contribute correctly-labelled blobs; the rogue
        contributes a ``poison_fraction`` of label-flipped samples."""
        rng = np.random.default_rng(seed)
        pool = DataPool("audit", authorized=[f"h{i}" for i in range(num_honest)] + ["rogue"])
        for i in range(num_honest):
            x, y = gaussian_class_data(rng, 40)
            pool.contribute(f"h{i}", x, y)
        x, y = gaussian_class_data(rng, 40)
        flip = rng.random(40) < poison_fraction
        y_poisoned = np.where(flip, (y + 1) % 3, y)
        pool.contribute("rogue", x, y_poisoned)
        return pool

    def test_flags_full_poisoner(self):
        pool = self.build_pool(poison_fraction=1.0)
        report = ContributorAuditor(num_classes=3, seed=0).audit(pool)
        assert report.flagged == ["rogue"]
        assert report.rate("rogue") > 0.8

    def test_flags_partial_poisoner_hiding_in_good_data(self):
        """The paper's hard case: the rogue mixes bad labels with good ones."""
        pool = self.build_pool(poison_fraction=0.5)
        report = ContributorAuditor(num_classes=3, seed=0).audit(pool)
        assert "rogue" in report.flagged

    def test_no_false_positives_when_all_honest(self):
        rng = np.random.default_rng(5)
        pool = DataPool("clean", authorized=[f"h{i}" for i in range(5)])
        for i in range(5):
            pool.contribute(f"h{i}", *gaussian_class_data(rng, 40))
        report = ContributorAuditor(num_classes=3, seed=0).audit(pool)
        assert report.flagged == []

    def test_audit_and_quarantine(self):
        pool = self.build_pool(poison_fraction=1.0)
        ContributorAuditor(num_classes=3, seed=0).audit_and_quarantine(pool)
        assert pool.quarantined == {"rogue"}
        x, y = pool.training_view()
        assert len(x) == 4 * 40

    def test_needs_two_contributors(self):
        pool = DataPool("single", authorized=["only"])
        rng = np.random.default_rng(6)
        pool.contribute("only", *gaussian_class_data(rng, 10))
        with pytest.raises(ValueError):
            ContributorAuditor(num_classes=3).audit(pool)

    def test_validation(self):
        with pytest.raises(ValueError):
            ContributorAuditor(num_classes=1)
        with pytest.raises(ValueError):
            ContributorAuditor(num_classes=3, z_threshold=0.0)

    def test_custom_classifier_factory(self):
        """The auditor accepts any fit/predict classifier."""

        class Majority:
            def fit(self, x, y):
                self.label = np.bincount(y).argmax()
                return self

            def predict(self, x):
                return np.full(len(x), self.label)

        pool = self.build_pool(poison_fraction=1.0)
        report = ContributorAuditor(
            num_classes=3, classifier_factory=Majority, min_rate=0.0
        ).audit(pool)
        assert set(report.misclassification_rates) == set(pool.contributors())
