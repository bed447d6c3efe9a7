"""Copies a rebalance left behind never outlive or contradict their model.

A rebalance installs a model on its new rendezvous holders and keeps the
displaced copy, which a failover may still use as its last source.  So a
delete or a park must drop that copy too, and a calibrate must drop it,
since its weights predate the calibration.
"""

import numpy as np

from repro.cluster import RouterConfig, ServiceReplica, make_cluster
from repro.service import CalibrateRequest, DeleteRequest

CONFIG = RouterConfig(replication_factor=1)


def rebalanced_cluster(model, dataset=None):
    """rf=1 on r0/r1 with six models, then ``r2`` joins and a rebalance
    moves some of them; returns the router and the moved ids."""
    router = make_cluster(2, config=CONFIG)
    for _ in range(6):
        router.register_model("m", model, train_set=dataset)
    router.add_replica(ServiceReplica("r2"))
    router.rebalance()
    return router, [gid for gid in router.model_ids() if router.holders(gid) == ["r2"]]


def copies(router, gid):
    return [rid for rid, r in router.replicas.items() if r.alive and r.has_model(gid)]


class TestDeleteAndParkDropDisplacedCopies:
    def test_delete_leaves_no_copy_anywhere(self, tiny_model):
        with rebalanced_cluster(tiny_model[0])[0] as router:
            gids = router.model_ids()
            # The precondition: a moved model still has its old copy.
            assert any(len(copies(router, gid)) > 1 for gid in gids)
            for gid in gids:
                router.delete(DeleteRequest(gid))
            assert router.model_ids() == []
            assert {gid: copies(router, gid) for gid in gids} == {gid: [] for gid in gids}

    def test_park_leaves_no_copy_anywhere(self, tiny_model):
        with rebalanced_cluster(tiny_model[0])[0] as router:
            gids = router.model_ids()
            assert any(len(copies(router, gid)) > 1 for gid in gids)
            for gid in gids:
                assert router.park_model(gid)
            assert {gid: copies(router, gid) for gid in gids} == {gid: [] for gid in gids}
            # Unparking restores exactly the placement's copies.
            for gid in gids:
                assert copies(router, gid) == []
                holders = router.unpark_model(gid)
                assert copies(router, gid) == holders


def params(replica, gid):
    return replica.fetch_entry(gid).model.state_dict()


class TestCalibrateDropsDisplacedCopies:
    def test_failover_never_serves_uncalibrated_weights(self, tiny_model, tiny_data):
        model, dataset, _ = tiny_model
        inputs, labels = tiny_data
        router, moved = rebalanced_cluster(model, dataset)
        with router:
            assert moved, "the rebalance moved no model onto r2"
            gid = moved[0]
            assert len(copies(router, gid)) == 2  # r2's and the displaced one
            router.calibrate(CalibrateRequest(gid, inputs, labels, epochs=1))
            calibrated = params(router.replicas["r2"], gid)
            router.replicas["r2"].kill()
            router.tick()
            for rid in copies(router, gid):
                served = params(router.replicas[rid], gid)
                assert all(np.array_equal(served[k], calibrated[k]) for k in calibrated)
            # The only calibrated copy died with r2: the model is lost,
            # and counted so.
            assert gid not in router.model_ids()
            assert router.metrics.counter("router.models_lost").value == 1
