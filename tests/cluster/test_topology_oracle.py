"""A stateful oracle for the router's placement under a changing fleet.

Hypothesis drives one thread-backend router through random sequences of
model registration, scale-up + rebalance, drains, kills + heartbeats,
parking, unparking and deletes, and after every step checks what must
hold whatever the sequence:

- every holder the router lists for a model really holds it;
- a model is only counted lost when no live replica holds a copy, and
  every model that left the router without a delete was counted lost;
- after a heartbeat round or a rebalance every placed model sits on
  ``min(replication_factor, routable replicas)`` holders;
- the counters of :meth:`ServiceRouter.cluster_snapshot` never go down.

At most four replicas exist per example (two at the start, two more
through scale-up), and every example shuts its router down.
"""

from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.cluster import RouterConfig, ServiceReplica, ServiceRouter
from repro.nn.resnet import StagedResNet
from repro.service import DeleteRequest

from .conftest import TINY

MODEL = StagedResNet(TINY)
MAX_REPLICAS = 4


class RouterTopology(RuleBasedStateMachine):
    @initialize(rf=st.sampled_from([1, 2, 3]))
    def start(self, rf):
        self.rf = rf
        self.created = 2
        self.router = ServiceRouter(
            [ServiceReplica("r0"), ServiceReplica("r1")],
            config=RouterConfig(replication_factor=rf),
        )
        #: models that exist as far as the oracle knows (not deleted,
        #: not lost), and how many the router must have counted lost.
        self.models = set()
        self.lost = 0
        self.counters = {}

    def teardown(self):
        router = getattr(self, "router", None)
        if router is not None:
            router.shutdown()

    # -- helpers -------------------------------------------------------
    def routable(self):
        draining = set(self.router.draining())
        return [
            rid
            for rid in self.router.active_replica_ids()
            if rid not in draining
        ]

    def placed(self):
        return self.router.status()["placement"]

    def assert_fully_replicated(self):
        want = min(self.rf, len(self.routable()))
        for gid, holders in self.placed().items():
            assert len(holders) == want, (gid, holders, self.routable())

    # -- rules ---------------------------------------------------------
    @precondition(lambda self: self.routable())
    @rule()
    def register_model(self):
        gid = self.router.register_model(f"m{len(self.models)}", MODEL)
        self.models.add(gid)

    @precondition(lambda self: self.created < MAX_REPLICAS)
    @rule()
    def add_replica_and_rebalance(self):
        self.router.add_replica(ServiceReplica(f"r{self.created}"))
        self.created += 1
        self.router.rebalance()
        self.assert_fully_replicated()

    @precondition(lambda self: len(self.routable()) >= 2)
    @rule(data=st.data())
    def drain_replica(self, data):
        rid = data.draw(st.sampled_from(sorted(self.routable())))
        self.router.drain_replica(rid, timeout_s=1.0)

    @precondition(lambda self: len(self.routable()) >= 2)
    @rule(data=st.data())
    def kill_and_tick(self, data):
        rid = data.draw(st.sampled_from(sorted(self.routable())))
        self.router.replicas[rid].kill()
        self.router.tick()
        self.assert_fully_replicated()

    @precondition(lambda self: self.placed())
    @rule(data=st.data())
    def park_model(self, data):
        gid = data.draw(st.sampled_from(sorted(self.placed())))
        assert self.router.park_model(gid)

    @precondition(lambda self: self.router.parked_ids() and self.routable())
    @rule(data=st.data())
    def unpark_model(self, data):
        gid = data.draw(st.sampled_from(self.router.parked_ids()))
        holders = self.router.unpark_model(gid)
        assert holders == self.router.holders(gid)

    @precondition(lambda self: self.models)
    @rule(data=st.data())
    def delete(self, data):
        gid = data.draw(st.sampled_from(sorted(self.models)))
        self.router.delete(DeleteRequest(model_id=gid))
        self.models.discard(gid)

    # -- invariants ----------------------------------------------------
    @invariant()
    def holders_hold_their_models(self):
        if not hasattr(self, "router"):
            return
        for gid, holders in self.placed().items():
            for rid in holders:
                assert self.router.replicas[rid].has_model(gid), (gid, rid)

    @invariant()
    def only_models_without_a_live_copy_are_lost(self):
        if not hasattr(self, "router"):
            return
        known = set(self.placed()) | set(self.router.parked_ids())
        for gid in sorted(self.models - known):
            live = [
                rid
                for rid, replica in self.router.replicas.items()
                if replica.alive and replica.has_model(gid)
            ]
            assert not live, f"{gid} counted lost while {live} hold it"
            self.models.discard(gid)
            self.lost += 1
        counted = self.router.metrics.counter("router.models_lost").value
        assert counted == self.lost

    @invariant()
    def snapshot_counters_never_decrease(self):
        if not hasattr(self, "router"):
            return
        counters = self.router.cluster_snapshot()["counters"]
        for name, before in self.counters.items():
            assert counters.get(name, 0.0) >= before, name
        self.counters = counters


TestRouterTopology = RouterTopology.TestCase
TestRouterTopology.settings = settings(
    max_examples=150,
    stateful_step_count=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
