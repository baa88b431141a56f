"""Edges of the broker's per-(topic, partition, client node) route cache.

The data path resolves a partition's log, owning broker, link, span
attrs and span names once; these tests pin that a cached route still
honours outages, keeps clients on different nodes apart, and never
hides the errors a first use must raise.
"""

import pytest

from repro import calibration as cal
from repro.broker import BrokerCluster, Producer
from repro.cluster.placement import PlacementPlan
from repro.cluster.spec import ClusterSpec
from repro.cluster.topology import ClusterTopology
from repro.errors import MessageTooLargeError, UnknownTopicError
from repro.simul import Environment


def test_outage_gates_appends_on_a_cached_route():
    env = Environment()
    cluster = BrokerCluster(env)
    cluster.create_topic("input", 1)
    producer = Producer(env, cluster)
    appended = {}

    def send(value):
        metadata = yield from producer.send("input", value=value, nbytes=100)
        appended[value] = metadata.log_append_time

    def driver():
        yield from send("before")
        assert len(cluster._routes) == 1  # the route is now cached
        cluster.begin_partition_outage("input", [0])
        env.process(send("during"))
        yield env.timeout(1.0)
        assert "during" not in appended
        cluster.end_partition_outage("input", [0])
        yield env.timeout(1.0)
        yield from send("after")

    env.process(driver())
    env.run()
    assert appended["before"] < 1.0
    # Parked on the gate until the outage ended at t=1.0.
    assert 1.0 < appended["during"] < 2.0 < appended["after"]
    assert len(cluster._routes) == 1


def test_clients_on_different_nodes_pay_their_own_link():
    topology = ClusterTopology.from_spec(ClusterSpec(nodes=2, racks=2))
    plan = PlacementPlan(topology, tasks_per_node=1)
    env = Environment()
    cluster = BrokerCluster(env, placement=plan)
    cluster.create_topic("t", 2)
    local = Producer(env, cluster, node="node-0")
    remote = Producer(env, cluster, node="node-1")
    nbytes = 5000.0
    elapsed = {}

    def send(producer, name):
        start = env.now
        # key=0: partition 0, owned by node-0's broker.
        metadata = yield from producer.send("t", value=name, nbytes=nbytes, key=0)
        elapsed[name] = metadata.log_append_time - start

    def driver():
        yield from send(local, "local")
        yield from send(remote, "remote")
        yield from send(local, "local-again")

    env.process(driver())
    env.run()
    service = cal.BROKER_APPEND_OVERHEAD + nbytes / cal.BROKER_IO_BANDWIDTH
    loopback = plan.link_to_partition("node-0", 0).transfer_time(nbytes)
    cross = plan.link_to_partition("node-1", 0).transfer_time(nbytes)
    assert loopback < cross
    assert elapsed["local"] == pytest.approx(loopback + service)
    assert elapsed["remote"] == pytest.approx(cross + service)
    assert elapsed["local-again"] == pytest.approx(loopback + service)
    assert sorted(key[2] for key in cluster._routes) == ["node-0", "node-1"]


def test_unknown_topic_raises_on_first_use_and_is_not_cached():
    env = Environment()
    cluster = BrokerCluster(env)
    for __ in range(2):
        with pytest.raises(UnknownTopicError):
            next(cluster.append("nope", 0, 0.0, "x", 100.0))
        with pytest.raises(UnknownTopicError):
            next(cluster.fetch("nope", 0, 0, 10))
        with pytest.raises(UnknownTopicError):
            Producer(env, cluster).send("nope", value="x", nbytes=100.0)
    assert cluster._routes == {}


def test_oversized_record_raises_before_route_lookup():
    env = Environment()
    cluster = BrokerCluster(env)
    cluster.create_topic("t", 1)
    huge = cluster.max_request_bytes + 1
    with pytest.raises(MessageTooLargeError):
        next(cluster.append("t", 0, 0.0, "x", huge))
    # Checked first: even an unknown topic reports the size.
    with pytest.raises(MessageTooLargeError):
        next(cluster.append("nope", 0, 0.0, "x", huge))
    # A cached route does not skip the check either.
    next(cluster.append("t", 0, 0.0, "x", 100.0))
    with pytest.raises(MessageTooLargeError):
        next(cluster.append("t", 0, 0.0, "x", huge))
