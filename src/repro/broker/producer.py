"""Producer client: writes records to topic partitions."""

from __future__ import annotations

import typing

from repro.broker.kafka_cluster import BrokerCluster
from repro.simul import Environment


class Producer:
    """Sticky round-robin producer.

    Serialization cost is *not* charged here: callers encode on their own
    CPU budget (the input-producer VM or an SPS sink task) and hand the
    resulting size to :meth:`send`.
    """

    def __init__(
        self,
        env: Environment,
        cluster: BrokerCluster,
        node: str | None = None,
    ) -> None:
        #: Cluster node this producer runs on (scale-out simulations);
        #: None keeps the single shared-LAN cost model.
        self.node = node
        self.env = env
        self.cluster = cluster
        self._next_partition: dict[str, int] = {}

    def _pick_partition(self, topic: str, key: int | None) -> int:
        count = self.cluster.topic(topic).partition_count
        if key is not None:
            return key % count
        index = self._next_partition.get(topic, 0)
        self._next_partition[topic] = (index + 1) % count
        return index

    def send(
        self,
        topic: str,
        value: typing.Any,
        nbytes: float,
        timestamp: float | None = None,
        key: int | None = None,
    ) -> typing.Generator:
        """Coroutine: deliver one record; returns :class:`RecordMetadata`.

        The partition is picked when ``send`` is called, which is also
        when a ``yield from`` starts the returned append."""
        if timestamp is None:
            timestamp = self.env.now
        return self.cluster.append(
            topic,
            self._pick_partition(topic, key),
            timestamp,
            value,
            nbytes,
            client_node=self.node,
        )
