"""The broker-internal cluster: topics plus broker-side service costs.

(Named ``kafka_cluster`` to keep it apart from the multi-node scale-out
package :mod:`repro.cluster`.)

The paper deploys 4 Kafka brokers and verifies they are never the
bottleneck (§3.5). Each partition is owned by one broker; appends and
fetches occupy that broker's service resource for a size-dependent time,
so a *mis*-configured cluster would show up as queueing — reproducing the
paper's bottleneck check.

In scale-out simulations (:mod:`repro.cluster`) a broker placement maps
each partition onto a simulated machine: clients then pay the network
link between *their* node and the partition owner's node, so colocated
hops stay local while cross-node hops pay rack/LAN cost. Without a
placement (the default), behaviour is byte-identical to the single-LAN
model of the paper.
"""

from __future__ import annotations

import typing

from repro import calibration as cal
from repro.broker.records import ConsumerRecord, RecordMetadata
from repro.broker.topic import Topic
from repro.errors import ConfigError, MessageTooLargeError, UnknownTopicError
from repro.metrics.registry import NO_METRICS
from repro.netsim import Link
from repro.simul import Environment, Event, Resource
from repro.tracing.spans import NO_TRACE


class BrokerCluster:
    """A cluster of ``broker_count`` brokers sharing topic partitions."""

    def __init__(
        self,
        env: Environment,
        broker_count: int = cal.BROKER_COUNT,
        max_request_bytes: float = cal.BROKER_MAX_REQUEST_BYTES,
        link: Link | None = None,
        tracer: typing.Any = NO_TRACE,
        metrics: typing.Any = NO_METRICS,
        placement: typing.Any = None,
    ) -> None:
        """``placement`` (a :class:`repro.cluster.placement.PlacementPlan`)
        makes the cluster node-aware: one broker per cluster node, each
        partition owned by its placed node, and every data-path link
        resolved between the client's node and the owner's node. ``None``
        keeps the paper's single shared-LAN model."""
        if placement is not None:
            broker_count = placement.broker_count
        if broker_count < 1:
            raise ConfigError(f"need >= 1 broker, got {broker_count}")
        self.env = env
        self.broker_count = broker_count
        self.max_request_bytes = max_request_bytes
        self.link = link if link is not None else Link()
        self.placement = placement
        self.tracer = tracer
        self.metrics = metrics
        self._topics: dict[str, Topic] = {}
        # Active partition outages: producers block on the gate event
        # until the partition's leadership is restored.
        self._outages: dict[tuple[str, int], Event] = {}
        # Consumers register themselves so group lag is observable.
        self._consumers: list[typing.Any] = []
        # One service unit per broker: appends/fetches to its partitions
        # queue here.
        self._brokers = [Resource(env, capacity=1) for __ in range(broker_count)]
        metrics.gauge(
            "broker_utilization",
            help="fraction of brokers busy serving an append or fetch",
            fn=lambda: sum(b.count for b in self._brokers) / self.broker_count,
        )
        metrics.gauge(
            "broker_service_queue",
            help="append/fetch requests waiting for a broker",
            fn=lambda: sum(len(b.queue) for b in self._brokers),
        )

    # -- admin ---------------------------------------------------------

    def create_topic(self, name: str, partitions: int) -> Topic:
        if name in self._topics:
            raise ConfigError(f"topic {name!r} already exists")
        topic = Topic(self.env, name, partitions)
        self._topics[name] = topic
        self.metrics.gauge(
            "broker_partition_depth",
            help="records appended across the topic's partitions",
            labels={"topic": name},
            fn=lambda t=topic: sum(
                t.partition(p).end_offset for p in range(t.partition_count)
            ),
        )
        return topic

    def register_consumer(self, consumer: typing.Any) -> None:
        """Track a consumer-group member so its topic's lag is scrapable."""
        self._consumers.append(consumer)
        self.metrics.gauge(
            "broker_consumer_lag",
            help="records appended but not yet consumed by the group",
            labels={"topic": consumer.topic},
            fn=lambda topic=consumer.topic: sum(
                c.lag() for c in self._consumers if c.topic == topic
            ),
        )

    def topic(self, name: str) -> Topic:
        try:
            return self._topics[name]
        except KeyError:
            raise UnknownTopicError(name) from None

    def broker_for(self, topic: str, partition: int) -> Resource:
        """The broker resource owning a partition (round-robin layout)."""
        __ = self.topic(topic)  # validate
        if self.placement is not None:
            return self._brokers[self.placement.broker_index(partition)]
        return self._brokers[partition % self.broker_count]

    def _link_for(self, partition: int, client_node: str | None) -> Link:
        """The network link one data-path hop pays.

        Placed clusters resolve the hop between the client's node and the
        partition owner's node (loopback when colocated); unplaced runs
        keep the single shared LAN link."""
        if self.placement is None:
            return self.link
        return self.placement.link_to_partition(client_node, partition)

    def _node_attrs(self, partition: int) -> dict:
        """Span attribution for the broker owning ``partition`` (empty —
        and allocation-free for the null tracer — when unplaced)."""
        if self.placement is None or not self.tracer.enabled:
            return {}
        return {"node": self.placement.node_of_partition(partition)}

    # -- data path -----------------------------------------------------

    def append(
        self,
        topic: str,
        partition: int,
        timestamp: float,
        value: typing.Any,
        nbytes: float,
        client_node: str | None = None,
    ) -> typing.Generator:
        """Coroutine: network transfer + broker append service.

        Returns :class:`RecordMetadata`; the record's ``log_append_time``
        is the broker clock when the append completes (§3.3 step 5).
        """
        if nbytes > self.max_request_bytes:
            raise MessageTooLargeError(
                f"{nbytes:.0f} B exceeds max.request.size "
                f"{self.max_request_bytes:.0f} B"
            )
        log = self.topic(topic).partition(partition)
        # An unavailable partition has no leader to accept the write: the
        # producer's delivery blocks until the outage ends (librdkafka-style
        # internal retries, collapsed into one wait).
        while True:
            gate = self._outages.get((topic, partition))
            if gate is None:
                break
            span = self.tracer.begin(value, f"broker.unavailable:{topic}")
            yield gate
            self.tracer.end(span)
        attrs = self._node_attrs(partition)
        span = self.tracer.begin(value, f"broker.send:{topic}", **attrs)
        yield self.env.service_timeout(
            self._link_for(partition, client_node).transfer_time(nbytes)
        )
        self.tracer.end(span)
        broker = self.broker_for(topic, partition)
        wait = self.tracer.begin(value, f"broker.append_wait:{topic}", **attrs)
        with broker.request() as req:
            yield req
            self.tracer.end(wait)
            span = self.tracer.begin(value, f"broker.append:{topic}", **attrs)
            service = cal.BROKER_APPEND_OVERHEAD + nbytes / cal.BROKER_IO_BANDWIDTH
            yield self.env.service_timeout(service)
            record = log.append(timestamp, value, nbytes)
            self.tracer.end(span)
        return RecordMetadata(
            topic=topic,
            partition=partition,
            offset=record.offset,
            log_append_time=record.log_append_time,
        )

    def fetch(
        self,
        topic: str,
        partition: int,
        offset: int,
        max_records: int,
        client_node: str | None = None,
    ) -> typing.Generator:
        """Coroutine: broker fetch service + network transfer back.

        Returns the (possibly empty) list of records available now.
        """
        log = self.topic(topic).partition(partition)
        records = log.fetch(offset, max_records)
        fetch_start = self.env.now
        broker = self.broker_for(topic, partition)
        with broker.request() as req:
            yield req
            nbytes = sum(r.nbytes for r in records)
            service = cal.BROKER_FETCH_OVERHEAD + nbytes / cal.BROKER_IO_BANDWIDTH
            yield self.env.service_timeout(service)
        if records:
            total = sum(r.nbytes for r in records)
            yield self.env.service_timeout(
                self._link_for(partition, client_node).transfer_time(total)
            )
        self._trace_fetched(topic, records, fetch_start)
        return list(records)

    def fetch_many(
        self,
        topic: str,
        offsets: dict[int, int],
        max_records: int,
        data_transfer: bool = True,
        client_node: str | None = None,
    ) -> typing.Generator:
        """Coroutine: one fetch request spanning several partitions.

        Mirrors Kafka's batched fetch: a single request/response pays one
        fixed overhead plus size-proportional service and transfer costs.
        ``data_transfer=False`` fetches only offsets/metadata — Spark's
        driver plans micro-batches this way while executors pull the
        record data directly from the brokers in parallel.
        Returns ``(records, new_offsets)``.
        """
        topic_obj = self.topic(topic)
        fetch_start = self.env.now
        records: list[ConsumerRecord] = []
        new_offsets = dict(offsets)
        byte_budget = self.max_request_bytes  # Kafka's fetch.max.bytes
        for partition, offset in offsets.items():
            budget = max_records - len(records)
            if budget <= 0 or byte_budget <= 0:
                break
            chunk = topic_obj.partition(partition).fetch(offset, budget)
            taken = []
            for record in chunk:
                # Always make progress: accept at least one record even if
                # it alone exceeds the byte budget (Kafka does the same).
                if taken and record.nbytes > byte_budget:
                    break
                taken.append(record)
                byte_budget -= record.nbytes
            if taken:
                records.extend(taken)
                new_offsets[partition] = taken[-1].offset + 1
        # The fetch response is served by the broker owning the first
        # requested partition; size-based costs dominate anyway.
        first = next(iter(offsets))
        broker = self.broker_for(topic, first)
        nbytes = sum(r.nbytes for r in records) if data_transfer else 0.0
        with broker.request() as req:
            yield req
            service = cal.BROKER_FETCH_OVERHEAD + nbytes / cal.BROKER_IO_BANDWIDTH
            yield self.env.service_timeout(service)
        if records and data_transfer:
            yield self.env.service_timeout(
                self._link_for(first, client_node).transfer_time(nbytes)
            )
        self._trace_fetched(topic, records, fetch_start)
        return records, new_offsets

    def _trace_fetched(
        self,
        topic: str,
        records: typing.Sequence[ConsumerRecord],
        fetch_start: float,
    ) -> None:
        """Attribute topic dwell and fetch time to each sampled record.

        *Dwell* runs from the record's LogAppendTime to the moment the
        consumer's fetch found it — the backlog wait when the SUT cannot
        keep up. *Fetch* covers broker service + transfer back.
        """
        if not self.tracer.enabled:
            return
        for record in records:
            ctx = self.tracer.context_of(record.value)
            if ctx is None:
                continue
            self.tracer.record(
                ctx,
                f"broker.dwell:{topic}",
                start=record.log_append_time,
                end=fetch_start,
            )
            self.tracer.record(ctx, f"broker.fetch:{topic}", start=fetch_start)

    def wait_for_data(self, topic: str, partition: int, offset: int):
        """Event firing once the partition has records past ``offset``."""
        return self.topic(topic).partition(partition).data_available(offset)

    def cancel_wait(self, topic: str, partition: int, event) -> None:
        """Deregister a stale :meth:`wait_for_data` event (an ``any_of``
        loser) so partitions that never grow don't leak waiters."""
        self.topic(topic).partition(partition).cancel_wait(event)

    def fetchable(self, topic: str, partition: int, offset: int) -> bool:
        """Would a fetch at ``offset`` return records right now?"""
        return self.topic(topic).partition(partition).fetchable_past(offset)

    # -- fault injection -----------------------------------------------

    def begin_partition_outage(
        self, topic: str, partitions: typing.Sequence[int]
    ) -> None:
        """Take the partitions offline: appends park on a gate event and
        fetches return nothing until :meth:`end_partition_outage`."""
        for partition in partitions:
            self.topic(topic).partition(partition).block()
            key = (topic, partition)
            if key not in self._outages:
                self._outages[key] = Event(self.env)

    def end_partition_outage(
        self, topic: str, partitions: typing.Sequence[int]
    ) -> None:
        """Restore leadership: wake parked producers and consumers."""
        for partition in partitions:
            self.topic(topic).partition(partition).unblock()
            gate = self._outages.pop((topic, partition), None)
            if gate is not None and not gate.triggered:
                gate.succeed()
