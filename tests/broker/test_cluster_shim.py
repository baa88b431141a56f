"""``BrokerCluster`` lives in ``repro.broker.kafka_cluster``.

The broker-internal module was renamed so the top-level ``repro.cluster``
package (multi-node scale-out) is unambiguous; the package export must
be the renamed module's class.
"""


def test_package_export_is_the_new_module():
    from repro.broker import BrokerCluster
    from repro.broker.kafka_cluster import BrokerCluster as New

    assert BrokerCluster is New
