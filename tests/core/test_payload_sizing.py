"""Payload sizes follow the calibration a run is built under.

The input producer sizes its JSON payload once at construction and each
engine memoises its payload sizing per instance; neither may outlive
the run, because a calibration sweep patches :mod:`repro.calibration`
between runs in one process.
"""

from repro import calibration as cal
from repro.broker import BrokerCluster
from repro.config import ExperimentConfig
from repro.core.runner import INPUT_TOPIC, ExperimentRunner
from repro.sps.api import DataProcessor

CONFIG = ExperimentConfig(
    sps="flink", serving="onnx", model="ffnn", ir=40.0, duration=0.3
)


def _observe(monkeypatch) -> tuple[set, set]:
    """Run CONFIG once; return the input records' sizes and the decode
    costs the engine charged."""
    sizes, decodes = set(), set()
    append = BrokerCluster.append
    decode_cost = DataProcessor.decode_cost

    def spy_append(self, topic, partition, timestamp, value, nbytes, **kwargs):
        if topic == INPUT_TOPIC:
            sizes.add(nbytes)
        return append(self, topic, partition, timestamp, value, nbytes, **kwargs)

    def spy_decode(self, batch):
        cost = decode_cost(self, batch)
        decodes.add(cost)
        return cost

    with monkeypatch.context() as patch:
        patch.setattr(BrokerCluster, "append", spy_append)
        patch.setattr(DataProcessor, "decode_cost", spy_decode)
        result = ExperimentRunner(CONFIG).run()
    assert result.completed > 0
    return sizes, decodes


def test_payload_sizing_follows_calibration(monkeypatch):
    values = 784  # one ffnn data point, bsz=1
    before_sizes, before_decodes = _observe(monkeypatch)
    nbytes = values * cal.JSON_BYTES_PER_VALUE + cal.JSON_ENVELOPE_BYTES
    assert before_sizes == {nbytes}
    assert before_decodes == {nbytes * cal.JSON_DECODE_PER_BYTE}

    monkeypatch.setattr(cal, "JSON_BYTES_PER_VALUE", cal.JSON_BYTES_PER_VALUE * 2)
    after_sizes, after_decodes = _observe(monkeypatch)
    doubled = values * cal.JSON_BYTES_PER_VALUE + cal.JSON_ENVELOPE_BYTES
    assert doubled > nbytes
    assert after_sizes == {doubled}
    assert after_decodes == {doubled * cal.JSON_DECODE_PER_BYTE}
