"""Per-rule fixtures: one true positive and one true negative each.

Every snippet is linted with the full rule set, so a fixture meant to
trip exactly one rule also proves the other seven stay quiet on it.
"""

import textwrap

import pytest

from repro.analysis.core import lint_source, rule_names


def findings_for(source: str):
    report = lint_source(textwrap.dedent(source), path="fixture.py")
    return report.findings


def rules_hit(source: str) -> set[str]:
    return {f.rule for f in findings_for(source)}


# -- wall-clock -------------------------------------------------------------

WALL_CLOCK_TP = """
    import time

    def measure():
        start = time.perf_counter()
        return time.time() - start
"""

WALL_CLOCK_TN = """
    def measure(env):
        start = env.now
        yield env.timeout(1.0)
        return env.now - start
"""


def test_wall_clock_true_positive():
    findings = [f for f in findings_for(WALL_CLOCK_TP) if f.rule == "wall-clock"]
    assert len(findings) == 2
    assert "time.perf_counter" in findings[0].message
    assert "Environment.now" in findings[0].message


def test_wall_clock_true_negative():
    assert "wall-clock" not in rules_hit(WALL_CLOCK_TN)


def test_wall_clock_from_import_and_datetime():
    source = """
        from time import sleep
        from datetime import datetime

        def nap():
            sleep(1)
            return datetime.now()
    """
    findings = [f for f in findings_for(source) if f.rule == "wall-clock"]
    assert {f.message.split("'")[1] for f in findings} == {
        "time.sleep",
        "datetime.datetime.now",
    }


def test_wall_clock_ignores_unrelated_attributes():
    # A local object with a .time attribute is not the time module.
    source = """
        def f(record):
            return record.time.time
    """
    assert "wall-clock" not in rules_hit(source)


# -- global-random ----------------------------------------------------------

GLOBAL_RANDOM_TP = """
    import random
    import numpy as np

    def jitter():
        np.random.seed(0)
        return random.random() + np.random.uniform()
"""

GLOBAL_RANDOM_TN = """
    def jitter(rng):
        return rng.stream("jitter").uniform()
"""


def test_global_random_true_positive():
    findings = [
        f for f in findings_for(GLOBAL_RANDOM_TP) if f.rule == "global-random"
    ]
    assert len(findings) == 3
    assert all("RandomStreams" in f.message for f in findings)


def test_global_random_true_negative():
    assert "global-random" not in rules_hit(GLOBAL_RANDOM_TN)


def test_global_random_flags_adhoc_default_rng():
    source = """
        import numpy as np

        def build(seed):
            return np.random.default_rng(seed)
    """
    assert "global-random" in rules_hit(source)


def test_global_random_ignores_generator_methods():
    # Draws on an explicit Generator object are the sanctioned pattern.
    source = """
        def draw(generator):
            return generator.uniform(0, 1)
    """
    assert "global-random" not in rules_hit(source)


# -- hash-randomization -----------------------------------------------------

HASH_TP = """
    def stream_seed(name):
        return hash(name) % 2**32
"""

HASH_TN = """
    import zlib

    def stream_seed(name):
        return zlib.crc32(name.encode("utf-8"))
"""


def test_hash_true_positive():
    findings = [
        f for f in findings_for(HASH_TP) if f.rule == "hash-randomization"
    ]
    assert len(findings) == 1
    assert "zlib.crc32" in findings[0].message


def test_hash_true_negative():
    assert "hash-randomization" not in rules_hit(HASH_TN)


def test_dunder_hash_definition_not_flagged():
    source = """
        class Key:
            def __hash__(self):
                return 7
    """
    assert "hash-randomization" not in rules_hit(source)


# -- unsorted-iteration -----------------------------------------------------

UNSORTED_TP = """
    def export(results):
        pending = {r.name for r in results}
        for name in pending:
            print(name)
"""

UNSORTED_TN = """
    def export(results):
        pending = {r.name for r in results}
        for name in sorted(pending):
            print(name)
"""


def test_unsorted_iteration_true_positive():
    findings = [
        f for f in findings_for(UNSORTED_TP) if f.rule == "unsorted-iteration"
    ]
    assert len(findings) == 1
    assert "sorted" in findings[0].message


def test_unsorted_iteration_true_negative():
    assert "unsorted-iteration" not in rules_hit(UNSORTED_TN)


def test_unsorted_iteration_values_feeding_scheduling():
    """The .values() blind spot: insertion-ordered views are fine in
    general, but not when the loop body enqueues simulation work."""
    assert "unsorted-iteration" in rules_hit(
        "def spawn_all(env, workers):\n"
        "    for w in workers.values():\n"
        "        env.process(w.run())\n"
    )
    assert "unsorted-iteration" in rules_hit(
        "def spawn_all(env, lanes):\n"
        "    for lane in lanes.values():\n"
        "        env.spawn(lane.deliver())\n"
    )
    assert "unsorted-iteration" in rules_hit(
        "def spawn_all(env, workers):\n"
        "    return [env.process(w.run()) for w in workers.values()]\n"
    )


def test_unsorted_iteration_values_without_scheduling_clean():
    assert "unsorted-iteration" not in rules_hit(
        "def names(workers):\n"
        "    return [w.name for w in workers.values()]\n"
    )
    assert "unsorted-iteration" not in rules_hit(
        "def total(queues):\n"
        "    return sum(len(q) for q in queues.values())\n"
    )


def test_unsorted_iteration_set_literal_and_calls():
    assert "unsorted-iteration" in rules_hit(
        "rows = list(set(xs))\n"
    )
    assert "unsorted-iteration" in rules_hit(
        "text = ','.join({'a', 'b'})\n"
    )
    assert "unsorted-iteration" in rules_hit(
        "def f(d):\n    for k in d.keys():\n        yield k\n"
    )


def test_unsorted_iteration_annotated_attribute():
    source = """
        class Tracker:
            def __init__(self):
                self._seen: set[int] = set()

            def dump(self):
                return [x for x in self._seen]
    """
    assert "unsorted-iteration" in rules_hit(source)


def test_unsorted_iteration_order_insensitive_consumers_ok():
    source = """
        def stats(xs):
            seen = set(xs)
            total = sum(x for x in seen)
            return total, len(seen), sorted(seen), max(seen)
    """
    assert "unsorted-iteration" not in rules_hit(source)


def test_unsorted_iteration_membership_ok():
    source = """
        def dedup(xs):
            seen = set()
            for x in xs:
                if x in seen:
                    continue
                seen.add(x)
                yield x
    """
    assert "unsorted-iteration" not in rules_hit(source)


# -- id-ordering ------------------------------------------------------------

ID_TP = """
    def tiebreak(events):
        return sorted(events, key=lambda e: id(e))
"""

ID_TN = """
    def tiebreak(events):
        return sorted(events, key=lambda e: e.seq)
"""


def test_id_ordering_true_positive():
    findings = [f for f in findings_for(ID_TP) if f.rule == "id-ordering"]
    assert len(findings) == 1
    assert "address" in findings[0].message


def test_id_ordering_true_negative():
    assert "id-ordering" not in rules_hit(ID_TN)


# -- blocking-io ------------------------------------------------------------

BLOCKING_TP = """
    def worker(env):
        with open("data.bin") as handle:
            payload = handle.read()
        yield env.timeout(1.0)
        return payload
"""

BLOCKING_TN = """
    def load():
        with open("data.bin") as handle:
            return handle.read()

    def worker(env, payload):
        yield env.timeout(1.0)
        return payload
"""


def test_blocking_io_true_positive():
    findings = [f for f in findings_for(BLOCKING_TP) if f.rule == "blocking-io"]
    assert len(findings) == 1
    assert "worker" in findings[0].message


def test_blocking_io_true_negative():
    # open() outside a generator is boundary I/O: allowed.
    assert "blocking-io" not in rules_hit(BLOCKING_TN)


def test_blocking_io_socket_and_sleep_in_generator():
    source = """
        import socket
        import time

        def proc(env):
            sock = socket.create_connection(("host", 80))
            time.sleep(0.1)
            yield env.timeout(1.0)
    """
    hit = [f.rule for f in findings_for(source)]
    assert hit.count("blocking-io") == 2
    # time.sleep is independently a wall-clock violation.
    assert "wall-clock" in hit


def test_blocking_io_nested_function_yield_not_a_generator():
    source = """
        def outer():
            def inner(env):
                yield env.timeout(1)
            return open("x").read()
    """
    assert "blocking-io" not in rules_hit(source)


# -- mutable-default --------------------------------------------------------

MUTABLE_TP = """
    def collect(item, bucket=[]):
        bucket.append(item)
        return bucket
"""

MUTABLE_TN = """
    def collect(item, bucket=None):
        if bucket is None:
            bucket = []
        bucket.append(item)
        return bucket
"""


def test_mutable_default_true_positive():
    findings = [
        f for f in findings_for(MUTABLE_TP) if f.rule == "mutable-default"
    ]
    assert len(findings) == 1
    assert "collect" in findings[0].message


def test_mutable_default_true_negative():
    assert "mutable-default" not in rules_hit(MUTABLE_TN)


def test_mutable_default_kwonly_and_calls():
    source = """
        def f(*, table={}, members=set(), order=dict()):
            return table, members, order
    """
    findings = [f for f in findings_for(source) if f.rule == "mutable-default"]
    assert len(findings) == 3


# -- silent-except ----------------------------------------------------------

SILENT_TP = """
    def hot_path(batch):
        try:
            batch.score()
        except Exception:
            pass
"""

SILENT_TN = """
    def hot_path(batch, log):
        try:
            batch.score()
        except ValueError:
            pass
        except Exception as error:
            log.append(error)
            raise
"""


def test_silent_except_true_positive():
    findings = [f for f in findings_for(SILENT_TP) if f.rule == "silent-except"]
    assert len(findings) == 1


def test_silent_except_true_negative():
    # Narrow except-pass and broad-but-handled are both legitimate.
    assert "silent-except" not in rules_hit(SILENT_TN)


def test_silent_except_bare():
    source = """
        def f():
            try:
                return 1
            except:
                return 2
    """
    findings = [f for f in findings_for(source) if f.rule == "silent-except"]
    assert len(findings) == 1
    assert "bare" in findings[0].message


# -- framework --------------------------------------------------------------


def test_all_rules_registered():
    assert set(rule_names()) == {
        "wall-clock",
        "global-random",
        "hash-randomization",
        "unsorted-iteration",
        "id-ordering",
        "blocking-io",
        "mutable-default",
        "silent-except",
        # concurrency-race catalogue (repro.analysis.races)
        "race-request-leak",
        "race-shared-condition",
        "race-shared-state",
        "race-zero-timeout",
    }


def test_unknown_rule_rejected():
    from repro.analysis.core import make_rules

    with pytest.raises(ValueError, match="unknown lint rule"):
        make_rules(["wall-clock", "no-such-rule"])


def test_syntax_error_reported_not_raised():
    report = lint_source("def broken(:\n", path="bad.py")
    assert len(report.findings) == 1
    assert report.findings[0].rule == "pragma"
    assert "does not parse" in report.findings[0].message


def test_findings_carry_location():
    report = lint_source("import time\nt = time.time()\n", path="mod.py")
    finding = report.findings[0]
    assert finding.path == "mod.py"
    assert finding.line == 2
    assert finding.location() == "mod.py:2:4"
