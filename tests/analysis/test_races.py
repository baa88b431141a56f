"""Static race rules: the process graph and the four hazard patterns."""

import pathlib

from repro.analysis.core import lint_file, lint_source, make_rules
from repro.analysis.races import ProcessGraph

FIXTURE = (
    pathlib.Path(__file__).resolve().parent / "fixtures" / "planted_race.py"
)

RACE_RULES = (
    "race-request-leak",
    "race-shared-condition",
    "race-shared-state",
    "race-zero-timeout",
)


def _lint(source, rules=RACE_RULES):
    return lint_source(source, "sample.py", rules=make_rules(rules))


def _rules_found(report):
    return {finding.rule for finding in report.findings}


# -- planted fixture ---------------------------------------------------------


def test_planted_fixture_trips_every_static_rule():
    report = lint_file(FIXTURE, rules=make_rules(RACE_RULES))
    assert _rules_found(report) == set(RACE_RULES)


def test_planted_fixture_findings_name_the_planted_functions():
    report = lint_file(FIXTURE, rules=make_rules(RACE_RULES))
    text = " ".join(f.message for f in report.findings)
    for marker in ("leaky_never", "leaky_happy_path", "_writer_a", "hub.ready"):
        assert marker in text


def test_planted_fixture_values_blind_spot():
    report = lint_file(FIXTURE, rules=make_rules(["unsorted-iteration"]))
    assert any(".values() view into event scheduling" in f.message
               for f in report.findings)


# -- process graph -----------------------------------------------------------


GRAPH_SRC = '''
def driver(env):
    env.process(worker(env))
    yield env.timeout(1.0)

def worker(env):
    yield from helper(env)

def helper(env):
    yield env.timeout(1.0)

def plain(env):
    return 42
'''


def test_process_graph_spawns_and_delegates():
    import ast

    from repro.analysis.core import ModuleContext

    tree = ast.parse(GRAPH_SRC)
    graph = ProcessGraph(ModuleContext(GRAPH_SRC, "g.py", tree))
    assert set(graph.processes) == {"driver", "worker", "helper"}
    assert "worker" in graph.spawned
    concurrent = {info.node.name for info in graph.concurrent_processes()}
    # helper is a pure yield-from subroutine of worker, never spawned
    assert "helper" not in concurrent
    assert {"driver", "worker"} <= concurrent


# -- race-request-leak -------------------------------------------------------


def test_request_leak_never_released():
    report = _lint('''
def proc(env, res):
    slot = res.request()
    yield slot
    yield env.timeout(1.0)
''')
    assert _rules_found(report) == {"race-request-leak"}
    assert "never releases" in report.findings[0].message


def test_request_leak_happy_path_release():
    report = _lint('''
def proc(env, res):
    slot = res.request()
    yield slot
    yield env.timeout(1.0)
    res.release(slot)
''')
    assert _rules_found(report) == {"race-request-leak"}
    assert "happy path" in report.findings[0].message


def test_request_leak_finally_is_clean():
    report = _lint('''
def proc(env, res):
    slot = res.request()
    try:
        yield slot
        yield env.timeout(1.0)
    finally:
        res.release(slot)
''')
    assert report.clean


def test_request_leak_with_statement_is_clean():
    report = _lint('''
def proc(env, res):
    with res.request() as slot:
        yield slot
        yield env.timeout(1.0)
''')
    assert report.clean


def test_request_leak_escaped_slot_is_clean():
    """Handing the slot to another function moves ownership, not leaks."""
    report = _lint('''
def proc(env, res):
    slot = res.request()
    yield slot
    env.process(cleanup(env, res, slot))
    yield env.timeout(1.0)
''')
    assert report.clean


# -- race-shared-condition ---------------------------------------------------


def test_shared_condition_attribute_child_flagged():
    report = _lint('''
def proc(self, env):
    yield env.any_of([self.ready, env.timeout(0.5)])
''')
    assert _rules_found(report) == {"race-shared-condition"}
    assert "self.ready" in report.findings[0].message


def test_shared_condition_local_events_clean():
    report = _lint('''
def proc(env, res):
    done = env.timeout(1.0)
    gone = env.timeout(2.0)
    yield env.any_of([done, gone])
''')
    assert report.clean


# -- race-shared-state -------------------------------------------------------


SHARED_TEMPLATE = '''
class Thing:
    def start(self):
        self.env.process(self.a())
        self.env.process(self.b())

    def a(self):
        yield self.env.timeout(1.0)
        {write_a}

    def b(self):
        yield self.env.timeout(1.0)
        {write_b}
'''


def test_shared_state_different_constants_flagged():
    report = _lint(SHARED_TEMPLATE.format(
        write_a='self.mode = "a"', write_b='self.mode = "b"'
    ))
    assert _rules_found(report) == {"race-shared-state"}
    assert len(report.findings) == 2  # one per write site


def test_shared_state_counters_commute():
    report = _lint(SHARED_TEMPLATE.format(
        write_a="self.done += 1", write_b="self.done += 1"
    ))
    assert report.clean


def test_shared_state_identical_constants_converge():
    report = _lint(SHARED_TEMPLATE.format(
        write_a="self.closed = True", write_b="self.closed = True"
    ))
    assert report.clean


def test_shared_state_single_owner_clean():
    report = _lint(SHARED_TEMPLATE.format(
        write_a='self.mode = "a"', write_b="pass"
    ))
    assert report.clean


# -- race-zero-timeout -------------------------------------------------------


def test_zero_timeout_flagged():
    report = _lint('''
def proc(env):
    yield env.timeout(0)
''')
    assert _rules_found(report) == {"race-zero-timeout"}


def test_zero_timeout_with_priority_clean():
    report = _lint('''
def proc(env):
    yield env.timeout(0, priority=0)
''')
    assert report.clean


def test_nonzero_timeout_clean():
    report = _lint('''
def proc(env):
    yield env.timeout(0.5)
''')
    assert report.clean


# -- dead-pragma hygiene ----------------------------------------------------


def test_static_pragma_still_flagged_as_dead():
    report = lint_source(
        "x = 1  # crayfish: allow[wall-clock]: stale excuse\n",
        "sample.py",
    )
    assert [f.rule for f in report.findings] == ["pragma"]
    assert "suppresses nothing" in report.findings[0].message
