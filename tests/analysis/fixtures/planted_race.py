"""Planted concurrency hazards — the race detector's self-test target.

Every construct in this file violates one race rule ON PURPOSE; the
analysis test suite and the CI ``race-gate`` job assert that the static
pass flags it. DO NOT "fix" anything here and DO NOT add suppression
pragmas — a clean lint of this file means the detector is broken, not
the fixture.
"""


# -- race-request-leak: slot never released ---------------------------------


def leaky_never(env, gpu):
    slot = gpu.request()
    yield slot
    yield env.timeout(1.0)
    # process ends still holding the slot: capacity leaks forever


# -- race-request-leak: released on the happy path only ---------------------


def leaky_happy_path(env, gpu):
    slot = gpu.request()
    yield slot
    yield env.timeout(1.0)  # an interrupt here leaks the slot
    gpu.release(slot)


# -- race-shared-condition: waiting on a shared long-lived event ------------


def impatient_waiter(hub, env):
    # hub.ready outlives this wait; the condition callback stays attached
    yield env.any_of([hub.ready, env.timeout(0.5)])


# -- race-shared-state: two concurrent writers, different values ------------


class PlantedStateRace:
    def __init__(self, env):
        self.env = env
        self.mode = "idle"

    def start(self):
        self.env.process(self._writer_a())
        self.env.process(self._writer_b())

    def _writer_a(self):
        yield self.env.timeout(1.0)
        self.mode = "a"

    def _writer_b(self):
        yield self.env.timeout(1.0)
        self.mode = "b"  # survivor decided by tie pop order


# -- race-zero-timeout: insertion-order handoff -----------------------------


def zero_yielder(env):
    yield env.timeout(0)  # "let others run" — really "let seq order pick"
    return env.now


# -- unsorted-iteration (.values() blind spot): spawn order from a dict -----


def spawn_fleet(env, workers):
    for worker in workers.values():
        env.process(worker)
