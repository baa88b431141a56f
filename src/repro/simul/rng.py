"""Seeded, named random streams for reproducible simulations.

Each component draws from its own named stream so adding a new source of
randomness never perturbs the draws of existing components — a standard
variance-reduction discipline for simulation studies.
"""

from __future__ import annotations

# crayfish: allow-file[global-random]: this module IS the sanctioned randomness root every other component must route through

import zlib

import numpy as np


class RandomStreams:
    """A family of independent RNG streams derived from one root seed."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}
        #: name -> (root entropy, crc32 of the keyed name), built once.
        self._keyed: dict[str, tuple[int, int]] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the stream called ``name``."""
        if name not in self._streams:
            root = np.random.SeedSequence(self.seed)
            # zlib.crc32 is stable across processes, unlike hash() which
            # is salted by PYTHONHASHSEED.
            child = np.random.SeedSequence(
                entropy=root.entropy,
                spawn_key=(zlib.crc32(name.encode("utf-8")),),
            )
            self._streams[name] = np.random.default_rng(child)
        return self._streams[name]

    def lognormal_factor(self, name: str, sigma: float) -> float:
        """A multiplicative noise factor with median 1.0.

        Used to perturb service times; ``sigma=0`` returns exactly 1.0 so
        deterministic runs stay deterministic.
        """
        if sigma <= 0:
            return 1.0
        return float(self.stream(name).lognormal(mean=0.0, sigma=sigma))

    def keyed_lognormal_factor(self, name: str, sigma: float, key: int) -> float:
        """Content-keyed variant of :meth:`lognormal_factor`.

        The factor is a pure function of ``(seed, name, key)`` instead of
        of how many draws preceded it on the stream. That matters when
        two simulation processes consume one named stream concurrently:
        a sequential stream assigns variates to requests in *pop order*,
        so any event-tie flip silently re-pairs requests with noise — the
        exact hazard class ``crayfish verify-order`` exists to catch.
        Keying by stable content identity (e.g. a batch id) makes the
        assignment schedule-independent.
        """
        if sigma <= 0:
            return 1.0
        # A fresh child sequence per key: ".keyed" separates the keyed
        # namespace from the sequential stream of the same name, and the
        # crc32 of the key text sidesteps spawn_key's uint32 bound.
        root = self._keyed.get(name)
        if root is None:
            root = self._keyed[name] = (
                np.random.SeedSequence(self.seed).entropy,
                zlib.crc32(f"{name}.keyed".encode("utf-8")),
            )
        child = np.random.SeedSequence(
            entropy=root[0],
            spawn_key=(root[1], zlib.crc32(str(int(key)).encode("utf-8"))),
        )
        # default_rng(child) is this Generator, minus its dispatch cost.
        generator = np.random.Generator(np.random.PCG64(child))
        return float(generator.lognormal(mean=0.0, sigma=sigma))
