"""Seeded, named random streams for reproducible simulations.

Each component draws from its own named stream so adding a new source of
randomness never perturbs the draws of existing components — a standard
variance-reduction discipline for simulation studies.
"""

from __future__ import annotations

# crayfish: allow-file[global-random]: this module IS the sanctioned randomness root every other component must route through

import zlib

import numpy as np

# NumPy's SeedSequence constants (numpy/random/bit_generator.pyx) and
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h): the
# keyed draw below replays both algorithms on Python ints.
_MASK32 = 0xFFFF_FFFF
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_constants(init: int, mult: int, steps: int) -> list[tuple[int, int]]:
    """The (xor, multiply) constants of ``steps`` successive hash steps.

    SeedSequence's hashes xor a word with a running constant, advance
    the constant by one multiplication, then multiply the word by it;
    the constants depend only on the step count, never on the data.
    """
    pairs = []
    const = init
    for __ in range(steps):
        advanced = const * mult & _MASK32
        pairs.append((const, advanced))
        const = advanced
    return pairs


#: ``generate_state(4, np.uint64)`` hashes the pool twice round: output
#: words 0-3 become PCG64's 128-bit seed, words 4-7 its stream.
_STATE_CONSTANTS = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
#: Bit offset of output word ``i % 4`` in its 128-bit half: uint32 pairs
#: form little-endian uint64s, and the first uint64 is the high one.
_STATE_SHIFTS = (64, 96, 0, 32)


def _keyed_root(entropy: int, name: str) -> tuple:
    """Everything of a keyed draw on ``name`` that does not depend on the key.

    ``SeedSequence(entropy, spawn_key=(crc(name.keyed), crc(key)))``
    mixes the key's word last, into a pool that every earlier word
    already fixed. So this runs ``mix_entropy`` over the run entropy
    (zero-padded to the pool size) and the name word once, and returns
    what the key word's four hashmix/mix steps need: per pool word, the
    hash constants and the ``MIX_MULT_L * pool`` product, then the
    ``generate_state`` constants and bit offset of the two output words
    that pool word becomes. It also returns one reusable ``PCG64`` and
    its ``Generator``.
    """
    words = []
    while True:
        words.append(entropy & _MASK32)
        entropy >>= 32
        if not entropy:
            break
    words += [0] * (_POOL_SIZE - len(words))
    words.append(zlib.crc32(f"{name}.keyed".encode("utf-8")))
    # One hashmix per entropy word, one per ordered pair of pool words,
    # one per pool word for each word past the pool and for the key:
    # _POOL_SIZE * (len(words) + 1) steps in all.
    constants = iter(_hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * (len(words) + 1)))

    def hashmix(value: int) -> int:
        xor, mult = next(constants)
        value = (value ^ xor) * mult & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix(word) for word in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    key_steps = tuple(
        (
            *next(constants),
            _MIX_MULT_L * word,
            *_STATE_CONSTANTS[index],
            *_STATE_CONSTANTS[index + _POOL_SIZE],
            _STATE_SHIFTS[index],
        )
        for index, word in enumerate(pool)
    )
    bit_generator = np.random.PCG64(0)
    return key_steps, bit_generator, np.random.Generator(bit_generator)


class RandomStreams:
    """A family of independent RNG streams derived from one root seed."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}
        #: name -> its :func:`_keyed_root`, built on the first keyed draw.
        self._keyed: dict[str, tuple] = {}

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
        # The draw is default_rng(SeedSequence(entropy=seed, spawn_key=
        # (crc32(name + ".keyed"), crc32(str(key))))).lognormal, bit for
        # bit: ".keyed" separates the keyed namespace from the sequential
        # stream of the same name, and the crc32 of the key text
        # sidesteps spawn_key's uint32 bound. Only the key's word is
        # mixed per draw; _keyed_root did the rest once per name.
        keyed = self._keyed
        if name not in keyed:
            keyed[name] = _keyed_root(np.random.SeedSequence(self.seed).entropy, name)
        key_steps, bit_generator, generator = keyed[name]
        # b"%d" % key is str(int(key)).encode() without three calls.
        word = zlib.crc32(b"%d" % key)
        initstate = initseq = 0
        for xor, mult, mixed, seed_xor, seed_mult, seq_xor, seq_mult, shift in key_steps:
            # Mix the key word into this pool word ...
            hashed = (word ^ xor) * mult & _MASK32
            hashed = (mixed - _MIX_MULT_R * (hashed ^ (hashed >> 16))) & _MASK32
            hashed ^= hashed >> 16
            # ... and hash out its two generate_state output words.
            value = (hashed ^ seed_xor) * seed_mult & _MASK32
            initstate |= (value ^ (value >> 16)) << shift
            value = (hashed ^ seq_xor) * seq_mult & _MASK32
            initseq |= (value ^ (value >> 16)) << shift
        # PCG64's srandom: two LCG steps from zero around the seed.
        inc = (initseq << 1 | 1) & _MASK128
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": ((inc + initstate) * _PCG_MULT + inc) & _MASK128, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        return generator.lognormal(mean=0.0, sigma=sigma)
