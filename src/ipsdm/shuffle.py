"""The seeded shuffle that corpus.split and trainer.make_batches share.

`SeededStream(entropy).below(n)` returns, call after call, what numpy's
`default_rng(entropy).integers(0, n)` returns, in pure Python, so a stage
that only splits a corpus need not load numpy. It repeats numpy's steps:

- SeedSequence hashes the entropy, a non-negative int or a list of them cut
  into 32-bit words, into a pool of four words, and the pool into PCG64's
  initial state and increment.
- PCG64 outputs the XSL-RR permutation of its 128-bit state.
- Generator.integers uses each 64-bit output as two 32-bit draws, low half
  first, and bounds a draw by Lemire's multiply-and-reject method. A bound
  of 1 draws nothing. Bounds above 2**32 - 1, where numpy switches to
  64-bit draws, raise ValueError.
"""

import operator

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# SeedSequence
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16

# PCG64
_PCG_MULT = 0x2360ED051FC65DA4_4385DF649FCCF645


def _words(entropy) -> list[int]:
    """The entropy as SeedSequence reads it: an int's 32-bit words, least
    significant first (0 is one word); a list, its ints' words in turn."""
    try:
        value = operator.index(entropy)
    except TypeError:
        return [word for part in entropy for word in _words(part)]
    if value < 0:
        raise ValueError(f"entropy must be non-negative, got {value}")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _seed_words(entropy) -> list[int]:
    """SeedSequence(entropy).generate_state(4, np.uint64) as Python ints."""
    words = _words(entropy)
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> _XSHIFT

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> _XSHIFT

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = _INIT_B
    state = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        state.append(value ^ value >> _XSHIFT)
    return [state[i] | state[i + 1] << 32 for i in range(0, len(state), 2)]


class SeededStream:
    """numpy's default_rng(entropy).integers(0, n) draws, without numpy."""

    def __init__(self, entropy):
        seed_hi, seed_lo, inc_hi, inc_lo = _seed_words(entropy)
        self._inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _MASK128
        self._state = ((self._inc + (seed_hi << 64 | seed_lo)) * _PCG_MULT + self._inc) & _MASK128
        self._high_half = None  # the unused upper half of the last 64-bit draw

    def _next32(self) -> int:
        if self._high_half is not None:
            value, self._high_half = self._high_half, None
            return value
        state = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        xored = (state >> 64 ^ state) & _MASK64
        rot = state >> 122
        draw = (xored >> rot | xored << (64 - rot)) & _MASK64
        self._high_half = draw >> 32
        return draw & _MASK32

    def below(self, n: int) -> int:
        """A uniform int in [0, n), for 1 <= n <= 2**32 - 1."""
        if not 1 <= n <= _MASK32:
            raise ValueError(f"bound must lie in [1, 2**32 - 1], got {n}")
        if n == 1:
            return 0
        product = self._next32() * n
        if product & _MASK32 < n:
            threshold = (_MASK32 + 1 - n) % n  # 2**32 mod n: the biased low products
            while product & _MASK32 < threshold:
                product = self._next32() * n
        return product >> 32


def fisher_yates(n: int, stream: SeededStream) -> list[int]:
    """Seeded shuffle of range(n): one stream.below(i + 1) draw for each i
    from n - 1 down to 1."""
    order = list(range(n))
    for i in range(n - 1, 0, -1):
        j = stream.below(i + 1)
        order[i], order[j] = order[j], order[i]
    return order
