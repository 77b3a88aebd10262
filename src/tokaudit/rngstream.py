"""numpy's own random numbers, served from blocks of raw PCG64 output.

A loop that makes millions of scalar draws pays numpy's per-call overhead
on each one. BlockStream reads the generator's raw 64-bit outputs 256 at a
time and turns them into exactly the values numpy's Generator would have
returned, in the same order:

- random(): the top 53 bits of one raw value, times 2**-53;
- integers(n), 1 < n < 2**32: Lemire's multiply-and-reject method on
  32-bit draws. PCG64 makes those from a raw value, low half first, and
  keeps the high half for the next 32-bit draw;
- poisson(lam), 0 < lam < 10: the multiplication method, multiplying
  uniforms until the product falls to exp(-lam) or below.

Any other argument, a Poisson rate of 10 or more (numpy's PTRS method)
among them, puts the generator back where numpy's calls would have left
it, asks numpy, and reads its state afresh. On exit the unread raw values
are rewound and the buffered half-word restored, so the generator's state
is the one numpy's own calls would have left. The rules are numpy 2.x's
(NEP 19 does not fix Generator streams across versions), and the stream
tests compare them with the installed numpy value for value.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

_BLOCK = 256
_SHIFT = np.uint64(11)
_LOW32 = 0xFFFFFFFF
_TWO32 = 1 << 32
# numpy switches from the multiplication method to PTRS here
_POISSON_MULT_MAX = 10.0


class BlockStream:
    """random(), integers(n) and poisson(lam) of one PCG64 Generator, value for value.

    While the stream is open the generator runs ahead of it by the unread
    part of the current block, so draw only through the stream until
    close() hands the generator back.
    """

    def __init__(self, rng):
        self._rng = rng
        self._bg = rng.bit_generator
        # the unread values of the current block, last one first: raw, and
        # as random() doubles
        self._raw = None
        self._dbl: list = []
        self._pop = self._dbl.pop
        self._read_half_word()

    def _read_half_word(self):
        state = self._bg.state
        self._has32 = bool(state["has_uint32"])
        self._u32 = int(state["uinteger"])

    def _by_numpy(self, method: str, arg):
        """One call the stream does not serve, made by numpy in step with it."""
        self.close()
        value = getattr(self._rng, method)(arg)
        self._read_half_word()
        return value

    def _refill(self):
        raw = self._bg.random_raw(_BLOCK)[::-1]
        self._raw = raw
        self._dbl = ((raw >> _SHIFT) * 2.0**-53).tolist()
        self._pop = self._dbl.pop

    def random(self) -> float:
        try:
            return self._pop()
        except IndexError:
            self._refill()
            return self._pop()

    def _next32(self) -> int:
        if self._has32:
            self._has32 = False
            return self._u32
        try:
            self._pop()
        except IndexError:
            self._refill()
            self._pop()
        raw = int(self._raw[len(self._dbl)])
        self._has32 = True
        self._u32 = raw >> 32
        return raw & _LOW32

    def integers(self, n) -> int:
        if n == 1:
            return 0
        if type(n) is not int or not 1 < n < _TWO32:
            return self._by_numpy("integers", n)
        m = self._next32() * n
        if m & _LOW32 < n:
            threshold = (_TWO32 - n) % n
            while m & _LOW32 < threshold:
                m = self._next32() * n
        return m >> 32

    def poisson(self, lam) -> int:
        if not 0 < lam < _POISSON_MULT_MAX:
            return self._by_numpy("poisson", lam)
        enlam = math.exp(-lam)
        x = 0
        prod = 1.0
        while True:
            pop = self._pop
            try:
                while True:
                    prod *= pop()
                    if prod <= enlam:
                        return x
                    x += 1
            except IndexError:
                self._refill()

    def close(self):
        """Rewind the unread raw values and restore the buffered half-word."""
        bg = self._bg
        if self._dbl:
            bg.advance(-len(self._dbl))
            self._dbl.clear()
        state = bg.state
        state["has_uint32"] = int(self._has32)
        state["uinteger"] = self._u32
        bg.state = state


@contextmanager
def exact_stream(rng):
    """Yield a BlockStream over rng when it is a PCG64 Generator, else rng itself.

    The generator's state on exit, also after an exception, is the one
    numpy's own calls would have left.
    """
    # numpy.random is loaded by now if rng is a Generator; importing it with
    # the package would add its import time to every start-up
    from numpy.random import PCG64, Generator

    if type(rng) is not Generator or type(rng.bit_generator) is not PCG64:
        yield rng
        return
    stream = BlockStream(rng)
    try:
        yield stream
    finally:
        stream.close()
