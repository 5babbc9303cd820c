"""Seeded hash families used by every sketch in the package.

A *family* exposes ``hash_into(item, index, size)``: the position of
``item`` in the ``index``-th array of ``size`` slots.  Families are
deterministic given their seed, so every experiment in the repository is
reproducible run-to-run.

Three families are provided:

``bob``
    The paper's choice -- 32-bit Bob Hash with per-index derived seeds.
``murmur``
    Murmur3-32, an independent family for sensitivity checks.
``crc``
    ``zlib.crc32`` with seed mixing.  Roughly an order of magnitude faster
    than the pure-Python hashes, used by default in throughput benchmarks;
    its distribution quality is adequate for the table sizes used here.

Every family also hashes a whole batch at once through
:meth:`HashFamily.hash_rows`, the path the numpy sketches take.
"""

from __future__ import annotations

import functools
import zlib
from typing import Callable, Dict, Sequence, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.hashing.bobhash import bob_hash
from repro.hashing.murmur import murmur3_32

ItemId = Union[int, str, bytes]

_MASK = 0xFFFFFFFF
# Odd multipliers for deriving per-index seeds from the family seed; the
# exact constants are arbitrary, they only need to differ per index.
_SEED_STRIDE = 0x9E3779B1
_MIX = 0x85EBCA6B


def encode_item(item: ItemId) -> bytes:
    """Canonical byte encoding of an item identifier.

    Integers encode as 8 little-endian bytes (covering IPv4 five-tuple
    hashes and 64-bit flow IDs), strings as UTF-8, bytes pass through.
    """
    if isinstance(item, bytes):
        return item
    if isinstance(item, str):
        return item.encode("utf-8")
    if isinstance(item, int):
        return item.to_bytes(8, "little", signed=True)
    raise TypeError(f"unsupported item type: {type(item).__name__}")


class HashFamily:
    """A deterministic family of hash functions indexed by a small integer."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)

    def _derive_seed(self, index: int) -> int:
        return (self.seed + (index + 1) * _SEED_STRIDE) & _MASK

    def hash32(self, item: ItemId, index: int) -> int:
        """32-bit hash of ``item`` under the ``index``-th function."""
        raise NotImplementedError

    def hash_into(self, item: ItemId, index: int, size: int) -> int:
        """Slot of ``item`` in an array of ``size`` slots (``index``-th fn)."""
        if size <= 0:
            raise ConfigurationError(f"array size must be positive, got {size}")
        return self.hash32(item, index) % size

    def hash_rows(self, items: Sequence[ItemId], sizes: Sequence[int]) -> np.ndarray:
        """Slots of a batch of items: an ``(len(items), len(sizes))``
        int64 matrix whose column ``i`` is ``hash32(item, i) % sizes[i]``.

        This base version loops over :meth:`hash32`;
        :class:`CrcHashFamily` overrides it with a vectorized path that
        gives the same bits.
        """
        rows = [
            [self.hash32(item, index) % size for index, size in enumerate(sizes)]
            for item in items
        ]
        return np.asarray(rows, dtype=np.int64).reshape(len(items), len(sizes))


class BobHashFamily(HashFamily):
    """Bob Hash (lookup2) family -- the paper's hash function."""

    def hash32(self, item: ItemId, index: int) -> int:
        return bob_hash(encode_item(item), self._derive_seed(index))


class MurmurHashFamily(HashFamily):
    """Murmur3-32 family."""

    def hash32(self, item: ItemId, index: int) -> int:
        return murmur3_32(encode_item(item), self._derive_seed(index))


class CrcHashFamily(HashFamily):
    """CRC32-based family; fastest option, used for throughput runs."""

    def hash32(self, item: ItemId, index: int) -> int:
        raw = zlib.crc32(encode_item(item), self._derive_seed(index)) & _MASK
        # One round of integer finalization: bare CRC is too linear for
        # adjacent integer IDs, which would correlate sketch collisions.
        raw ^= raw >> 16
        raw = (raw * _MIX) & _MASK
        raw ^= raw >> 13
        return raw

    def hash_rows(self, items: Sequence[ItemId], sizes: Sequence[int]) -> np.ndarray:
        """Batched :meth:`hash32` slots, bit-identical to the scalar path.

        The seed folds out of the CRC by its affine property:
        ``crc32(msg, seed) == crc32(msg, 0) ^ C(seed, len(msg))`` (see
        :func:`_crc_seed_const`).  A batch therefore costs one C-speed
        ``zlib.crc32`` per item; the per-index seeds, the finalization
        and the modulo run vectorized over the batch.
        """
        n = len(items)
        rows = np.empty((n, len(sizes)), dtype=np.int64)
        if n == 0:
            return rows
        encoded = [encode_item(item) for item in items]
        bases = np.fromiter(map(zlib.crc32, encoded), dtype=np.uint64, count=n)
        lengths, inverse = np.unique(
            np.fromiter(map(len, encoded), dtype=np.int64, count=n),
            return_inverse=True,
        )
        for index, size in enumerate(sizes):
            seed = self._derive_seed(index)
            consts = np.array(
                [_crc_seed_const(seed, int(length)) for length in lengths],
                dtype=np.uint64,
            )
            raw = bases ^ consts[inverse]
            raw ^= raw >> np.uint64(16)
            raw = (raw * np.uint64(_MIX)) & np.uint64(_MASK)
            raw ^= raw >> np.uint64(13)
            rows[:, index] = raw % np.uint64(size)
        return rows


@functools.lru_cache(maxsize=4096)
def _crc_seed_const(seed: int, length: int) -> int:
    """``crc32(0^length, seed) ^ crc32(0^length, 0)``: what ``seed``
    xors into the CRC of any ``length``-byte message."""
    zeros = bytes(length)
    return zlib.crc32(zeros, seed) ^ zlib.crc32(zeros)


HASH_FAMILIES: Dict[str, Callable[[int], HashFamily]] = {
    "bob": BobHashFamily,
    "murmur": MurmurHashFamily,
    "crc": CrcHashFamily,
}


def make_family(name: str = "crc", seed: int = 0) -> HashFamily:
    """Construct a hash family by name (``bob``, ``murmur`` or ``crc``)."""
    try:
        factory = HASH_FAMILIES[name]
    except KeyError:
        known = ", ".join(sorted(HASH_FAMILIES))
        raise ConfigurationError(f"unknown hash family {name!r}; expected one of: {known}") from None
    return factory(seed)
