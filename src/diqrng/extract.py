"""Toeplitz-hash randomness extraction over GF(2), block-wise and bitsliced.

Bit convention: a :class:`BitStream` of ``n`` bits is its file payload, a
read-only array of ``ceil(n / 8)`` uint8 bytes.  Bit ``i`` of the stream is
bit ``i % 8`` (LSB first) of byte ``i // 8``, and the pad bits past ``n``
are zero.  Those bytes are what ``sha256`` hashes and ``save`` writes.
Bit input enters the package through :func:`as_bits`, which admits only
the values 0 and 1.

Toeplitz indexing: with a seed of length n + m - 1, the hash matrix is
``T[i, j] = seed[i - j + n - 1]`` for i in [0, m) and j in [0, n).  Worked
3x2 example: n=3, m=2, seed=(1,0,1,1), x=(1,1,0) gives y=(1,0).
The same seed (one matrix) is reused across all blocks of a run.

Lane layout: :func:`bitslice` turns B blocks of L bits into L rows of
``ceil(B / 64)`` uint64 words, one row per bit position.  Bit ``b`` of word
``w`` in row ``k`` is bit ``k`` of block ``64 w + b``, so each of the 64 bit
lanes of a word carries one block, and a word-wide AND or XOR of two rows
acts on 64 blocks at once.  Lanes past the last block are zero.  The
Toeplitz hash ``y = T x`` is then row arithmetic: output row ``i`` is the
XOR of the input rows ``j`` with ``T[i, j] = 1``.  It is computed by the
method of the four Russians (Arlazarov et al., 1970): for each group of 8
input rows the 256 XOR combinations are tabulated once, and every output row
XORs in the entry that byte of its Toeplitz row selects.  The
Berlekamp-Massey kernel of the SP 800-22 Linear Complexity test uses the same
layout.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Global output/input ratio of the reference pipeline (1.2 M out of 4.5 M).
PAPER_RATIO_M = 1200
PAPER_RATIO_N = 4500

_WORD_BITS = 64


def as_bits(bits) -> np.ndarray:
    """The bits of a BitStream, or of an array holding only 0 and 1, as a
    flat uint8 array; any other value raises ValueError."""
    if isinstance(bits, BitStream):
        return bits.to_bits()
    arr = np.asarray(bits).ravel()
    if arr.dtype == np.uint8:
        bad = arr.size and arr.max() > 1
    else:
        bad = not np.all((arr == 0) | (arr == 1))
    if bad:
        raise ValueError("bit values must be 0 or 1")
    return arr.astype(np.uint8, copy=False)


def bitslice(blocks: np.ndarray) -> np.ndarray:
    """Transpose (B, L) 0/1 blocks into (L, ceil(B / 64)) uint64 rows.

    Bit ``b`` of word ``w`` in row ``k`` is bit ``k`` of block ``64 w + b``;
    lanes past the last block are zero.
    """
    blocks = np.asarray(blocks, dtype=np.uint8)
    n_blocks, length = blocks.shape
    n_words = (n_blocks + _WORD_BITS - 1) // _WORD_BITS
    buf = np.zeros((length, n_words * 8), dtype=np.uint8)
    # packbits runs several times faster on a contiguous transpose.
    lanes = np.ascontiguousarray(blocks.T)
    buf[:, : (n_blocks + 7) // 8] = np.packbits(lanes, axis=1, bitorder="little")
    return buf.view("<u8")


def _unbitslice(rows: np.ndarray, n_blocks: int) -> np.ndarray:
    """Inverse of :func:`bitslice`: (L, W) rows back to (n_blocks, L) bits."""
    bits = np.unpackbits(rows.view(np.uint8), axis=1, bitorder="little")
    return bits[:, :n_blocks].T


@dataclass(frozen=True)
class BitStream:
    """Packed bit stream with provenance metadata.

    ``data`` is the file payload: ``ceil(n_bits / 8)`` uint8 bytes, LSB
    first, pad bits zero.  ``provenance`` carries at least a ``stage`` key
    ("raw" or "extracted"); the pipeline adds config hashes and seeds.
    """

    data: np.ndarray
    n_bits: int
    provenance: dict = field(default_factory=lambda: {"stage": "raw"})

    def __post_init__(self):
        data = np.ascontiguousarray(self.data)
        if data.dtype != np.uint8 or data.ndim != 1:
            raise ValueError(f"data must be a 1-D uint8 array, got {data.dtype} {data.shape}")
        if self.n_bits < 0 or data.size != (self.n_bits + 7) // 8:
            raise ValueError(f"{data.size} bytes inconsistent with n_bits={self.n_bits}")
        if self.n_bits % 8 and data[-1] >> (self.n_bits % 8):
            raise ValueError("trailing pad bits must be zero")
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

    @property
    def stage(self) -> str:
        return self.provenance.get("stage", "raw")

    @classmethod
    def from_bits(cls, bits, provenance=None) -> "BitStream":
        bits = as_bits(bits)
        return cls(
            np.packbits(bits, bitorder="little"),
            int(bits.size),
            dict(provenance or {"stage": "raw"}),
        )

    def to_bits(self) -> np.ndarray:
        return np.unpackbits(self.data, bitorder="little", count=self.n_bits)

    def to_bytes(self) -> bytes:
        return self.data.tobytes()

    def ones(self) -> int:
        return int(np.bitwise_count(self.data).sum())

    def sha256(self) -> str:
        return hashlib.sha256(self.data).hexdigest()

    # -- file I/O: raw payload plus a JSON sidecar ---------------------

    def save(self, path) -> Path:
        path = Path(path)
        path.write_bytes(self.to_bytes())
        sidecar = {
            "n_bits": self.n_bits,
            "stage": self.stage,
            "sha256": self.sha256(),
        }
        for key, value in self.provenance.items():
            if key != "stage":
                sidecar[key] = value
        Path(str(path) + ".json").write_text(json.dumps(sidecar, indent=2, allow_nan=False))
        return path

    @classmethod
    def load(cls, path) -> "BitStream":
        path = Path(path)
        sidecar_path = Path(str(path) + ".json")
        sidecar = json.loads(sidecar_path.read_text())
        if not isinstance(sidecar, dict):
            raise ValueError(f"sidecar {sidecar_path} must be a JSON object")
        for key in ("n_bits", "sha256"):
            if key not in sidecar:
                raise ValueError(f"sidecar {sidecar_path} has no {key!r}")
        n_bits = sidecar["n_bits"]
        if type(n_bits) is not int:  # not bool, float or str
            raise ValueError(
                f"sidecar {sidecar_path} n_bits must be a JSON integer, got {n_bits!r}"
            )
        stream = cls(
            np.frombuffer(path.read_bytes(), dtype=np.uint8),
            n_bits,
            {k: v for k, v in sidecar.items() if k not in ("n_bits", "sha256")},
        )
        if stream.sha256() != sidecar["sha256"]:
            raise ValueError(f"checksum mismatch: {path} does not hash to sidecar {sidecar_path}")
        return stream


@dataclass(frozen=True)
class ToeplitzSeed:
    """Seed bits defining one n -> m Toeplitz matrix (length n + m - 1)."""

    bits: np.ndarray
    n: int
    m: int

    def __post_init__(self):
        b = as_bits(self.bits)
        if self.m < 1 or self.n < 1 or self.m >= self.n:
            raise ValueError("Toeplitz seed needs 1 <= m < n")
        if b.size != self.n + self.m - 1:
            raise ValueError(
                f"seed length {b.size} != n + m - 1 = {self.n + self.m - 1}"
            )
        b.flags.writeable = False
        object.__setattr__(self, "bits", b)

    @classmethod
    def from_rng(cls, n: int, m: int, rng_seed: int) -> "ToeplitzSeed":
        rng = np.random.default_rng([int(rng_seed), 0x70E7])
        return cls(rng.integers(0, 2, size=n + m - 1, dtype=np.uint8), n, m)

    def row_bytes(self) -> np.ndarray:
        """(m, ceil(n/8)) uint8 matrix; byte g of row i holds T[i, 8g .. 8g+7]
        LSB first (zero past column n - 1).

        Row i over j is seed[i+n-1], seed[i+n-2], ..., seed[i]: a reversed
        sliding window of the seed.
        """
        rev = self.bits[::-1]
        windows = np.lib.stride_tricks.sliding_window_view(rev, self.n)
        rows = windows[::-1][: self.m]  # row i == reversed seed[i : i + n]
        return np.packbits(np.ascontiguousarray(rows), axis=1, bitorder="little")


@dataclass(frozen=True)
class ExtractorConfig:
    """Block extraction settings.

    mode "paper_ratio" keeps the reference 4500 -> 1200 block shape (or the
    same ratio for another n); mode "leftover_hash" sizes m from a measured
    min-entropy via :func:`choose_output_length`.
    """

    n: int = PAPER_RATIO_N
    m: int | None = None
    mode: str = "paper_ratio"
    h_inf: float | None = None
    epsilon: float = 2.0 ** -100
    rng_seed: int = 0

    def __post_init__(self):
        if self.mode not in ("paper_ratio", "leftover_hash"):
            raise ValueError(f"unknown extractor mode {self.mode!r}")
        if self.n < 2:
            raise ValueError("block input length must be at least 2")
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in (0, 1], got {self.epsilon!r}")
        if self.h_inf is not None and not 0.0 < self.h_inf <= 1.0:
            raise ValueError(f"h_inf must be in (0, 1], got {self.h_inf!r}")
        m = self.resolve_m()  # the condition ToeplitzSeed enforces, checked at config load
        if not 1 <= m < self.n:
            raise ValueError(f"extractor needs 1 <= m < n, got m={m} and n={self.n}")

    def resolve_m(self) -> int:
        if self.m is not None:
            return int(self.m)
        if self.mode == "paper_ratio":
            return max(1, round(self.n * PAPER_RATIO_M / PAPER_RATIO_N))
        if self.h_inf is None:
            raise ValueError("leftover_hash mode needs h_inf")
        return choose_output_length(self.n, self.h_inf, self.epsilon)

    def build_seed(self) -> ToeplitzSeed:
        return ToeplitzSeed.from_rng(self.n, self.resolve_m(), self.rng_seed)


def choose_output_length(n: int, h_inf: float, epsilon: float) -> int:
    """Leftover-hash sizing: m = floor(n * h_inf - 2 log2(1/epsilon)).

    epsilon = 1 is allowed as the degenerate no-security limit (m = n at
    full entropy); real runs use something like 2**-100.
    """
    if not 0.0 < h_inf <= 1.0:
        raise ValueError("h_inf must be in (0, 1]")
    if not 0.0 < epsilon <= 1.0:
        raise ValueError("epsilon must be in (0, 1]")
    m = math.floor(n * h_inf - 2.0 * math.log2(1.0 / epsilon))
    if m < 1:
        raise ValueError(
            f"parameters yield m={m} < 1 (n={n}, h_inf={h_inf}, epsilon={epsilon})"
        )
    return m


#: Bytes of four-Russians tables built at a time (8 input rows per table).
_TABLE_CHUNK_BYTES = 1 << 21


def _hash_bitsliced(x_rows: np.ndarray, t_bytes: np.ndarray) -> np.ndarray:
    """GF(2) mat-vec ``y = T x`` in every lane of bitsliced input.

    x_rows: (n, W) bitsliced blocks (:func:`bitslice`); t_bytes: (m, G)
    Toeplitz rows from :meth:`ToeplitzSeed.row_bytes`, G = ceil(n / 8).
    Returns the (m, W) bitsliced outputs.  For each group g of 8 input rows
    the 256 XOR combinations are built by doubling (entry v | 2^k is entry v
    XOR row 8g + k), and output row i XORs in the entry that byte g of its
    Toeplitz row selects.  Tables are built a chunk of groups at a time.
    """
    n, n_words = x_rows.shape
    m, n_groups = t_bytes.shape
    x = np.zeros((n_groups * 8, n_words), dtype="<u8")
    x[:n] = x_rows
    x = x.reshape(n_groups, 8, n_words)
    selectors = np.ascontiguousarray(t_bytes.T)  # (G, m): one index vector per group
    chunk = max(1, _TABLE_CHUNK_BYTES // (256 * 8 * n_words))
    tables = np.empty((min(chunk, n_groups), 256, n_words), dtype="<u8")
    tables[:, 0] = 0
    y = np.zeros((m, n_words), dtype="<u8")
    picked = np.empty_like(y)
    for start in range(0, n_groups, chunk):
        stop = min(start + chunk, n_groups)
        built = tables[: stop - start]
        for k in range(8):
            np.bitwise_xor(
                built[:, : 1 << k],
                x[start:stop, k, np.newaxis],
                out=built[:, 1 << k : 2 << k],
            )
        for g in range(start, stop):
            np.take(built[g - start], selectors[g], axis=0, out=picked)
            y ^= picked
    return y


def toeplitz_hash(x, seed: ToeplitzSeed) -> np.ndarray:
    """Hash one n-bit block to m bits: y_i = XOR_j T[i,j] x_j over GF(2)."""
    bits = as_bits(x)
    if bits.size != seed.n:
        raise ValueError(f"block length {bits.size} != seed n = {seed.n}")
    y = _hash_bitsliced(bitslice(bits[np.newaxis, :]), seed.row_bytes())
    return _unbitslice(y, 1)[0]


#: Blocks hashed per batch.  A multiple of 8, so every batch but the last
#: fills whole output bytes.
_BATCH_BLOCKS = 1024


def extract_stream(raw: BitStream, cfg: ExtractorConfig) -> BitStream:
    """Split into n-bit blocks, hash each with one shared seed, concatenate.

    A trailing partial block is discarded.  Block-parallel by construction:
    every block sees the same matrix, 64 blocks share each bitsliced word,
    and each block's output lands at a fixed offset.  Blocks are hashed in
    batches of :data:`_BATCH_BLOCKS`; only the payload bytes of the
    current batch are unpacked, and its output is packed in place.
    """
    if raw.n_bits < cfg.n:
        raise ValueError(
            f"input has {raw.n_bits} bits, shorter than one {cfg.n}-bit block"
        )
    seed = cfg.build_seed()
    seed_bytes = np.packbits(seed.bits, bitorder="little").tobytes()
    t_bytes = seed.row_bytes()
    n_blocks = raw.n_bits // cfg.n
    out = np.empty((n_blocks * seed.m + 7) // 8, dtype=np.uint8)
    for first in range(0, n_blocks, _BATCH_BLOCKS):
        count = min(_BATCH_BLOCKS, n_blocks - first)
        start, stop = first * cfg.n, (first + count) * cfg.n
        bits = np.unpackbits(raw.data[start // 8 : (stop + 7) // 8], bitorder="little")
        blocks = bits[start % 8 : start % 8 + stop - start].reshape(count, cfg.n)
        y = _unbitslice(_hash_bitsliced(bitslice(blocks), t_bytes), count)
        packed = np.packbits(y, bitorder="little")
        out[first * seed.m // 8 : first * seed.m // 8 + packed.size] = packed

    provenance = {
        "stage": "extracted",
        "block_n": cfg.n,
        "block_m": seed.m,
        "n_blocks": n_blocks,
        "seed_sha256": hashlib.sha256(seed_bytes).hexdigest(),
        "seed_hex": seed_bytes.hex(),
        "parent_sha256": raw.sha256(),
    }
    return BitStream(out, n_blocks * seed.m, provenance)
