"""Token vocabulary, embedding tables, and positional representations.

Covers three ways of telling the model where a token sits: absolute
sinusoidal encodings added to the embeddings, their shift identity (a
position offset is a linear map on the encoding), and learned relative-
position tables indexed by clipped offset.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import tensor as T


class VocabError(ValueError):
    """A token id fell outside the vocabulary."""


class RoleDisabledError(ValueError):
    """A relative-position table was given a role other than q, k or v."""


PAD, SOS, EOS, CLS = 0, 1, 2, 3
_RESERVED = ["<pad>", "<s>", "</s>", "<cls>"]


class Vocab:
    """Bijection between ids 0..|V|-1 and tokens.

    Ids 0-3 are reserved for PAD/SOS/EOS/CLS. Regular tokens are single
    characters, so the multi-character reserved strings can never collide.
    """

    def __init__(self, tokens: Sequence[str]):
        self.tokens = list(tokens)
        self.index = {t: i for i, t in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise VocabError("duplicate tokens in vocabulary")
        if self.tokens[:4] != _RESERVED:
            raise VocabError("first four ids must be the reserved specials")

    @classmethod
    def from_text(cls, text: str) -> "Vocab":
        chars = sorted(set(text))
        return cls(_RESERVED + chars)

    def __len__(self):
        return len(self.tokens)

    def encode(self, text: str) -> list[int]:
        try:
            return [self.index[c] for c in text]
        except KeyError as e:
            raise VocabError(f"character {e.args[0]!r} not in vocabulary") from None

    def decode(self, ids: Sequence[int]) -> str:
        out = []
        for i in ids:
            if not 0 <= i < len(self.tokens):
                raise VocabError(f"id {i} out of range")
            if i >= len(_RESERVED):
                out.append(self.tokens[i])
        return "".join(out)

    def to_lines(self) -> list[str]:
        return list(self.tokens)

    @classmethod
    def from_lines(cls, lines: Sequence[str]) -> "Vocab":
        return cls(list(lines))


class SinusoidalPE:
    """Absolute sinusoidal position encoding.

    Entry 2k of PE(i) is sin(i*w_k) and entry 2k+1 is cos(i*w_k), with
    w_k = base^(-2k/d). d must be even so the slots pair up.
    """

    def __init__(self, d: int, base: float = 10000.0):
        if d < 2 or d % 2 != 0:
            raise ValueError("sinusoidal encoding needs an even d >= 2")
        self.d = d
        self.base = float(base)
        self._omega = self.base ** (-2.0 * np.arange(d // 2) / d)

    def vector(self, i) -> np.ndarray:
        """PE(i) as a float64 vector; i may be fractional (the identity
        pe_shift verifies holds for real-valued offsets too)."""
        angles = float(i) * self._omega
        out = np.empty(self.d, dtype=np.float64)
        out[0::2] = np.sin(angles)
        out[1::2] = np.cos(angles)
        return out

    def table(self, m: int, start: int = 0) -> np.ndarray:
        """Rows PE(start) .. PE(m-1), float64, shape (m - start, d)."""
        pos = np.arange(start, m, dtype=np.float64)[:, None]
        angles = pos * self._omega[None, :]
        out = np.empty((m - start, self.d), dtype=np.float64)
        out[:, 0::2] = np.sin(angles)
        out[:, 1::2] = np.cos(angles)
        return out


def pe_shift(pe_i: np.ndarray, pe_mu: np.ndarray) -> np.ndarray:
    """Reconstruct PE(i+mu) from PE(i) and PE(mu) without knowing i or mu.

    Per sin/cos pair: sin(a+b) = sin a cos b + cos a sin b and
    cos(a+b) = cos a cos b - sin a sin b.
    """
    pe_i = np.asarray(pe_i, dtype=np.float64)
    pe_mu = np.asarray(pe_mu, dtype=np.float64)
    if pe_i.shape != pe_mu.shape or pe_i.ndim != 1 or pe_i.shape[0] % 2:
        raise ValueError("pe_shift needs two equal even-length vectors")
    si, ci = pe_i[0::2], pe_i[1::2]
    sm, cm = pe_mu[0::2], pe_mu[1::2]
    out = np.empty_like(pe_i)
    out[0::2] = si * cm + ci * sm
    out[1::2] = ci * cm - si * sm
    return out


class EmbeddingTable:
    """Learnable |V| x d matrix of token vectors."""

    def __init__(self, weights: T.Tensor):
        if weights.ndim != 2:
            raise ValueError("embedding table must be 2-d")
        self.weights = weights

    @classmethod
    def init(cls, vocab_size: int, d: int, rng: T.Rng, gain: float = 1.0,
             dtype=np.float32) -> "EmbeddingTable":
        return cls(T.xavier_init(vocab_size, d, gain=gain, rng=rng, dtype=dtype))

    @property
    def vocab_size(self):
        return self.weights.shape[0]

    @property
    def d(self):
        return self.weights.shape[1]


def pad_flags(tokens: Sequence[int], pad_id: int = PAD) -> np.ndarray:
    """Boolean row flags marking PAD positions, for mask construction."""
    return np.asarray(tokens) == pad_id


class RprTable:
    """Learned relative-position vectors, one row per clipped offset.

    Row r holds the vector for relative distance r - clip_k, so the row
    for offset x is clip(x, clip_k) + clip_k. Each of the q/k/v roles may
    carry its own matrix or be disabled.
    """

    ROLES = ("q", "k", "v")

    def __init__(self, clip_k: int, tables: dict):
        if clip_k < 0:
            raise ValueError("clip radius must be >= 0")
        rows = 2 * clip_k + 1
        for role, t in tables.items():
            if role not in self.ROLES:
                raise RoleDisabledError(f"unknown role {role!r}")
            if t is not None and t.shape[0] != rows:
                raise ValueError(f"role {role!r} table needs {rows} rows")
        self.clip_k = clip_k
        self.tables = {role: tables.get(role) for role in self.ROLES}

    @classmethod
    def init(cls, clip_k: int, d_head: int, rng: T.Rng,
             roles: Sequence[str] = ("q", "k", "v"), dtype=np.float32) -> "RprTable":
        rows = 2 * clip_k + 1
        tables = {}
        for role in roles:
            tables[role] = T.Tensor(rng.gaussian((rows, d_head), std=0.02),
                                    dtype=dtype, trainable=True)
        return cls(clip_k, tables)

    def offset_index_matrix(self, n_q: int, n_k: int,
                            q_start: int = 0) -> np.ndarray:
        """Row indices for every (i, j) pair: clip(j-i)+clip_k, shape
        (n_q, n_k), with query i at key position q_start + i."""
        j = np.arange(n_k)[None, :]
        i = q_start + np.arange(n_q)[:, None]
        return np.clip(j - i, -self.clip_k, self.clip_k) + self.clip_k
