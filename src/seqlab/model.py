"""Whole-model assembly: embedding, layer stacks, heads, decode sessions.

A Model is an encoder stack, a decoder stack, or both, built from the
sub-layer primitives in the sibling modules. One ModelConfig value picks
the attention variant, the residual placement, the integrator order and
every other structural switch; the forward code branches on it in exactly
one place per decision so the variants stay comparable.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from . import attention as A
from . import blocks as B
from . import efficient as EF
from . import ssm as S
from . import tensor as T
from .config import Config
from .embedding import (CLS, SOS, EmbeddingTable, RprTable, SinusoidalPE, Vocab,
                        VocabError, pad_flags)


StateError = A.StateError


class ContractError(ValueError):
    """The caller broke an input contract (empty input, missing CLS, ...)."""


class DegenerateVectorError(ValueError):
    """Cosine similarity was asked for against a zero vector."""


ARCHITECTURES = ("encoder-only", "decoder-only", "encoder-decoder")
ATTENTION_VARIANTS = ("dense", "window", "linear", "lowrank-d", "lowrank-n", "ssm")
POOL_MODES = ("mean", "cls")
SIMILARITY_METRICS = ("euclidean", "cosine")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass
class ModelConfig:
    """Structural description of one model; round-trips through Config text."""

    d: int = 64
    n_layers: int = 2
    tau: int = 4
    d_ffn: Optional[int] = None              # None means 4*d
    architecture: str = "decoder-only"

    attention: str = "dense"
    window: int = 8
    feature_map: str = "elu_plus_one"
    rpr: bool = False
    rpr_clip: int = 8
    multi_query: bool = False
    reuse_maps: bool = False
    reduced_width: Optional[int] = None      # lowrank-d, defaults to d_head/2
    reduced_length: Optional[int] = None     # lowrank-n, required there
    max_length: int = 256                    # lowrank-n projection columns

    placement: str = "post"
    beta: Optional[float] = None
    gamma: Optional[float] = None
    ln_eps: float = 1e-5
    integrator_order: int = 1
    integrator_h: float = 1.0
    dropout_rho: float = 1.0

    moe_experts: int = 0                     # 0 means a plain FFN
    moe_k: int = 2
    moe_mode: str = "renorm"

    ssm_d_state: int = 16
    ssm_dt: float = 0.1
    ssm_method: str = "zoh"
    ssm_init: str = "diag-uniform"

    tie_embedding: bool = False
    scale_embedding: bool = False
    share_groups: Tuple[Tuple[int, ...], ...] = ()

    def __post_init__(self):
        self.share_groups = tuple(tuple(int(i) for i in g) for g in self.share_groups)
        err = B.ConfigurationError
        if self.d < 2 or self.d % 2:
            raise err("d must be even and >= 2 (sinusoidal slots pair up)")
        if self.n_layers < 1:
            raise err("need at least one layer")
        if self.tau < 1 or self.d % self.tau:
            raise err("head count must divide d")
        if self.d_ffn is not None and self.d_ffn < 1:
            raise err("ffn width must be >= 1")
        if self.architecture not in ARCHITECTURES:
            raise err(f"unknown architecture {self.architecture!r}")
        if self.attention not in ATTENTION_VARIANTS:
            raise err(f"unknown attention variant {self.attention!r}")
        if self.window < 1:
            raise err("window must be >= 1")
        if self.feature_map not in EF.FEATURE_KINDS:
            raise err(f"unknown feature map {self.feature_map!r}")
        if self.rpr and self.attention != "dense":
            raise err("relative-position tables compose with dense attention only")
        if self.rpr_clip < 0:
            raise err("rpr clip radius must be >= 0")
        if self.multi_query and self.attention not in ("dense", "window"):
            raise err("multi-query layout needs dense or window attention")
        if self.reuse_maps and (self.attention != "dense" or self.rpr
                                or self.multi_query or self.integrator_order != 1):
            raise err("map reuse needs plain dense attention, first-order residuals")
        if self.attention == "lowrank-n":
            if self.architecture != "encoder-only":
                raise err("length reduction mixes future keys; encoder-only")
            if self.reduced_length is None or self.reduced_length < 1:
                raise err("lowrank-n needs reduced_length >= 1")
            if self.max_length < self.reduced_length:
                raise err("max_length must be >= reduced_length")
        if self.reduced_width is not None and self.reduced_width < 1:
            raise err("reduced_width must be >= 1")
        if self.placement not in B.PLACEMENTS:
            raise err(f"unknown placement {self.placement!r}")
        if self.placement == "weighted" and (self.beta is None or self.gamma is None):
            raise err("weighted placement needs beta and gamma")
        if self.ln_eps <= 0:
            raise err("ln_eps must be positive")
        if self.integrator_order not in B.RK_ORDERS:
            raise err("integrator order must be 1, 2 or 4")
        if self.integrator_order != 1 and self.placement != "pre":
            raise err("multi-stage integrators generalize the pre-norm form")
        if self.integrator_h <= 0:
            raise err("integrator step must be positive")
        if not 0.0 <= self.dropout_rho <= 1.0:
            raise err("dropout keep-probability outside [0, 1]")
        if self.dropout_rho < 1.0 and (self.placement != "pre"
                                       or self.integrator_order != 1):
            raise err("layer dropout is defined for first-order pre-norm stacks")
        if self.moe_experts < 0:
            raise err("moe_experts must be >= 0")
        if self.moe_experts:
            if not 1 <= self.moe_k <= self.moe_experts:
                raise err(f"moe_k={self.moe_k} outside [1, {self.moe_experts}]")
            if self.moe_mode not in B.MOE_MODES:
                raise err(f"unknown routing mode {self.moe_mode!r}")
        if self.attention == "ssm":
            if self.rpr or self.multi_query or self.reuse_maps:
                raise err("state-space layers replace attention entirely")
            if self.ssm_method not in S.METHODS:
                raise err(f"unknown discretization {self.ssm_method!r}")
            if self.ssm_init not in S.INITS:
                raise err(f"unknown state init {self.ssm_init!r}")
            if self.ssm_dt <= 0 or self.ssm_d_state < 1:
                raise err("ssm needs dt > 0 and d_state >= 1")
        for g in self.share_groups:
            if len(g) < 2:
                raise err("a share group needs at least two layers")

    @property
    def ffn_width(self) -> int:
        return 4 * self.d if self.d_ffn is None else self.d_ffn

    @property
    def d_head(self) -> int:
        return self.d // self.tau

    @property
    def reduced_width_resolved(self) -> int:
        return self.reduced_width or max(1, self.d_head // 2)

    def check_chunkable(self):
        """Raise unless chunked evaluation is defined for this model: a
        span attends over the previous span's cached keys and values, which
        linear, ssm and lowrank-n layers do not keep and a dropped layer
        does not write."""
        if (self.attention in ("linear", "ssm", "lowrank-n")
                or self.dropout_rho < 1.0
                or self.architecture != "decoder-only"):
            raise B.ConfigurationError(
                "chunked evaluation needs a decoder-only model with dense, "
                "window or lowrank-d attention and no layer dropout")

    def residual_bypass(self) -> bool:
        """True when the residual skips the last LNorm (needs a final one)."""
        if self.integrator_order != 1 or self.dropout_rho < 1.0:
            return True
        return B.SublayerConfig(self.placement, self.beta,
                                self.gamma).residual_weights()[1] != 0.0

    # -- text round-trip -----------------------------------------------------

    _KEYS = (
        ("d", "model.d", int), ("n_layers", "model.layers", int),
        ("tau", "model.heads", int), ("d_ffn", "model.ffn_width", int),
        ("architecture", "model.architecture", str),
        ("attention", "attention.variant", str),
        ("window", "attention.window", int),
        ("feature_map", "attention.feature_map", str),
        ("rpr", "attention.rpr", bool), ("rpr_clip", "attention.rpr_clip", int),
        ("multi_query", "attention.multi_query", bool),
        ("reuse_maps", "attention.reuse_maps", bool),
        ("reduced_width", "attention.reduced_width", int),
        ("reduced_length", "attention.reduced_length", int),
        ("max_length", "attention.max_length", int),
        ("placement", "norm.placement", str), ("beta", "norm.beta", float),
        ("gamma", "norm.gamma", float), ("ln_eps", "norm.eps", float),
        ("integrator_order", "integrator.order", int),
        ("integrator_h", "integrator.step", float),
        ("dropout_rho", "dropout.keep", float),
        ("moe_experts", "moe.experts", int), ("moe_k", "moe.k", int),
        ("moe_mode", "moe.mode", str),
        ("ssm_d_state", "ssm.state_width", int), ("ssm_dt", "ssm.dt", float),
        ("ssm_method", "ssm.method", str), ("ssm_init", "ssm.init", str),
        ("tie_embedding", "embedding.tie", bool),
        ("scale_embedding", "embedding.scale", bool),
    )

    def to_config(self) -> Config:
        cfg = Config()
        for attr, key, kind in self._KEYS:
            val = getattr(self, attr)
            if val is None:
                continue
            cfg.set(key, str(val).lower() if kind is bool else str(val))
        if self.share_groups:
            cfg.set("share.groups",
                    ";".join(",".join(str(i) for i in g) for g in self.share_groups))
        return cfg

    @classmethod
    def from_config(cls, cfg: Config) -> "ModelConfig":
        kwargs = {}
        for attr, key, kind in cls._KEYS:
            if key not in cfg:
                continue
            if kind is bool:
                kwargs[attr] = cfg.get_bool(key)
            elif kind is int:
                kwargs[attr] = cfg.get_int(key)
            elif kind is float:
                kwargs[attr] = cfg.get_float(key)
            else:
                kwargs[attr] = cfg.get_str(key)
        if "share.groups" in cfg:
            kwargs["share_groups"] = tuple(tuple(g) for g in cfg.get_groups("share.groups"))
        return cls(**kwargs)


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------


@dataclass
class Layer:
    """One stack layer: an attention-style sub-layer plus an FFN sub-layer.

    Exactly one of att/ssm is set. cross/ln_cross exist only on
    encoder-decoder decoder layers.
    """

    ln1: B.LNParams
    ffn_core: object                          # FFNParams or MoEFFN
    ln2: B.LNParams
    att: Optional[A.AttentionParams] = None
    ssm: Optional[S.DiscreteSSM] = None
    lowrank: Optional[EF.LowRankProjections] = None   # lowrank-n; see att.reduce
    cross: Optional[A.AttentionParams] = None
    ln_cross: Optional[B.LNParams] = None

    def named(self, prefix: str):
        if self.att is not None:
            yield from self.att.named(f"{prefix}.att.")
        if self.ssm is not None:
            yield from self.ssm.named(f"{prefix}.ssm")
        lowrank = self.lowrank or (self.att and self.att.reduce)
        if lowrank is not None:
            for nm in ("u_k", "u_v", "u_q", "u_kd"):
                t = getattr(lowrank, nm)
                if t is not None:
                    yield f"{prefix}.lowrank.{nm}", t
        yield from self.ln1.named(f"{prefix}.ln1")
        if self.cross is not None:
            yield from self.cross.named(f"{prefix}.cross.")
            yield from self.ln_cross.named(f"{prefix}.lnx")
        yield from self.ffn_core.named(f"{prefix}.ffn")
        yield from self.ln2.named(f"{prefix}.ln2")


def _init_layer(cfg: ModelConfig, rng: T.Rng, with_cross: bool, dtype) -> Layer:
    d = cfg.d
    att = ssm = lowrank = None
    if cfg.attention == "ssm":
        ssm = S.init_ssm_sublayer(cfg.ssm_d_state, cfg.ssm_dt,
                                  cfg.ssm_method, cfg.ssm_init, rng, dtype)
    else:
        att = A.AttentionParams.init(
            d, cfg.tau, rng, n_kv=1 if cfg.multi_query else cfg.tau,
            dtype=dtype, reduced=cfg.reduced_width_resolved
            if cfg.attention == "lowrank-d" else None)
    if cfg.attention == "lowrank-n":
        n_r = cfg.reduced_length
        lowrank = EF.LowRankProjections(
            u_k=T.xavier_init(n_r, cfg.max_length, rng=rng, dtype=dtype),
            u_v=T.xavier_init(n_r, cfg.max_length, rng=rng, dtype=dtype))
    cross = ln_cross = None
    if with_cross:
        cross = A.AttentionParams.init(d, cfg.tau, rng, dtype=dtype)
        ln_cross = B.LNParams.init(d, cfg.ln_eps, dtype=dtype)
    if cfg.moe_experts:
        core = B.MoEFFN.init(d, cfg.ffn_width, cfg.moe_experts, cfg.moe_k,
                             rng, mode=cfg.moe_mode, dtype=dtype)
    else:
        core = B.FFNParams.init(d, cfg.ffn_width, rng, dtype=dtype)
    return Layer(ln1=B.LNParams.init(d, cfg.ln_eps, dtype=dtype),
                 ffn_core=core,
                 ln2=B.LNParams.init(d, cfg.ln_eps, dtype=dtype),
                 att=att, ssm=ssm, lowrank=lowrank,
                 cross=cross, ln_cross=ln_cross)


# ---------------------------------------------------------------------------
# decode sessions
# ---------------------------------------------------------------------------


@dataclass
class DecodeSession:
    """Incremental decoding state of a batch of rows (hypotheses).

    Every row has its own token prefix, all of one length, and row r of
    every state array belongs to prefix r. State is kept per slot, one
    slot per (layer, integrator stage): a stage's inputs at earlier
    positions are fixed by causality. mode picks the state representation:
    "cache" keeps key/value arrays; "stream" (linear attention) and "ssm"
    keep, per slot, the list of arrays the layer's full-pass scan carries
    from one block to the next (``states``) and the count of positions
    the slot has consumed (``positions``). An encoder-decoder session
    holds each layer's cross-attention keys and values, projected once
    from the encoder output. Only a "cache" session can ``rewind``.
    """

    model: "Model"
    mode: str
    enc_out: Optional[T.Tensor]
    prefixes: List[List[int]] = field(default_factory=lambda: [[]])
    kv: Optional[A.KVCache] = None
    states: Optional[List[List[np.ndarray]]] = None
    positions: Optional[List[int]] = None
    cross_kv: Optional[list] = None

    @property
    def rows(self) -> int:
        return len(self.prefixes)

    @property
    def prefix(self) -> List[int]:
        """The token prefix of a one-row session."""
        if self.rows != 1:
            raise ContractError(f"a {self.rows}-row session has one prefix per row")
        return self.prefixes[0]

    @property
    def position(self) -> int:
        return len(self.prefixes[0])

    def select(self, rows) -> None:
        """Keep the given rows in the given order (a row may repeat): every
        prefix and state array is gathered by row."""
        idx = np.asarray(rows, dtype=np.int64)
        self.prefixes = [list(self.prefixes[r]) for r in idx]
        if self.kv is not None:
            self.kv.select(idx)
        if self.states is not None:
            self.states = [[x[idx] for x in carry] for carry in self.states]
            self.positions = list(self.positions)    # unshared from a clone's

    def rewind(self, n: int) -> None:
        """Drop the last n positions of every row: the prefixes and the
        key/value cache forget them (see ``KVCache.rewind``). The carried
        state of a "stream" or "ssm" session cannot be cut back, so
        rewinding one raises StateError, as does going back further than
        the prefixes reach."""
        if self.kv is None:
            raise StateError(f"a {self.mode} session cannot be rewound")
        if n > self.position:
            raise StateError(f"cannot rewind {n} positions of a prefix "
                             f"of {self.position}")
        self.kv.rewind(n)
        for prefix in self.prefixes:
            del prefix[len(prefix) - n:]

    def clone(self) -> "DecodeSession":
        out = dataclasses.replace(self, kv=None)
        out.select(np.arange(self.rows))
        out.kv = self.kv.clone() if self.kv is not None else None
        return out


# ---------------------------------------------------------------------------
# the model
# ---------------------------------------------------------------------------


class Model:
    def __init__(self, cfg: ModelConfig, vocab: Vocab, *, embed: EmbeddingTable,
                 enc_layers: List[Layer], dec_layers: List[Layer],
                 w_o: Optional[T.Tensor], final_ln_enc: Optional[B.LNParams],
                 final_ln_dec: Optional[B.LNParams],
                 rpr_table: Optional[RprTable], dtype=np.float32):
        if embed.d != cfg.d or embed.vocab_size != len(vocab):
            raise B.ConfigurationError("embedding table does not match config/vocab")
        self.cfg = cfg
        self.vocab = vocab
        self.embed = embed
        self.pe = SinusoidalPE(cfg.d)
        self._pe_rows = np.zeros((0, cfg.d), dtype=dtype)
        self._quant = {}                      # bits -> runtime.WeightSpecs
        self.enc_layers = enc_layers
        self.dec_layers = dec_layers
        self.w_o = w_o
        self.final_ln_enc = final_ln_enc
        self.final_ln_dec = final_ln_dec
        self.rpr_table = rpr_table
        self.dtype = dtype
        self._sub_cfg = B.SublayerConfig(cfg.placement, cfg.beta, cfg.gamma)
        # the residual rule, resolved once: at first order without layer
        # dropout, weights (1, 0) make a sub-layer LNorm(F(z) + z), one op
        self._post_norm = (cfg.integrator_order == 1 and cfg.dropout_rho == 1.0
                           and self._sub_cfg.residual_weights() == (1.0, 0.0))

    @classmethod
    def init(cls, cfg: ModelConfig, vocab: Vocab, seed: int = 0,
             dtype=np.float32) -> "Model":
        rng = T.Rng(seed)
        embed = EmbeddingTable.init(len(vocab), cfg.d, rng, dtype=dtype)
        rpr_table = None
        if cfg.rpr:
            rpr_table = RprTable.init(cfg.rpr_clip, cfg.d_head, rng, dtype=dtype)
        enc_layers: List[Layer] = []
        dec_layers: List[Layer] = []
        if cfg.architecture in ("encoder-only", "encoder-decoder"):
            enc_layers = [_init_layer(cfg, rng, False, dtype)
                          for _ in range(cfg.n_layers)]
        if cfg.architecture in ("decoder-only", "encoder-decoder"):
            with_cross = cfg.architecture == "encoder-decoder"
            dec_layers = [_init_layer(cfg, rng, with_cross, dtype)
                          for _ in range(cfg.n_layers)]
        if cfg.share_groups:
            if enc_layers:
                enc_layers = B.share_group(enc_layers, cfg.share_groups)
            if dec_layers:
                dec_layers = B.share_group(dec_layers, cfg.share_groups)
        w_o = None
        if not cfg.tie_embedding:
            # small head gain keeps a fresh model's distributions near
            # uniform, so the starting loss sits at ln|V|
            w_o = T.xavier_init(cfg.d, len(vocab), gain=0.1, rng=rng,
                                dtype=dtype)
        need_final = cfg.residual_bypass()
        final_enc = B.LNParams.init(cfg.d, cfg.ln_eps, dtype=dtype) \
            if need_final and enc_layers else None
        final_dec = B.LNParams.init(cfg.d, cfg.ln_eps, dtype=dtype) \
            if need_final and dec_layers else None
        return cls(cfg, vocab, embed=embed, enc_layers=enc_layers,
                   dec_layers=dec_layers, w_o=w_o, final_ln_enc=final_enc,
                   final_ln_dec=final_dec, rpr_table=rpr_table, dtype=dtype)

    # -- parameter iteration --------------------------------------------------

    def named(self):
        """(name, tensor) pairs; shared layers repeat the same tensor objects."""
        yield "embed.table", self.embed.weights
        if self.rpr_table is not None:
            for role in RprTable.ROLES:
                t = self.rpr_table.tables.get(role)
                if t is not None:
                    yield f"rpr.{role}", t
        for i, lay in enumerate(self.enc_layers):
            yield from lay.named(f"enc{i}")
        for i, lay in enumerate(self.dec_layers):
            yield from lay.named(f"dec{i}")
        if self.w_o is not None:
            yield "head.w_o", self.w_o
        if self.final_ln_enc is not None:
            yield from self.final_ln_enc.named("enc_norm")
        if self.final_ln_dec is not None:
            yield from self.final_ln_dec.named("dec_norm")

    def parameters(self) -> List[T.Tensor]:
        """Distinct trainable tensors, stable order, shared ones once."""
        seen, out = set(), []
        for _, t in self.named():
            if t.trainable and id(t) not in seen:
                seen.add(id(t))
                out.append(t)
        return out

    # -- shared forward machinery ---------------------------------------------

    def _check_tokens(self, tokens, batched: bool = False) -> np.ndarray:
        """Validated int64 ids: one sequence, or with ``batched`` also a
        (b, m) matrix of equal-length rows."""
        ids = np.asarray(list(tokens), dtype=np.int64)
        if ids.ndim not in ((1, 2) if batched else (1,)) or ids.size == 0:
            raise ContractError(
                "token input must be a nonempty id sequence"
                + (" or (b, m) id matrix" if batched else ""))
        if ids.min() < 0 or ids.max() >= len(self.vocab):
            raise VocabError("token id out of range for this vocabulary")
        return ids

    def _embed_at(self, ids: np.ndarray, start_pos: int) -> T.Tensor:
        """Embedding rows of checked int64 ids, plus the sinusoidal
        encodings of positions start_pos onwards."""
        h = T.take(self.embed.weights, ids)
        if self.cfg.scale_embedding:
            h = h * float(np.sqrt(self.cfg.d))
        end = start_pos + ids.shape[-1]
        if end > len(self._pe_rows):
            # doubled, so a long decode evaluates sin/cos a few times only
            self._pe_rows = self.pe.table(
                max(end, 2 * len(self._pe_rows))).astype(self.dtype)
        return T.add(h, self._pe_rows[start_pos:end])

    def _mask_for(self, m: int, causal: bool, pad: Optional[np.ndarray]):
        cfg = self.cfg
        mask = A.causal_mask(m) if causal else None
        if pad is not None and cfg.attention in ("dense", "lowrank-d"):
            # non-PAD queries must ignore PAD keys; PAD rows stay unrestricted
            # so no row ever empties out (window_band keeps the same rule)
            block = np.where(~pad[:, None] & pad[None, :], A.NEG_INF, 0.0)
            mask = block if mask is None else mask + block
        return mask

    @staticmethod
    def _suffix_length(pad: Optional[np.ndarray], m: int) -> int:
        """Count of leading non-PAD rows; PAD anywhere else is rejected."""
        if pad is None or not pad.any():
            return m
        m_real = int(np.argmax(pad))
        if pad[m_real:].all() and m_real > 0:
            return m_real
        raise ContractError("this attention variant needs suffix-only padding")

    def _att_core(self, layer: Layer, mask, causal: bool, m_real: Optional[int],
                  maps: Optional[list], counter, pad: Optional[np.ndarray] = None
                  ) -> Callable[[T.Tensor], T.Tensor]:
        cfg = self.cfg
        att = layer.att

        def core(z: T.Tensor) -> T.Tensor:
            if cfg.attention == "ssm":
                return S.ssm_sublayer_scan(z, layer.ssm, counter=counter)
            if cfg.attention in ("linear", "lowrank-n"):
                # both read only the leading non-PAD keys/values
                q, k, v = att.heads(z)
                if m_real < z.shape[-2]:
                    k = T.take(k, _first_rows(m_real))
                    v = T.take(v, _first_rows(m_real))
                if cfg.attention == "linear":
                    return att.merge(EF.kernelized_attention(
                        q, k, v, EF.FeatureMap(cfg.feature_map), causal=causal,
                        counter=counter))
                return att.merge(EF.lowrank_length_attention(
                    q, k, v, self._length_projections(layer, m_real),
                    counter=counter))
            if cfg.attention == "window":
                return A.window_attention(z, att, cfg.window, causal, pad,
                                          counter)
            return A.self_attention(z, att, mask, counter, rpr=self.rpr_table,
                                    maps=maps)

        return core

    def _length_projections(self, layer: Layer, m: int) -> EF.LowRankProjections:
        """The first m columns of the lowrank-n length reductions."""
        cfg = self.cfg
        if m > cfg.max_length:
            raise ContractError(
                f"sequence length {m} exceeds the projection's "
                f"{cfg.max_length} columns")
        if m < cfg.reduced_length:
            raise ContractError(
                f"sequence length {m} is below the reduced length "
                f"{cfg.reduced_length}")
        return EF.LowRankProjections(
            u_k=T.take(layer.lowrank.u_k, (slice(None), slice(0, m))),
            u_v=T.take(layer.lowrank.u_v, (slice(None), slice(0, m))))

    def _wrap(self, z: T.Tensor, core, args: tuple, ln: B.LNParams,
              training: bool, rng: Optional[T.Rng]) -> T.Tensor:
        """z through one sub-layer whose core is ``core(z, *args)``, under
        the model's residual rule: LNorm(F(z) + z) in one layer norm for
        post-norm, else Runge-Kutta stages, layer dropout or the
        placement's weights."""
        if self._post_norm:
            return T.layer_norm(core(z, *args), ln.g, ln.b, ln.eps, z)
        return self._wrap_staged(z, core, args, ln, training, rng)

    def _wrap_staged(self, z: T.Tensor, core, args: tuple, ln: B.LNParams,
                     training: bool, rng: Optional[T.Rng]) -> T.Tensor:
        """_wrap under Runge-Kutta stages, layer dropout or the placement's
        weights, whose wrappers call the core with z alone."""
        f = (lambda x: core(x, *args)) if args else core
        cfg = self.cfg
        if cfg.integrator_order != 1:
            return B.rk_sublayer(z, lambda x: B.layer_norm(f(x), ln),
                                 cfg.integrator_order, cfg.integrator_h)
        if cfg.dropout_rho < 1.0:
            return B.layer_dropout(z, [(f, ln)], cfg.dropout_rho,
                                   "train" if training else "infer", rng)
        return B.sublayer_apply(z, f, ln, self._sub_cfg)

    def _run_stack(self, h: T.Tensor, layers: List[Layer], *, causal: bool,
                   pad: Optional[np.ndarray] = None,
                   enc_out: Optional[T.Tensor] = None,
                   training: bool = False, rng: Optional[T.Rng] = None,
                   counter=None, session: Optional[DecodeSession] = None
                   ) -> T.Tensor:
        """The layers over h. Without a session self-attention runs over h
        itself; with one, h is a (rows, m, d) block of new positions that
        attends over the session's history, which it advances. A cache
        session at first order attends at slot idx of layer idx, so its
        attention core is called with that slot and no core is built."""
        cfg = self.cfg
        if session is None:
            m = h.shape[-2]
            if pad is not None and not pad.any():
                pad = None
            mask = None if cfg.attention == "window" \
                else self._mask_for(m, causal, pad)
            m_real = None
            if cfg.attention in ("linear", "lowrank-n"):
                m_real = self._suffix_length(pad, m)
        cached = session is not None and session.mode == "cache" \
            and cfg.integrator_order == 1
        # the first layer's attention weights, which map reuse hands on
        maps = [] if cfg.reuse_maps else None
        for idx, layer in enumerate(layers):
            if cached:
                h = self._wrap(h, A.attend_step_cached,
                               (session.kv, layer.att, idx, self.rpr_table,
                                counter, maps), layer.ln1, training, rng)
            else:
                core = self._att_core(layer, mask, causal, m_real, maps,
                                      counter, pad) if session is None \
                    else self._step_att_core(layer, idx, session, counter)
                h = self._wrap(h, core, (), layer.ln1, training, rng)
            if layer.cross is not None:
                kv = None if session is None else session.cross_kv[idx]
                h = self._wrap(h, _cross_core, (enc_out, layer.cross, counter, kv),
                               layer.ln_cross, training, rng)
            moe = isinstance(layer.ffn_core, B.MoEFFN)
            h = self._wrap(h, B.moe_ffn if moe else B.ffn, (layer.ffn_core,),
                           layer.ln2, training, rng)
        return h

    def _head(self, h: T.Tensor) -> T.Tensor:
        if self.cfg.tie_embedding:
            return T.matmul(h, T.transpose(self.embed.weights))
        return T.matmul(h, self.w_o)

    # -- public forward passes ------------------------------------------------

    def encode(self, tokens, *, training: bool = False,
               rng: Optional[T.Rng] = None, counter=None) -> T.Tensor:
        """Contextual representation of every input position, (m, d).

        PAD positions are excluded from all other positions' attention
        fields, so appending padding never changes the non-PAD rows.
        """
        if not self.enc_layers:
            raise ContractError("this architecture has no encoder")
        ids = self._check_tokens(tokens)
        h = self._embed_at(ids, 0)
        h = self._run_stack(h, self.enc_layers, causal=False,
                            pad=pad_flags(ids), training=training, rng=rng,
                            counter=counter)
        if self.final_ln_enc is not None:
            h = B.layer_norm(h, self.final_ln_enc)
        return h

    def decoder_forward(self, tokens, enc_out: Optional[T.Tensor] = None, *,
                        training: bool = False, rng: Optional[T.Rng] = None,
                        counter=None, start_pos: int = 0,
                        kv_prefix=None, kv_out=None) -> T.Tensor:
        """Next-token logits at every position of a (shifted) input.

        ``tokens`` is one id sequence, giving (m, |V|) logits, or a (b, m)
        id matrix of independent rows, giving (b, m, |V|) in one pass.
        """
        if not self.dec_layers:
            raise ContractError("this architecture has no decoder")
        if self.cfg.architecture == "encoder-decoder" and enc_out is None:
            raise ContractError("encoder-decoder decoding needs encoder output")
        if self.cfg.architecture == "decoder-only" and enc_out is not None:
            raise ContractError("a decoder-only model takes no encoder output")
        if kv_prefix is None and kv_out is None:
            ids = self._check_tokens(tokens, batched=True)
            return self._decoder_logits(ids, start_pos, enc_out,
                                        training=training, rng=rng,
                                        counter=counter)
        # a span over the previous span's frozen keys and values (the
        # segment recurrence of Transformer-XL): they seed a cache that
        # the span attends over as a decode block does
        self.cfg.check_chunkable()
        ids = self._check_tokens(tokens, batched=True)
        block = ids.reshape(-1, ids.shape[-1])
        session = self.decode_session()
        kv = session.kv
        for slot, pair in enumerate(kv_prefix or ()):
            kv.write(slot, *(np.reshape(x, (len(block),) + np.shape(x)[-2:])
                             for x in pair))
        logits = self._decoder_logits(block, start_pos, session=session,
                                      training=training, rng=rng,
                                      counter=counter)
        if kv_out is not None:
            # this span's rows; a window cache holds only the last window
            # of them, and the next span sees no further back anyway
            m = ids.shape[-1]
            for s in range(kv.n_layers):
                k, v = kv.keys(s).values[:, -m:], kv.values_(s).values[:, -m:]
                kv_out.append((k, v) if ids.ndim == 2 else (k[0], v[0]))
        return T.reshape(logits, ids.shape + logits.shape[-1:])

    def _decoder_logits(self, ids: np.ndarray, start_pos: int,
                        enc_out: Optional[T.Tensor] = None, *,
                        training: bool = False, rng: Optional[T.Rng] = None,
                        counter=None, session: Optional[DecodeSession] = None
                        ) -> T.Tensor:
        """Embedding, decoder stack, final norm and output head."""
        h = self._run_stack(self._embed_at(ids, start_pos), self.dec_layers,
                            causal=True, enc_out=enc_out, training=training,
                            rng=rng, counter=counter, session=session)
        if self.final_ln_dec is not None:
            h = B.layer_norm(h, self.final_ln_dec)
        return self._head(h)

    def sequence_logprob(self, target, source=None) -> float:
        """log Pr(target) = sum_i log Pr(y_i | y_<i [, source])."""
        target = list(target)
        if not target:
            raise ContractError("cannot score an empty sequence")
        enc_out = None
        if self.cfg.architecture == "encoder-decoder":
            if source is None:
                raise ContractError("this architecture scores target given source")
            enc_out = self.encode(source)
        elif source is not None:
            raise ContractError("source given to a model without cross-attention")
        inputs = [SOS] + target[:-1]
        logits = self.decoder_forward(inputs, enc_out)
        probs = T.softmax_rows(logits).values.astype(np.float64)
        picked = probs[np.arange(len(target)), np.asarray(target)]
        return float(np.sum(np.log(np.maximum(picked, 1e-300))))

    # -- incremental decoding -------------------------------------------------

    def decode_mode(self) -> str:
        """The state a decode session keeps: "stream" kernel prefix sums
        for linear attention, "ssm" state blocks, else a "cache" of keys
        and values."""
        return {"linear": "stream", "ssm": "ssm"}.get(self.cfg.attention,
                                                      "cache")

    def _slots(self) -> int:
        """Decode state slots: one per (decoder layer, integrator stage)."""
        return len(self.dec_layers) * self.cfg.integrator_order

    def decode_session(self, source=None) -> DecodeSession:
        """A one-row session at position 0; ``select`` changes its rows."""
        if not self.dec_layers:
            raise ContractError("this architecture has no decoder")
        enc_out = cross_kv = None
        if self.cfg.architecture == "encoder-decoder":
            if source is None:
                raise ContractError("encoder-decoder decoding needs a source")
            enc_out = self.encode(source)
            cross_kv = [A.cross_kv(enc_out, lay.cross) for lay in self.dec_layers]
        elif source is not None:
            raise ContractError("source given to a model without cross-attention")
        mode = self.decode_mode()
        kv = states = positions = None
        cfg, n_s = self.cfg, self._slots()
        if mode == "cache":
            kv = A.KVCache(n_s, cfg.window if cfg.attention == "window" else None)
        else:
            states = [[np.zeros(shape, dtype=self.dtype)
                       for shape in self._carry_shapes(1)] for _ in range(n_s)]
            positions = [0] * n_s
        return DecodeSession(model=self, mode=mode, enc_out=enc_out, kv=kv,
                             states=states, positions=positions,
                             cross_kv=cross_kv)

    def _carry_shapes(self, rows: int) -> List[Tuple[int, ...]]:
        """Shapes of a slot's carried state: the kernel prefix sums (mu,
        nu) per row and head, or the SSM's (rows, d, d_state) block."""
        cfg = self.cfg
        if cfg.attention == "ssm":
            return [(rows, cfg.d, cfg.ssm_d_state)]
        return [(rows, cfg.tau, cfg.d_head, cfg.d_head),
                (rows, cfg.tau, cfg.d_head)]

    def _check_session(self, session: DecodeSession, rows: int):
        """Raise StateError unless every slot's state is at the prefixes'
        common position and holds ``rows`` rows."""
        if session.model is not self:
            raise StateError("session belongs to a different model")
        prefixes = session.prefixes
        t = len(prefixes[0])
        if len(prefixes) != rows or (
                rows > 1 and list(map(len, prefixes)).count(t) != rows):
            raise StateError(f"{rows} rows fed to a session of "
                             f"{len(prefixes)} prefixes of lengths "
                             f"{sorted({len(p) for p in prefixes})}")
        n_s = self._slots()
        if session.mode == "cache":
            kv = session.kv
            if kv.n_layers == n_s and kv.holds(t, rows):
                return
            got = [(kv.length(i), kv.rows(i) or rows) for i in range(kv.n_layers)]
            want = (t, rows)
        else:
            want = (t, self._carry_shapes(rows))
            got = [(p, [np.shape(x) for x in carry])
                   for p, carry in zip(session.positions, session.states)]
            if got == [want] * n_s:
                return
        raise StateError(f"{session.mode} state per slot is {got}, "
                         f"not {want} for a prefix of {t}")

    def _step_att_core(self, layer: Layer, idx: int, session: DecodeSession,
                       counter=None) -> Callable[[T.Tensor], T.Tensor]:
        """Self-attention (or SSM) of a (rows, m, d) block of new positions
        against the session's state at layer idx, which it advances. The
        k-th call of the core is integrator stage k and uses that slot."""
        cfg = self.cfg
        stage = [idx * cfg.integrator_order]    # the next call's slot

        def core(z: T.Tensor) -> T.Tensor:
            slot = stage[0]
            stage[0] += 1
            if session.mode == "cache":
                return A.attend_step_cached(z, session.kv, layer.att, slot,
                                            self.rpr_table, counter)
            # the full-pass scan, continued from the slot's carried state
            carry = session.states[slot]
            if session.mode == "stream":
                out = layer.att.merge(EF.kernelized_attention(
                    *layer.att.heads(z), EF.FeatureMap(cfg.feature_map),
                    causal=True, counter=counter, carry=carry))
            else:
                out = S.ssm_sublayer_scan(z, layer.ssm, carry, counter)
            session.positions[slot] += z.shape[-2]
            return out

        return core

    def decode_step(self, session: DecodeSession, tokens) -> np.ndarray:
        """Consume a block of input tokens; return next-token distributions.

        ``tokens`` is one id for a one-row session, giving a (|V|,)
        distribution, or a (rows, m) id block, m new positions of every
        row, giving (rows, m, |V|) distributions. Distributions are float64
        and sum to one. The session's state advances; a session whose
        state is out of step with its prefixes, or holds another number of
        rows, raises StateError.
        """
        ids = np.asarray(tokens, dtype=np.int64)
        single = ids.ndim == 0
        n_vocab = len(self.vocab.tokens)
        if single:
            if not 0 <= int(ids) < n_vocab:
                raise VocabError("token id out of range for this vocabulary")
            ids = ids.reshape(1, 1)
        elif ids.ndim != 2 or ids.size == 0:
            raise ContractError("decode_step takes one id or a (rows, m) id block")
        elif np.minimum.reduce(ids, axis=None) < 0 \
                or np.maximum.reduce(ids, axis=None) >= n_vocab:
            raise VocabError("token id out of range for this vocabulary")
        t = len(session.prefixes[0])
        self._check_session(session, ids.shape[0])
        for prefix, new in zip(session.prefixes, ids.tolist()):
            prefix.extend(new)
        logits = self._decoder_logits(ids, t, session.enc_out, session=session)
        dist = _softmax_last(logits.values)
        return dist[0, 0] if single else dist

    # -- sentence representation ----------------------------------------------

    def represent(self, tokens, mode: str = "mean") -> np.ndarray:
        """Pooled encoder vector for one token sequence, float64 (d,)."""
        h = self.encode(tokens)
        return pool(h, tokens, mode).values.astype(np.float64).reshape(-1)

    def similarity(self, a_tokens, b_tokens, metric: str = "cosine",
                   mode: str = "mean") -> float:
        """Metric between the pooled representations of two sequences."""
        return similarity(self.represent(a_tokens, mode),
                          self.represent(b_tokens, mode), metric)


def _cross_core(z: T.Tensor, enc_out: Optional[T.Tensor],
                params: A.AttentionParams, counter, kv) -> T.Tensor:
    """Cross attention of the decoder rows z, a sub-layer core."""
    return A.cross_attention(enc_out, z, params, counter=counter, kv=kv)


def _first_rows(n: int):
    """Index key keeping the first n rows of a (..., m, d) tensor."""
    return (Ellipsis, slice(0, n), slice(None))


def _softmax_last(logits: np.ndarray) -> np.ndarray:
    """Float64 softmax over the last axis."""
    e = logits.astype(np.float64)           # a copy: the rest runs in place
    e -= np.maximum.reduce(e, axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


# ---------------------------------------------------------------------------
# pooling and similarity
# ---------------------------------------------------------------------------


def pool(h: T.Tensor, tokens, mode: str = "mean") -> T.Tensor:
    """Reduce per-position rows to one sentence vector, shape (1, d).

    "cls" returns the row of a mandatory leading <cls> token; "mean"
    averages the non-PAD rows, so padding never moves the result.
    """
    if mode not in POOL_MODES:
        raise ValueError(f"unknown pooling mode {mode!r}")
    ids = np.asarray(list(tokens), dtype=np.int64)
    if h.ndim != 2 or h.shape[0] != ids.size:
        raise T.ShapeError("one token per representation row required")
    if mode == "cls":
        if ids.size == 0 or ids[0] != CLS:
            raise ContractError("cls pooling needs a leading <cls> token")
        return T.take(h, slice(0, 1))
    keep = ~pad_flags(ids)
    if not keep.any():
        raise ContractError("mean pooling over an all-PAD sequence")
    w = (keep / keep.sum()).astype(h.dtype)[None, :]
    return T.matmul(T.Tensor(w), h)


def similarity(u, v, metric: str = "cosine") -> float:
    """Euclidean distance or cosine similarity between two vectors."""
    if metric not in SIMILARITY_METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    u = np.asarray(getattr(u, "values", u), dtype=np.float64).reshape(-1)
    v = np.asarray(getattr(v, "values", v), dtype=np.float64).reshape(-1)
    if u.shape != v.shape:
        raise T.ShapeError("similarity needs equal-length vectors")
    if metric == "euclidean":
        return float(np.linalg.norm(u - v))
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise DegenerateVectorError("cosine similarity is undefined at zero")
    return float(u @ v / (nu * nv))
