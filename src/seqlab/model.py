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
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import attention as A
from . import blocks as B
from . import efficient as EF
from . import ssm as S
from . import tensor as T
from .config import Config
from .embedding import (CLS, PAD, SOS, EmbeddingTable, RprTable, SinusoidalPE,
                        Vocab, VocabError, pad_flags)


class StateError(RuntimeError):
    """A decode session's cached state disagrees with its token prefix."""


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
        """Raise unless chunked evaluation (a frozen previous-chunk cache)
        is defined for this model."""
        if (self.attention != "dense" or self.multi_query or self.rpr
                or self.reuse_maps or self.integrator_order != 1
                or self.dropout_rho < 1.0
                or self.architecture != "decoder-only"):
            raise B.ConfigurationError(
                "chunked evaluation is defined for plain dense decoder-only models")

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
    lowrank: Optional[EF.LowRankProjections] = None
    cross: Optional[A.AttentionParams] = None
    ln_cross: Optional[B.LNParams] = None

    def named(self, prefix: str):
        if self.att is not None:
            yield from self.att.named(f"{prefix}.att.")
        if self.ssm is not None:
            yield from self.ssm.named(f"{prefix}.ssm")
        if self.lowrank is not None:
            for nm in ("u_k", "u_v", "u_q", "u_kd"):
                t = getattr(self.lowrank, nm)
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
                                  cfg.ssm_method, cfg.ssm_init, rng)
    else:
        att = A.AttentionParams.init(d, cfg.tau, rng,
                                     multi_query=cfg.multi_query, dtype=dtype)
    if cfg.attention == "lowrank-d":
        d_r = cfg.reduced_width_resolved
        lowrank = EF.LowRankProjections(
            u_q=T.xavier_init(cfg.d_head, d_r, rng=rng, dtype=dtype),
            u_kd=T.xavier_init(cfg.d_head, d_r, rng=rng, dtype=dtype))
    elif cfg.attention == "lowrank-n":
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
    """Incremental decoding state owned by one hypothesis.

    mode picks the state representation: "cache" keeps per-layer key/value
    histories, "stream" keeps kernel accumulators, "ssm" keeps state
    blocks, and "recompute" keeps only the prefix (variants whose step
    cannot reuse past work exactly).
    """

    model: "Model"
    mode: str
    enc_out: Optional[T.Tensor]
    prefix: List[int] = field(default_factory=list)
    kv: Optional[A.KVCache] = None
    streams: Optional[List[List[EF.StreamState]]] = None
    ssm_states: Optional[List[np.ndarray]] = None

    @property
    def position(self) -> int:
        return len(self.prefix)

    def clone(self) -> "DecodeSession":
        return DecodeSession(
            model=self.model, mode=self.mode, enc_out=self.enc_out,
            prefix=list(self.prefix),
            kv=self.kv.clone() if self.kv is not None else None,
            streams=[[dataclasses.replace(st) for st in per_layer]
                     for per_layer in self.streams] if self.streams is not None else None,
            ssm_states=[z.copy() for z in self.ssm_states]
            if self.ssm_states is not None else None)


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
        self.enc_layers = enc_layers
        self.dec_layers = dec_layers
        self.w_o = w_o
        self.final_ln_enc = final_ln_enc
        self.final_ln_dec = final_ln_dec
        self.rpr_table = rpr_table
        self.dtype = dtype
        self._sub_cfg = B.SublayerConfig(cfg.placement, cfg.beta, cfg.gamma)

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
        h = T.gather_rows(self.embed.weights, ids)
        if self.cfg.scale_embedding:
            h = h * float(np.sqrt(self.cfg.d))
        pos = self.pe.table(start_pos + ids.shape[-1])[start_pos:]
        return h + T.Tensor(pos.astype(self.dtype))

    def _mask_for(self, m: int, causal: bool, pad: Optional[np.ndarray]):
        cfg = self.cfg
        spec = None
        if cfg.attention == "window":
            spec = A.make_attention_field("window", m, causal=causal,
                                          window=cfg.window)
        elif causal:
            spec = A.causal_mask(m)
        if pad is not None and cfg.attention in ("dense", "window", "lowrank-d"):
            # non-PAD queries must ignore PAD keys; PAD rows stay unrestricted
            # so no row of the field ever empties out
            block = np.where(~pad[:, None] & pad[None, :], A.NEG_INF, 0.0)
            pad_spec = A.MaskSpec(mode="additive", additive=block)
            spec = pad_spec if spec is None else spec.combine(pad_spec)
        return spec

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
                  reuse_store, counter) -> Callable[[T.Tensor], T.Tensor]:
        cfg = self.cfg
        att = layer.att

        def core(z: T.Tensor) -> T.Tensor:
            if cfg.attention == "ssm":
                return S.ssm_sublayer_scan(z, layer.ssm)
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
            if cfg.attention == "lowrank-d":
                return att.merge(EF.lowrank_width_attention(
                    *att.heads(z), layer.lowrank, mask, counter=counter))
            # dense family
            if cfg.attention == "window" and counter is not None:
                # counting path: gather only retained pairs (inference math,
                # identical output, work linear in m)
                return att.merge(A.sparse_field_attention(*att.heads(z), mask,
                                                          counter))
            if cfg.rpr:
                return A.rpr_attention(z, att, self.rpr_table, mask)
            if cfg.multi_query:
                return A.multi_query_attention(z, att, mask, counter=counter)
            if reuse_store is not None:
                if "w" in reuse_store:
                    return A.multi_head_self(z, att, mask,
                                             reuse_weights=reuse_store["w"])
                out, w = A.multi_head_self(z, att, mask, return_weights=True)
                reuse_store["w"] = w
                return out
            return A.multi_head_self(z, att, mask, counter=counter)

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

    def _prefix_core(self, layer: Layer, kv_prev, kv_sink) \
            -> Callable[[T.Tensor], T.Tensor]:
        """Dense causal self-attention over [frozen previous chunk | current].

        kv_prev is None or the previous chunk's (keys, values) ndarray pair,
        every head side by side; wrapping them in fresh tensors keeps the
        previous chunk visible to attention but outside the gradient tape.
        kv_sink, when a list, receives this chunk's detached pair for the
        next chunk.
        """
        att = layer.att

        def core(z: T.Tensor) -> T.Tensor:
            m = z.shape[-2]
            q, k, v = att.project(z, z)
            if kv_sink is not None:
                kv_sink.append((k.values.copy(), v.values.copy()))
            n_prev = 0
            if kv_prev is not None:
                n_prev = kv_prev[0].shape[-2]
                k = T.concat([T.Tensor(kv_prev[0]), k], axis=-2)
                v = T.concat([T.Tensor(kv_prev[1]), v], axis=-2)
            additive = np.zeros((m, n_prev + m))
            additive[:, n_prev:][np.triu(np.ones((m, m), dtype=bool), 1)] = A.NEG_INF
            return att.merge(A.qkv_attention(*att.split(q, k, v), additive))

        return core

    def _wrap(self, z: T.Tensor, core, ln: B.LNParams,
              training: bool, rng: Optional[T.Rng]) -> T.Tensor:
        cfg = self.cfg
        if cfg.integrator_order != 1:
            return B.rk_sublayer(z, lambda x: B.layer_norm(core(x), ln),
                                 cfg.integrator_order, cfg.integrator_h)
        if cfg.dropout_rho < 1.0:
            if training:
                if rng is None:
                    raise B.ConfigurationError("layer dropout needs a seeded rng")
                if float(rng.uniform()) < cfg.dropout_rho:
                    return B.layer_norm(core(z), ln) + z
                return z
            return B.layer_norm(core(z), ln) * cfg.dropout_rho + z
        return B.sublayer_apply(z, core, ln, self._sub_cfg)

    def _ffn_core(self, layer: Layer) -> Callable[[T.Tensor], T.Tensor]:
        if isinstance(layer.ffn_core, B.MoEFFN):
            return lambda z: B.moe_ffn(z, layer.ffn_core)
        return lambda z: B.ffn(z, layer.ffn_core)

    def _run_stack(self, h: T.Tensor, layers: List[Layer], *, causal: bool,
                   pad: Optional[np.ndarray] = None,
                   enc_out: Optional[T.Tensor] = None,
                   training: bool = False, rng: Optional[T.Rng] = None,
                   counter=None, kv_prefix=None, kv_out=None) -> T.Tensor:
        cfg = self.cfg
        m = h.shape[-2]
        if pad is not None and not pad.any():
            pad = None
        mask = self._mask_for(m, causal, pad)
        m_real = None
        if cfg.attention in ("linear", "lowrank-n"):
            m_real = self._suffix_length(pad, m)
        reuse_store = {} if cfg.reuse_maps else None
        for idx, layer in enumerate(layers):
            if kv_prefix is not None or kv_out is not None:
                prev = None if kv_prefix is None else kv_prefix[idx]
                att_core = self._prefix_core(layer, prev, kv_out)
            else:
                att_core = self._att_core(layer, mask, causal, m_real,
                                          reuse_store, counter)
            h = self._wrap(h, att_core, layer.ln1, training, rng)
            if layer.cross is not None:
                cross_core = (lambda z, lay=layer:
                              A.cross_attention(enc_out, z, lay.cross))
                h = self._wrap(h, cross_core, layer.ln_cross, training, rng)
            h = self._wrap(h, self._ffn_core(layer), layer.ln2, training, rng)
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
        if kv_prefix is not None or kv_out is not None:
            self.cfg.check_chunkable()
        ids = self._check_tokens(tokens, batched=True)
        h = self._embed_at(ids, start_pos)
        h = self._run_stack(h, self.dec_layers, causal=True, enc_out=enc_out,
                            training=training, rng=rng, counter=counter,
                            kv_prefix=kv_prefix, kv_out=kv_out)
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
        cfg = self.cfg
        if cfg.integrator_order != 1 or cfg.rpr or cfg.reuse_maps:
            return "recompute"
        return {"dense": "cache", "window": "cache", "linear": "stream",
                "ssm": "ssm", "lowrank-d": "recompute",
                "lowrank-n": "recompute"}[cfg.attention]

    def decode_session(self, source=None) -> DecodeSession:
        if not self.dec_layers:
            raise ContractError("this architecture has no decoder")
        enc_out = None
        if self.cfg.architecture == "encoder-decoder":
            if source is None:
                raise ContractError("encoder-decoder decoding needs a source")
            enc_out = self.encode(source)
        elif source is not None:
            raise ContractError("source given to a model without cross-attention")
        mode = self.decode_mode()
        kv = streams = states = None
        n_l, d_h = len(self.dec_layers), self.cfg.d_head
        if mode == "cache":
            kv = A.KVCache(n_l)
        elif mode == "stream":
            streams = [[EF.init_stream(d_h, d_h) for _ in range(self.cfg.tau)]
                       for _ in range(n_l)]
        elif mode == "ssm":
            states = [np.zeros((self.cfg.d, self.cfg.ssm_d_state),
                               dtype=self.dtype) for _ in range(n_l)]
        return DecodeSession(model=self, mode=mode, enc_out=enc_out,
                             kv=kv, streams=streams, ssm_states=states)

    def _check_session(self, session: DecodeSession, t: int):
        if session.model is not self:
            raise StateError("session belongs to a different model")
        if session.mode == "cache":
            if not session.kv.lengths_consistent() or session.kv.length(0) != t:
                raise StateError(
                    f"cache holds {session.kv.length(0)} rows for a prefix of {t}")
        elif session.mode == "stream":
            if session.streams[0][0].steps != t:
                raise StateError(
                    f"stream took {session.streams[0][0].steps} steps "
                    f"for a prefix of {t}")

    def _step_att_core(self, layer: Layer, idx: int, session: DecodeSession,
                       t: int) -> Callable[[T.Tensor], T.Tensor]:
        cfg = self.cfg

        def core(z: T.Tensor) -> T.Tensor:
            if session.mode == "cache":
                allowed = None
                if cfg.attention == "window":
                    allowed = np.zeros(t + 1, dtype=bool)
                    allowed[max(0, t - cfg.window + 1):] = True
                out, _ = A.attend_step_cached(z, session.kv, layer.att, idx,
                                              allowed)
                return out
            if session.mode == "stream":
                phi = EF.FeatureMap(cfg.feature_map)
                q, k, v = (x.values[:, 0] for x in layer.att.heads(z))
                streams = session.streams[idx]
                rows = []
                for hh in range(cfg.tau):
                    out_row, streams[hh] = EF.stream_step(
                        streams[hh], k[hh], v[hh], q[hh], phi)
                    rows.append(out_row)
                heads = np.stack(rows)[:, None, :].astype(self.dtype)
                return layer.att.merge(T.Tensor(heads))
            # ssm: one recurrence step over the d feature columns
            dssm = layer.ssm
            s_col = z.values.reshape(-1, 1)
            z_new = (session.ssm_states[idx] @ dssm.a_bar.values
                     + s_col @ dssm.b_bar.values)
            session.ssm_states[idx] = z_new
            o = z_new @ dssm.c_bar.values + s_col @ dssm.d_bar.values
            return T.Tensor(o.T.astype(self.dtype))

        return core

    def decode_step(self, session: DecodeSession, token: int) -> np.ndarray:
        """Consume one input token; return the next-token distribution.

        The returned float64 vector sums to one. The session's state
        advances; feeding the same session a token while its cache is out
        of step with the prefix raises StateError.
        """
        token = int(token)
        if not 0 <= token < len(self.vocab):
            raise VocabError(f"token id {token} out of range")
        t = session.position
        self._check_session(session, t)
        if session.mode == "recompute":
            session.prefix.append(token)
            logits = self.decoder_forward(session.prefix, session.enc_out)
            return _row_softmax(logits.values[-1])
        ids = np.asarray([token], dtype=np.int64)
        h = self._embed_at(ids, t)
        for idx, layer in enumerate(self.dec_layers):
            h = self._wrap(h, self._step_att_core(layer, idx, session, t),
                           layer.ln1, False, None)
            if layer.cross is not None:
                cross_core = (lambda z, lay=layer:
                              A.cross_attention(session.enc_out, z, lay.cross))
                h = self._wrap(h, cross_core, layer.ln_cross, False, None)
            h = self._wrap(h, self._ffn_core(layer), layer.ln2, False, None)
        if self.final_ln_dec is not None:
            h = B.layer_norm(h, self.final_ln_dec)
        logits = self._head(h)
        session.prefix.append(token)
        return _row_softmax(logits.values[0])

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


def _first_rows(n: int):
    """Index key keeping the first n rows of a (..., m, d) tensor."""
    return (Ellipsis, slice(0, n), slice(None))


def _row_softmax(logits_row: np.ndarray) -> np.ndarray:
    x = np.asarray(logits_row, dtype=np.float64)
    e = np.exp(x - x.max())
    return e / e.sum()


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
