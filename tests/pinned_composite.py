"""The composite attention path that width reduction and map reuse took
before they ran through the one attention op, pinned for equivalence
tests.

Heads were split first; width reduction multiplied every split query
and key head by U^q and U^kd (the cached path re-reducing the whole
cached key history, which held full-width keys), and scored the reduced
heads with ``qkv_attention`` at 1/sqrt(d_h); the first map-reuse layer
ran the composite of a scores product, ``softmax_rows`` and a weighted
sum to keep its weights, and later layers multiplied them by their own
value heads. ``install`` routes a model's self-attention through these
functions. Plain and RPR attention keep the code they run.
"""

import numpy as np

from seqlab import attention as A
from seqlab import tensor as T


def weights_attention(q, k, v, mask=None, counter=None):
    """qkv_attention(return_weights=True) as it was: (out, weights)."""
    d_h = q.shape[-1]
    weights = T.softmax_rows(T.matmul(q, T.transpose(k)), mask,
                             1.0 / float(np.sqrt(d_h)))
    out = T.matmul(weights, v)
    A._tally(counter, out.shape[:-1], k.shape[-2], d_h, v.shape[-1])
    return out, weights


def reduce_width(q, k, proj):
    """Q U^q, K U^kd on split heads."""
    return T.matmul(q, proj.u_q), T.matmul(k, proj.u_kd)


def lowrank_width_attention(q, k, v, proj, mask=None, counter=None, held=0,
                            u_held=None):
    """Width-reduced attention at the full heads' sqrt(d_h). The first
    ``held`` key rows are reduced as constants, by ``u_held`` or else the
    live U^kd (see install)."""
    d = q.shape[-1]
    q_r, k_r = reduce_width(q, k, proj)
    if held:
        earlier = k.values[..., :held, :] @ (proj.u_kd.values if u_held is None
                                             else u_held)
        k_r = T.concat([T.Tensor(earlier), T.take(
            k_r, (Ellipsis, slice(held, None), slice(None)))], axis=-2)
    return A.qkv_attention(q_r, k_r, v, mask, scale=float(np.sqrt(d)),
                           counter=counter)


def attend_heads(q, k, v, mask=None, counter=None, rpr=None, lowrank=None,
                 maps=None, q_start=0, held=0, u_held=None):
    """Per-head context of split Q, K, V: ``maps`` holds the first layer's
    split-head weights once it has run."""
    if maps:
        return T.matmul(maps[0], v)
    if rpr is not None:
        return A.rpr_attention(q, k, v, rpr, mask, q_start)
    if lowrank is not None:
        return lowrank_width_attention(q, k, v, lowrank, mask, counter, held,
                                       u_held)
    if maps is None:
        return A.qkv_attention(q, k, v, mask, counter=counter)
    out, w = weights_attention(q, k, v, mask, counter)
    maps.append(w)
    return out


def install(monkeypatch, reduced_history=False):
    """Route every model's width-reduced and map-reuse self-attention,
    full passes and cached blocks, through the composite, as the code
    before the one-op path ran it (a map-reuse pass shares ``maps`` as it
    shared a dict). With ``reduced_history`` a cached block's earlier key
    rows are reduced as constants, as a cache of reduced keys holds them,
    where the composite reduced them with the live U^kd; a list gives each
    layer's U^kd to reduce them with (that of the step that wrote them)."""
    self_attention, attend_step_cached = A.self_attention, A.attend_step_cached

    def pinned_self_attention(h, params, mask=None, counter=None, *, rpr=None,
                              maps=None, **cached):
        if params.reduce is None and maps is None:
            return self_attention(h, params, mask, counter, rpr=rpr, **cached)
        return params.merge(attend_heads(*params.heads(h), mask, counter,
                                         rpr, params.reduce, maps))

    def pinned_attend_step_cached(x, cache, params, layer, rpr=None,
                                  counter=None, maps=None):
        if params.reduce is None and maps is None:
            return attend_step_cached(x, cache, params, layer, rpr, counter)
        qkv = T.matmul(x, params.w_qkv)
        _, (k_lo, k_hi), (v_lo, v_hi) = params.cols
        rows = qkv.values
        k, v, back = cache.write(layer, rows[..., k_lo:k_hi],
                                 rows[..., v_lo:v_hi])
        m = rows.shape[1]
        mask = None if m == 1 else cache.step_mask(m, back, rows.dtype)
        u_held = reduced_history[layer] if isinstance(reduced_history, list) \
            else None
        return params.merge(attend_heads(*params.split(qkv, (k, v)), mask,
                                         counter, rpr, params.reduce, maps,
                                         back, back if reduced_history is not False
                                         else 0, u_held))

    monkeypatch.setattr(A, "self_attention", pinned_self_attention)
    monkeypatch.setattr(A, "attend_step_cached", pinned_attend_step_cached)
