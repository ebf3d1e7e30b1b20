"""Independent reference implementations used as test oracles.

Everything here is deliberately written as plain loops / direct formulas,
separate from the library's vectorized paths.
"""

import numpy as np


def naive_conv2d(x, w, bias=None, stride=1, padding=0, groups=1):
    """Direct six-loop grouped convolution. x: (N,C,H,W), w: (O,C/G,k,k)."""
    n, c, h, wd = x.shape
    out_c, cg, k, _ = w.shape
    og = out_c // groups
    xp = np.zeros((n, c, h + 2 * padding, wd + 2 * padding))
    xp[:, :, padding : padding + h, padding : padding + wd] = x
    ho = (h + 2 * padding - k) // stride + 1
    wo = (wd + 2 * padding - k) // stride + 1
    out = np.zeros((n, out_c, ho, wo))
    for b in range(n):
        for o in range(out_c):
            g = o // og
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for ci in range(cg):
                        for ki in range(k):
                            for kj in range(k):
                                acc += (
                                    xp[b, g * cg + ci, i * stride + ki, j * stride + kj]
                                    * w[o, ci, ki, kj]
                                )
                    out[b, o, i, j] = acc
            if bias is not None:
                out[b, o] += bias[o]
    return out


def _per_channel(v):
    return np.asarray(v)[None, :, None, None]


def naive_batch_norm(x, gamma, beta, mean, var, eps):
    """gamma * ((x - mean) * inv_std) + beta per channel, inv_std = 1/sqrt(var + eps)."""
    b = _per_channel
    return b(gamma) * ((x - b(mean)) * (1.0 / np.sqrt(b(var) + eps))) + b(beta)


def naive_batch_norm_dx(dy, x, gamma, mean, var, eps, training):
    """Input gradient of naive_batch_norm. In training, mean and var are the
    batch statistics of x and depend on it; in eval they are constants."""
    b = _per_channel
    inv_std = 1.0 / np.sqrt(b(var) + eps)
    g = dy * b(gamma) * inv_std
    if not training:
        return g
    axes = (0, 2, 3)
    xhat = (x - b(mean)) * inv_std
    return g - g.mean(axis=axes, keepdims=True) - xhat * (g * xhat).mean(axis=axes, keepdims=True)


def naive_batch_norm_dparams(dy, x, mean, var, eps):
    """(dgamma, dbeta) of naive_batch_norm: sum(dy * xhat) and sum(dy) per
    channel, with xhat = (x - mean) * inv_std; the same in either mode."""
    xhat = (x - _per_channel(mean)) * (1.0 / np.sqrt(_per_channel(var) + eps))
    axes = (0, 2, 3)
    return (dy * xhat).sum(axis=axes), dy.sum(axis=axes)


def naive_gap(x):
    n, c, h, w = x.shape
    out = np.zeros((n, c, 1, 1))
    for b in range(n):
        for ci in range(c):
            s = 0.0
            for i in range(h):
                for j in range(w):
                    s += x[b, ci, i, j]
            out[b, ci, 0, 0] = s / (h * w)
    return out


def naive_max_pool(x, k=3, stride=2, padding=1):
    n, c, h, w = x.shape
    xp = np.full((n, c, h + 2 * padding, w + 2 * padding), -np.inf)
    xp[:, :, padding : padding + h, padding : padding + w] = x
    ho = (h + 2 * padding - k) // stride + 1
    wo = (w + 2 * padding - k) // stride + 1
    out = np.zeros((n, c, ho, wo))
    for b in range(n):
        for ci in range(c):
            for i in range(ho):
                for j in range(wo):
                    out[b, ci, i, j] = xp[
                        b, ci, i * stride : i * stride + k, j * stride : j * stride + k
                    ].max()
    return out


def naive_max_pool_dx(dy, x, k=3, stride=2, padding=1):
    """Input gradient of naive_max_pool: each window's dy goes to its first
    maximum, scanning rows, then columns, of the window."""
    n, c, h, w = x.shape
    _, _, ho, wo = dy.shape
    dx = np.zeros(x.shape)
    for b in range(n):
        for ci in range(c):
            for i in range(ho):
                for j in range(wo):
                    best = None
                    for ki in range(k):
                        for kj in range(k):
                            r, q = i * stride + ki - padding, j * stride + kj - padding
                            inside = 0 <= r < h and 0 <= q < w
                            if inside and (best is None or x[b, ci, r, q] > x[b, ci][best]):
                                best = (r, q)
                    dx[b, ci][best] += dy[b, ci, i, j]
    return dx


def naive_linear(v, w, b=None):
    out = v @ w.T
    if b is not None:
        out = out + b
    return out


def naive_se_weight(x, fc0_w, fc0_b, fc1_w, fc1_b):
    pooled = naive_gap(x)[:, :, 0, 0]
    hidden = np.maximum(naive_linear(pooled, fc0_w, fc0_b), 0.0)
    logits = naive_linear(hidden, fc1_w, fc1_b)
    return (1.0 / (1.0 + np.exp(-logits)))[:, :, None, None]


def straightline_psa(x, params):
    """PSA composed step by step from the naive pieces above.

    Mirrors the four-step pipeline: branch convolutions, per-branch channel
    descriptors, softmax competition across scales, reweight and concat.
    """
    cfg = params.config
    s = cfg.scales
    feats = [
        naive_conv2d(
            x,
            params.branch_convs[i].weight.data,
            None,
            stride=cfg.stride,
            padding=(cfg.kernels[i] - 1) // 2,
            groups=cfg.groups[i],
        )
        for i in range(s)
    ]
    se = params.se
    zs = [
        naive_se_weight(f, se.fc0.weight, se.fc0.bias, se.fc1.weight, se.fc1.bias)
        for f in feats
    ]
    z = np.stack(zs, axis=1)  # (N, S, C', 1, 1)
    e = np.exp(z)
    att = e / e.sum(axis=1, keepdims=True)
    weighted = [feats[i] * att[:, i] for i in range(s)]
    return np.concatenate(weighted, axis=1)
