"""Reference forward pass of the dual-rate ssmm network, written from the
method's equations and kept apart from the engine.

It is slow (one Python step per frame) and exists only to check the
program's outputs. It reads the weights through their canonical names,
the naming the model file format fixes, and shares no framing, window,
GRU or overlap-add code with the package.

Timeline. The input x[0..n) sits on a zero-padded timeline shifted right by
pad = L_F - D_F samples, so padded index p holds x[p - pad]; reads outside
the signal are zeros. Fast frame i covers padded [i*D_F, i*D_F + L_F).

Slow branch. Slow span j is padded [(j+1)*D_S - L_S, (j+1)*D_S): it ends
where the first fast frame that uses its packet begins. Fast frame i uses
packet i // R - 1 with R = D_S / D_F; the first group (index -1) uses the
warm-up packet, sigmoid of a learned raw vector. Each span passes through
u = x W_in + b_in, a stack of GRU layers

    z = sig(u W_z + h U_z + b_z)
    r = sig(u W_r + h U_r + b_r)
    c = tanh(u W_n + r * (h U_n) + b_n)      (reset gate on U h)
    h' = (1 - z) * c + z * h

and a head raw = h_top W_head + b_head, with a = sig(raw[:H]),
g = sig(raw[H:]).

Fast branch. With periodic sqrt-Hann window w (w = [1] when L_F = 1):
s = a * s + g * ((w * frame) W_fin + b_fin), y = s W_fout + b_fout, and
y * w is overlap-added at padded offset i*D_F. The output is padded
[pad, pad + n) of the sum.
"""

from __future__ import annotations

import numpy as np


def sqrt_hann(length: int) -> np.ndarray:
    if length == 1:
        return np.ones(1)
    return np.sin(np.pi * np.arange(length) / length)


def _sig(v: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-v))


def fast_frame_count(n: int, l_f: int, delta_f: int) -> int:
    """Frames whose span reaches into padded [pad, pad + n)."""
    pad = l_f - delta_f
    return -(-(pad + n) // delta_f) if n > 0 else 0


def slow_frame_count(n: int, l_f: int, delta_f: int, reuse: int) -> int:
    """Packets the fast frames of an n-sample stream consume (warm-up excluded)."""
    frames = fast_frame_count(n, l_f, delta_f)
    return (frames - 1) // reuse if frames > 0 else 0


def reference_forward(x: np.ndarray, weights, config) -> np.ndarray:
    """Enhanced output of the ssmm network for the whole input x."""
    if config.variant != "ssmm":
        raise ValueError("the reference covers the ssmm variant only")
    from slowfast_se.engine import named_arrays

    p = dict(named_arrays(weights))
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    l_f, d_f, l_s, h_dim = config.l_f, config.delta_f, config.l_s, config.h
    reuse = config.delta_s // d_f
    pad = l_f - d_f

    def padded(lo: int, hi: int) -> np.ndarray:
        seg = np.zeros(hi - lo)
        a, b = max(lo, pad), min(hi, pad + n)
        if b > a:
            seg[a - lo : b - lo] = x[a - pad : b - pad]
        return seg

    def packet(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return _sig(raw[:h_dim]), _sig(raw[h_dim:])

    n_fast = fast_frame_count(n, l_f, d_f)
    n_slow = slow_frame_count(n, l_f, d_f, reuse)

    packets = [packet(p["slow.warmup_raw"])]
    hidden = [np.zeros(config.gru_width) for _ in range(config.gru_layers)]
    for j in range(n_slow):
        end = (j + 1) * config.delta_s
        u = padded(end - l_s, end) @ p["slow.fc_in.w"] + p["slow.fc_in.b"]
        for k in range(config.gru_layers):
            g = f"slow.gru{k}."
            h = hidden[k]
            z = _sig(u @ p[g + "w_z"] + h @ p[g + "u_z"] + p[g + "b_z"])
            r = _sig(u @ p[g + "w_r"] + h @ p[g + "u_r"] + p[g + "b_r"])
            c = np.tanh(u @ p[g + "w_n"] + r * (h @ p[g + "u_n"]) + p[g + "b_n"])
            hidden[k] = u = (1.0 - z) * c + z * h
        packets.append(packet(u @ p["slow.fc_head.w"] + p["slow.fc_head.b"]))

    w = sqrt_hann(l_f)
    out = np.zeros(n_fast * d_f + l_f)
    s = np.zeros(h_dim)
    for i in range(n_fast):
        a, g = packets[i // reuse]
        u = (padded(i * d_f, i * d_f + l_f) * w) @ p["fast.f_in.w"] + p["fast.f_in.b"]
        s = a * s + g * u
        y = s @ p["fast.f_out.w"] + p["fast.f_out.b"]
        out[i * d_f : i * d_f + l_f] += y * w
    return out[pad : pad + n]
