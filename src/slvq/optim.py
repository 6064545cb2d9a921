"""Adam with decoupled weight decay, operating on dicts of numpy arrays."""

from __future__ import annotations

import numpy as np

from .labels import _finite_positive, _row_blocks

BLOCK = 32_768   # elements per pass: 256 KB per float64 array, so a pass stays in L2


class AdamW:
    """Decoupled-weight-decay Adam (lr and decay applied separately).

    Parameters are a dict name -> writeable, C-contiguous float64 ndarray;
    ``step`` updates them in place from a matching dict of gradients. It
    works on even flat blocks of at most BLOCK elements through two scratch
    buffers and allocates nothing; each element sees the same operations in
    the same order as the whole-array form, so the results are the same bits.
    """

    def __init__(self, params: dict, lr: float = 1e-3, betas=(0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 1e-2):
        if not (_finite_positive(lr) and _finite_positive(weight_decay, zero_ok=True)):
            raise ValueError(f"need a finite lr > 0 and weight_decay >= 0, got {lr} and {weight_decay}")
        for name, p in params.items():
            # reshape(-1) of a non-contiguous array is a copy, whose updates would
            # be lost; the scratch buffers and the update arithmetic are float64
            if not (isinstance(p, np.ndarray) and p.dtype == np.float64
                    and p.flags.c_contiguous and p.flags.writeable):
                raise ValueError(f"parameter {name!r} must be a writeable, C-contiguous "
                                 f"float64 array")
        self.params = params
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        # each parameter's flat blocks: (slice, p, m, v, scratch a, scratch b),
        # views made once so that a step only slices the gradient
        size = min(BLOCK, max((p.size for p in params.values()), default=0))
        a, b = np.empty(size), np.empty(size)
        self._blocks = {}
        for name, p in params.items():
            flat = [x.reshape(-1) for x in (p, self.m[name], self.v[name])]
            self._blocks[name] = [(s, *(x[s] for x in flat), a[:s.stop - s.start], b[:s.stop - s.start])
                                  for s in _row_blocks(p.size, 1, BLOCK)]

    def step(self, grads: dict) -> None:
        self.t += 1
        b1, b2, lr, eps = self.beta1, self.beta2, self.lr, self.eps
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        decay = lr * self.weight_decay
        for name, blocks in self._blocks.items():
            g = grads[name]
            if g.shape != self.params[name].shape:
                raise ValueError(f"gradient {name!r} has shape {g.shape}, "
                                 f"parameter {self.params[name].shape}")
            g = g.reshape(-1)
            for s, p, m, v, a, b in blocks:
                gs = g[s]
                m *= b1                                   # m = b1 m + (1 - b1) g
                m += np.multiply(1.0 - b1, gs, out=a)
                v *= b2                                   # v = b2 v + ((1 - b2) g) g
                np.multiply(1.0 - b2, gs, out=a)
                v += np.multiply(a, gs, out=a)
                np.divide(v, bc2, out=a)                  # a = sqrt(v_hat) + eps
                np.sqrt(a, out=a)
                a += eps
                np.divide(m, bc1, out=b)                  # p -= (lr m_hat) / a
                b *= lr
                p -= np.divide(b, a, out=b)
                # decoupled decay: applied to the parameter, not the gradient
                p -= np.multiply(decay, p, out=b)
