"""Toy decoder-style transformer stack with exact manual gradients.

This is the desk-scale stand-in for a real language model: a few causal
single-head attention + GELU-MLP blocks over hashed word embeddings, all in
float64 numpy. It exists so that every tuning contract (adapter identity at
zero init, rank bounds, frozen base, loss additivity, gradient correctness)
can be verified in seconds without accelerators.

Weight matrices use the (d_out, d_in) convention: a projection is applied
as ``x @ W.T``. ``forward`` accepts an overrides mapping so adapted runs
can substitute effective weights without ever touching the base arrays.

The MLP's GELU is the tanh form the Gemma 2/3 checkpoints use: ``x * g``
with the gate ``g = 0.5 * (1 + tanh(sqrt(2/pi) * (x + 0.044715 * x**3)))``,
within 5e-4 of the exact ``x * Phi(x)``. The forward cache keeps ``g``, and
``backward`` takes this form's exact derivative from it,
``g + x * 2g(1 - g) * sqrt(2/pi) * (1 + 3 * 0.044715 * x**2)``.

Importing this module sets glibc's heap thresholds once (see
``_keep_freed_heap``), so the temporaries each step frees stay with the
process instead of going back to the kernel.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import re
from dataclasses import asdict, dataclass
from typing import Collection, Mapping, Sequence

import numpy as np

from .._config import from_fields

_WORD_RE = re.compile(r"[\w']+", re.UNICODE)

_GELU_C = np.sqrt(2.0 / np.pi)
_GELU_A = 0.044715


def _gelu_gate(x: np.ndarray) -> np.ndarray:
    """The tanh-form GELU gate g(x) = 0.5 * (1 + tanh(c * (x + a * x**3))),
    c = sqrt(2 / pi), a = 0.044715, with x**3 taken as x * x * x; GELU is
    x * g(x). One array is allocated, every later op runs in place."""
    g = x * x
    g *= x
    g *= _GELU_A
    g += x
    g *= _GELU_C
    np.tanh(g, out=g)
    g += 1.0
    g *= 0.5
    return g


def _gelu_slope(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """d(x * g(x))/dx from the cached gate: tanh' = 1 - tanh**2 = 4g(1 - g),
    so the slope is g + x * 2g(1 - g) * c * (1 + 3a * x**2)."""
    slope = x * x
    slope *= 3.0 * _GELU_A
    slope += 1.0
    slope *= x
    slope *= 2.0 * _GELU_C
    slope *= g
    slope *= 1.0 - g
    slope += g
    return slope


# glibc's mallopt parameter numbers (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
# Blocks below 8 MB come from the heap, and up to 16 MB of freed heap top
# stays with the process: far above the ~1 MB of temporaries a training
# step or an inference chunk frees. glibc's dynamic rule sets the same pair
# after one 8 MB block is freed.
_MMAP_THRESHOLD_BYTES = 8 << 20
_TRIM_THRESHOLD_BYTES = 16 << 20


def _keep_freed_heap() -> None:
    """Set glibc's mmap and trim thresholds to the values above; a no-op
    where the C library has no ``mallopt``.

    Under thresholds of a few hundred KB, each step's frees hand memory
    back to the kernel, and the next step faults it in again. scipy's
    import used to prevent that by accident: glibc's dynamic rule raises
    both thresholds whenever a block above the mmap threshold is freed,
    and scipy's import and use left them higher. On a shared 2-vCPU
    machine (fastest of 60 calls, in four processes each), one SFT step of
    8 posts took 0.54-0.57 ms with scipy, 0.65-0.67 ms without scipy or
    this call, although the GELU itself ran 2.6x faster, and 0.46-0.49 ms
    with this call; ``predict_logits`` over 240 posts took 5.8-6.0,
    6.0-6.1 and 4.4-4.6 ms. Setting either threshold stops the dynamic
    rule, so both are set: with the trim threshold alone, blocks above
    about 0.3 MB stayed mmap-backed, and each stub benchmark round's CSV
    ingest took about 1,850 page faults (0 with both set).
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no dlopen(NULL), or no mallopt
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


_keep_freed_heap()


def _outer_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum over batch and position of a[..., p] * b[..., q], as one matmul."""
    return a.reshape(-1, a.shape[-1]).T @ b.reshape(-1, b.shape[-1])


# {word: id} per vocab size, shared by every tokenizer (posts repeat words,
# and a freshly loaded classifier finds the words earlier ones hashed);
# a memo that reaches _WORD_IDS_MAX words starts over
_WORD_IDS: dict[int, dict[str, int]] = {}
_WORD_IDS_MAX = 1 << 14


def _word_id(word: str, ids: dict[str, int], vocab_size: int) -> int:
    """sha1-derived id in [2, vocab_size), recorded in the memo ``ids``."""
    if len(ids) >= _WORD_IDS_MAX:
        ids.clear()
    word_id = 2 + int(hashlib.sha1(word.encode("utf-8")).hexdigest()[:8], 16) % (vocab_size - 2)
    ids[word] = word_id
    return word_id


class ToyTokenizer:
    """Deterministic hashing tokenizer.

    Word ids come from sha1, not the process hash, so encodings are stable
    across runs and machines. Id 0 is padding, id 1 marks text with no
    word-like tokens at all (e.g. emoji-only posts).
    """

    PAD = 0
    UNK = 1

    def __init__(self, vocab_size: int):
        if vocab_size < 3:
            raise ValueError("vocab_size must be >= 3")
        self.vocab_size = vocab_size
        self._ids = _WORD_IDS.setdefault(vocab_size, {})

    def encode(self, text: str) -> list[int]:
        words = _WORD_RE.findall(text.lower())
        if not words:
            return [self.UNK]
        ids = self._ids
        # a word id is never 0, so a miss is the only falsy lookup
        return [ids.get(w) or _word_id(w, ids, self.vocab_size) for w in words]

    def batch_encode(
        self, texts: Sequence[str], max_len: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Right-padded id matrix plus its boolean attention mask."""
        encoded = [self.encode(t) for t in texts]
        if max_len is not None:
            encoded = [e[:max_len] for e in encoded]
        return pad_ids(encoded)


def pad_ids(encoded: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Right-padded id matrix of encoded rows plus its boolean attention mask."""
    width = max(len(e) for e in encoded)
    ids = np.zeros((len(encoded), width), dtype=np.int64)
    mask = np.zeros((len(encoded), width), dtype=bool)
    for row, e in enumerate(encoded):
        ids[row, : len(e)] = e
        mask[row, : len(e)] = True
    return ids, mask


@dataclass(frozen=True)
class ToyNetConfig:
    # vocab 128 keeps hash collisions away from the class-cue words the
    # synthetic fixtures rely on
    vocab_size: int = 128
    d_model: int = 16
    n_layers: int = 2
    d_ff: int = 32
    max_len: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        if self.vocab_size < 3:
            raise ValueError("vocab_size must be >= 3")
        for name in ("d_model", "n_layers", "d_ff", "max_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping) -> "ToyNetConfig":
        return from_fields(cls, data)

    def weight_shapes(self) -> dict[str, tuple[int, int]]:
        """Each base weight's shape by name, in draw order: the embedding,
        then each layer's attention and MLP projections, as (d_out, d_in)."""
        d, f = self.d_model, self.d_ff
        layer = {"attn.wq": (d, d), "attn.wk": (d, d), "attn.wv": (d, d), "attn.wo": (d, d)}
        layer.update({"mlp.w1": (f, d), "mlp.w2": (d, f)})
        shapes = {"embed": (self.vocab_size, d)}
        for i in range(self.n_layers):
            shapes.update({f"layers.{i}.{name}": shape for name, shape in layer.items()})
        return shapes


def _masked_softmax(scores: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """Row softmax over the keys ``allowed`` marks; all-masked rows -> 0.

    The max and the exp skip disallowed keys instead of reading them as
    -inf (numpy's exp is slow on -inf); each allowed entry is computed as
    before and each disallowed one is exactly 0, as exp(-inf) was.
    """
    row_max = np.maximum.reduce(scores, axis=-1, keepdims=True, where=allowed, initial=-np.inf)
    safe_max = np.where(np.isfinite(row_max), row_max, 0.0)
    expd = np.exp(scores - safe_max, where=allowed, out=np.zeros(scores.shape))
    denom = expd.sum(axis=-1, keepdims=True)
    return expd / np.where(denom > 0.0, denom, 1.0)


def _softmax_backward(attn: np.ndarray, d_attn: np.ndarray, scale: float) -> np.ndarray:
    """Gradient w.r.t. the unscaled scores of ``attn = softmax(scores * scale)``
    along the last axis, from ``attn`` and its gradient ``d_attn``."""
    return attn * (d_attn - (d_attn * attn).sum(axis=-1, keepdims=True)) * scale


@functools.lru_cache(maxsize=128)
def _causal_mask(seq: int) -> np.ndarray:
    """Read-only lower-triangular (seq, seq) mask: query t sees keys <= t."""
    causal = np.tril(np.ones((seq, seq), dtype=bool))
    causal.flags.writeable = False
    return causal


def _layer(
    x: np.ndarray, query: np.ndarray, allowed: np.ndarray, w: Mapping[str, np.ndarray], scale: float
) -> tuple[np.ndarray, dict]:
    """One causal attention + GELU-MLP block run at the query rows.

    Keys and values come from every position of ``x`` (B, T, d); queries,
    the attention mix, the residual ``wo`` projection and the MLP run only
    at ``query`` (B, Q, d), whose ``allowed`` (B, Q, T) marks the keys each
    query may see. Where ``query`` is ``x``, one product with ``wq``, ``wk``
    and ``wv`` stacked gives q, k and v, bitwise as three would. Returns
    the output (B, Q, d) and the activations ``backward`` reads.
    """
    if query is x:
        d = x.shape[-1]
        qkv = x @ np.concatenate((w["wq"], w["wk"], w["wv"])).T
        q, k, v = qkv[..., :d], qkv[..., d : 2 * d], qkv[..., 2 * d :]
    else:
        q = query @ w["wq"].T
        k = x @ w["wk"].T
        v = x @ w["wv"].T
    attn = _masked_softmax((q @ k.transpose(0, 2, 1)) * scale, allowed)
    mixed = attn @ v
    x_attn = query + mixed @ w["wo"].T

    h_pre = x_attn @ w["w1"].T
    gate = _gelu_gate(h_pre)
    h = h_pre * gate
    x_out = x_attn + h @ w["w2"].T
    return x_out, {
        "x": x, "query": query, "q": q, "k": k, "v": v, "attn": attn, "mixed": mixed,
        "x_attn": x_attn, "h_pre": h_pre, "gate": gate, "h": h,
    }


class ToyTransformer:
    """Randomly initialized causal transformer; parameters never trained
    directly, only through attached low-rank adapters."""

    def __init__(self, config: ToyNetConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        self.params = {
            name: rng.normal(0.0, 1.0 if name == "embed" else shape[1] ** -0.5, shape)
            for name, shape in config.weight_shapes().items()
        }
        self.tokenizer = ToyTokenizer(config.vocab_size)
        self._scale = config.d_model**-0.5  # attention's score scale
        self._layer_names = [
            {n.rsplit(".", 1)[1]: n for n in self.params if n.startswith(f"layers.{i}.")}
            for i in range(config.n_layers)
        ]

    def _start(
        self, ids: np.ndarray, mask: np.ndarray, overrides: Mapping[str, np.ndarray] | None
    ) -> tuple[np.ndarray, np.ndarray, list[dict[str, np.ndarray]]]:
        """Token embeddings (B, T, d), the (B, T, T) keys each position may
        see, and each layer's weights with ``overrides`` in place."""
        if ids.ndim != 2 or mask.shape != ids.shape:
            raise ValueError("ids and mask must both be (batch, seq)")
        weights = self.params if overrides is None else {**self.params, **overrides}
        allowed = mask[:, None, :] & _causal_mask(ids.shape[1])[None, :, :]
        layer_weights = [
            {key: weights[name] for key, name in names.items()} for names in self._layer_names
        ]
        return weights["embed"][ids], allowed, layer_weights

    def forward(
        self,
        ids: np.ndarray,
        mask: np.ndarray,
        overrides: Mapping[str, np.ndarray] | None = None,
    ) -> tuple[np.ndarray, dict]:
        """Final-layer hidden states (B, T, d) plus the backward cache."""
        x, allowed, layer_weights = self._start(ids, mask, overrides)
        x, layers = self._full_layers(x, allowed, layer_weights)
        return x, {"layers": layers, "scale": self._scale}

    def forward_pooled(
        self,
        ids: np.ndarray,
        mask: np.ndarray,
        overrides: Mapping[str, np.ndarray] | None = None,
    ) -> tuple[np.ndarray, dict]:
        """The one pooled pass, of training and inference: each row's final
        hidden vector at its last unmasked token, (B, d), plus its backward
        cache, whose ``backward`` takes a (B, d) gradient.

        Every layer but the last runs as in ``forward``. The last runs its
        keys and values at every position, and its query, attention mix,
        ``wo`` projection and MLP only at the pooled tokens. Its (B, 1, .)
        products may sum in another order than ``forward``'s (B, T, .) ones,
        so this is ``pool_embedding(forward(...))`` up to the last bits.
        """
        x, allowed, (*lower, top) = self._start(ids, mask, overrides)
        last = last_unmasked_index(mask)
        x, layers = self._full_layers(x, allowed, lower)
        # the last unmasked token sees every unmasked key, so its row of
        # ``allowed`` is the mask itself
        query = x[np.arange(x.shape[0]), last][:, None, :]
        pooled, activations = _layer(x, query, mask[:, None, :], top, self._scale)
        layers.append({**activations, "names": self._layer_names[-1], "w": top, "last": last})
        return pooled[:, 0], {"layers": layers, "scale": self._scale}

    def _full_layers(
        self, x: np.ndarray, allowed: np.ndarray, layer_weights: list[dict[str, np.ndarray]]
    ) -> tuple[np.ndarray, list[dict]]:
        """The lowest ``len(layer_weights)`` layers, run at every position:
        their output (B, T, d) and each one's backward cache."""
        layers = []
        for names, w in zip(self._layer_names, layer_weights):
            x, activations = _layer(x, x, allowed, w, self._scale)
            layers.append({**activations, "names": names, "w": w})
        return x, layers

    def backward(
        self, cache: dict, d_hidden: np.ndarray, targets: Collection[str]
    ) -> dict[str, np.ndarray]:
        """Gradients of a scalar loss w.r.t. the (effective) weights in ``targets``.

        Uses the weights recorded in the cache, so adapted forward passes
        backpropagate through their effective weights, not the base ones.
        Weights outside ``targets`` get no gradient, and the pass stops at
        the lowest layer that holds a target. ``d_hidden`` is (B, T, d) for
        a ``forward`` cache and (B, d) for a ``forward_pooled`` one, read as
        (B, 1, d); the query gradient of that one's last layer goes back to
        the pooled tokens only.
        """
        layers = cache["layers"]
        lowest = next(
            (i for i, layer in enumerate(layers)
             if any(name in targets for name in layer["names"].values())),
            None,
        )
        if lowest is None:
            return {}
        scale = cache["scale"]
        dx = d_hidden if d_hidden.ndim == 3 else d_hidden[:, None, :]
        grads: dict[str, np.ndarray] = {}

        def grad(name: str, d_out: np.ndarray, x_in: np.ndarray) -> None:
            if name in targets:
                grads[name] = _outer_sum(d_out, x_in)

        for i in range(len(layers) - 1, lowest - 1, -1):
            layer = layers[i]
            w, names = layer["w"], layer["names"]
            # MLP: x_out = x_attn + gelu(x_attn @ w1.T) @ w2.T
            dh = dx @ w["w2"]
            grad(names["w2"], dx, layer["h"])
            dh_pre = _gelu_slope(layer["h_pre"], layer["gate"])
            dh_pre *= dh
            grad(names["w1"], dh_pre, layer["x_attn"])
            dx_attn = dx + dh_pre @ w["w1"]

            # attention: x_attn = query + (softmax(qk^T * scale) @ v) @ wo.T
            d_mixed = dx_attn @ w["wo"]
            grad(names["wo"], dx_attn, layer["mixed"])
            attn = layer["attn"]
            d_attn = d_mixed @ layer["v"].transpose(0, 2, 1)
            dv = attn.transpose(0, 2, 1) @ d_mixed
            d_scores = _softmax_backward(attn, d_attn, scale)
            dq = d_scores @ layer["k"]
            dk = d_scores.transpose(0, 2, 1) @ layer["q"]

            x_in, query = layer["x"], layer["query"]
            grad(names["wq"], dq, query)
            grad(names["wk"], dk, x_in)
            grad(names["wv"], dv, x_in)
            if i == lowest:
                break
            if query is x_in:
                dx = dx_attn + dq @ w["wq"] + dk @ w["wk"] + dv @ w["wv"]
            else:  # the query was each row's last unmasked token
                dx = dk @ w["wk"] + dv @ w["wv"]
                dx[np.arange(dx.shape[0]), layer["last"]] += (dx_attn + dq @ w["wq"])[:, 0]
        return grads


def last_unmasked_index(mask: np.ndarray) -> np.ndarray:
    """Index of the last True per row; error if any row is fully masked."""
    if not mask.any(axis=-1).all():
        raise ValueError("fully masked input: no token to pool")
    flipped = mask[..., ::-1]
    return mask.shape[-1] - 1 - flipped.argmax(axis=-1)


def pool_embedding(hidden_states: np.ndarray, attention_mask: np.ndarray) -> np.ndarray:
    """Each row's final-layer hidden vector at its last unmasked token:
    (B, T, d) with mask (B, T) gives (B, d)."""
    if hidden_states.ndim != 3:
        raise ValueError("hidden_states must be (batch, seq, d_model)")
    return hidden_states[np.arange(hidden_states.shape[0]), last_unmasked_index(attention_mask)]
