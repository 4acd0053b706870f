"""Per-layer spans recorded from the benchmark, around calls into each layer.

The program has no span mechanism of its own, so the traced run wraps the
entry point of every layer named below with a span that measures
``perf_counter_ns`` duration.  Spans nest: a layer's *self* time is its
span's duration minus the time of the layer spans it encloses, so the
self times of one operation add up to at most its wall time and the
remainder is reported as ``other_ms`` (Python glue between layers).

Spans are aggregated in memory into per-layer totals (self time, calls,
cache hits) instead of being stored one by one: the inner loops of
training and Algorithm 3 call some layers tens of thousands of times per
operation.  Only the thread that enabled the tracer is measured, so a
producer thread never adds time that overlaps the consumer's.

A hook whose target no longer exists (a layer renamed or folded into
another) is skipped and its layer reads 0; :attr:`LayerTracer.missing`
names such hooks.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from collections import Counter

#: (module, class or None for a module function, attribute, layer name).
#: Several entry points may feed one layer.
HOOKS = [
    ("repro.manufacturing.acoustics", "AcousticSynthesizer", "render", "sim"),
    ("repro.manufacturing.acoustics", "ContactMicrophone", "apply", "sim_fft"),
    ("repro.manufacturing.acoustics", None, "_band_noise", "sim_fft"),
    ("repro.dsp.features", "FrequencyFeatureExtractor", "raw_feature_matrix", "cwt"),
    ("repro.gan.cgan", "ConditionalGAN", "generate", "gen_sample"),
    ("repro.gan.cgan", "ConditionalGAN", "_d_step", "d_step"),
    ("repro.gan.cgan", "ConditionalGAN", "_g_step", "g_step"),
    ("repro.nn.optimizers", "Optimizer", "step", "optimizer"),
    ("repro.security.parzen", "ParzenWindow", "fit", "parzen_fit"),
    ("repro.security.parzen", "ParzenWindow", "score_batch", "parzen_score"),
    ("repro.security.sequence", "CusumDetector", "update", "decide"),
    ("repro.security.sequence", "EwmaDetector", "update", "decide"),
    ("repro.runtime.analysis", "ConditionSampleCache", "get", "sample_cache"),
    ("repro.artifacts.store", "ArtifactStore", "put_file", "artifact_io"),
    ("repro.artifacts.store", "ArtifactStore", "put_tree", "artifact_io"),
    ("repro.artifacts.store", "ArtifactStore", "put_text", "artifact_io"),
    ("repro.artifacts.store", "ArtifactStore", "put_json", "artifact_io"),
    ("repro.gan.serialization", None, "save_training_checkpoint", "artifact_io"),
    ("repro.gan.serialization", None, "restore_training_checkpoint", "artifact_io"),
]

#: Every layer, in report order.
LAYERS = list(dict.fromkeys(layer for *_, layer in HOOKS))


class LayerTracer:
    """Installs the span hooks and accumulates per-layer totals.

    Use as a context manager; hooks are removed on exit.  Spans are
    recorded only between :meth:`start` and :meth:`stop`, so set-up and
    correctness checks never count towards an operation.
    """

    def __init__(self):
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.hits: Counter = Counter()
        self.missing: list = []
        self._patched: list = []
        self._thread = None
        self._stack: list = []

    def __enter__(self) -> "LayerTracer":
        for module_name, owner_name, attr, layer in HOOKS:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name, None)
            original = None if owner is None else vars(owner).get(attr)
            if not inspect.isfunction(original):
                self.missing.append(f"{module_name}.{owner_name or ''}.{attr}")
                continue
            setattr(owner, attr, self._wrap(original, layer))
            self._patched.append((owner, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def start(self) -> None:
        self._thread = threading.get_ident()

    def stop(self) -> None:
        self._thread = None

    def reset(self) -> None:
        """Forget everything recorded so far (e.g. a warm-up operation)."""
        self.self_ns.clear()
        self.calls.clear()
        self.hits.clear()

    def total_self_ns(self) -> int:
        return sum(self.self_ns.values())

    def _wrap(self, original, layer):
        tracer = self

        @functools.wraps(original)
        def span(*args, **kwargs):
            if threading.get_ident() != tracer._thread:
                return original(*args, **kwargs)
            stack = tracer._stack
            stack.append(0)  # time of the layer spans nested in this one
            start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - start
                tracer.self_ns[layer] += elapsed - stack.pop()
                tracer.calls[layer] += 1
                if stack:
                    stack[-1] += elapsed
            if layer == "sample_cache" and result is not None:
                tracer.hits[layer] += 1
            return result

        return span
