"""In-place span tracer for slvq's public API.

``Tracer.install()`` replaces the public functions of the traced modules,
selected private helpers and selected class methods with wrappers that record
one span per call: (name, id, parent id, pass id, start, end). Names that
other modules imported (``baselines`` imports ``fit`` from ``vqae``) and
function references held in module-level dicts (``cli._COMMANDS``) are
rebound too, so nested calls show up as child spans. ``uninstall()`` puts
every original back. Spans stay in memory until ``dump``.

Counters are recorded at the same boundaries by per-span hooks that read
only argument shapes, so they repeat exactly from run to run.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time

TRACED_MODULES = ("labels", "vqae", "optim", "archive", "budget", "baselines", "harness", "cli")

# Private helpers and methods that carry a layer the benchmark reports on.
EXTRA_TARGETS = {
    "vqae": ("_init_model", "_cache_loss_grads_aux", "_reinit_dead_codes",
             "VqaeModel.__post_init__"),
    "labels": ("SoftLabelMatrix.__post_init__",),
    "optim": ("AdamW.__init__", "AdamW.step"),
    "cli": ("_load_labels", "_cmd_fit", "_cmd_compress", "_cmd_decompress", "_cmd_budget",
            "_cmd_solve", "_cmd_eval", "_cmd_tables"),
    "harness": ("MlpModel.logits", "MlpModel.predict", "MlpModel.accuracy"),
    "budget": ("BudgetSpec.__post_init__",),
}


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans = []            # [name, id, parent, pass_id, start, end]
        self.counters = {}
        self.pass_id = None
        self.recording = True
        self._stack = []
        self._patches = []         # (owner, key, original, is_dict)
        self._hooks = {}

    # -- recording ---------------------------------------------------------

    def hook(self, name, fn):
        """Call ``fn(tracer, args, kwargs)`` on each recorded call of span
        ``name``. Register hooks before ``install``."""
        self._hooks[name] = fn

    def count(self, key, value):
        self.counters[key] = self.counters.get(key, 0) + value

    def peak(self, key, value):
        self.counters[key] = max(self.counters.get(key, 0), value)

    def _wrap(self, name, fn):
        tracer = self
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            if hook is not None:
                hook(tracer, args, kwargs)
            span = [name, len(tracer.spans), tracer._stack[-1] if tracer._stack else -1,
                    tracer.pass_id, time.perf_counter(), 0.0]
            tracer.spans.append(span)
            tracer._stack.append(span[1])
            try:
                return fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                tracer._stack.pop()

        return traced

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block (work done only to check outputs)."""
        saved, self.recording = self.recording, False
        try:
            yield
        finally:
            self.recording = saved

    # -- installation ------------------------------------------------------

    def _targets(self):
        """Yield (span name, owner object, attribute, original function)."""
        for mod_name in TRACED_MODULES:
            module = getattr(self.package, mod_name)
            prefix = module.__name__
            for attr, value in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if value.__module__ == prefix:
                    yield f"{mod_name}.{attr}", module, attr, value
            for target in EXTRA_TARGETS.get(mod_name, ()):
                owner, attr = module, target
                if "." in target:
                    cls_name, attr = target.split(".")
                    owner = getattr(module, cls_name)
                yield f"{mod_name}.{target}", owner, attr, vars(owner)[attr]

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrapped = {}
        for name, owner, attr, original in self._targets():
            wrapper = self._wrap(name, original)
            wrapped[id(original)] = wrapper
            self._patches.append((owner, attr, original, False))
            setattr(owner, attr, wrapper)
        # rebind names imported into other modules and references held in
        # module-level dicts, so calls through them are traced as well
        for mod_name in TRACED_MODULES:
            module = getattr(self.package, mod_name)
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped:
                    self._patches.append((module, attr, value, False))
                    setattr(module, attr, wrapped[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrapped:
                            self._patches.append((value, key, item, True))
                            value[key] = wrapped[id(item)]

    def uninstall(self):
        for owner, key, original, is_dict in reversed(self._patches):
            if is_dict:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches = []

    # -- analysis ----------------------------------------------------------

    def self_times(self):
        """Per span: duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for name, sid, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[sid] for _, sid, _, _, start, end in self.spans]

    def charge(self, layer_of):
        """Self time per layer. ``layer_of(span name)`` names the layer a span
        starts, or None; each span's self time is charged to the layer of its
        nearest ancestor-or-self that starts one, else to None."""
        selfs = self.self_times()
        owner = [None] * len(self.spans)
        totals = {}
        for name, sid, parent, _, _, _ in self.spans:
            layer = layer_of(name)
            owner[sid] = layer if layer is not None else (owner[parent] if parent >= 0 else None)
            totals[owner[sid]] = totals.get(owner[sid], 0.0) + selfs[sid]
        return totals

    def summary(self):
        """name -> {calls, total_s, self_s}."""
        selfs = self.self_times()
        out = {}
        for (name, _, _, _, start, end), s in zip(self.spans, selfs):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += s
        return out

    def dump(self, path, meta):
        with open(path, "w") as f:
            json.dump({"meta": meta, "fields": ["name", "id", "parent", "pass", "start", "end"],
                       "spans": self.spans, "counters": self.counters}, f)
