"""Traced runs: timing wrappers around qtextgen's public functions.

For the length of a traced run, :class:`Tracer` replaces module attributes
with wrappers that record spans (name, start, end, parent) in memory and add
up counts at the same boundaries.  A function imported by value into other
modules (``vqc_forward`` into the QASA and QRWKV models, ``record_op`` into
the simulator, ``train_on_dataset`` into the benchmark matrix) is replaced in
every ``qtextgen`` module that holds it.  A hook whose target no longer
exists is listed in ``missing`` and the run goes on; the metrics it feeds
are then reported as missing.  The untraced end-to-end runs never install
any of this.
"""

from __future__ import annotations

import fnmatch
import functools
import importlib
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

_PACKAGE = "qtextgen"


class Tracer:
    """Spans and counters of one traced run; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans: list = []                 # (name, start, end, parent index or -1)
        self.seconds = defaultdict(float)     # inclusive seconds per span name
        self.counts = defaultdict(int)
        self.missing: list[str] = []            # hook targets that no longer exist
        self._missing_patterns: list[str] = []  # fnmatch patterns of the metrics they feed
        self._stack: list[int] = []
        self._undo: list = []
        self._fit_arch = None                 # architecture whose tape nodes are being recorded
        self._in_batch_loss = 0
        self._in_generate = 0
        self._kinds: dict = {}                # backward code object -> op kind

    def _op_kind(self, fn) -> str:
        """The public op whose backward closure ``fn`` is: ``matmul.<locals>.bw`` -> ``matmul``."""
        code = getattr(fn, "__code__", None)
        kind = self._kinds.get(code)
        if kind is None:
            kind = getattr(fn, "__qualname__", type(fn).__name__).split(".")[0]
            self._kinds[code] = kind
        return kind

    # -- spans ---------------------------------------------------------------
    def _run(self, name, fn, args, kwargs):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent)
            self.seconds[name] += end - start

    def self_seconds(self) -> dict:
        """Per span name: duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return dict(out)

    def write(self, out_dir: Path):
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "spans.tsv", "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")
        totals = {name: {"inclusive_s": self.seconds[name], "self_s": s}
                  for name, s in sorted(self.self_seconds().items())}
        (out_dir / "span_totals.tsv").write_text(
            "name\tinclusive_s\tself_s\n"
            + "".join(f"{n}\t{v['inclusive_s']:.6f}\t{v['self_s']:.6f}\n" for n, v in totals.items()),
            encoding="utf-8")

    # -- patching --------------------------------------------------------------
    def _replace_everywhere(self, original, wrapper):
        for name, module in list(sys.modules.items()):
            if name != _PACKAGE and not name.startswith(_PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def is_missing(self, metric: str) -> bool:
        return any(fnmatch.fnmatchcase(metric, pattern) for pattern in self._missing_patterns)

    def _lost(self, target: str, feeds):
        self.missing.append(target)
        self._missing_patterns.extend(feeds)

    def _function(self, module_name: str, attr: str, make_wrapper, feeds):
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        original = getattr(module, attr, None)
        if original is None:
            self._lost(f"{module_name}.{attr}", feeds)
            return
        self._replace_everywhere(original, functools.wraps(original)(make_wrapper(original)))

    def _method(self, module_name: str, cls_name: str, attr: str, make_wrapper, feeds):
        try:
            cls = getattr(importlib.import_module(module_name), cls_name, None)
        except ImportError:
            cls = None
        original = vars(cls).get(attr) if cls is not None else None
        if original is None:
            self._lost(f"{module_name}.{cls_name}.{attr}", feeds)
            return
        self._undo.append((cls, attr, original))
        setattr(cls, attr, functools.wraps(original)(make_wrapper(original)))

    def uninstall(self):
        for target, attr, value in reversed(self._undo):
            setattr(target, attr, value)
        self._undo.clear()

    def install(self):
        run = self._run
        counts = self.counts
        seconds = self.seconds
        tensor = importlib.import_module(f"{_PACKAGE}.numerics.tensor")
        active_record = tensor.active_record

        # numerics: tape nodes and backward time per op kind, the sweep, Adam
        def wrap_record_op(orig):
            def record_op(out, inputs, backward_fn):
                if active_record() is None:
                    return orig(out, inputs, backward_fn)
                kind = self._op_kind(backward_fn)
                counts["nodes." + kind] += 1
                if self._fit_arch is not None:
                    counts["nodes_arch." + self._fit_arch] += 1
                adjoint = getattr(backward_fn, "__module__", "").startswith(f"{_PACKAGE}.qsim")

                def timed_backward(g):
                    start = perf_counter()
                    try:
                        return backward_fn(g)
                    finally:
                        took = perf_counter() - start
                        seconds["backward." + kind] += took
                        if adjoint:
                            seconds["qsim.adjoint_s"] += took
                return orig(out, inputs, timed_backward)
            return record_op

        self._function(f"{_PACKAGE}.numerics.tensor", "record_op", wrap_record_op,
                       ("numerics.nodes*", "numerics.backward_s.*", "qsim.adjoint_s"))
        self._method(f"{_PACKAGE}.numerics.tensor", "ComputationRecord", "backward",
                     lambda orig: lambda rec, loss: run("numerics.backward_s", orig, (rec, loss), {}),
                     ("numerics.backward_s",))
        self._method(f"{_PACKAGE}.numerics.optim", "Adam", "step",
                     lambda orig: lambda opt: run("numerics.adam_s", orig, (opt,), {}), ("numerics.adam_s",))

        # qsim: statevector forward calls, rows and time
        def wrap_vqc_forward(orig):
            def vqc_forward(spec, params, x, *args, **kwargs):
                counts["qsim.forward_calls"] += 1
                counts["qsim.forward_rows"] += 1 if len(x.shape) == 1 else x.shape[0]
                return run("qsim.forward_s", orig, (spec, params, x) + args, kwargs)
            return vqc_forward

        self._function(f"{_PACKAGE}.qsim.vqc", "vqc_forward", wrap_vqc_forward, ("qsim.forward_*",))

        # models: forward time with and without a tape, positions run
        def wrap_logits(orig):
            def logits(model, token_ids, *args, **kwargs):
                n = len(token_ids)
                counts[f"positions.{model.arch}"] += n
                if self._in_batch_loss:
                    counts[f"positions.batch_loss.{model.arch}"] += n
                if self._in_generate:
                    counts[f"positions.generate.{model.arch}"] += n
                phase = "train" if active_record() is not None else "infer"
                return run(f"models.{model.arch}.forward_s.{phase}", orig, (model, token_ids) + args, kwargs)
            return logits

        for module_name, cls_name in (("transformer", "TransformerModel"), ("mlp", "MlpModel"),
                                      ("qksan", "QksanModel"), ("qasa", "QasaModel"), ("qrwkv", "QrwkvModel")):
            self._method(f"{_PACKAGE}.models.{module_name}", cls_name, "logits", wrap_logits,
                         (f"models.{module_name}.*", "qsim.forward_rows"))

        def wrap_generate(orig):
            def generate(model, prompt_ids, *args, **kwargs):
                self._in_generate += 1
                try:
                    ids = run(f"harness.generate_s.{model.arch}", orig, (model, prompt_ids) + args, kwargs)
                finally:
                    self._in_generate -= 1
                counts[f"emitted.{model.arch}"] += len(ids) - len(prompt_ids)
                return ids
            return generate

        self._function(f"{_PACKAGE}.models.common", "generate", wrap_generate,
                       ("harness.generate_s.*", "models.*.useful_ratio.decode"))

        # metrics
        self._function(f"{_PACKAGE}.metrics.report", "perplexity",
                       lambda orig: lambda *a, **k: run("metrics.perplexity_s", orig, a, k), ("metrics.perplexity_s",))
        self._function(f"{_PACKAGE}.metrics.report", "score_sample",
                       lambda orig: lambda *a, **k: run("metrics.score_s", orig, a, k), ("metrics.score_s",))

        # harness
        def wrap_fit(orig):
            def fit(model, *args, **kwargs):
                self._fit_arch = model.arch
                try:
                    log = run(f"harness.fit_s.{model.arch}", orig, (model,) + args, kwargs)
                finally:
                    self._fit_arch = None
                counts[f"epochs.{model.arch}"] += len(log.train_losses)
                return log
            return fit

        def wrap_batch_loss(orig):
            def batch_loss(model, batch, *args, **kwargs):
                self._in_batch_loss += 1
                try:
                    loss, tokens = run(f"harness.batch_loss_s.{model.arch}", orig, (model, batch) + args, kwargs)
                finally:
                    self._in_batch_loss -= 1
                counts[f"nonpad.batch_loss.{model.arch}"] += tokens
                return loss, tokens
            return batch_loss

        def per_model(prefix):
            return lambda orig: lambda model, *a, **k: run(f"{prefix}.{model.arch}", orig, (model,) + a, k)

        def wrap_save(orig):
            def save_checkpoint(*args, **kwargs):
                path = run("harness.checkpoint_save_s", orig, args, kwargs)
                counts["checkpoint_bytes"] += Path(path).stat().st_size
                return path
            return save_checkpoint

        harness = f"{_PACKAGE}.harness"
        self._function(f"{harness}.train", "fit", wrap_fit, ("harness.epoch_s.*", "numerics.nodes_per_token.*"))
        self._function(f"{harness}.train", "batch_loss", wrap_batch_loss,
                       ("harness.batch_loss_s.*", "models.*.useful_ratio.train"))
        self._function(f"{harness}.train", "validation_loss", per_model("harness.validation_s"),
                       ("harness.validation_s.*",))
        self._function(f"{harness}.train", "train_on_dataset",
                       lambda orig: lambda arch, *a, **k: run(f"harness.train_s.{arch}", orig, (arch,) + a, k), ())
        self._function(f"{harness}.evaluate", "evaluate_model", per_model("harness.evaluate_s"),
                       ("harness.evaluate_s.*",))
        self._function(f"{harness}.benchmark", "write_tables",
                       lambda orig: lambda *a, **k: run("harness.write_tables_s", orig, a, k),
                       ("harness.write_tables_s",))
        self._function(f"{harness}.checkpoint", "save_checkpoint", wrap_save,
                       ("harness.checkpoint_save_s", "harness.checkpoint_bytes"))
        self._function(f"{harness}.checkpoint", "load_checkpoint",
                       lambda orig: lambda *a, **k: run("harness.checkpoint_load_s", orig, a, k),
                       ("harness.checkpoint_load_s",))
        self._function(f"{harness}.checkpoint", "restore_model",
                       lambda orig: lambda *a, **k: run("harness.checkpoint_load_s", orig, a, k),
                       ("harness.checkpoint_load_s",))
