"""Span tracing around the public functions of each ``kpca_lab`` module.

The wrappers live here, not in the package: :meth:`Tracer.install` replaces
every module attribute that is bound to a traced function (for example
``kpca_lab.cli.fit_kpca`` and ``kpca_lab.kpca.fit_kpca`` both point at the
same function) with one wrapper, and :meth:`Tracer.uninstall` puts the
originals back.  Each call records a span with its name, start, end, the
index of the enclosing span, and counts computed from the arguments and
result.  Spans stay in memory until :meth:`Tracer.dump` writes them out.

The parent of a span is the innermost open span on the calling thread.  The
benchmark runs with ``KPCA_LAB_THREADS`` unset, so the package's thread pool
maps serially and every span nests inside its caller.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import kpca_lab
from kpca_lab import classify, cli, data, eigen, kernels, kpca, model_io, pca, shapes, util


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_kernel(args, kwargs, result, exc):
    a = _arg(args, kwargs, 1, "a")
    b = _arg(args, kwargs, 2, "b")
    rows, dim = len(a), len(a[0])
    cols = len(b)
    # Nominal work: one multiply-add per coordinate of each pair of rows.
    return {"entries": rows * cols, "flops_computed": 2 * rows * cols * dim}


def _count_eig(args, kwargs, result, exc):
    return {"order": len(_arg(args, kwargs, 0, "a"))}


def _count_preimage(args, kwargs, result, exc):
    if isinstance(exc, kpca.PreimageDivergenceError):
        return {"iterations": exc.iteration, "diverged": 1}
    if exc is not None:
        return {}
    return {"iterations": result.iterations,
            "converged": int(result.converged),
            "max_iterations": int(not result.converged)}


def _count_items(args, kwargs, result, exc):
    return {"items": len(_arg(args, kwargs, 1, "items"))}


def _count_path(index, name):
    def count(args, kwargs, result, exc):
        if exc is not None:
            return {}
        return {"bytes": os.path.getsize(_arg(args, kwargs, index, name))}
    return count


# (module, function name, span name, counter); counters see the call's
# arguments and its result or exception.
TARGETS = [
    (eigen, "sym_eig", "eigen.sym_eig", _count_eig),
    (kernels, "kernel_matrix", "kernels.kernel_matrix", _count_kernel),
    (kernels, "center_gram", "kernels.center_gram", None),
    (kernels, "center_cross", "kernels.center_cross", None),
    (kpca, "select_sigma", "kpca.select_sigma", None),
    (kpca, "fit_kpca", "kpca.fit_kpca", None),
    (kpca, "kpca_transform", "kpca.kpca_transform", None),
    (kpca, "kpca_preimage", "kpca.kpca_preimage", _count_preimage),
    (pca, "fit_pca", "pca.fit_pca", None),
    (pca, "fit_pca_dual", "pca.fit_pca_dual", None),
    (pca, "pca_project", "pca.pca_project", None),
    (classify, "fit_linear", "classify.fit_linear", None),
    (classify, "error_rate", "classify.error_rate", None),
    (util, "parallel_map", "util.parallel_map", _count_items),
    (data, "gen_two_spheres", "data.gen_two_spheres", None),
    (data, "read_csv_matrix", "data.read_csv_matrix", _count_path(0, "path")),
    (data, "write_csv_matrix", "data.write_csv_matrix", _count_path(1, "path")),
    (model_io, "save_model", "model_io.save_model", _count_path(1, "path")),
    (model_io, "load_model", "model_io.load_model", _count_path(0, "path")),
    (shapes, "read_pts", "shapes.read_pts", None),
    (shapes, "normalize_shapes", "shapes.normalize_shapes", None),
    (shapes, "fit_shape_model", "shapes.fit_shape_model", None),
    (shapes, "sweep_pca_feature", "shapes.sweep_pca_feature", None),
    (shapes, "sweep_kpca_feature", "shapes.sweep_kpca_feature", None),
    (shapes, "render_face_svg", "shapes.render_face_svg", None),
    (cli, "cmd_gen_spheres", "cli.gen_spheres", None),
    (cli, "cmd_embed", "cli.embed", None),
    (cli, "cmd_classify", "cli.classify", None),
    (cli, "cmd_preimage", "cli.preimage", None),
    (cli, "cmd_asm_sweep", "cli.asm_sweep", None),
]

# Modules whose attributes may hold a traced function under its own or
# another name; the package itself re-exports most of them.
MODULES = (kpca_lab, classify, cli, data, eigen, kernels, kpca, model_io,
           pca, shapes, util)

# Counts summed per pass, except these, which keep the largest value.
MAX_COUNTS = {"order"}


class Tracer:
    """In-memory span recorder with install/uninstall of module wrappers."""

    def __init__(self):
        self.spans: list[dict] = []
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        self.spans.append({"name": name, "start": time.perf_counter(),
                           "end": None,
                           "parent": stack[-1] if stack else None,
                           "counts": {}})
        stack.append(len(self.spans) - 1)
        return stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index]["end"] = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, fn, name, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer._open(name)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                tracer._close(index)
                if counter is not None:
                    tracer.spans[index]["counts"] = counter(args, kwargs, result, exc)

        return traced

    def install(self) -> None:
        """Wrap every target at every module attribute bound to it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, counter in TARGETS:
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, counter)
            for module in MODULES:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, value))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, value in reversed(self._patched):
            setattr(module, key, value)
        self._patched.clear()

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans) + "\n", encoding="ascii")


def summarize(spans: list[dict], first: int, last: int) -> dict[str, dict]:
    """Per-name totals over spans[first:last]: s, self_s, calls, counts, durations.

    Self time is a span's duration minus the time its child spans cover.
    Children run one after another on their parent's thread, so that time
    is the sum of their durations.
    """
    child_time: dict[int, float] = {}
    for index in range(first, last):
        sp = spans[index]
        if sp["parent"] is not None:
            child_time[sp["parent"]] = (child_time.get(sp["parent"], 0.0)
                                        + sp["end"] - sp["start"])
    out: dict[str, dict] = {}
    for index in range(first, last):
        sp = spans[index]
        duration = sp["end"] - sp["start"]
        entry = out.setdefault(sp["name"], {"s": 0.0, "self_s": 0.0, "calls": 0,
                                            "counts": {}, "durations": []})
        entry["s"] += duration
        entry["self_s"] += duration - child_time.get(index, 0.0)
        entry["calls"] += 1
        entry["durations"].append(duration)
        for key, value in sp["counts"].items():
            if key in MAX_COUNTS:
                entry["counts"][key] = max(entry["counts"].get(key, 0), value)
            else:
                entry["counts"][key] = entry["counts"].get(key, 0) + value
    return out
