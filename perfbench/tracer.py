"""Outside-in tracer for ``opbounds``: spans and counters kept in memory.

:meth:`Tracer.install` wraps every public function defined in an ``opbounds``
module and rebinds each wrapper in every ``opbounds`` module namespace that
holds the original (``from .kernels import gram_scalar`` copies the function
into the importer's namespace, so patching only the defining module would
miss those calls).  A few extra targets are wrapped as well: the per-row
losses (counted, not spanned, because a span costs more than the call),
``KernelExpansion.at``, the ``numpy.linalg`` eigensolvers, the Monte-Carlo
sign-block generator (counted by rows drawn) and the finite-difference
gradient fallback of ``deepvv``.  :meth:`Tracer.uninstall` puts every
original back.

A span is ``[name, start, end, parent, note]``: ``parent`` is the index of the
enclosing span (-1 at top level) and ``note`` a number read from the return
value (bytes of a Gram, solver iterations, ...), or ``None``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import time
from collections import Counter
from types import ModuleType

import numpy as np

#: Modules that are entry points rather than library code.
_SKIP_MODULES = ("opbounds._entry", "opbounds.__main__")

#: Per-row functions: counted only.
COUNT_ONLY = ("losses.loss_value", "losses.loss_subgradient")

#: Private functions counted only (no span).
COUNTED_PRIVATE = (("deepvv", "_fd_gradient"),)

#: Class methods spanned like functions.
METHODS = (("kernels", "KernelExpansion", "at"),)

#: numpy eigensolvers; ``opbounds`` looks them up as ``np.linalg.<name>``.
NUMPY_EIG = ("eigh", "eigvalsh")

#: Generator functions whose yielded rows are counted under ``<name>.rows``.
ROW_GENERATORS = ("complexity.sign_blocks",)

GRAM_FUNCTIONS = ("kernels.gram_scalar", "kernels.gram_scalar_cross", "kernels.gram_operator")


def _nbytes(result) -> int:
    return int(result.nbytes)


def _iterations(result) -> int:
    return int(result.diagnostics.iterations)


def _stored_entries(result) -> int:
    matrix = result.matrix
    if hasattr(matrix, "nnz"):
        return int(matrix.nnz)
    return int(np.count_nonzero(matrix))


#: Span name -> function of the return value giving the span's note.
NOTES = {
    **{name: _nbytes for name in GRAM_FUNCTIONS},
    "erm.fit_full": _iterations,
    "erm.fit_sketched": _iterations,
    "sketching.make_p_sparsified": _stored_entries,
    "koopman.approximation_term_mc": lambda result: int(result[1]),
    "deepvv.train": lambda result: int(result.iterations),
}


def library_modules(package: ModuleType) -> list[ModuleType]:
    """The package and every library submodule, imported."""
    mods = [package]
    for info in pkgutil.iter_modules(package.__path__, package.__name__ + "."):
        if info.name not in _SKIP_MODULES:
            mods.append(importlib.import_module(info.name))
    return mods


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1].lstrip("_")


class Tracer:
    """Spans and counters of one traced pass; install, run, uninstall."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _spanned(self, name: str, fn):
        spans, stack, clock, note = self.spans, self._stack, time.perf_counter, NOTES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[4] = note(result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _rows(self, name: str, fn):
        counts, key = self.counts, name + ".rows"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for block in fn(*args, **kwargs):
                counts[key] += len(block)
                yield block

        return wrapper

    def _wrapper(self, name: str, fn):
        if name in COUNT_ONLY:
            return self._counted(name, fn)
        if name in ROW_GENERATORS:
            return self._rows(name, fn)
        return self._spanned(name, fn)

    # -- patching -----------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, package: ModuleType) -> None:
        """Wrap the library functions and rebind them everywhere they live."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        mods = library_modules(package)
        by_module = {m.__name__: m for m in mods}
        wrappers: dict[int, object] = {}
        for mod in mods:
            short = _short(mod.__name__)
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[id(obj)] = self._wrapper(f"{short}.{attr}", obj)
        for short, attr in COUNTED_PRIVATE:
            obj = getattr(by_module[f"{package.__name__}.{short}"], attr)
            wrappers[id(obj)] = self._counted(f"{short}.{attr}", obj)
        try:
            for mod in mods:
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and id(obj) in wrappers:
                        self._patch(mod, attr, wrappers[id(obj)])
            for short, cls_name, attr in METHODS:
                cls = getattr(by_module[f"{package.__name__}.{short}"], cls_name)
                method = vars(cls)[attr]
                self._patch(cls, attr, self._spanned(f"{short}.{cls_name}.{attr}", method))
            for attr in NUMPY_EIG:
                self._patch(np.linalg, attr, self._spanned(f"numpy.linalg.{attr}", getattr(np.linalg, attr)))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Restore every patched attribute, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @staticmethod
    def snapshot(package: ModuleType) -> dict[tuple[str, str], int]:
        """Identity of every function-valued attribute the tracer may patch."""
        snap = {}
        for mod in library_modules(package):
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj):
                    snap[(mod.__name__, attr)] = id(obj)
            for short, cls_name, attr in METHODS:
                if _short(mod.__name__) == short:
                    snap[(f"{mod.__name__}.{cls_name}", attr)] = id(vars(getattr(mod, cls_name))[attr])
        for attr in NUMPY_EIG:
            snap[("numpy.linalg", attr)] = id(getattr(np.linalg, attr))
        return snap

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the duration of child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def totals(self) -> dict[str, float]:
        """Per span name: summed duration of the outermost spans of that name."""
        out: dict[str, float] = {}
        for name, start, end, parent, _ in self.spans:
            if not self._inside(parent, name):
                out[name] = out.get(name, 0.0) + (end - start)
        return out

    def calls(self) -> Counter:
        """Per name: spans opened plus counter-only calls."""
        out = Counter(span[0] for span in self.spans)
        out.update(self.counts)
        return out

    def outermost(self, names) -> list[list]:
        """Spans named in ``names`` with no ancestor also named in ``names``."""
        names = set(names)
        return [
            span for span in self.spans
            if span[0] in names and not self._inside(span[3], names)
        ]

    def notes(self, name: str) -> int:
        return sum(span[4] for span in self.spans if span[0] == name and span[4] is not None)

    def _inside(self, parent: int, names) -> bool:
        names = {names} if isinstance(names, str) else names
        while parent >= 0:
            if self.spans[parent][0] in names:
                return True
            parent = self.spans[parent][3]
        return False

    def dump(self, path, extra: dict | None = None) -> None:
        """Write spans, counters and per-name self times as JSON."""
        payload = {
            **(extra or {}),
            "self_s": self.self_times(),
            "calls": dict(self.calls()),
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "note": note}
                for n, s, e, p, note in self.spans
            ],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1)
