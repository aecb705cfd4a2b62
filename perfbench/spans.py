"""Function-boundary spans around the nqkd layers, installed from outside the package.

A target names a function as ``<module>.<name>`` inside ``nqkd``; a class
target (``protocol.ProtocolRun``) stands for the class's ``__init__``.
Installing the tracer replaces the function at every binding site: every
loaded ``nqkd`` module whose namespace holds the same object.  Several
modules import functions by name (``protocol`` binds
``product_basis_probabilities``, ``noise`` binds ``apply_cnot``), so
wrapping only the defining module would miss their calls.  A target that
no longer exists is recorded as absent and nothing fails.

Spans are kept in memory; ``take`` folds the spans recorded so far into
per-target totals.  A span's self time is its duration minus the time
covered by its child spans.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable

PACKAGE = "nqkd"


def _arg(args: tuple, kwargs: dict, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _count_z_rounds(args, kwargs, result, counts):
    return {"rounds": int(_arg(args, kwargs, 1, "count"))}


def _count_xy_rounds(args, kwargs, result, counts):
    return {"rounds": len(_arg(args, kwargs, 1, "bases"))}


def _count_hash_bits(args, kwargs, result, counts):
    return {"bits_in": len(_arg(args, kwargs, 0, "bits")), "bits_out": int(_arg(args, kwargs, 1, "out_len"))}


def _count_transcript(args, kwargs, result, counts):
    path = _arg(args, kwargs, 0, "path")
    with open(path, "rb") as fh:
        data = fh.read()
    return {"records": data.count(b"\n"), "bytes": len(data)}


def _count_rows_bytes(args, kwargs, result, counts):
    path = _arg(args, kwargs, 0, "path")
    if path is None or path == "-":
        return {"bytes": 0}
    return {"bytes": os.path.getsize(path)}


def _count_f_evals(args, kwargs):
    """Wrap bisect_root's objective so every evaluation is counted."""
    counts = {"f_evals": 0}
    f = _arg(args, kwargs, 0, "f")

    def counted(x):
        counts["f_evals"] += 1
        return f(x)

    if args:
        args = (counted,) + tuple(args[1:])
    else:
        kwargs = dict(kwargs, f=counted)
    return args, kwargs, counts


@dataclass(frozen=True)
class Target:
    name: str
    before: Callable | None = None  # (args, kwargs) -> (args, kwargs, counts)
    after: Callable | None = None   # (args, kwargs, result, counts) -> counts


# Only function boundaries are wrapped; hot scalar helpers such as
# binary_entropy and _xlog2x stay bare so the traced run does the same work.
TARGETS = (
    Target("cli.main"),
    Target("cli.write_rows", after=_count_rows_bytes),
    Target("protocol.ProtocolRun"),
    Target("protocol.run_protocol"),
    Target("protocol.sample_z_bits", after=_count_z_rounds),
    Target("protocol.sample_xy_bits", after=_count_xy_rounds),
    Target("protocol.toeplitz_hash", after=_count_hash_bits),
    Target("protocol.write_transcript", after=_count_transcript),
    Target("keyrate.bisect_root", before=_count_f_evals),
    Target("keyrate.threshold_qber"),
    Target("keyrate.nqkd_gate_threshold"),
    Target("keyrate.nqkd_channel_threshold"),
    Target("keyrate.secret_fraction"),
    Target("keyrate.rate_depolarized"),
    Target("noise.lambda0_star"),
    Target("noise.simulate_prep_circuit"),
    Target("noise.prep_circuit_output"),
    Target("network.compare_rates"),
    Target("network.distribute_ghz_via_router"),
    Target("ghz.dense_from_ghz_diagonal"),
    Target("ghz.twirl_dense"),
    Target("dense.product_basis_probabilities"),
    Target("dense.apply_cnot"),
    Target("dense.replace_with_mixed"),
)


class _Span:
    __slots__ = ("target", "parent", "start", "end", "child_s", "counts")

    def __init__(self, target: str, parent: "_Span | None"):
        self.target = target
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.child_s = 0.0
        self.counts = None


def _package_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    """Wraps the targets while installed and records one span per call."""

    def __init__(self, targets: tuple[Target, ...] = TARGETS):
        self.targets = targets
        self.absent: list[str] = []
        self._spans: list[_Span] = []
        self._stack: list[_Span] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        modules = _package_modules()
        self.absent = []
        for target in self.targets:
            module_name, _, attr = target.name.partition(".")
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            obj = getattr(module, attr, None) if module is not None else None
            if obj is None:
                self.absent.append(target.name)
            elif isinstance(obj, type):
                init = obj.__dict__.get("__init__")
                if init is None:
                    self.absent.append(target.name)
                    continue
                self._restore.append((obj, "__init__", init))
                setattr(obj, "__init__", self._wrap(target, init))
            else:
                wrapper = self._wrap(target, obj)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is obj:
                            self._restore.append((mod, key, obj))
                            setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore = []

    def take(self) -> dict[str, dict[str, float]]:
        """Per-target totals of the spans recorded since the last call."""
        totals: dict[str, dict[str, float]] = {}
        for span in self._spans:
            entry = totals.setdefault(span.target, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            duration = span.end - span.start
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - span.child_s
            for key, value in (span.counts or {}).items():
                entry[key] = entry.get(key, 0) + value
        self._spans.clear()  # the installed wrappers hold this list
        return totals

    def _wrap(self, target: Target, fn):
        spans = self._spans
        stack = self._stack
        clock = time.perf_counter
        name = target.name
        before = target.before
        after = target.after

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = _Span(name, stack[-1] if stack else None)
            counts = None
            if before is not None:
                args, kwargs, counts = before(args, kwargs)
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if stack:
                    stack[-1].child_s += span.end - span.start
                spans.append(span)
            span.counts = after(args, kwargs, result, counts) if after is not None else counts
            return result

        return wrapper
