"""Spans around every public function of the bncagg layers, kept in memory.

``Tracer.install`` replaces each public function (and each public method of a
public class) of a layer module by a wrapper, in every ``bncagg`` namespace
that binds it, so ``frame.binom_pmf`` counts as a call into ``probability``.
Names held elsewhere, such as the CLI's private table of subcommand
functions, keep the original, so the ``cmd_*`` bodies count as ``cli.main``
self time.  A span is ``(name, start, end, parent)``; spans go to compact
arrays so that a pass with millions of calls fits in memory.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import sys
import time

import numpy as np

PACKAGE = "bncagg"
LAYERS = ("cli", "scenario", "frame", "probability", "phases", "network", "oracle", "gf256")

# Spans whose argument keys are kept, for distinct_ratio (distinct keys / calls).
KEYED = ("frame.expected_rank_increment", "network.aggregate_reception_pmf")


def _matrix_stack(args, kwargs):
    stack = np.asarray(args[0] if args else kwargs["matrices"])
    return (stack.shape[0], stack.nbytes)


def _trials(args, kwargs):
    return ((args[0] if args else kwargs["config"]).trials,)


# Spans whose arguments give a work count: name -> function of (args, kwargs).
PROBES = {"gf256.gf256_rank_many": _matrix_stack, "oracle.simulate_period": _trials}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.keys: dict[str, list] = {name: [] for name in KEYED}
        self.probes: dict[str, list] = {name: [] for name in PROBES}
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        namespaces = [
            mod for name, mod in sorted(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(obj, f"{layer}.{attr}")
                    for ns in namespaces:
                        if vars(ns).get(attr) is obj:
                            self._patch(ns, attr, wrapped)
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, f"{layer}.{attr}")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap_methods(self, cls, prefix: str) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if isinstance(member, (classmethod, staticmethod)):
                # Patch with the raw descriptor so uninstall restores it as is.
                self._patches.append((cls, attr, member))
                setattr(cls, attr, type(member)(self._wrap(member.__func__, name)))
            elif inspect.isfunction(member):
                self._patch(cls, attr, self._wrap(member, name))

    def _wrap(self, func, name: str):
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter
        keys = self.keys.get(name)
        probe = PROBES.get(name)
        probes = self.probes.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            if keys is not None:
                keys.append(args + tuple(sorted(kwargs.items())))
            if probe is not None:
                probes.append(probe(args, kwargs))
            stack.append(idx)
            start.append(clock())
            try:
                return func(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez(path, **self.spans())

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, self time, inclusive durations, keys, probes."""
        s = self.spans()
        dur = s["end"] - s["start"]
        child = s["parent"] >= 0
        children = np.bincount(s["parent"][child], weights=dur[child], minlength=dur.size)
        self_s = dur - children
        ids = s["name_id"]
        calls = np.bincount(ids, minlength=len(self.names))
        self_total = np.bincount(ids, weights=self_s, minlength=len(self.names))
        order = np.argsort(ids, kind="stable")
        durations = np.split(dur[order], np.cumsum(calls)[:-1])
        out = {
            name: {"calls": int(calls[nid]), "self_s": float(self_total[nid]), "durations": durations[nid]}
            for nid, name in enumerate(self.names)
        }
        for name in KEYED:
            out[name]["distinct"] = len(set(self.keys[name]))
        for name in PROBES:
            out[name]["probes"] = self.probes[name]
        return out
