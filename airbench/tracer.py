"""Layer spans for airfed, recorded from outside the package.

Every public function of a layer module, and every public method of the
protocol's node and session classes, is replaced by a wrapper that records
one span: (name, start, end, parent).  The modules bind each other's
functions with ``from .x import f``, so a function is rebound in every
``airfed.*`` namespace that holds it, not only in the module defining it.
Spans stay in memory and are written out once the workload has finished.
"""

from __future__ import annotations

import array
import sys
import time
import types
from collections import Counter

import numpy as np

LAYERS = ("channel", "framing", "ofdm", "sync", "protocol", "fl", "experiments")
PROTOCOL_CLASSES = ("HandshakeSession", "AirInterface", "SensorNode", "AccessPoint")
# impairment operators whose first argument is the stream they process
CHANNEL_OPERATORS = ("apply_multipath", "apply_cfo", "apply_timing_offset", "add_awgn")


class Tracer:
    """Span store plus the few counters that need call arguments or results."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.counters: Counter = Counter()
        self._stack = [-1]

    def wrap(self, name: str, fn, observe=None):
        nid = len(self.names)
        self.names.append(name)
        name_of, parent, start, end, stack = self.name_of, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t
                stack.pop()
            if observe is not None:
                observe(args, out)
            return out

        return traced

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        """Wrap the layers of the already imported airfed package."""
        modules = {layer: sys.modules[f"airfed.{layer}"] for layer in LAYERS}
        replacement = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    replacement[obj] = self.wrap(f"{layer}.{attr}", obj, self._observer(layer, attr))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "airfed" or mod_name.startswith("airfed."):
                for attr, obj in list(vars(mod).items()):
                    if isinstance(obj, types.FunctionType) and obj in replacement:
                        setattr(mod, attr, replacement[obj])
        protocol = modules["protocol"]
        for cls_name in PROTOCOL_CLASSES:
            cls = getattr(protocol, cls_name)
            for attr, obj in list(vars(cls).items()):
                if isinstance(obj, types.FunctionType) and not attr.startswith("_"):
                    setattr(cls, attr, self.wrap(f"protocol.{cls_name}.{attr}", obj))
        stream_cls = modules["channel"].SampleStream
        post_init = stream_cls.__post_init__
        counters = self.counters

        def counted_post_init(stream):
            counters["channel.streams"] += 1
            post_init(stream)

        stream_cls.__post_init__ = counted_post_init

    def _observer(self, layer: str, attr: str):
        counters = self.counters
        if layer == "channel" and attr in CHANNEL_OPERATORS:
            def count_samples(args, out):
                counters["channel.samples"] += len(args[0])
            return count_samples
        if layer == "framing" and attr == "detect_frame":
            def count_valid(args, out):
                counters["framing.detect_valid"] += int(out.valid)
            return count_valid
        return None

    # -- reduction ---------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name_of": np.array(self.name_of, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez(path, **self.arrays())

    def per_name(self) -> dict[str, dict]:
        """Calls, inclusive seconds and self seconds per span name.

        Self time is a span's duration minus the time its child spans cover;
        spans of one thread nest, so that is the sum of the child durations.
        """
        a = self.arrays()
        n_names = len(self.names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - child
        calls = np.bincount(a["name_of"], minlength=n_names)
        incl = np.bincount(a["name_of"], weights=dur, minlength=n_names)
        self_s = np.bincount(a["name_of"], weights=own, minlength=n_names)
        return {name: {"calls": int(calls[i]), "incl_s": float(incl[i]), "self_s": float(self_s[i])}
                for i, name in enumerate(self.names) if calls[i]}

    def root_seconds(self) -> float:
        """Wall time covered by spans that have no parent span."""
        a = self.arrays()
        roots = a["parent"] < 0
        return float(np.sum(a["end"][roots] - a["start"][roots]))


def layer_metrics(tracer: Tracer, rounds: int, wall_s: float) -> dict[str, float]:
    """The per-layer figures of one traced workload run."""
    spans = tracer.per_name()
    counters = tracer.counters

    def self_of(prefix: str) -> float:
        return sum(v["self_s"] for k, v in spans.items() if k.startswith(prefix))

    def calls(name: str) -> int:
        return spans.get(name, {}).get("calls", 0)

    def incl(name: str) -> float:
        return spans.get(name, {}).get("incl_s", 0.0)

    detects = calls("framing.detect_frame")
    demods = calls("ofdm.ofdm_demodulate")
    out = {f"{layer}.self_s": self_of(layer + ".") for layer in LAYERS}
    out.update({
        "protocol.session_self_s": self_of("protocol.HandshakeSession.run_round")
        + self_of("protocol.HandshakeSession.initialize"),
        "protocol.air_self_s": self_of("protocol.AirInterface."),
        "protocol.preeq_s": incl("protocol.pre_equalize"),
        "protocol.demods_per_round": demods / rounds if rounds else 0.0,
        "fl.grad_calls": calls("fl.local_gradient"),
        "fl.loss_calls": calls("fl.mse_loss"),
        "ofdm.demod_calls": demods,
        "ofdm.mod_calls": calls("ofdm.ofdm_modulate"),
        "channel.calls": sum(v["calls"] for k, v in spans.items() if k.startswith("channel.")),
        "channel.msamples": counters["channel.samples"] / 1e6,
        "channel.streams": counters["channel.streams"],
        "sync.coarse_calls": calls("sync.coarse_cfo_estimate"),
        "sync.track_calls": calls("sync.track_residual_cfo"),
        "framing.detect_calls": detects,
        "framing.detect_valid_ratio": counters["framing.detect_valid"] / detects if detects else 0.0,
        "experiments.report_s": incl("experiments.emit_report"),
        "trace.coverage": tracer.root_seconds() / wall_s,
    })
    return out
