"""Per-layer attribution for the traced run, measured from outside the program.

The layers are the repository's modules (ROADMAP "Measured performance").
:class:`LayerTracer` replaces every public method of each layer's classes
(and the public functions of a few layer modules) with a timing wrapper,
in the traced process only.  A layer's *self time* is the time inside its
wrappers minus the time inside wrapped calls they made, so nested layers
are never counted twice.  Callbacks handed to ``Simulator.schedule_at``
are wrapped as anonymous frames: work an event runs outside every layer
lands in ``unattributed`` instead of inflating the simulator's self time.

:data:`LAYER_MAP` records, for each layer, the end-to-end metric it should
move and on which workloads it is predicted busy or idle.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = (
    "transform",
    "crc",
    "dictionary",
    "records",
    "encoder",
    "decoder",
    "engine",
    "zipline",
    "link",
    "sim",
    "controlplane",
    "metrics",
)

STREAMS = ["gd-stream-sensor", "gd-stream-incompressible"]
TOPOLOGY = ["topology-fanin-dynamic"]

#: layer -> what it covers, what it should move, where it is busy or idle.
LAYER_MAP: Dict[str, Dict[str, object]] = {
    "transform": {
        "covers": "GDTransform, HammingCode (except its CRC methods), codec backends' split/join, BatchSplit",
        "moves": "compress_mbps and decompress_mbps on both stream workloads; setup_s",
        "busy": STREAMS + TOPOLOGY,
        "idle": [],
        "note": "on the topology only the synthetic traffic source calls it, building its operating points inside run()",
    },
    "crc": {
        "covers": "CrcEngine, CrcExtern, repro.core.crc functions, HammingCode syndrome/parity methods, backends' crc_batch/parities_of_bases",
        "moves": "compress_mbps on the stream workloads (per-stream table fetches); chunks_per_s via the decoder switch's parity call",
        "busy": STREAMS + TOPOLOGY,
        "idle": [],
        "note": "the numpy backend folds syndromes inside split/join (counted under transform); the encoder switch binds its CRC closure at build time (counted under zipline)",
    },
    "dictionary": {
        "covers": "BasisDictionary",
        "moves": "compress_mbps, mostly on gd-stream-incompressible, little on gd-stream-sensor",
        "busy": STREAMS,
        "idle": TOPOLOGY,
    },
    "records": {
        "covers": "GDRecord classes, repro.core.records functions, EncodedBatch, GDCodec.parse_record/record_wire_size",
        "moves": "decompress_mbps and compress_mbps on both stream workloads, most on incompressible",
        "busy": STREAMS,
        "idle": TOPOLOGY,
    },
    "encoder": {
        "covers": "GDEncoder (self time)",
        "moves": "compress_mbps",
        "busy": STREAMS,
        "idle": TOPOLOGY,
    },
    "decoder": {
        "covers": "GDDecoder (self time)",
        "moves": "decompress_mbps",
        "busy": STREAMS,
        "idle": TOPOLOGY,
    },
    "engine": {
        "covers": "GDStreamCompressor (re-chunking, framing, the drain loop), GDCodec framing",
        "moves": "decompress_mbps, compress_block_ms_p90, peak_rss_mb",
        "busy": STREAMS,
        "idle": TOPOLOGY,
    },
    "zipline": {
        "covers": "ZipLineEncoderSwitch, ZipLineDecoderSwitch (receive paths)",
        "moves": "chunks_per_s",
        "busy": TOPOLOGY,
        "idle": STREAMS,
    },
    "link": {
        "covers": "EmulatedLink",
        "moves": "chunks_per_s",
        "busy": TOPOLOGY,
        "idle": STREAMS,
    },
    "sim": {
        "covers": "Simulator (heap push/pop and dispatch; event callbacks excluded)",
        "moves": "chunks_per_s",
        "busy": TOPOLOGY,
        "idle": STREAMS,
    },
    "controlplane": {
        "covers": "DigestEngine, digest subscriber callbacks, ZipLineControlPlane, ControlChannel, switch install/remove mapping",
        "moves": "chunks_per_s; compression_ratio if the learning policy changes",
        "busy": TOPOLOGY,
        "idle": STREAMS,
    },
    "metrics": {
        "covers": "Distribution, MetricsRegistry, LinkTap, TopologyEngine.report",
        "moves": "chunks_per_s and peak_rss_mb",
        "busy": TOPOLOGY,
        "idle": STREAMS,
    },
}

#: ROADMAP work -> the workload whose numbers it should move and the one on
#: which it is predicted flat.
PLANNED_WORK = {
    "batched streaming codec": {
        "shows_on": "gd-stream-sensor, gd-stream-incompressible: compress_mbps, compress_block_ms_p90 (encoder, records, engine self time)",
        "flat_on": "topology-fanin-dynamic",
    },
    "columnar decode": {
        "shows_on": "gd-stream-sensor, gd-stream-incompressible: decompress_mbps (decoder, records, engine self time)",
        "flat_on": "topology-fanin-dynamic",
    },
    "tuple-keyed sim heap": {
        "shows_on": "topology-fanin-dynamic: chunks_per_s (sim self time)",
        "flat_on": "gd-stream-sensor, gd-stream-incompressible",
    },
    "batch_drain deletion": {
        "shows_on": "topology-fanin-dynamic: setup_s and chunks_per_s within bound (batch_drain is off by default; zipline receive_batch is never called)",
        "flat_on": "gd-stream-sensor, gd-stream-incompressible",
    },
    "CRC linear map": {
        "shows_on": "gd-stream-sensor, gd-stream-incompressible: compress_mbps, decompress_mbps, setup_s (transform and crc self time)",
        "flat_on": "topology-fanin-dynamic",
    },
}

# (layer, module, class or None for the module's own functions, class selector)
# A class name ending in "+" also covers every subclass loaded at install time.
_TARGETS: List[Tuple[str, str, Optional[str]]] = [
    ("transform", "repro.core.transform", "GDTransform"),
    ("transform", "repro.core.hamming", "HammingCode"),
    ("transform", "repro.core.backends", "BatchSplit"),
    ("transform", "repro.core.backends", "CodecBackend+"),
    ("crc", "repro.core.crc", "CrcEngine"),
    ("crc", "repro.core.crc", None),
    ("crc", "repro.tofino.crc_extern", "CrcExtern"),
    ("dictionary", "repro.core.dictionary", "BasisDictionary"),
    ("records", "repro.core.records", "RawRecord"),
    ("records", "repro.core.records", "UncompressedRecord"),
    ("records", "repro.core.records", "CompressedRecord"),
    ("records", "repro.core.records", None),
    ("records", "repro.core.encoder", "EncodedBatch"),
    ("encoder", "repro.core.encoder", "GDEncoder"),
    ("decoder", "repro.core.decoder", "GDDecoder"),
    ("engine", "repro.core.engine", "GDStreamCompressor"),
    ("engine", "repro.core.codec", "GDCodec"),
    ("zipline", "repro.zipline.encoder_switch", "ZipLineEncoderSwitch"),
    ("zipline", "repro.zipline.decoder_switch", "ZipLineDecoderSwitch"),
    ("link", "repro.replay.link", "EmulatedLink"),
    ("sim", "repro.sim.simulator", "Simulator"),
    ("controlplane", "repro.tofino.digest", "DigestEngine"),
    ("controlplane", "repro.controlplane.manager", "ZipLineControlPlane"),
    ("controlplane", "repro.topology.control", "ControlChannel"),
    ("metrics", "repro.replay.metrics", "Distribution"),
    ("metrics", "repro.replay.metrics", "MetricsRegistry"),
    ("metrics", "repro.zipline.stats", "LinkTap"),
    ("metrics", "repro.topology.engine", "TopologyEngine"),
]

#: Methods owned by another layer than their class: class -> method -> layer.
_REROUTE: Dict[str, Dict[str, str]] = {
    "HammingCode": dict.fromkeys(
        ("syndrome", "syndrome_via_matrix", "syndrome_of_error_position",
         "parity_of_basis", "parity_of_basis_fast", "parities_of_bases"),
        "crc",
    ),
    "CodecBackend+": dict.fromkeys(("crc_batch", "parities_of_bases"), "crc"),
    "GDCodec": dict.fromkeys(("parse_record", "record_wire_size"), "records"),
    "ZipLineEncoderSwitch": dict.fromkeys(
        ("install_basis_mapping", "remove_basis_mapping"), "controlplane"
    ),
    "ZipLineDecoderSwitch": dict.fromkeys(
        ("install_identifier_mapping", "remove_identifier_mapping"), "controlplane"
    ),
}

#: Only these TopologyEngine methods are a layer (metrics); its run loop is not.
_ONLY = {"TopologyEngine": {"report"}}

#: Callable arguments wrapped when passed in:
#: (class, method) -> (position, keyword, layer).
#: Position counts ``self``; layer None marks an anonymous event frame.
_CALLBACK_ARGS = {
    ("Simulator", "schedule_at"): (2, "callback", None),
    ("DigestEngine", "subscribe"): (2, "callback", "controlplane"),
}

_MARK = "__perfbench_layer__"


def is_wrapped(value: object) -> bool:
    """True for a wrapper this module installed (plain, static or class method)."""
    function = getattr(value, "__func__", value)
    return hasattr(function, _MARK)


def leaked_wrappers() -> List[str]:
    """Every layer target that currently holds a tracing wrapper.

    The untraced run calls this before and after it measures; the list
    must be empty there, or its numbers include tracing cost.
    """
    leaked = []
    for loaded_name, loaded in list(sys.modules.items()):
        if loaded is None or loaded_name.split(".")[0] != "repro":
            continue
        for name, value in list(vars(loaded).items()):
            if is_wrapped(value):
                leaked.append(f"{loaded_name}.{name}")
            elif isinstance(value, type) and value.__module__ == loaded_name:
                leaked.extend(
                    f"{loaded_name}.{name}.{attribute}"
                    for attribute, member in vars(value).items()
                    if is_wrapped(member)
                )
    return leaked


def _classes(module, selector: str) -> List[type]:
    base = getattr(module, selector.rstrip("+"), None)
    if not isinstance(base, type):
        return []
    found = [base]
    if selector.endswith("+"):
        pending = list(base.__subclasses__())
        while pending:
            cls = pending.pop()
            if cls not in found:
                found.append(cls)
                pending.extend(cls.__subclasses__())
    return found


class LayerTracer:
    """Timing wrappers on every layer, recording only while :attr:`active`."""

    def __init__(self) -> None:
        self.active = False
        self.calls: Dict[str, int] = defaultdict(int)
        self.busy: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.frame_times: List[float] = []
        self.missing: List[str] = []
        self._stack: List[List[float]] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- install / remove ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; targets a later refactor removed are listed in
        :attr:`missing` instead of failing the run.

        Every ``repro`` module is imported first: a module imported later
        would bind the wrapped module functions and keep them after
        :meth:`uninstall`.
        """
        import repro

        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if not info.name.endswith("__main__"):
                importlib.import_module(info.name)
        for layer, module_name, selector in _TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(module_name)
                continue
            if selector is None:
                self._wrap_module_functions(layer, module)
                continue
            classes = _classes(module, selector)
            if not classes:
                self.missing.append(f"{module_name}.{selector}")
            reroute = _REROUTE.get(selector, {})
            only = _ONLY.get(selector)
            for cls in classes:
                for name, value in list(vars(cls).items()):
                    if name.startswith("_") or (only is not None and name not in only):
                        continue
                    owner = reroute.get(name, layer)
                    callback = _CALLBACK_ARGS.get((selector, name))
                    self._wrap_attribute(cls, name, value, owner, callback)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _wrap_attribute(self, cls, name, value, layer, callback) -> None:
        if isinstance(value, staticmethod):
            wrapped = staticmethod(self._wrap(layer, value.__func__, callback, name))
        elif isinstance(value, classmethod):
            wrapped = classmethod(self._wrap(layer, value.__func__, callback, name))
        elif inspect.isfunction(value):
            wrapped = self._wrap(layer, value, callback, name)
        else:  # properties, constants, nested classes
            return
        self._patches.append((cls, name, value))
        setattr(cls, name, wrapped)

    def _wrap_module_functions(self, layer: str, module) -> None:
        """Wrap the module's public functions and every ``from``-import of
        them in other loaded ``repro`` modules."""
        replacements = {
            id(value): (value, self._wrap(layer, value, None, name))
            for name, value in vars(module).items()
            if not name.startswith("_")
            and inspect.isfunction(value)
            and value.__module__ == module.__name__
        }
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded is None or loaded_name.split(".")[0] != "repro":
                continue
            for name, value in list(vars(loaded).items()):
                original, replacement = replacements.get(id(value), (None, None))
                if original is value:
                    self._patches.append((loaded, name, value))
                    setattr(loaded, name, replacement)

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, layer: Optional[str], function: Callable, callback, name: str) -> Callable:
        """The replacement for one method or function of ``layer``."""
        if inspect.isgeneratorfunction(function):

            def wrapper(*args, **kwargs):
                return self._drive(layer, function(*args, **kwargs))

        else:
            wrapper = self._frame(layer, function, _OBSERVERS.get((layer, name)))
            if callback is not None:
                timed = wrapper

                def wrapper(*args, **kwargs):
                    args, kwargs = self._wrap_callback(callback, args, kwargs)
                    return timed(*args, **kwargs)

        functools.update_wrapper(wrapper, function)
        setattr(wrapper, _MARK, layer)
        return wrapper

    def _wrap_callback(self, spec, args, kwargs):
        position, keyword, layer = spec
        if len(args) > position:
            framed = self._frame(layer, args[position])
            args = args[:position] + (framed,) + args[position + 1 :]
        elif keyword in kwargs:
            kwargs = dict(kwargs, **{keyword: self._frame(layer, kwargs[keyword])})
        return args, kwargs

    def _frame(self, layer: Optional[str], function: Callable, observe=None) -> Callable:
        """``function`` timed as a span of ``layer`` (None: anonymous)."""
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def framed(*args, **kwargs):
            if not tracer.active:
                return function(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                tracer._close(layer, elapsed, frame[0])
            if observe is not None:
                observe(tracer, args, result, elapsed)
            return result

        return framed

    def _drive(self, layer: str, inner):
        """Re-yield a generator, timing each resume as a span of ``layer``."""
        stack = self._stack
        clock = time.perf_counter
        try:
            while True:
                if not self.active:
                    try:
                        value = next(inner)
                    except StopIteration:
                        return
                else:
                    frame = [0.0]
                    stack.append(frame)
                    start = clock()
                    try:
                        value = next(inner)
                    except StopIteration:
                        return
                    finally:
                        elapsed = clock() - start
                        stack.pop()
                        self._close(layer, elapsed, frame[0])
                yield value
        finally:
            inner.close()

    def _close(self, layer: Optional[str], elapsed: float, children: float) -> None:
        if layer is not None:
            self.calls[layer] += 1
            self.busy[layer] += elapsed - children
        if self._stack:
            self._stack[-1][0] += elapsed


# -- counters observed at the layer boundaries ------------------------------------


def _observe_lookup(tracer, args, result, elapsed):
    tracer.counts["dictionary.lookups"] += 1
    if result is not None:
        tracer.counts["dictionary.hits"] += 1


def _observe_insert(tracer, args, result, elapsed):
    tracer.counts["dictionary.inserts"] += 1
    if isinstance(result, tuple) and len(result) == 2 and result[1] is not None:
        tracer.counts["dictionary.evictions"] += 1


def _count_record_type(tracer, record_type) -> None:
    if record_type == 3:
        tracer.counts["records.type3"] += 1
    elif record_type == 2:
        tracer.counts["records.type2"] += 1


def _observe_to_bytes(tracer, args, result, elapsed):
    if args:
        _count_record_type(tracer, getattr(args[0], "record_type", None))


def _observe_parse(tracer, args, result, elapsed):
    if isinstance(result, tuple) and result:
        _count_record_type(tracer, getattr(result[0], "record_type", None))


def _observe_receive(tracer, args, result, elapsed):
    tracer.frame_times.append(elapsed)


def _observe_install(tracer, args, result, elapsed):
    tracer.counts["controlplane.installs"] += 1


def _observe_step(tracer, args, result, elapsed):
    if result:
        tracer.counts["sim.events"] += 1


_OBSERVERS = {
    ("dictionary", "lookup"): _observe_lookup,
    ("dictionary", "insert"): _observe_insert,
    ("records", "to_bytes"): _observe_to_bytes,
    ("records", "parse_record"): _observe_parse,
    ("zipline", "receive"): _observe_receive,
    ("controlplane", "install_basis_mapping"): _observe_install,
    ("controlplane", "install_identifier_mapping"): _observe_install,
    ("sim", "step"): _observe_step,
}
