"""Outside-in span tracer for the amlstream modules.

The tracer wraps the public functions and methods of the pipeline modules
from the outside: nothing in ``src/`` knows it exists. Every wrapped call
records one span (name, start, end, parent span, group id). Spans stay in
memory as flat arrays and are written out once, when the workload ends.
The per-layer metrics are derived from those arrays.

A wrapper has to replace the function in every module namespace that
holds it, because ``streamproc`` and ``cli`` bind ``encode_matrix``,
``predict_proba``, ``decode_payload`` and others with ``from ... import``.
Methods are replaced on their class, which every importer shares.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from dataclasses import dataclass, field

import numpy as np

TRACED_MODULES = (
    "eventlog",
    "storage",
    "txgen",
    "streamproc",
    "featstore",
    "models",
    "lifecycle",
    "cli",
)

# Per-record helpers far cheaper than a span; their cost is left in the
# self time of their caller. Generator functions are skipped as well: a
# wrapper would time only the creation of the iterator, and the work
# would land in the span of whatever consumes it.
UNTRACED = frozenset(
    {
        "eventlog.fnv1a_64",
        "txgen.transaction_to_json",
        "txgen.round_money",
        "txgen.seasonal_profile",
        "txgen.seasonal_amount",
        "txgen.Transaction.to_dict",
        "featstore.month_of_day",
        "models.sigmoid",
        "streamproc.Alert.to_dict",
        "streamproc.RollingStats.record_alert",
    }
)

# Constructors that open files and replay state, so they are layer work.
TRACED_INITS = frozenset(
    {
        "eventlog.EventLog",
        "storage.TableStore",
        "storage.BlobStore",
        "lifecycle.ModelRegistry",
        "streamproc.StreamProcessor",
    }
)


@dataclass
class BatchRecord:
    """What one traced ``drain_once`` call returned."""

    span: int
    records: int
    alerts: int
    dead_letters: int
    rules_only: bool
    latencies: list = field(default_factory=list)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.group = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current_group = 0
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        # values probes pull out of arguments and results
        self.logistic_iters = 0
        self.predict_rows = 0
        self.encode_rows = 0
        self.upsert_rows = 0
        self.replayed_rows = 0
        self.batches: list[BatchRecord] = []

    # -- recording -----------------------------------------------------

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._name_ids[name] = nid
            self.names.append(name)
        return nid

    def _wrap(self, qualname: str, fn):
        nid = self._intern(qualname)
        probe = _PROBES.get(qualname)
        tracer = self
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.group.append(tracer.current_group)
            tracer.end.append(0.0)
            stack.append(idx)
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = clock()
                stack.pop()
            if probe is not None:
                probe(tracer, idx, args, result)
            return result

        return traced

    # -- installation --------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(f"amlstream.{m}") for m in TRACED_MODULES]
        replacements: dict[int, object] = {}
        for short, module in zip(TRACED_MODULES, modules):
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    qualname = f"{short}.{name}"
                    if qualname not in UNTRACED and not inspect.isgeneratorfunction(obj):
                        replacements[id(obj)] = self._wrap(qualname, obj)
                elif inspect.isclass(obj):
                    self._install_class(f"{short}.{name}", obj)
        # every namespace that bound the function by name gets the wrapper
        for module in modules:
            for name, obj in list(vars(module).items()):
                wrapper = replacements.get(id(obj))
                if wrapper is not None:
                    self._installed.append((module, name, obj))
                    setattr(module, name, wrapper)

    def _install_class(self, class_name: str, cls) -> None:
        for name, raw in list(vars(cls).items()):
            if name == "__init__":
                if class_name not in TRACED_INITS:
                    continue
            elif name.startswith("_"):
                continue
            qualname = f"{class_name}.{name}"
            if qualname in UNTRACED:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(qualname, raw.__func__))
            elif inspect.isfunction(raw) and not inspect.isgeneratorfunction(raw):
                wrapped = self._wrap(qualname, raw)
            else:
                continue  # properties and plain attributes
            self._installed.append((cls, name, raw))
            setattr(cls, name, wrapped)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._installed):
            setattr(owner, name, original)
        self._installed.clear()

    # -- output --------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "group": np.frombuffer(self.group, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer busy times and counts from the recorded spans."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        covered = np.zeros_like(dur)
        np.add.at(covered, a["parent"][has_parent], dur[has_parent])
        self_time = dur - covered
        by_name = {name: a["name_id"] == nid for nid, name in enumerate(self.names)}
        none = np.zeros(len(dur), dtype=bool)

        def mask(*names):
            m = none.copy()
            for name in names:
                m |= by_name.get(name, none)
            return m

        def busy(*names):
            return float(dur[mask(*names)].sum())

        def calls(*names):
            return int(mask(*names).sum())

        cli_mask = np.array([n.startswith("cli.") for n in self.names], dtype=bool)
        in_cli = cli_mask[a["name_id"]] if self.names else none
        drains = [b for b in self.batches if b.records]
        records = sum(b.records for b in drains)
        latencies = [t for b in drains for t in b.latencies]
        registry = (
            "lifecycle.ModelRegistry.__init__",
            "lifecycle.ModelRegistry.register",
            "lifecycle.ModelRegistry.activate",
            "lifecycle.ModelRegistry.load_model",
        )
        report_agg = (
            "featstore.payment_type_table",
            "featstore.seasonality_series",
            "featstore.alerts_per_month",
            "featstore.correlation_from_arrays",
        )
        return {
            "models.fit_s.logistic_regression": busy("models.train_logistic"),
            "models.fit_s.decision_tree": busy("models.train_tree"),
            "models.fit_s.random_forest": busy("models.train_forest"),
            "models.logistic_iters": self.logistic_iters,
            "models.predict_s": busy("models.predict_proba"),
            "models.predict_calls": calls("models.predict_proba"),
            "models.predict_rows": self.predict_rows,
            "models.load_s": busy("models.model_from_json"),
            "models.load_calls": calls("models.model_from_json"),
            "streamproc.drain_self_s": float(
                self_time[mask("streamproc.StreamProcessor.drain_once")].sum()
            ),
            "streamproc.decode_s": busy("streamproc.decode_payload"),
            "streamproc.decode_calls": calls("streamproc.decode_payload"),
            "streamproc.rules_s": busy("streamproc.apply_rules", "streamproc.RollingStats.observe"),
            "streamproc.batches": len(drains),
            "streamproc.batch_records_mean": records / len(drains) if drains else 0.0,
            "streamproc.latency_ticks_p95": float(nearest_rank(latencies, 0.95)) if latencies else 0.0,
            "streamproc.alerts_per_record": (
                sum(b.alerts for b in drains) / records if records else 0.0
            ),
            "streamproc.dead_letters": sum(b.dead_letters for b in drains),
            "streamproc.rules_only_batches": sum(1 for b in drains if b.rules_only),
            "eventlog.publish_s": busy("eventlog.EventLog.publish"),
            "eventlog.publish_calls": calls("eventlog.EventLog.publish"),
            "eventlog.poll_s": busy("eventlog.EventLog.poll"),
            "eventlog.poll_calls": calls("eventlog.EventLog.poll"),
            "eventlog.commit_s": busy("eventlog.EventLog.commit"),
            "eventlog.commit_calls": calls("eventlog.EventLog.commit"),
            "eventlog.open_s": busy("eventlog.EventLog.__init__"),
            "eventlog.open_calls": calls("eventlog.EventLog.__init__"),
            "storage.open_s": busy("storage.TableStore.__init__"),
            "storage.open_calls": calls("storage.TableStore.__init__"),
            "storage.replayed_rows": self.replayed_rows,
            "storage.upsert_s": busy("storage.TableStore.upsert_rows"),
            "storage.upsert_rows": self.upsert_rows,
            "storage.query_s": busy("storage.TableStore.query"),
            "storage.query_calls": calls("storage.TableStore.query"),
            "txgen.from_dict_s": busy("txgen.transaction_from_dict"),
            "txgen.from_dict_calls": calls("txgen.transaction_from_dict"),
            "featstore.encode_s": busy("featstore.encode_matrix"),
            "featstore.encode_rows": self.encode_rows,
            "featstore.report_agg_s": busy(*report_agg),
            "lifecycle.registry_s": busy(*registry),
            "lifecycle.registry_calls": calls(*registry),
            "lifecycle.profile_s": busy("lifecycle.feature_profile"),
            "cli.self_s": float(self_time[in_cli].sum()),
            "bench.spans": len(dur),
        }

    def queue_waits(self, group_starts: dict[int, float]) -> list[float]:
        """Closed-loop queue wait, one value per drained record: from the
        start of the command that found the backlog to the start of the
        batch that took the record."""
        waits = []
        for b in self.batches:
            start = group_starts.get(self.group[b.span])
            if start is not None and b.records:
                waits.extend([self.start[b.span] - start] * b.records)
        return waits


def nearest_rank(values, q: float):
    ordered = sorted(values)
    idx = max(1, int(np.ceil(q * len(ordered)))) - 1
    return ordered[min(idx, len(ordered) - 1)]


# -- probes: counts read from the arguments and results of wrapped calls ----

def _probe_logistic(tracer, idx, args, result):
    tracer.logistic_iters += result.n_iters


def _probe_predict(tracer, idx, args, result):
    tracer.predict_rows += len(result)


def _probe_encode(tracer, idx, args, result):
    tracer.encode_rows += len(result[0])


def _probe_upsert(tracer, idx, args, result):
    tracer.upsert_rows += result


def _probe_table_open(tracer, idx, args, result):
    store = args[0]
    tracer.replayed_rows += sum(store.count(name) for name in store._tables)


def _probe_drain(tracer, idx, args, result):
    tracer.batches.append(
        BatchRecord(
            span=idx,
            records=result.record_count,
            alerts=len(result.alerts),
            dead_letters=result.dead_letters,
            rules_only=result.rules_only_fallback,
            latencies=list(result.latencies),
        )
    )


_PROBES = {
    "models.train_logistic": _probe_logistic,
    "models.predict_proba": _probe_predict,
    "featstore.encode_matrix": _probe_encode,
    "storage.TableStore.upsert_rows": _probe_upsert,
    "storage.TableStore.__init__": _probe_table_open,
    "streamproc.StreamProcessor.drain_once": _probe_drain,
}
