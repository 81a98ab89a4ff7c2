"""Outside-in tracing for the certiroot benchmark.

Hooks wrap the public entry points of each layer (and two private methods of
`rootenum._ScaledChain`) by replacing module and class attributes; nothing in
`src/` changes. A hook whose target no longer exists is skipped and the
metrics that depend on it read null, so a refactor never fails a run.

A span is recorded at each layer boundary: name, start, end, parent and trace
id (one per `root_enum` call or CLI invocation). Hot inner calls (range
certification, leaf classification, sign counting, Euclidean remainders) are
not spans: each adds its count, total time and outcomes to the innermost open
span, which keeps memory bounded.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

# (group, module, attribute path, hot)
HOOKS = (
    ("rootenum.root_enum", "rootenum", "root_enum", False),
    ("rootenum.scale", "rootenum", "_ScaledChain.__init__", False),
    ("rootenum.certify", "rootenum", "_ScaledChain.certified_off", True),
    ("rootenum.classify", "rootenum", "_ScaledChain.classify", True),
    ("sturm.chain", "sturm", "sturm_chain", False),
    ("sturm.cauchy", "sturm", "cauchy_bound", False),
    ("polyalg.divmod", "sturm", "euclid_rem", True),
    ("approxsign.max", "approxsign", "max_changes_of_classes", True),
    ("approxsign.min", "approxsign", "min_changes_of_classes", True),
    ("errbounds.threshold", "errbounds", "small_value_threshold", False),
    ("cli.load", "cli", "load_poly_file", False),
    ("cli.gamma", "cli", "resolve_gamma", False),
    ("cli.report", "cli", "candidate_report", False),
    ("cli.emit", "cli", "emit", False),
)

# Every per-layer metric: (name, unit, hook groups it needs).
LAYER_METRICS = (
    ("rootenum.certify_calls", "count", ("rootenum.certify",)),
    ("rootenum.certify_pruned", "count", ("rootenum.certify",)),
    ("rootenum.certify_prune_ratio", "ratio", ("rootenum.certify",)),
    ("rootenum.certify_s", "s", ("rootenum.certify",)),
    ("rootenum.classify_calls", "count", ("rootenum.classify",)),
    ("rootenum.classify_points", "count", ("rootenum.classify",)),
    ("rootenum.classify_hit_ratio", "ratio", ("rootenum.classify",)),
    ("rootenum.classify_s", "s", ("rootenum.classify",)),
    ("rootenum.leaves", "count", ("approxsign.max",)),
    ("rootenum.cells_fired", "count", ("rootenum.root_enum",)),
    ("rootenum.enum_s", "s", ("rootenum.root_enum",)),
    ("rootenum.scale_s", "s", ("rootenum.scale",)),
    ("rootenum.descent_self_s", "s", ("rootenum.root_enum",)),
    ("approxsign.max_calls", "count", ("approxsign.max",)),
    ("approxsign.min_calls", "count", ("approxsign.min",)),
    ("approxsign.count_s", "s", ("approxsign.max", "approxsign.min")),
    ("sturm.chain_calls", "count", ("sturm.chain",)),
    ("sturm.chain_s", "s", ("sturm.chain",)),
    ("sturm.chain_len_max", "count", ("sturm.chain",)),
    ("sturm.coeff_bits_max", "bits", ("sturm.chain",)),
    ("sturm.cauchy_s", "s", ("sturm.cauchy",)),
    ("polyalg.divmod_calls", "count", ("polyalg.divmod",)),
    ("polyalg.divmod_s", "s", ("polyalg.divmod",)),
    ("errbounds.threshold_calls", "count", ("errbounds.threshold",)),
    ("errbounds.threshold_s", "s", ("errbounds.threshold",)),
    ("cli.import_ms", "ms", ()),
    ("cli.load_s", "s", ("cli.load",)),
    ("cli.gamma_s", "s", ("cli.gamma",)),
    ("cli.enum_s", "s", ("rootenum.root_enum",)),
    ("cli.render_s", "s", ("cli.report", "cli.emit")),
    ("cli.report_bytes", "bytes", ()),
    ("trace.overhead_frac", "ratio", ()),
    ("src.lines", "lines", ()),
)


def _describe(group, result) -> dict:
    """Attributes worth keeping from a span's return value; none if the
    value no longer has the shape expected here."""
    try:
        if group == "sturm.chain":
            bits = max(max(c.numerator.bit_length(), c.denominator.bit_length())
                       for q in result for c in q.coeffs)
            return {"chain_len": len(result), "coeff_bits": bits}
        if group == "rootenum.root_enum":
            return {"cells_fired": len(result.candidates)}
    except (AttributeError, TypeError, ValueError):
        pass
    return {}


class Tracer:
    """Collects spans in memory; `install` hooks a loaded certiroot."""

    def __init__(self, workdir=None):
        self.spans: list[dict] = []
        self.missing: set[str] = set()
        self.workdir = Path(workdir) if workdir is not None else None
        self._stack: list[dict] = []
        self._next_id = 0
        self._next_trace = 0
        self._undo: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> dict:
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self._next_trace += 1
        self._next_id += 1
        span = {"trace": parent["trace"] if parent else self._next_trace,
                "id": self._next_id, "parent": parent["id"] if parent else None,
                "name": name, "start": time.perf_counter(), "end": None, "agg": {}}
        self._stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()
        for entry in span["agg"].values():
            if isinstance(entry[3], set):
                entry[3] = len(entry[3])
        self.spans.append(span)

    @contextmanager
    def span(self, name: str, **attrs):
        span = self.open(name)
        span.update(attrs)
        try:
            yield span
        finally:
            self.close(span)

    # -- hooks ---------------------------------------------------------------

    def _span_wrapper(self, group, fn):
        def wrapper(*args, **kwargs):
            span = self.open(group)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            span.update(_describe(group, result))
            return result
        return wrapper

    def _hot_wrapper(self, group, fn):
        clock = time.perf_counter
        stack = self._stack
        track_points = group == "rootenum.classify"

        def wrapper(*args):
            t0 = clock()
            result = fn(*args)
            elapsed = clock() - t0
            agg = stack[-1]["agg"]
            entry = agg.get(group)
            if entry is None:
                entry = agg[group] = [0, 0.0, 0, set() if track_points else 0]
            entry[0] += 1
            entry[1] += elapsed
            if result is True:  # certified_off: the range was pruned
                entry[2] += 1
            if track_points:
                entry[3].add(args[1])
            return result
        return wrapper

    def install(self, mods) -> None:
        """Wrap every hook target that exists in the loaded modules."""
        loaded = [m for m in vars(mods).values() if hasattr(m, "__dict__")]
        for group, module_name, path, hot in HOOKS:
            owner = getattr(mods, module_name, None)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            target = owner.__dict__.get(attr) if owner is not None else None
            if target is None:
                self.missing.add(group)
                continue
            make = self._hot_wrapper if hot else self._span_wrapper
            wrapped = make(group, target)
            owners = [owner] + [m for m in loaded
                                if m is not owner and m.__dict__.get(attr) is target]
            for o in owners:
                self._undo.append((o, attr, target))
                setattr(o, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- CLI children ----------------------------------------------------------

    def run_child(self, call: str, script, args: list, env: dict) -> subprocess.CompletedProcess:
        """Run a traced CLI child; its spans join this tracer under one span."""
        out_file = self.workdir / "child-spans.json"
        with self.span("cli.invoke", call=call) as parent:
            proc = subprocess.run([sys.executable, str(script), str(out_file), *args],
                                  env=env, capture_output=True, check=False)
        if out_file.is_file():
            child = json.loads(out_file.read_text())
            out_file.unlink()
            self.missing.update(child["missing"])
            base = self._next_id
            for span in child["spans"]:
                span["trace"] = parent["trace"]
                span["parent"] = parent["id"] if span["parent"] is None else span["parent"] + base
                span["id"] += base
                self._next_id = max(self._next_id, span["id"])
                self.spans.append(span)
        return proc

    def dump(self, path) -> None:
        Path(path).write_text(json.dumps({"missing": sorted(self.missing), "spans": self.spans}))


def _agg(spans, group):
    count = secs = hits = points = 0
    for span in spans:
        entry = span["agg"].get(group)
        if entry:
            count += entry[0]
            secs += entry[1]
            hits += entry[2]
            points += entry[3]
    return count, secs, hits, points


def layer_metrics(spans, missing, extra: dict) -> dict:
    """Per-layer metrics over a traced pass: counts and times are totals.

    `extra` supplies the metrics no hook measures (import time, report bytes,
    tracing overhead, source lines); any it lacks read null."""
    dur = lambda s: s["end"] - s["start"]
    named = {}
    for span in spans:
        named.setdefault(span["name"], []).append(span)
    total = lambda name: sum(dur(s) for s in named.get(name, ()))
    certify = _agg(spans, "rootenum.certify")
    classify = _agg(spans, "rootenum.classify")
    amax = _agg(spans, "approxsign.max")
    amin = _agg(spans, "approxsign.min")
    divmod_ = _agg(spans, "polyalg.divmod")
    chains = named.get("sturm.chain", ())
    enums = named.get("rootenum.root_enum", ())
    children = {}
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]] = children.get(span["parent"], 0.0) + dur(span)
    self_s = sum(dur(s) - children.get(s["id"], 0.0) - sum(e[1] for e in s["agg"].values())
                 for s in enums)
    cli_traces = {s["trace"] for s in named.get("cli.main", ())}
    values = {
        "rootenum.certify_calls": certify[0],
        "rootenum.certify_pruned": certify[2],
        "rootenum.certify_prune_ratio": certify[2] / certify[0] if certify[0] else 0.0,
        "rootenum.certify_s": certify[1],
        "rootenum.classify_calls": classify[0],
        "rootenum.classify_points": classify[3],
        "rootenum.classify_hit_ratio": 1 - classify[3] / classify[0] if classify[0] else 0.0,
        "rootenum.classify_s": classify[1],
        "rootenum.leaves": amax[0],
        "rootenum.cells_fired": sum(s.get("cells_fired", 0) for s in enums),
        "rootenum.enum_s": total("rootenum.root_enum"),
        "rootenum.scale_s": total("rootenum.scale"),
        "rootenum.descent_self_s": self_s,
        "approxsign.max_calls": amax[0],
        "approxsign.min_calls": amin[0],
        "approxsign.count_s": amax[1] + amin[1],
        "sturm.chain_calls": len(chains),
        "sturm.chain_s": total("sturm.chain"),
        "sturm.chain_len_max": max((s.get("chain_len", 0) for s in chains), default=0),
        "sturm.coeff_bits_max": max((s.get("coeff_bits", 0) for s in chains), default=0),
        "sturm.cauchy_s": total("sturm.cauchy"),
        "polyalg.divmod_calls": divmod_[0],
        "polyalg.divmod_s": divmod_[1],
        "errbounds.threshold_calls": len(named.get("errbounds.threshold", ())),
        "errbounds.threshold_s": total("errbounds.threshold"),
        "cli.load_s": total("cli.load"),
        "cli.gamma_s": total("cli.gamma"),
        "cli.enum_s": sum(dur(s) for s in enums if s["trace"] in cli_traces),
        "cli.render_s": total("cli.report") + total("cli.emit"),
    }
    values.update(extra)
    out = {}
    for name, unit, needs in LAYER_METRICS:
        value = None if any(g in missing for g in needs) else values.get(name)
        out[name] = {"value": value, "unit": unit}
    return out
