"""Run one tracelattice CLI invocation with every public function traced.

    python3 bench/tracer.py SPANS.jsonl -- <trace-lattice arguments>

Before calling ``tracelattice.cli.main`` it wraps, in every module of the
package, each public function (including the names one module imports from
another, such as ``lattice_core.det``), the ``mul_coords`` methods of the
field classes and ``Matrix.__mul__`` (reported as ``exact_linalg.matmul``).
A span is ``(name, start, end, parent)``; spans stay in memory and are
written as JSON lines when the command ends. Standard output is the CLI's
own, byte for byte, and the exit code is the CLI's exit code.

``summarize`` turns a spans file into per-function call counts and times
and per-layer self time (a span's duration minus its direct children's).
"""
from __future__ import annotations

import functools
import sys
import time
from array import array

PACKAGE = "tracelattice"


def _extract_len(args, result):
    return len(result)


def _extract_gram_key(args, result):
    # Fraction hashes do not depend on PYTHONHASHSEED, so keys compare
    # across processes
    return hash(args[0].data)


def _extract_scan(args, result):
    return [len(result.members), result.skipped]


# the per-entry coercion behind every Matrix: tracing it would quadruple the
# span count, and its time belongs to the caller anyway
UNTRACED = {"exact_linalg.rat"}

# functions whose span carries one extra value, and how to get it
EXTRAS = {
    "lattice_core.short_vectors_gram": _extract_len,
    "lattice_core.classify_gram": _extract_gram_key,
    "a3_factory.scan_family": _extract_scan,
}


class Recorder:
    """Span store: parallel arrays indexed by span id, plus a call stack."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.extra: dict[int, object] = {}
        self.stack = [-1]

    def wrap(self, qualname: str, fn):
        name_id = self.name_ids.setdefault(qualname, len(self.names))
        if name_id == len(self.names):
            self.names.append(qualname)
        extract = EXTRAS.get(qualname)
        name, parent, start, end, stack = (
            self.name, self.parent, self.start, self.end, self.stack,
        )
        extra = self.extra
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(name)
            name.append(name_id)
            parent.append(stack[-1])
            start.append(0)
            end.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            if extract is not None:
                extra[idx] = extract(args, result)
            return result

        return functools.wraps(fn)(traced)

    def write(self, path: str) -> None:
        import json

        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.name)):
                span = {
                    "id": i,
                    "name": self.names[self.name[i]],
                    "start": self.start[i],
                    "end": self.end[i],
                    "parent": self.parent[i],
                }
                if i in self.extra:
                    span["extra"] = self.extra[i]
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def _layer(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


def install(recorder: Recorder) -> None:
    """Replace the package's public functions and traced methods by wrappers."""
    import importlib
    import inspect
    import pkgutil

    package = importlib.import_module(PACKAGE)
    modules = [package] + [
        importlib.import_module(f"{PACKAGE}.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
        if info.name != "__main__"
    ]
    wrapped: dict[int, object] = {}
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                continue
            home = getattr(obj, "__module__", None) or ""
            if not home.startswith(PACKAGE + ".") or f"{_layer(home)}.{attr}" in UNTRACED:
                continue
            if id(obj) not in wrapped:
                qualname = f"{_layer(home)}.{obj.__name__}"
                wrapped[id(obj)] = (obj, recorder.wrap(qualname, obj))
            setattr(module, attr, wrapped[id(obj)][1])
    for module in modules:
        for obj in list(vars(module).values()):
            if not inspect.isclass(obj) or obj.__module__ != module.__name__:
                continue
            if "mul_coords" in vars(obj):
                obj.mul_coords = recorder.wrap(
                    f"{_layer(module.__name__)}.mul_coords", vars(obj)["mul_coords"]
                )
            if obj.__name__ == "Matrix" and "__mul__" in vars(obj):
                obj.__mul__ = recorder.wrap(
                    f"{_layer(module.__name__)}.matmul", vars(obj)["__mul__"]
                )


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        sys.stderr.write("usage: tracer.py SPANS.jsonl -- <trace-lattice arguments>\n")
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    recorder = Recorder()
    install(recorder)
    from tracelattice import cli

    try:
        code = cli.main(cli_args)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        recorder.write(spans_path)
    return code


# ---------------------------------------------------------------------------
# reading spans back
# ---------------------------------------------------------------------------

def summarize(path: str) -> dict:
    """Per-function calls/seconds/extras and per-layer calls/self seconds."""
    import json

    spans = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            spans.append(json.loads(line))
    child_ns = [0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child_ns[s["parent"]] += s["end"] - s["start"]
    funcs: dict[str, dict] = {}
    layers: dict[str, dict] = {}
    for s in spans:
        dur = s["end"] - s["start"]
        f = funcs.setdefault(s["name"], {"calls": 0, "ns": 0, "extras": []})
        f["calls"] += 1
        # nested calls of one function count once in its inclusive time
        if not _has_ancestor(spans, s, s["name"]):
            f["ns"] += dur
        if "extra" in s:
            f["extras"].append(s["extra"])
        layer = layers.setdefault(s["name"].split(".")[0], {"calls": 0, "self_ns": 0})
        layer["calls"] += 1
        layer["self_ns"] += dur - child_ns[s["id"]]
    # lambda_from_point runs once per distinct chord point of a scan
    points = sum(
        1
        for s in spans
        if s["name"] == "a3_factory.lambda_from_point"
        and s["parent"] >= 0
        and spans[s["parent"]]["name"] == "a3_factory.scan_family"
    )
    return {"funcs": funcs, "layers": layers, "scan_points": points, "spans": len(spans)}


def _has_ancestor(spans, span, name) -> bool:
    p = span["parent"]
    while p >= 0:
        if spans[p]["name"] == name:
            return True
        p = spans[p]["parent"]
    return False


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
