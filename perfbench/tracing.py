"""Spans around calls into the package's public functions.

The traced run rebinds each function named in :data:`LAYERS` in every
package module namespace that holds it, so calls made inside the package
(``solver`` calling ``support_mask``, ``harness`` calling
``pebbling_value``) are seen too.  Nothing in the package changes; the
untraced run installs nothing.

Calls made millions of times per pass (support masks, goal checks,
undominated components, configuration enumeration) are "hot": they are
aggregated into counters instead of stored one span per call, which would
cost hundreds of megabytes.  Their time is still charged to the enclosing
span, so self time stays exact.  Every other call keeps a span
``(id, parent, root, name, start, end, self_s, attrs)`` in memory until
:meth:`Tracer.write` saves them.  The root of a span is the item (request,
graph or family value) it served.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        # hot name -> [calls, seconds, true results, items yielded]
        self.hot: dict[str, list] = {}
        # Open frames: [child seconds, span id, root id]; a hot call's
        # frame carries the ids of the span it runs in.  The bottom
        # sentinel absorbs time spent outside any span.
        self.stack: list[list] = [[0.0, None, None]]
        self._next_id = 0

    def reset(self) -> None:
        self.spans = []
        for agg in self.hot.values():
            agg[:] = [0] * len(agg)

    # -- spans -------------------------------------------------------------

    def span(self, name, fn, attrs=None):
        """Wrap ``fn`` so every call records one span.  ``name`` is a
        string or a function of the call's arguments; ``attrs`` maps
        (args, kwargs, result) to a dict of counts."""
        stack = self.stack

        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            parent = stack[-1]
            sid = self._next_id
            self._next_id += 1
            frame = [0.0, sid, parent[2] if parent[2] is not None else sid]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._close(frame, label, start, {"error": type(exc).__name__})
                raise
            self._close(frame, label, start,
                        attrs(args, kwargs, result) if attrs else {})
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _close(self, frame, label, start, attrs) -> None:
        end = perf_counter()
        self.stack.pop()
        dur = end - start
        self.stack[-1][0] += dur
        self.spans.append((frame[1], self.stack[-1][1], frame[2], label,
                           start, end, dur - frame[0], attrs))

    # -- hot calls ---------------------------------------------------------

    def hot_call(self, name, fn, count_true=False):
        stack = self.stack
        agg = self.hot.setdefault(name, [0, 0.0, 0, 0])

        def wrapper(*args, **kwargs):
            top = stack[-1]
            stack.append([0.0, top[1], top[2]])
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stack[-1][0] += dt
                agg[0] += 1
                agg[1] += dt
            if count_true and result:
                agg[2] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def hot_generator(self, name, fn):
        """Wrap a generator function; only time inside ``next`` counts."""
        stack = self.stack
        agg = self.hot.setdefault(name, [0, 0.0, 0, 0])

        def wrapper(*args, **kwargs):
            agg[0] += 1
            it = fn(*args, **kwargs)
            try:
                while True:
                    top = stack[-1]
                    stack.append([0.0, top[1], top[2]])
                    t0 = perf_counter()
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        dt = perf_counter() - t0
                        stack.pop()
                        stack[-1][0] += dt
                        agg[1] += dt
                    agg[3] += 1
                    yield value
            finally:
                it.close()

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results -----------------------------------------------------------

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds, self seconds and summed
        attributes (a name nested in itself would count twice; none is)."""
        out: dict[str, dict] = {}
        for _sid, _parent, _root, label, start, end, self_s, attrs in \
                self.spans:
            t = out.setdefault(label, {"calls": 0, "s": 0.0, "self_s": 0.0})
            t["calls"] += 1
            t["s"] += end - start
            t["self_s"] += self_s
            for k, v in attrs.items():
                if isinstance(v, (int, float)):
                    t[k] = t.get(k, 0) + v
                else:
                    key = f"{k}:{v}"
                    t[key] = t.get(key, 0) + 1
        return out

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write(json.dumps({"header": header}) + "\n")
            for name, (calls, secs, trues, extra) in sorted(self.hot.items()):
                fh.write(json.dumps({"hot": name, "calls": calls, "s": secs,
                                     "true": trues, "yielded": extra}) + "\n")
            for sid, parent, root, label, start, end, self_s, attrs in \
                    self.spans:
                fh.write(json.dumps(
                    {"id": sid, "parent": parent, "root": root,
                     "name": label, "start": start, "end": end,
                     "self_s": self_s, **attrs}) + "\n")


# ---------------------------------------------------------------------------
# what is wrapped
# ---------------------------------------------------------------------------

def _moves(args, kwargs, cert):
    return {"moves": len(cert.moves)}


def _diamd_name(args, kwargs):
    check = kwargs.get("check_invariants", args[2] if len(args) > 2 else True)
    return "constructive.diamd" if check else "constructive.diamd_noinv"


def _scan_name(args, kwargs):
    goal = args[1] if len(args) > 1 else kwargs["goal"]
    return f"solver.scan.{goal.kind}"


def _dfs_attrs(args, kwargs, res):
    return {"states": res.states_explored,
            "decided": int(res.solvable is not None)}


def _verify_attrs(args, kwargs, res):
    cert = args[1] if len(args) > 1 else kwargs["cert"]
    return {"moves": len(cert.moves), "rejects": int(not res.ok)}


# (defining module, function, how to wrap, layer name, attrs)
LAYERS = (
    ("graphs", "parse_graph6", "span", "graphs.parse", None),
    ("graphs", "support_mask", "hot", "graphs.support", None),
    ("graphs", "max_undominated_component", "hot", "graphs.undom", None),
    ("pebbling", "satisfies_mask", "hot_true", "pebbling.goal", None),
    ("solver", "configurations", "generator", "solver.enum", None),
    ("solver", "pebbling_value", "span", _scan_name,
     lambda a, k, r: {"checked": r.checked}),
    ("solver", "is_solvable", "span", "solver.dfs", _dfs_attrs),
    ("solver", "lambda_stacking", "span", "solver.stacking", None),
    ("constructive", "solve_diameter2", "span", "constructive.diam2", _moves),
    ("constructive", "spread_diameter2", "span", "constructive.spread",
     _moves),
    ("constructive", "solve_diameter_d", "span", _diamd_name, _moves),
    ("constructive", "solve_subversion_diameter2", "span",
     "constructive.subv2", _moves),
    ("constructive", "check_solver_state", "span", "constructive.invariants",
     None),
    ("constructive", "verify_certificate", "span", "constructive.verify",
     _verify_attrs),
    ("harness", "analyze_graph", "span", "harness.analyze", None),
    ("harness", "emit_csv", "span", "harness.emit", None),
    ("fixtures", "connected_graph6_lines", "span", "setup.fixtures", None),
    ("families", "generate", "span", "setup.families", None),
)


def install(tracer: Tracer, api) -> list[tuple]:
    """Rebind every function of :data:`LAYERS` in each package module that
    holds it.  Returns what :func:`uninstall` needs to undo it."""
    modules = [api.root] + [getattr(api, n) for n in
                            ("graphs", "pebbling", "solver", "constructive",
                             "families", "fixtures", "harness")]
    undo = []
    for home, fname, how, layer, attrs in LAYERS:
        orig = getattr(getattr(api, home), fname)
        if how == "span":
            wrapped = tracer.span(layer, orig, attrs)
        elif how == "generator":
            wrapped = tracer.hot_generator(layer, orig)
        else:
            wrapped = tracer.hot_call(layer, orig, how == "hot_true")
        for mod in modules:
            if getattr(mod, fname, None) is orig:
                setattr(mod, fname, wrapped)
                undo.append((mod, fname, orig))
    return undo


def uninstall(undo: list[tuple]) -> None:
    for mod, fname, orig in reversed(undo):
        setattr(mod, fname, orig)
