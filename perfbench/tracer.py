"""Outside-in per-layer tracing of countcsp.

The tracer wraps public functions of the countcsp modules from outside and
rebinds each wrapper in every loaded countcsp module that holds the original
object (counting, for instance, imports enumerate_solutions from oracle), so
calls between modules are seen too. Nothing inside countcsp changes.

A timed target records calls, self time (its span minus the spans of timed
targets it called) and total time (outermost spans only, so recursion is not
counted twice). Counted targets only record calls; they are the hot inner
functions whose span would cost more than their work. Hooks (`_on_<name>`)
add counters at the same boundaries from a call's arguments and result.

A target whose module or name is missing is reported as absent (None)
instead of failing the run, and so are the extra counters of a hook that
raises, say because a signature changed; the traced call itself goes on.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
import weakref

# (layer, attribute path, kind): "timed" records calls, self_s and total_s;
# "counted" records calls only; "hook" only feeds the extra counters below.
TARGETS = (
    ("frames", "closure_project", "timed"),
    ("frames", "add_constraint", "timed"),
    ("frames", "build_frame", "timed"),
    ("frames", "shrink_to_small", "timed"),
    ("frames", "SectionCache.get", "counted"),
    ("counting", "count", "timed"),
    ("counting", "count_frame", "timed"),
    ("counting", "congruences", "timed"),
    ("relations", "reconstruct_rank_one", "timed"),
    ("relations", "is_rank_one_block", "timed"),
    ("maltsev", "find_maltsev", "timed"),
    ("maltsev", "find_maltsev_with_certificate", "timed"),
    ("maltsev", "apply", "counted"),
    ("dichotomy", "decide_strong_balance", "timed"),
    ("dichotomy", "refute_balance", "timed"),
    ("dichotomy", "patterns", "hook"),
    ("dichotomy", "SearchBudget.spend", "hook"),
    ("oracle", "enumerate_solutions", "timed"),
)

# Extra per-layer metrics: name -> (unit, target whose hook feeds it).
_EXTRA = {
    "frames.closure_project.rows_out": ("count", "frames.closure_project"),
    "frames.add_constraint.pinned_calls": ("count", "frames.add_constraint"),
    "frames.SectionCache.get.misses": ("count", "frames.SectionCache.get"),
    "frames.SectionCache.get.hit_ratio": ("ratio", "frames.SectionCache.get"),
    "frames.frame_rows_max": ("count", "frames.add_constraint"),
    "frames.frame_rows_fill": ("ratio", "frames.add_constraint"),
    "frames.build_frame.growth_exp": ("exp", "frames.build_frame"),
    "counting.count.growth_exp": ("exp", "counting.count"),
    "counting.count_frame.growth_exp": ("exp", "counting.count_frame"),
    "dichotomy.sweep_nodes": ("count", "dichotomy.SearchBudget.spend"),
    "dichotomy.sweep_quadruples": ("count", "dichotomy.patterns"),
    "dichotomy.sweep_nodes_max_quadruple": ("count", "dichotomy.SearchBudget.spend"),
}


def metric_units(targets=TARGETS) -> dict:
    """Every per-layer metric the tracer reports, with its unit."""
    out = {}
    for layer, path, kind in targets:
        name = "%s.%s" % (layer, path)
        if kind == "hook":
            continue
        out[name + ".calls"] = "count"
        if kind == "timed":
            out[name + ".self_s"] = "s"
            out[name + ".total_s"] = "s"
    names = {"%s.%s" % (layer, path) for layer, path, _ in targets}
    out.update((name, unit) for name, (unit, target) in _EXTRA.items() if target in names)
    return out


def growth_exp(calls: list) -> float:
    """Mean over domain sizes q of the least-squares slope of log(median
    call time) against log(n), from (q, n, seconds) calls; 0 when no q has
    two distinct n."""
    by_q: dict = {}
    for q, n, dt in calls:
        by_q.setdefault(q, {}).setdefault(n, []).append(dt)
    slopes = []
    for by_n in by_q.values():
        if len(by_n) < 2:
            continue
        xs = [math.log(n) for n in by_n]
        ys = [math.log(statistics.median(ts)) for ts in by_n.values()]
        mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
        sxx = sum((x - mx) ** 2 for x in xs)
        slopes.append(sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx)
    return sum(slopes) / len(slopes) if slopes else 0.0


def _resolve(layer: str, path: str):
    """(owner, attribute name, original object) or None when missing."""
    mod = sys.modules.get("countcsp." + layer)
    if mod is None:
        return None
    owner = mod
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, parts[-1], None)
    if original is None:
        return None
    return owner, parts[-1], original


class Tracer:
    """Installs wrappers on the loaded countcsp modules and accumulates
    per-target statistics until uninstalled."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.stats: dict = {}
        self.present: set = set()
        self.quadruple_nodes: list = []
        # (q, n, seconds) per call, for the growth fits
        self.sized_calls: dict = {
            "frames.build_frame": [], "counting.count": [], "counting.count_frame": [],
        }
        self._stack: list = []
        self._depth: dict = {}
        self._seen_prefixes = weakref.WeakKeyDictionary()
        self._broken_hooks: set = set()
        self._undo: list = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for layer, path, kind in self.targets:
            name = "%s.%s" % (layer, path)
            found = _resolve(layer, path)
            if found is None:
                continue
            owner, attr, original = found
            self.present.add(name)
            self.stats[name] = {"calls": 0, "self_s": 0.0, "total_s": 0.0}
            self._depth[name] = 0
            hook = getattr(self, "_on_" + path.replace(".", "_"), None)
            if kind == "timed":
                wrapper = self._timed(name, original, hook)
            else:
                wrapper = self._counted(name, original, hook)
            if isinstance(owner, type):
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)
            else:
                self._rebind_everywhere(original, wrapper)

    def _rebind_everywhere(self, original, wrapper) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname != "countcsp" and not modname.startswith("countcsp."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- wrappers ----------------------------------------------------------

    def _timed(self, name, fn, hook):
        st = self.stats[name]
        stack = self._stack
        depth = self._depth
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            st["calls"] += 1
            child = [0.0]
            stack.append(child)
            depth[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                depth[name] -= 1
                st["self_s"] += dt - child[0]
                if not depth[name]:
                    st["total_s"] += dt
                if stack:
                    stack[-1][0] += dt
            if hook is not None:
                self._run_hook(name, hook, args, result, dt)
            return result

        return wrapper

    def _counted(self, name, fn, hook):
        st = self.stats[name]

        def wrapper(*args, **kwargs):
            st["calls"] += 1
            if hook is not None:
                self._run_hook(name, hook, args, None, None)
            return fn(*args, **kwargs)

        return wrapper

    def _run_hook(self, name, hook, args, result, dt) -> None:
        try:
            hook(self.stats[name], args, result, dt)
        except Exception as e:  # extra counters must not fail the traced call
            if name not in self._broken_hooks:
                self._broken_hooks.add(name)
                print("tracer: extra counters of %s are absent: %r" % (name, e), file=sys.stderr)

    # -- hooks: after the call for timed targets, before it for the others --

    def _on_closure_project(self, st, args, result, dt):
        st["rows_out"] = st.get("rows_out", 0) + len(result)

    def _on_add_constraint(self, st, args, frame, dt):
        if self._depth.get("counting.congruences"):
            st["pinned_calls"] = st.get("pinned_calls", 0) + 1
        # frame size against the n(q-1)+1 bound; args[1] is phi
        n, q = frame.arity, args[1].q
        st["frame_rows_max"] = max(st.get("frame_rows_max", 0), len(frame.rows))
        fill = len(frame.rows) / (n * (q - 1) + 1) if n else 0.0
        st["frame_rows_fill"] = max(st.get("frame_rows_fill", 0.0), fill)

    def _on_build_frame(self, st, args, frame, dt):
        # build_frame(structure, phi, instance)
        self.sized_calls["frames.build_frame"].append((args[1].q, args[2].num_vars, dt))

    def _on_count(self, st, args, count, dt):
        # count(structure, phi, instance)
        self.sized_calls["counting.count"].append((args[1].q, args[2].num_vars, dt))

    def _on_count_frame(self, st, args, count, dt):
        # count_frame(frame, phi)
        self.sized_calls["counting.count_frame"].append((args[1].q, args[0].arity, dt))

    def _on_SectionCache_get(self, st, args, *_):
        cache, values = args[0], tuple(args[1])
        seen = self._seen_prefixes.setdefault(cache, set())
        if values not in seen:
            seen.add(values)
            st["misses"] = st.get("misses", 0) + 1

    def _on_patterns(self, st, args, *_):
        if self._depth.get("dichotomy.decide_strong_balance"):
            self.quadruple_nodes.append(0)

    def _on_SearchBudget_spend(self, st, args, *_):
        if self.quadruple_nodes:
            self.quadruple_nodes[-1] += 1

    # -- reporting ---------------------------------------------------------

    def snapshot(self) -> dict:
        return {name: dict(st) for name, st in self.stats.items()}

    def report(self, setup: dict, passes: int) -> dict:
        """Per-layer metrics as (value, unit): what one traced set-up (the
        `setup` snapshot) recorded plus the mean per pass of what the
        `passes` traced passes after it recorded. Maxima and growth cover
        everything traced. Targets that could not be found give None."""

        def value(name, field):
            a = setup.get(name, {}).get(field, 0)
            b = self.stats.get(name, {}).get(field, 0)
            if field in ("frame_rows_max", "frame_rows_fill"):
                return b
            return a + (b - a) / passes

        quads = self.quadruple_nodes
        out = {}
        for metric, unit in metric_units(self.targets).items():
            target, _, field = metric.rpartition(".")
            if metric in _EXTRA:
                target = _EXTRA[metric][1]
            if target not in self.present or (metric in _EXTRA and target in self._broken_hooks):
                v = None
            elif field == "hit_ratio":
                calls = value(target, "calls")
                v = 1.0 - value(target, "misses") / calls if calls else 0.0
            elif field == "growth_exp":
                v = growth_exp(self.sized_calls[target])
            elif field == "sweep_nodes":
                v = value(target, "calls")
            elif field == "sweep_quadruples":
                v = len(quads) / passes
            elif field == "sweep_nodes_max_quadruple":
                v = max(quads, default=0)
            else:
                v = value(target, field)
            out[metric] = (v, unit)
        return out
