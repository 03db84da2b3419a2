"""Per-layer tracing from outside the program: wrap public functions of tpg.

Each target is wrapped wherever the program bound it (``from .permgrp import
isomorphic`` binds ``isomorphic`` in ``classify`` and ``axial`` too), so every
call is seen once.  Wrappers only read the clock and values the call already
returned; they never read ``.order`` or enumerate elements, because closures
are lazy and their cost must stay on the program call that first needs them.

Spans (id, parent id, name, start, end) are kept in memory and written out
when the run ends.  Self time is a span's duration minus the durations of the
wrapped calls directly nested in it.  Inclusive time of a name counts only its
outermost activation, so recursion is not counted twice.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

# layer module -> qualified names of its public functions that are timed
TARGETS: dict[str, tuple[str, ...]] = {
    "permgrp": ("PermGroup.order", "PermGroup.element_key_set",
                "PermGroup.normal_closure", "PermGroup.quotient",
                "PermGroup.conjugacy_classes", "PermGroup.fingerprint",
                "isomorphic", "find_isomorphism"),
    "fpgrp": ("todd_coxeter", "coset_action"),
    "axial": ("t_closure", "t_equivalent", "pair_type_counts", "obstruct",
              "find_subgroups_iso", "verify_certificate"),
    "classify": ("catalog", "normal_subgroups_index_gt", "quotient_records",
                 "is_triangle_point", "identify",
                 "TypeEntry.file_configuration", "target_config",
                 "classify_all", "write_outputs"),
    "dihedral": ("build", "check_fusion", "check_m1", "check_miyamoto",
                 "check_inclusion"),
    "qlin": ("Matrix.is_psd",),
    "cli": ("run",),
}

# exact counts read from returned values: metric -> (timed function, reader)
RESULT_COUNTS = {
    "classify.lattice_members": ("classify.normal_subgroups_index_gt", len),
    "permgrp.isomorphic_true": ("permgrp.isomorphic", lambda r: int(r is True)),
    "fpgrp.cosets": ("fpgrp.todd_coxeter", lambda r: r.coset_count),
    "axial.tset_elements": ("axial.t_closure", lambda r: len(r.tset)),
}
# attempted joins: calls of permgrp.generate made inside the lattice search
JOIN_COUNT = "classify.lattice_joins"
JOIN_SCOPE = "classify.normal_subgroups_index_gt"
USEFUL = ("classify.lattice_members", "permgrp.isomorphic_true")


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for mod, quals in TARGETS.items():
        for q in quals:
            base = f"{mod}.{q.rsplit('.', 1)[-1]}"
            specs += [(f"{base}_calls", "count", "lower"),
                      (f"{base}_s", "s", "lower"),
                      (f"{base}_self_s", "s", "lower")]
    specs.append((JOIN_COUNT, "count", "lower"))
    # members and true isomorphism tests are the useful outcomes of the
    # joins and tests attempted; cosets and T-set elements are work done
    specs += [(name, "count", "higher" if name in USEFUL else "lower")
              for name in RESULT_COUNTS]
    return specs


def _rebind(modules, old, new) -> None:
    """Replace old by new under every name the modules bound it to."""
    for m in modules:
        for key, value in list(vars(m).items()):
            if value is old:
                setattr(m, key, new)


class Tracer:
    """Holds the spans and per-name totals of one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.sid = array("q")
        self.parent = array("q")
        self.name_idx = array("l")
        self.t0 = array("d")
        self.t1 = array("d")
        self.calls: dict[str, int] = {}
        self.incl: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.active: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        # open spans: [span id, time spent in wrapped calls nested in it]
        self.stack: list[list] = []
        self.next_id = 0

    def _wrap(self, name: str, fn, after=None):
        idx = len(self.names)
        self.names.append(name)
        self.calls[name] = 0
        self.incl[name] = 0.0
        self.self_s[name] = 0.0
        self.active[name] = 0
        stack, clock = self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.next_id += 1
            frame = [self.next_id, 0.0]
            stack.append(frame)
            self.active[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self.active[name] -= 1
                self.calls[name] += 1
                self.self_s[name] += dur - frame[1]
                if not self.active[name]:
                    self.incl[name] += dur
                if stack:
                    stack[-1][1] += dur
                self.sid.append(frame[0])
                self.parent.append(stack[-1][0] if stack else 0)
                self.name_idx.append(idx)
                self.t0.append(start)
                self.t1.append(end)
            if after is not None:
                after(result)
            return result

        return wrapper

    def _count(self, metric: str, read):
        self.counts[metric] = 0

        def after(result):
            if metric not in self.counts:
                return
            try:
                self.counts[metric] += read(result)
            except (AttributeError, TypeError):
                # the call no longer returns what the count reads
                del self.counts[metric]
                self.absent.append(metric)
        return after

    def install(self) -> None:
        """Wrap every target that exists; record the others as absent."""
        tpg_modules = [m for k, m in sorted(sys.modules.items())
                       if k == "tpg" or k.startswith("tpg.")]
        afters = {fn: self._count(metric, read)
                  for metric, (fn, read) in RESULT_COUNTS.items()}
        for mod_name, quals in TARGETS.items():
            mod = sys.modules.get(f"tpg.{mod_name}")
            for qual in quals:
                name = f"{mod_name}.{qual.rsplit('.', 1)[-1]}"
                if not self._install_one(mod, qual, name, afters.get(name),
                                         tpg_modules):
                    self.absent.append(name)
        for metric, (fn, _) in RESULT_COUNTS.items():
            if fn in self.absent:
                self.absent.append(metric)
                del self.counts[metric]
        self._install_join_counter(tpg_modules)

    def _install_one(self, mod, qual, name, after, tpg_modules) -> bool:
        if mod is None:
            return False
        if "." in qual:
            cls_name, attr = qual.split(".")
            cls = getattr(mod, cls_name, None)
            raw = vars(cls).get(attr) if isinstance(cls, type) else None
            if isinstance(raw, property) and raw.fget is not None:
                setattr(cls, attr, property(self._wrap(name, raw.fget, after),
                                            raw.fset, raw.fdel, raw.__doc__))
                return True
            if callable(raw):
                setattr(cls, attr, self._wrap(name, raw, after))
                return True
            return False
        fn = getattr(mod, qual, None)
        if not callable(fn):
            return False
        _rebind(tpg_modules, fn, self._wrap(name, fn, after))
        return True

    def _install_join_counter(self, tpg_modules) -> None:
        gen = getattr(sys.modules.get("tpg.permgrp"), "generate", None)
        if not callable(gen) or JOIN_SCOPE in self.absent:
            self.absent.append(JOIN_COUNT)
            return
        self.counts[JOIN_COUNT] = 0

        @functools.wraps(gen)
        def counted(*args, **kwargs):
            if self.active[JOIN_SCOPE]:
                self.counts[JOIN_COUNT] += 1
            return gen(*args, **kwargs)

        _rebind(tpg_modules, gen, counted)

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name in self.names:
            out[f"{name}_calls"] = self.calls[name]
            out[f"{name}_s"] = self.incl[name]
            out[f"{name}_self_s"] = self.self_s[name]
        out.update(self.counts)
        return out

    def write_spans(self, path) -> None:
        """One line per span: id, parent id (0 = none), name, start, end."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names,
                                 "columns": ["id", "parent", "name",
                                             "start_s", "end_s"]}) + "\n")
            for row in zip(self.sid, self.parent, self.name_idx,
                           self.t0, self.t1):
                fh.write("%d %d %d %.9f %.9f\n" % row)
