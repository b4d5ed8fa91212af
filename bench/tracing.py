"""Tracing from outside the program: wrap each layer's entry functions.

`Tracer.install()` replaces every traced function by a wrapper in every
`hdecomp` module namespace that holds it (so `find_separation_bip` is also
rebound inside `decomposition`), in default arguments that captured it (the
Koenig base solver of `solve_vc_elim`), and on classes for methods.
`uninstall()` puts the originals back.

Each call records a span (name, start, end, parent span, op index) in memory;
a few entry points also record a note taken from their argument or result
(finder found a separation, promise passed, separators emitted, quotient
size and exactness, node counts).  `layer_metrics` derives self times and
counters from the spans; `dump` writes them out.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import defaultdict

from hdecomp import cli, decomposition, graphs, separation, separators, solvers


def _found(args, kwargs, res):
    return res is not None


def _promise(args, kwargs, res):
    return res.promise_ok


def _quotient(args, kwargs, res):
    return (args[0].n, res.exact)


def _count_nodes(attr):
    return lambda args, kwargs, res: len(getattr(res, attr))


# (span name, owner, attribute, note function or None)
TARGETS = (
    ("cli.main", cli, "main", None),
    ("cli.auto_forest", cli, "_auto_forest", None),
    ("cli.auto_nice", cli, "_auto_nice", None),
    ("graphs.parse_gr", graphs, "parse_gr", None),
    ("graphs.is_member", graphs, "is_member", None),
    ("graphs.find_induced_obstruction", graphs, "find_induced_obstruction", None),
    ("separators.vertex_flow", separators, "_vertex_flow", None),
    ("separators.impsep", separators, "enumerate_important_separators", lambda a, k, r: r),
    ("separation.bip", separation, "find_separation_bip", _found),
    ("separation.restricted", separation, "find_separation_restricted", _found),
    ("separation.forbidden", separation, "find_separation_forbidden", _found),
    ("separation.extremal", separation, "find_extremal_separation", None),
    ("decomposition.build_ed_forest", decomposition, "build_ed_forest", _promise),
    ("decomposition.build_tree_h", decomposition, "build_tree_h_decomposition", _promise),
    ("decomposition.sepdec", decomposition, "build_separation_decomposition", _count_nodes("nodes")),
    ("decomposition.exact_treedepth", decomposition, "exact_treedepth", _quotient),
    ("decomposition.exact_treewidth", decomposition, "exact_treewidth", _quotient),
    ("decomposition.convert", decomposition, "ed_forest_from_sepdecomp", None),
    ("decomposition.convert", decomposition, "tree_decomp_from_sepdecomp", None),
    ("decomposition.convert", decomposition, "ed_to_tree_decomposition", None),
    ("decomposition.make_nice", decomposition, "make_nice", _count_nodes("parents")),
    ("decomposition.validate", decomposition.EliminationForest, "validate", None),
    ("decomposition.validate", decomposition.TreeHDecomposition, "validate", None),
    ("decomposition.validate", decomposition.NiceTreeHDecomposition, "validate", None),
    ("decomposition.json", decomposition, "to_json", None),
    ("decomposition.json", decomposition, "from_json", None),
    ("solvers.elim", solvers, "solve_oct_elim", None),
    ("solvers.elim", solvers, "solve_vc_elim", None),
    ("solvers.elim", solvers, "solve_klfree_elim", None),
    ("solvers.dp", solvers, "solve_oct_dp", None),
    ("solvers.dp", solvers, "solve_vc_dp", None),
    ("solvers.abc", solvers, "_abc_within", None),
    ("solvers.koenig", solvers, "_vc_bipartite_within", None),
    ("solvers.fdfv", solvers, "solve_klfree_fdfv", None),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # (name id, start, end, parent index, op)
        self.notes: dict[int, object] = {}
        self.op = -1
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, name: str, fn, note):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        spans, stack, notes, clock = self.spans, self._stack, self.notes, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent, self.op)
            if note is not None:
                notes[idx] = note(args, kwargs, res)
            return res

        traced.__wrapped__ = fn
        return traced

    def _rebind(self, holder, attr, old, new):
        self._undo.append((holder, attr, old))
        setattr(holder, attr, new)

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("hdecomp") and m]
        for name, owner, attr, note in TARGETS:
            orig = owner.__dict__[attr]
            wrapper = self._wrap(name, orig, note)
            if isinstance(owner, type):
                self._rebind(owner, attr, orig, wrapper)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._rebind(mod, key, orig, wrapper)
                        continue
                    fn = getattr(val, "__wrapped__", val)  # may be traced already
                    defaults = getattr(fn, "__defaults__", None) or ()
                    if any(d is orig for d in defaults):
                        fixed = tuple(wrapper if d is orig else d for d in defaults)
                        self._rebind(fn, "__defaults__", defaults, fixed)

    def uninstall(self):
        while self._undo:
            holder, attr, old = self._undo.pop()
            setattr(holder, attr, old)

    def dump(self, path):
        with gzip.open(path, "wt") as f:
            json.dump({"names": self.names, "spans": self.spans, "notes": self.notes}, f)


def layer_metrics(
    tr: Tracer, exit_codes: list[int], factors: list[float], overhead_frac: float
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics.  Times and counts are per op (the traced run's
    mean), fractions are over the calls they name.  A span's duration is
    multiplied by its op's entry in `factors`, which scales it to the
    reference speed."""
    names, spans, notes = tr.names, tr.spans, tr.notes
    n_ops = max(1, len(exit_codes))
    dur = [(end - start) * factors[op] for _, start, end, _, op in spans]
    child_time = [0.0] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += dur[i]
    calls = defaultdict(int)
    total = defaultdict(float)  # outermost spans of a name only
    self_t = defaultdict(float)
    for i, (nid, _, _, parent, _) in enumerate(spans):
        name = names[nid]
        calls[name] += 1
        self_t[name] += dur[i] - child_time[i]
        if parent < 0 or spans[parent][0] != nid:
            total[name] += dur[i]

    def under(i: int, target: set[str]) -> bool:
        p = spans[i][3]
        while p >= 0:
            if names[spans[p][0]] in target:
                return True
            p = spans[p][3]
        return False

    def noted(name):
        return [(i, notes[i]) for i, s in enumerate(spans) if names[s[0]] == name and i in notes]

    auto = {"cli.auto_forest", "cli.auto_nice"}
    builds = [v for i, v in noted("decomposition.build_ed_forest") + noted("decomposition.build_tree_h") if under(i, auto)]
    finders = ("separation.bip", "separation.restricted", "separation.forbidden")
    finder_notes = [v for f in finders for _, v in noted(f)]
    extremal = [i for i, s in enumerate(spans) if names[s[0]] == "separation.extremal"]
    extremal_ids = set(extremal)
    direct_finder_calls = sum(1 for s in spans if names[s[0]] in finders and s[3] in extremal_ids)
    quotients = [v for _, v in noted("decomposition.exact_treedepth") + noted("decomposition.exact_treewidth")]
    sepdec_nodes = [v for _, v in noted("decomposition.sepdec")]
    nice_nodes = [v for _, v in noted("decomposition.make_nice")]

    def per_op(x):
        return x / n_ops

    def mean(xs):
        return sum(xs) / len(xs) if xs else 0.0

    def frac(xs):
        return sum(1 for x in xs if x) / len(xs) if xs else 0.0

    s, c, r = "s/op", "1/op", "ratio"
    return {
        "cli.self_s": (per_op(self_t["cli.main"]), s),
        "cli.auto_builds": (len(builds) / max(1, calls["cli.auto_forest"] + calls["cli.auto_nice"]), "1/solve"),
        "cli.auto_wasted_frac": (1.0 - frac(builds) if builds else 0.0, r),
        "cli.exit2_frac": (sum(1 for e in exit_codes if e == 2) / n_ops, r),
        "graphs.obstruction_calls": (per_op(calls["graphs.find_induced_obstruction"]), c),
        "graphs.obstruction_s": (per_op(total["graphs.find_induced_obstruction"]), s),
        "graphs.member_s": (per_op(total["graphs.is_member"]), s),
        "graphs.parse_s": (per_op(total["graphs.parse_gr"]), s),
        "separators.flow_calls": (per_op(calls["separators.vertex_flow"]), c),
        "separators.flow_s": (per_op(total["separators.vertex_flow"]), s),
        "separators.impsep_calls": (per_op(calls["separators.impsep"]), c),
        "separators.impsep_emitted": (per_op(sum(v for _, v in noted("separators.impsep") if v)), c),
        "separators.impsep_self_s": (per_op(self_t["separators.impsep"]), s),
        "separation.bip_calls": (per_op(calls["separation.bip"]), c),
        "separation.bip_self_s": (per_op(self_t["separation.bip"]), s),
        "separation.restricted_calls": (per_op(calls["separation.restricted"]), c),
        "separation.restricted_self_s": (per_op(self_t["separation.restricted"]), s),
        "separation.forbidden_calls": (per_op(calls["separation.forbidden"]), c),
        "separation.forbidden_self_s": (per_op(self_t["separation.forbidden"]), s),
        "separation.found_frac": (frac(finder_notes), r),
        "separation.extremal_steps": (direct_finder_calls / max(1, len(extremal)), "1/call"),
        "decomposition.td_s": (per_op(total["decomposition.exact_treedepth"]), s),
        "decomposition.tw_s": (per_op(total["decomposition.exact_treewidth"]), s),
        "decomposition.quotient_n_max": (float(max((q[0] for q in quotients), default=0)), "vertices"),
        "decomposition.quotient_exact_frac": (frac([q[1] for q in quotients]), r),
        "decomposition.sepdec_self_s": (per_op(self_t["decomposition.sepdec"]), s),
        "decomposition.sepdec_nodes": (mean(sepdec_nodes), "1/call"),
        "decomposition.convert_s": (per_op(total["decomposition.convert"]), s),
        "decomposition.nice_s": (per_op(total["decomposition.make_nice"]), s),
        "decomposition.nice_nodes": (mean(nice_nodes), "1/call"),
        "decomposition.validate_s": (per_op(total["decomposition.validate"]), s),
        "decomposition.json_s": (per_op(total["decomposition.json"]), s),
        "solvers.elim_s": (per_op(total["solvers.elim"]), s),
        "solvers.dp_s": (per_op(total["solvers.dp"]), s),
        "solvers.abc_calls": (per_op(calls["solvers.abc"]), c),
        "solvers.koenig_calls": (per_op(calls["solvers.koenig"]), c),
        "solvers.fdfv_calls": (per_op(calls["solvers.fdfv"]), c),
        "trace.overhead_frac": (overhead_frac, r),
    }
