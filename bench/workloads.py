"""The four benchmark workloads: what one op is, and the schedule of ops.

A workload is a cycle of op templates.  Cycle c of a run with seed s builds
every template's instance from its own `random.Random` seeded with
(s, workload, c, template), so each op sees a distinct instance and the same
seed always yields the same files.  Every op is one `hdecomp` command line
over files written into the run's work directory.

Probes are ops that hit the two known defects (the parity assertion in
`find_separation_bip` under `within=`, and `RecursionError` in the tree walks
of large decompositions).  They run once per run after the timed loop and
are reported by exception type; they are kept out of the timed stream so
that the end-to-end figures describe ops that complete.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import families as F


@dataclass
class Op:
    label: str  # template name, the same in every cycle
    argv: list[str]
    inst: F.Instance
    kind: str  # solve | decompose | verify
    problem: Optional[str] = None  # oct | vc | klfree for solve
    out: Optional[Path] = None  # decomposition written by decompose
    mode: Optional[str] = None  # ed | tw for decompose
    expect_error: Optional[str] = None  # probes: the exception the defect raises


def _rng(seed: int, *parts) -> random.Random:
    return random.Random(":".join(str(p) for p in (seed,) + parts))


class Files:
    """Writes the generated inputs of one set-up into its own directory."""

    def __init__(self, root: Path):
        self.root = root
        root.mkdir(parents=True, exist_ok=True)
        self.k3 = self.write("k3.txt", F.family_text([F.K3]))
        self.claw = self.write("claw.txt", F.family_text([F.CLAW]))

    def write(self, name: str, text: str) -> Path:
        path = self.root / name
        path.write_text(text)
        return path

    def graph(self, tag: str, inst: F.Instance) -> Path:
        return self.write(f"{tag}.gr", F.gr_text(inst))


def _solve(files, tag, inst, problem, via, extra=()) -> Op:
    path = files.graph(tag, inst)
    argv = ["solve", "--problem", problem, *extra]
    if via:
        argv += ["--via", via]
    return Op("", argv + [str(path)], inst, "solve", problem=problem)


def _decompose(files, tag, inst, cls, mode, k) -> Op:
    path = files.graph(tag, inst)
    out = files.root / f"{tag}.json"
    argv = ["decompose", "--class", cls, "--mode", mode, "--k", str(k), "--out", str(out), str(path)]
    return Op("", argv, inst, "decompose", out=out, mode=mode)


# -- templates: (label, builder(files, rng, tag) -> Op) ------------------------

Template = tuple[str, Callable[[Files, random.Random, str], Op]]


def _chain_templates() -> list[Template]:
    out: list[Template] = []
    # five sizes, so the median op falls inside the middle size class
    for p in (12, 16, 20, 24, 28):
        out += [
            (f"chain{p}/oct-dp", lambda fs, r, t, p=p: _solve(fs, t, F.chain(r, p), "oct", "dp")),
            (f"chain{p}/vc-dp", lambda fs, r, t, p=p: _solve(fs, t, F.chain(r, p), "vc", "dp")),
            (f"chain{p}/tw1", lambda fs, r, t, p=p: _decompose(fs, t, F.chain(r, p), "bip", "tw", 1)),
        ]
    return out


def _quotient_templates() -> list[Template]:
    out: list[Template] = []
    # q = p + 2 quotient vertices at k = 2: exact DPs up to p = 12, past the
    # 20/18 guards (heuristics) at p = 20 and 24
    for p in (6, 12, 20, 24):
        out += [
            (f"pendant{p}/oct-elim", lambda fs, r, t, p=p: _solve(fs, t, F.pendant(r, p), "oct", "elim")),
            (f"pendant{p}/oct-dp", lambda fs, r, t, p=p: _solve(fs, t, F.pendant(r, p), "oct", "dp")),
            (f"pendant{p}/ed2", lambda fs, r, t, p=p: _decompose(fs, t, F.pendant(r, p), "bip", "ed", 2)),
            (f"pendant{p}/tw2", lambda fs, r, t, p=p: _decompose(fs, t, F.pendant(r, p), "bip", "tw", 2)),
        ]
    for n in (24, 28, 32):
        out.append(
            (f"planted{n}/ed2", lambda fs, r, t, n=n: _decompose(fs, t, F.planted(r, n, n // 8), "bip", "ed", 2))
        )
    return out


def _klfree_templates() -> list[Template]:
    out: list[Template] = []
    # three sizes, so the median op falls inside the middle size class; at
    # n >= 16 single ops vary by several times between seeds
    for n in (10, 12, 14):
        t = n // 5

        def tri(r, n=n, t=t):
            return F.planted(r, n, t, avg_deg=2.0, triangles=True)

        out += [
            (f"k3free{n}/solve", lambda fs, r, tg, tri=tri: _solve(fs, tg, tri(r), "klfree", None, ("--l", "3"))),
            (f"k3free{n}/forbid-k3", lambda fs, r, tg, tri=tri: _decompose(fs, tg, tri(r), f"forbid:{fs.k3}", "ed", 1)),
            (f"k3free{n}/forbid-claw", lambda fs, r, tg, tri=tri: _decompose(fs, tg, tri(r), f"forbid:{fs.claw}", "ed", 1)),
        ]
    return out


TEMPLATES = {
    "chain": _chain_templates,
    "quotient": _quotient_templates,
    "klfree": _klfree_templates,
}


def cycle_maker(workload: str, seed: int, files: Files) -> Callable[[int], list[Op]]:
    """c -> the ops of cycle c of a generated workload."""
    templates = TEMPLATES[workload]()

    def make_cycle(c: int) -> list[Op]:
        ops = []
        for j, (label, make) in enumerate(templates):
            op = make(files, _rng(seed, workload, c, j), f"c{c}-{j}")
            op.label = label
            ops.append(op)
        return ops

    return make_cycle


class Schedule:
    """Cycles made at set-up, plus any a run needs beyond them, made on
    demand outside the timed ops, so a faster program still runs the whole
    time on distinct instances."""

    def __init__(self, make_cycle: Callable[[int], list[Op]], ahead: int):
        self.make_cycle = make_cycle
        self.cycles = [make_cycle(c) for c in range(ahead)]

    def __iter__(self):
        c = 0
        while True:
            if c == len(self.cycles):
                self.cycles.append(self.make_cycle(c))
            yield self.cycles[c]
            c += 1

    def ops(self) -> list[Op]:
        return [op for cycle in self.cycles for op in cycle]


# -- stored: decompositions written at set-up, read by the timed ops ---------

# (label, family builder, decompose mode, k, graphs stored, ops on each file).
# Cycle c uses graph c mod the count, so a run's figures do not hang on one
# drawn graph; random planted graphs vary most, so more of them are stored.
STORED_BASES = (
    ("chain30-tw1", lambda r: F.chain(r, 30), "tw", 1, 2, ("oct-dp", "vc-dp", "verify")),
    ("pendant24-tw2", lambda r: F.pendant(r, 24), "tw", 2, 2, ("oct-dp", "vc-dp")),
    ("pendant24-ed2", lambda r: F.pendant(r, 24), "ed", 2, 2, ("oct-elim", "vc-elim", "verify")),
    ("planted16-ed2", lambda r: F.planted(r, 16, 2), "ed", 2, 8, ("oct-elim",)),
)
# Nine ops a cycle: three below 6 ms, three near 15 ms (the median op falls in
# the middle of these), three above 25 ms.
# elim costs 3^depth: planted graphs are redrawn until their forest has
# exactly this depth, so every seed stores forests of the same depth
STORED_PLANTED_DEPTH = 5


def relabel(inst: F.Instance, doc: dict, perm: list[int]) -> tuple[F.Instance, dict]:
    """The same instance and decomposition with vertex v renamed perm[v]."""
    edges = sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in inst.edges)
    new = F.Instance(inst.name, inst.n, edges, oct=inst.oct, vc=inst.vc, k3=inst.k3)
    doc = dict(doc)
    doc["nodes"] = [dict(d, bag=sorted(perm[v] for v in d["bag"])) for d in doc["nodes"]]
    if "L" in doc:
        doc["L"] = sorted(perm[v] for v in doc["L"])
    return new, doc


def stored_bases(seed: int, files: Files, run_cli) -> list[tuple[str, list, tuple]]:
    """Write the decompositions with `decompose --out` and load them back:
    (label, [(instance, decomposition JSON), ...], op kinds).

    `run_cli(argv) -> exit code` runs one CLI command.  The promise must
    pass (exit 0); a planted graph whose forest depth is not
    STORED_PLANTED_DEPTH is replaced by the next seeded draw.
    """
    bases = []
    for b, (label, make, mode, k, count, kinds) in enumerate(STORED_BASES):
        graphs = []
        for attempt in range(1000):
            if len(graphs) == count:
                break
            inst = make(_rng(seed, "stored", b, attempt))
            op = _decompose(files, f"base{b}-{len(graphs)}", inst, "bip", mode, k)
            if run_cli(op.argv) != 0:
                continue
            doc = json.loads(op.out.read_text())
            if label.startswith("planted") and doc["depth"] != STORED_PLANTED_DEPTH:
                continue
            graphs.append((inst, doc))
        else:
            raise RuntimeError(f"too few stored graphs for {label} pass their promise")
        bases.append((label, graphs, kinds))
    return bases


def stored_cycle_maker(seed: int, files: Files, bases) -> Callable[[int], list[Op]]:
    """c -> the ops of cycle c: each base relabelled by a fresh permutation."""

    def make_cycle(c: int) -> list[Op]:
        ops = []
        for b, (label, graphs, kinds) in enumerate(bases):
            inst, doc = graphs[c % len(graphs)]
            for kind in kinds:
                r = _rng(seed, "stored-perm", c, b, kind)
                perm = list(range(inst.n))
                r.shuffle(perm)
                new, newdoc = relabel(inst, doc, perm)
                tag = f"c{c}-{b}-{kind}"
                path = files.graph(tag, new)
                dpath = files.write(f"{tag}.json", json.dumps(newdoc, sort_keys=True, separators=(",", ":")) + "\n")
                if kind == "verify":
                    op = Op("", ["verify", str(dpath), str(path)], new, "verify")
                else:
                    problem, via = kind.split("-")
                    argv = ["solve", "--problem", problem, "--via", via, "--decomp", str(dpath), str(path)]
                    op = Op("", argv, new, "solve", problem=problem)
                op.label = f"{label}/{kind}"
                ops.append(op)
        return ops

    return make_cycle


# -- probes of the known defects ---------------------------------------------


def build_probes(workload: str, seed: int, files: Files) -> list[Op]:
    probes = []
    if workload == "chain":
        inst = F.chain(_rng(seed, "probe", 0), 10, lengths=(3,))
        op = _decompose(files, "probe-tw2", inst, "bip", "tw", 2)
        op.label, op.expect_error = "chain10-triangles/tw2", "AssertionError"
        probes.append(op)
        inst = F.chain(_rng(seed, "probe", 1), 200)
        path = files.graph("probe-chain200", inst)
        dpath = files.write("probe-chain200.json", F.chain_tree_decomposition(inst))
        argv = ["solve", "--problem", "oct", "--via", "dp", "--decomp", str(dpath), str(path)]
        op = Op("chain200/oct-dp-stored", argv, inst, "solve", problem="oct")
        op.expect_error = "RecursionError"
        probes.append(op)
    elif workload == "quotient":
        for i, n in enumerate((30, 40, 50, 60)):
            inst = F.planted(_rng(seed, "probe", i), n, n // 8)
            op = _solve(files, f"probe-dp{n}", inst, "oct", "dp")
            op.label, op.expect_error = f"planted{n}/oct-dp", "AssertionError"
            probes.append(op)
    return probes
