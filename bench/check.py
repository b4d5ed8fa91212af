"""Answer checker: every op's output against the instance's known optimum.

Feasibility is checked here from scratch (bipartite by BFS, triangle-free,
edge cover).  Optimal sizes come from the generator's construction, which
test_families.py checks against the brute-force oracles on small members of
every family.  Written decompositions are re-read with
`from_json` and validated against the graph, and the printed DEPTH/WIDTH
must match them.
"""

from __future__ import annotations

from collections import deque

from hdecomp.decomposition import EliminationForest, from_json
from hdecomp.graphs import Graph


def _bipartite_after(n: int, edges, removed: set[int]) -> bool:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        if u not in removed and v not in removed:
            adj[u].append(v)
            adj[v].append(u)
    color = [-1] * n
    for s in range(n):
        if s in removed or color[s] >= 0:
            continue
        color[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if color[v] < 0:
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    return False
    return True


def _triangle_free_after(n: int, edges, removed: set[int]) -> bool:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        if u not in removed and v not in removed:
            adj[u].add(v)
            adj[v].add(u)
    return not any(adj[u] & adj[v] for u, v in edges if u not in removed and v not in removed)


def _optimum(inst, problem: str) -> int:
    value = {"oct": inst.oct, "vc": inst.vc, "klfree": inst.k3}[problem]
    if value is None:
        raise ValueError(f"no reference optimum for {problem} on {inst.name}")
    return value


def check_solve(op, stdout: str) -> str | None:
    """None when the SOLUTION block is feasible and optimal, else the reason."""
    lines = stdout.split()
    if len(lines) < 3 or lines[0] != "SOLUTION" or lines[1] != op.problem:
        return "malformed SOLUTION header"
    size = int(lines[2])
    xs = [int(v) - 1 for v in lines[3:]]
    x = set(xs)
    if len(xs) != size or len(x) != size or any(not 0 <= v < op.inst.n for v in x):
        return "SOLUTION size disagrees with its vertex list"
    edges = op.inst.edges
    if op.problem == "oct":
        feasible = _bipartite_after(op.inst.n, edges, x)
    elif op.problem == "vc":
        feasible = all(u in x or v in x for u, v in edges)
    else:
        feasible = _triangle_free_after(op.inst.n, edges, x)
    if not feasible:
        return f"{op.problem} solution is infeasible"
    best = _optimum(op.inst, op.problem)
    if size != best:
        return f"{op.problem} solution has size {size}, optimum is {best}"
    return None


def check_decompose(op, stdout: str) -> str | None:
    """None when the written decomposition validates and matches the output."""
    obj = from_json(op.out.read_text())
    errs = obj.validate(Graph(op.inst.n, op.inst.edges))
    if errs:
        return "written decomposition invalid: " + "; ".join(errs[:3])
    if op.mode == "ed":
        if not isinstance(obj, EliminationForest):
            return "ed mode wrote no elimination forest"
        want = f"DEPTH {obj.depth}"
    else:
        if isinstance(obj, EliminationForest):
            return "tw mode wrote an elimination forest"
        want = f"WIDTH {obj.width}"
    if stdout.strip() != want:
        return f"printed {stdout.strip()!r}, the file says {want!r}"
    return None


def exit_ok(op, code) -> bool:
    """Exit 2 (promise violated) is a valid outcome of decompose only."""
    return code == 0 or (code == 2 and op.kind == "decompose")


def check(op, stdout: str) -> str | None:
    """The reason the op's answer is wrong, or None."""
    if op.kind == "decompose":
        return check_decompose(op, stdout)
    if op.kind == "verify":
        return None if stdout.strip() == "VALID" else f"verify printed {stdout.strip()[:60]!r}"
    return check_solve(op, stdout)
