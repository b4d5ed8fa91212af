"""Command-line front end: decompose, solve, verify, oracle.

Exit codes: 0 success, 1 parse/validation failure (and oracle size-guard
violations, reported as TOO LARGE), 2 promise-violation warning (the
decomposition is still written and structurally valid).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import functools
import os
import sys
from pathlib import Path

from .graphs import Graph, GraphClassSpec, is_member, parse_family, parse_gr
from .decomposition import (
    EliminationForest,
    TreeHDecomposition,
    build_ed_forest,
    build_tree_h_decomposition,
    from_json,
    to_json,
)
from .oracles import brute_abc, brute_ed, brute_min_deletion
from .separators import ImportantSeparatorQuery, enumerate_important_separators
from .solvers import (
    solution_block,
    solve_klfree_elim,
    solve_oct_dp,
    solve_oct_elim,
    solve_vc_dp,
    solve_vc_elim,
)


def _read(what: str, path: str, parse):
    """parse(the text of the file at path); a file that cannot be read,
    parsed, or held in memory raises `cannot read <what> <path>: <reason>`."""
    try:
        return parse(Path(path).read_text())
    except (OSError, ValueError, RecursionError, MemoryError) as e:
        raise ValueError(f"cannot read {what} {path}: {str(e) or type(e).__name__}")


def _write(what: str, path: str, text: str) -> None:
    """Write text to the file at path; a file that cannot be written raises
    `cannot write <what> <path>: <reason>`."""
    try:
        Path(path).write_text(text)
    except OSError as e:
        raise ValueError(f"cannot write {what} {path}: {str(e) or type(e).__name__}")


def _load_graph(path: str) -> Graph:
    return _read("graph", path, parse_gr)


def _parse_class(spec: str) -> GraphClassSpec:
    if spec == "bip":
        return GraphClassSpec.bipartite()
    if spec.startswith("forbid:"):
        path = spec[len("forbid:") :]
        return _read("family", path, lambda text: GraphClassSpec.forbidden(*parse_family(text)))
    raise ValueError(f"unknown class {spec!r} (use bip or forbid:<path>)")


def _parse_vertices(arg: str, n: int) -> frozenset[int]:
    """Comma-separated 1-based vertex list of an n-vertex graph; empty
    string means empty set."""
    if not arg:
        return frozenset()
    try:
        out = frozenset(int(x) - 1 for x in arg.split(","))
    except ValueError:
        raise ValueError(f"malformed vertex list {arg!r}")
    if any(v < 0 for v in out):
        raise ValueError("vertex ids are 1-based")
    if any(v >= n for v in out):
        raise ValueError(f"vertex id {max(out) + 1} exceeds the graph's {n} vertices")
    return out


def _dot(obj) -> str:
    if isinstance(obj, EliminationForest):
        nodes = [(node.bag, node.parent, node.leaf) for node in obj.nodes]
    else:
        nodes = [(bag, p, bool(bag & obj.L)) for p, bag in zip(obj.parents, obj.bags)]
    lines = ["digraph decomposition {"]
    for i, (bag, parent, boxed) in enumerate(nodes):
        label = ",".join(str(v + 1) for v in sorted(bag)) or "()"
        shape = "box" if boxed else "ellipse"
        lines.append(f'  n{i} [label="{label}" shape={shape}];')
        if parent >= 0:
            lines.append(f"  n{parent} -> n{i};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _decompose_one(path: str, cls: GraphClassSpec, mode: str, k: int):
    """Returns (message, decomposition, exit_code)."""
    g = _load_graph(path)
    if mode == "ed":
        res = build_ed_forest(g, k, cls)
        dec, what = res.forest, "forest"
    else:
        res = build_tree_h_decomposition(g, k, cls)
        dec, what = res.decomposition, "decomposition"
    errs = dec.validate(g)
    if errs:
        raise ValueError(f"internal: built {what} invalid: " + "; ".join(errs))
    message = f"DEPTH {dec.depth}" if mode == "ed" else f"WIDTH {dec.width}"
    return message, dec, 0 if res.promise_ok else 2


def cmd_decompose(args) -> int:
    if args.k < 0:
        raise ValueError("--k must be nonnegative")
    cls = _parse_class(args.cls)
    if args.batch:
        for given, what in ((args.out, "--out"), (args.dot, "--dot"), (args.graph, "a graph file")):
            if given:
                raise ValueError(f"{what} cannot be combined with --batch")
        files = sorted(Path(args.batch).glob("*.gr"))
        if not files:
            raise ValueError(f"no .gr files in {args.batch}")
        worst = 0
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=min(len(files), os.cpu_count() or 1)
        ) as pool:
            futures = {
                f.name: pool.submit(_decompose_one, str(f), cls, args.mode, args.k)
                for f in files
            }
            for name in sorted(futures):
                try:
                    message, _, code = futures[name].result()
                except ValueError as e:
                    print(f"{name}: ERROR {e}")
                    worst = max(worst, 1)
                    continue
                except Exception as e:  # one file's failure must not end the batch
                    print(f"{name}: ERROR internal: {type(e).__name__}: {e}")
                    worst = max(worst, 1)
                    continue
                print(f"{name}: {message}")
                worst = max(worst, code)
        return worst
    message, dec, code = _decompose_one(args.graph, cls, args.mode, args.k)
    if args.out:
        _write("decomposition", args.out, to_json(dec))
    if args.dot:
        _write("dot", args.dot, _dot(dec))
    print(message)
    if code == 2:
        print("warning: promise violated (quotient parameter exceeds k+1)", file=sys.stderr)
    return code


def _auto(g: Graph, cls: GraphClassSpec, build):
    """The result of `build(g, k, cls)` at the least k that passes the promise.

    At k = 0 every separator is empty, so a finder returns a whole component
    in H or nothing (the restricted finder returns nothing once the family
    is nonempty).  So every node of a component outside H is one vertex and
    the quotient is the component itself.  It holds an odd cycle or a K_l
    (l >= 2), so its treedepth and, for bipartite H, its treewidth exceed
    k + 1 = 1; the heuristic values only over-estimate, so they fail too.
    Hence k = 0 passes only when G is in H.  This holds for the classes solve
    uses: bipartite H in both modes and K_l-free H in ed mode.  It fails for
    forbidden classes in tw mode (a claw under claw-free has treewidth 1).
    """
    for k in range(0 if is_member(g, cls) else 1, g.n + 2):
        res = build(g, k, cls)
        if res.promise_ok:
            return res
    raise ValueError("auto mode failed to satisfy the promise check")


def _auto_forest(g: Graph, cls: GraphClassSpec) -> EliminationForest:
    return _auto(g, cls, build_ed_forest).forest


def _auto_nice(g: Graph, cls: GraphClassSpec) -> TreeHDecomposition:
    """The auto decomposition for the DP, which makes it nice."""
    return _auto(g, cls, build_tree_h_decomposition).decomposition


def cmd_solve(args) -> int:
    g = _load_graph(args.graph)
    if args.problem == "klfree":
        if not 2 <= args.l <= 5:
            raise ValueError("--l must be between 2 and 5")
        cls = GraphClassSpec.kl_free(args.l)
    else:
        cls = GraphClassSpec.bipartite()
    if args.via == "dp" and args.problem == "klfree":
        raise ValueError("klfree supports --via elim only")
    decomp = None
    if args.decomp != "auto":
        decomp = _read("decomposition", args.decomp, from_json)
        if decomp.cls != cls:
            raise ValueError("decomposition class does not match the problem")
    if args.via == "elim":
        if decomp is None:
            forest = _auto_forest(g, cls)
        elif isinstance(decomp, EliminationForest):
            forest = decomp
        else:
            raise ValueError("--via elim needs an elimination forest")
        if args.problem == "oct":
            x = solve_oct_elim(g, forest)
        elif args.problem == "vc":
            x = solve_vc_elim(g, forest)
        else:
            x = solve_klfree_elim(g, forest, args.l)
    else:
        if decomp is None:
            decomp = _auto_nice(g, cls)
        elif isinstance(decomp, EliminationForest):
            raise ValueError("--via dp needs a tree decomposition")
        _, x = (solve_oct_dp if args.problem == "oct" else solve_vc_dp)(g, decomp)
    sys.stdout.write(solution_block(args.problem, x))
    return 0


def cmd_verify(args) -> int:
    g = _load_graph(args.graph)
    obj = _read("decomposition", args.decomp, from_json)
    errs = obj.validate(g)
    if errs:
        for e in errs:
            print(e)
        return 1
    print("VALID")
    return 0


def cmd_oracle(args) -> int:
    g = _load_graph(args.graph)
    # the inputs are read before the oracles run, so that only the oracles'
    # own size guards answer TOO LARGE
    if args.what in ("deletion", "ed"):
        if args.cls is None:
            raise ValueError(f"--what {args.what} needs --class")
        cls = _parse_class(args.cls)
    elif args.what == "abc":
        if args.k < 0:
            raise ValueError("--k must be nonnegative")
        b1 = _parse_vertices(args.b1, g.n)
        b2 = _parse_vertices(args.b2, g.n)
    else:  # impsep
        q = ImportantSeparatorQuery(_parse_vertices(args.x, g.n), _parse_vertices(args.y, g.n), args.k)
    try:
        if args.what == "deletion":
            size, witness = brute_min_deletion(g, cls)
            sys.stdout.write(solution_block("deletion", witness))
        elif args.what == "ed":
            print(f"ED {brute_ed(g, cls)}")
        elif args.what == "abc":
            res = brute_abc(g, b1, b2, args.k)
            if res is None:
                print("NONE")
            else:
                sys.stdout.write(solution_block("abc", res))
        else:
            out: list[frozenset[int]] = []
            if g.n > 16:
                raise ValueError("graph too large for the oracle guard")
            enumerate_important_separators(q, g, out.append)
            print(f"IMPSEP {len(out)}")
            for s in sorted(out, key=sorted):
                print(" ".join(str(v + 1) for v in sorted(s)) or "-")
    except ValueError as e:
        if "guard" in str(e) or "too large" in str(e).lower():
            print("TOO LARGE", file=sys.stderr)
            return 1
        raise
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdecomp",
        description="elimination forests, tree decompositions with class base "
        "components, and vertex-deletion solvers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="build a decomposition")
    p.add_argument("--class", dest="cls", required=True, help="bip or forbid:<path>")
    p.add_argument("--mode", choices=("ed", "tw"), required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", help="write the decomposition JSON here")
    p.add_argument("--dot", help="write a DOT rendering here")
    p.add_argument("--batch", help="process every .gr file in this directory")
    p.add_argument("graph", nargs="?", help="input graph (.gr)")
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("solve", help="solve a deletion problem")
    p.add_argument("--problem", choices=("oct", "vc", "klfree"), required=True)
    p.add_argument("--l", type=int, default=3, help="clique size for klfree")
    p.add_argument("--via", choices=("elim", "dp"), default="elim")
    p.add_argument("--decomp", default="auto", help="decomposition JSON or 'auto'")
    p.add_argument("graph")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("verify", help="validate a decomposition against a graph")
    p.add_argument("decomp", help="decomposition JSON")
    p.add_argument("graph")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser(
        "oracle",
        help="brute-force ground truth; impsep lists the library enumerator's "
        "separators (n <= 16), not a brute force",
    )
    p.add_argument("--what", choices=("deletion", "ed", "abc", "impsep"), required=True)
    p.add_argument("--class", dest="cls", help="bip or forbid:<path>")
    p.add_argument("--b1", default="", help="comma-separated 1-based vertices")
    p.add_argument("--b2", default="", help="comma-separated 1-based vertices")
    p.add_argument("--x", default="", help="comma-separated 1-based vertices")
    p.add_argument("--y", default="", help="comma-separated 1-based vertices")
    p.add_argument("--k", type=int, default=0)
    p.add_argument("graph")
    p.set_defaults(fn=cmd_oracle)
    return parser


#: the parser, built by the first `main` call and reused by later ones (a
#: fresh one costs about 1 ms, as much as a small op)
_parser = functools.cache(_build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    try:
        if args.command == "decompose" and not args.batch and not args.graph:
            raise ValueError("a graph file is required outside --batch mode")
        return args.fn(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
