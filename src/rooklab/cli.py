"""Command-line surface: generate graphs, run constructions with their
verification verdicts, compute distances, enumerate automorphisms, and run
the 3-Partition reduction.

Exit codes: 0 success; 1 usage or parameter errors (including requests for
objects that do not exist, like a Hamiltonian cycle of SR(2,1)); 2 when a
desk-scale cap is exceeded; 3 when --strict is set and a discrepancy
between a closed-form claim and a verification scan or oracle surfaced.

Output is line-delimited `key=value` records; every invocation with the
same arguments produces byte-identical output.  Coordinate positions in
human-facing partition blocks are numbered from 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import automorphisms, config, constructions, hardness, metrics, oracles, report
from .core import GraphSpec, format_vertex, indexed_graph, parse_vertex, write_edge_list
from .errors import CapExceededError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CAP = 2
EXIT_DISCREPANCY = 3

# `construct hamiltonian-cycle --out` formats this many rows per write, so the
# Python ints and text of only one block are alive at a time
CYCLE_BLOCK_ROWS = 4096


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _strict_exit(args, discrepancy) -> int:
    """EXIT_DISCREPANCY when a discrepancy surfaced under --strict, else EXIT_OK."""
    return EXIT_DISCREPANCY if args.strict and discrepancy else EXIT_OK


def _spec_from_args(args) -> GraphSpec:
    return GraphSpec(args.family.upper(), args.m, args.n)


def _format_blocks(blocks) -> str:
    return ",".join("{" + ",".join(str(i + 1) for i in block) + "}" for block in blocks)


@functools.cache  # built on the first call to main, not at import
def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--enum-cap", type=int, default=None, help="vertex enumeration cap")
    common.add_argument("--eig-cap", type=int, default=None, help="dense eigensolver cap")
    common.add_argument("--mask-limit", type=int, default=None, help="subset-DP coordinate limit")
    common.add_argument("--tol", type=float, default=None, help="spectral tolerance")
    common.add_argument(
        "--strict", action="store_true", help="exit 3 when a discrepancy is found"
    )

    def spec_command(sub, name, func, choices=("sr", "csr"), default=None, **kwargs):
        """A subcommand with --family (required unless it has a default), -m and -n."""
        p = sub.add_parser(name, parents=[common], **kwargs)
        p.add_argument("--family", required=default is None, default=default, choices=choices)
        p.add_argument("-m", type=int, required=True)
        p.add_argument("-n", type=int, required=True)
        p.set_defaults(func=func)
        return p

    parser = _Parser(prog="rooklab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = spec_command(sub, "generate", _cmd_generate, help="write the canonical edge list")
    p.add_argument("--edges-out", default=None, help="output path (default stdout)")

    p = spec_command(sub, "analyze", _cmd_analyze, help="full invariant report")
    p.add_argument(
        "--oracle",
        default="none",
        help="'all', 'none', or comma list from alpha,gamma,omega,chi,diameter",
    )
    p.add_argument("--json", default=None, help="also write the report as JSON to this path")

    build = sub.add_parser("construct", help="run one construction with verification")
    what = build.add_subparsers(dest="what", required=True, parser_class=_Parser)

    p = spec_command(what, "independent-set", _cmd_independent_set)
    p.add_argument("--prime", type=int, default=None)

    p = spec_command(what, "dominating-set", _cmd_dominating_set, ["sr"], "sr")
    p.add_argument("--conjectured", action="store_true", help="the diagonal m=3 candidate set")
    p.add_argument("--oracle", action="store_true", help="compare against exact gamma")

    p = spec_command(what, "hamiltonian-cycle", _cmd_hamiltonian, ["sr"], "sr")
    p.add_argument("--out", default=None, help="write the cycle, one vertex per line")

    spec_command(what, "clique", _cmd_clique, ["csr"], "csr")

    p = spec_command(what, "coloring", _cmd_coloring)
    p.add_argument("--prime", type=int, default=None)

    p = spec_command(
        sub, "distance", _cmd_distance, ["csr"], "csr", help="CSR distance with witness"
    )
    p.add_argument("--from", dest="source", required=True, help="vertex as comma list")
    p.add_argument("--to", dest="target", required=True, help="vertex as comma list")

    p = sub.add_parser("aut", parents=[common], help="CSR automorphism group")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--count-only", action="store_true", help="skip the descriptor dump")
    p.add_argument("--oracle", action="store_true", help="independent backtracking count")
    p.set_defaults(func=_cmd_aut)

    p = sub.add_parser("reduce-3partition", parents=[common], help="3-Partition via distance")
    p.add_argument("--instance", required=True, help="instance file: 'k s' then 3k values")
    p.set_defaults(func=_cmd_reduce)

    return parser


def _cmd_generate(args) -> int:
    spec = _spec_from_args(args)
    if args.edges_out:
        with open(args.edges_out, "w") as out:
            count = write_edge_list(spec, out, args.enum_cap)
        print(f"wrote edges={count} path={args.edges_out}")
    else:
        write_edge_list(spec, sys.stdout, args.enum_cap)
    return EXIT_OK


def _cmd_analyze(args) -> int:
    spec = _spec_from_args(args)
    names = report.parse_oracle_selection(args.oracle)
    result = report.build_report(
        spec,
        names,
        enum_cap=args.enum_cap,
        eig_cap=args.eig_cap,
        mask_cap=args.mask_limit,
        tolerance=args.tol,
    )
    for line in result.to_lines():
        print(line)
    if args.json:
        with open(args.json, "w") as out:
            json.dump(result.to_json(), out, indent=2, sort_keys=True)
            out.write("\n")
    return _strict_exit(args, result.has_discrepancy)


def _cmd_independent_set(args) -> int:
    spec = _spec_from_args(args)
    family = constructions.residue_independent_family(spec, args.prime, args.enum_cap)
    cap = config.enum_cap(args.enum_cap)
    if family.p > cap:  # one line per class below
        raise CapExceededError(
            f"p={family.p} is over the enumeration cap {cap} (one line per residue class)"
        )
    print(f"residue-family family={spec.family} m={spec.m} n={spec.n} p={family.p}")
    for t, ok in enumerate(family.independent):
        print(f"class index={t} size={family.sizes.get(t, 0)} independent={'yes' if ok else 'no'}")
    print(f"best index={family.best_index} size={family.best_size}")
    for v in family.members(family.best_index):
        print(f"vertex {format_vertex(v)}")
    failures = len(family.clashes)
    print(f"verdict proper-partition={'yes' if failures == 0 else 'no'} failing-classes={failures}")
    return _strict_exit(args, failures)


def _cmd_dominating_set(args) -> int:
    if args.conjectured:
        if args.m != 3:
            raise ValueError("the conjectured diagonal set is defined for m=3 only")
        result = constructions.conjectured_dominating_set_sr3(args.n, cap=args.enum_cap)
        # exact gamma before any output, so a search over its cap prints nothing
        gamma = oracles.oracle_gamma(_spec_from_args(args))[0] if args.oracle else None
        mismatch = gamma is not None and gamma != result.size
        print(f"conjectured-dominating-set m=3 n={args.n} size={result.size}")
        for v in result.vertices:
            print(f"vertex {format_vertex(v)}")
        print(f"verdict dominates={'yes' if result.dominates else 'no'}")
        if gamma is not None:
            print(f"oracle gamma={gamma} matches={'no' if mismatch else 'yes'}")
        return _strict_exit(args, mismatch or not result.dominates)

    dom = constructions.dominating_set_sr(args.m, args.n, cap=args.enum_cap)
    spec = dom.spec
    gamma = oracles.oracle_gamma(spec)[0] if args.oracle else None  # before any output
    # the witness map doubles as the verification scan: each vertex's witness
    # must be a vertex of SR(m, n) in D, equal to it or differing in two places
    coords = indexed_graph(spec, args.enum_cap).coords
    w = dom.witness(coords)
    ok = (w >= 0).all(axis=1) & (w.sum(axis=1) == spec.n) & (w[:, 0] == w[:, 1])
    ok &= np.isin((w != coords).sum(axis=1), (0, 2))
    bad = int(np.count_nonzero(~ok))
    print(
        f"dominating-set m={args.m} n={args.n} size={dom.size} "
        f"formula-size={dom.predicted_size()} upper-bound={dom.size_upper_bound()}"
    )
    print(f"verdict dominates={'yes' if bad == 0 else 'no'} witness-failures={bad}")
    if gamma is not None:
        print(f"oracle gamma={gamma} gap={dom.size - gamma}")
    return _strict_exit(args, bad)


def _cmd_hamiltonian(args) -> int:
    cycle = constructions.hamiltonian_cycle_sr(args.m, args.n, cap=args.enum_cap)
    anchor = constructions.anchor_edge(args.m, args.n)
    verdict = oracles.verify_cycle(_spec_from_args(args), cycle, anchor)
    print(
        f"hamiltonian-cycle m={args.m} n={args.n} length={len(cycle)} "
        f"anchor={format_vertex(anchor[0])};{format_vertex(anchor[1])}"
    )
    print(f"verdict valid={'yes' if verdict.valid else 'no'}"
          + (f" reason={verdict.reason}" if verdict.reason else ""))
    if args.out:
        line = ",".join(["%d"] * args.m) + "\n"
        with open(args.out, "w") as out:
            for start in range(0, len(cycle), CYCLE_BLOCK_ROWS):
                block = cycle[start : start + CYCLE_BLOCK_ROWS]
                out.write(line * len(block) % tuple(block.ravel().tolist()))
        print(f"wrote cycle path={args.out}")
    if not verdict.valid:
        return EXIT_DISCREPANCY if args.strict else EXIT_USAGE
    return EXIT_OK


def _cmd_clique(args) -> int:
    clique = constructions.max_clique_csr(args.m, args.n)
    print(f"clique family=CSR m={args.m} n={args.n} kind={clique.kind} size={clique.size}")
    for v in clique.vertices:
        print(f"vertex {format_vertex(v)}")
    print("verdict pairwise-adjacent=yes")
    return EXIT_OK


def _cmd_coloring(args) -> int:
    spec = _spec_from_args(args)
    result = constructions.proper_coloring(spec, args.prime, args.enum_cap)
    print(
        f"coloring family={spec.family} m={spec.m} n={spec.n} p={result.p} "
        f"colors-used={result.colors_used}"
    )
    print(
        f"verdict proper={'yes' if result.proper else 'no'} violations={result.violations}"
        + result.first_text()
    )
    return _strict_exit(args, not result.proper)


def _cmd_distance(args) -> int:
    spec = _spec_from_args(args)
    source = parse_vertex(args.source)
    target = parse_vertex(args.target)
    dist, witness = metrics.csr_distance_witness(spec, source, target, args.mask_limit)
    print(
        f"distance family=CSR m={spec.m} n={spec.n} from={format_vertex(source)} "
        f"to={format_vertex(target)} value={dist}"
    )
    print(f"witness blocks={_format_blocks(witness.blocks)} size={witness.size}")
    return EXIT_OK


def _cmd_aut(args) -> int:
    m, n = args.m, args.n
    order = automorphisms.group_order_formula(m, n)
    outside = automorphisms.outside_hypothesis(m, n)
    # the backtracking count before any output, so a search over its cap prints nothing
    oracle_count = automorphisms.oracle_aut_count(GraphSpec("CSR", m, n)) if args.oracle else None
    print(
        f"aut family=CSR m={m} n={n} formula-order={order} "
        f"outside-hypothesis={'yes' if outside else 'no'}"
    )
    count = 0
    for desc in automorphisms.enumerate_group(m, n):
        count += 1
        if not args.count_only:
            sigma = ",".join(str(s + 1) for s in desc.sigma)
            print(f"descriptor sigma={sigma} c={desc.c} d={format_vertex(desc.d)}")
    print(f"enumerated count={count} matches-formula={'yes' if count == order else 'no'}")
    if oracle_count is not None:
        agree = oracle_count == order
        print(f"oracle count={oracle_count} matches-formula={'yes' if agree else 'no'}")
        # outside the hypothesis the parametrized maps need not exhaust the
        # group, so a mismatch there is documentation, not a discrepancy
        if not agree and not outside:
            print("problem detail=oracle disagrees with formula inside its hypothesis")
            return _strict_exit(args, True)
    return EXIT_OK


def _cmd_reduce(args) -> int:
    with open(args.instance) as infile:
        inst = hardness.read_instance(infile)
    result = hardness.run_reduction(inst, args.mask_limit)
    print(
        f"reduction k={inst.k} s={inst.s} family=CSR m={result.spec.m} n={result.spec.n} "
        f"vertex={format_vertex(result.vertex)}"
    )
    print(f"distance value={result.distance} target={2 * inst.k}")
    print(f"witness blocks={_format_blocks(result.witness.blocks)} size={result.witness.size}")
    print(
        f"answer decoded={'yes' if result.decoded else 'no'} "
        f"solver={'yes' if result.solver_answer else 'no'} "
        f"agree={'yes' if result.agree else 'no'}"
    )
    return _strict_exit(args, not result.agree)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    flags = (
        (config.enum_cap, args.enum_cap),
        (config.eig_cap, args.eig_cap),
        (config.mask_limit, args.mask_limit),
        (config.tol, args.tol),
    )
    try:
        for read, value in flags:  # every given flag, whether or not the command reads it
            if value is not None:
                read(value)
        return args.func(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
