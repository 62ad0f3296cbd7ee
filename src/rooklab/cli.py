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
import sys

import numpy as np

# what the millisecond commands (distance, reduce-3partition) run is imported
# here; report, oracles, automorphisms and json are imported by the handlers
# that use them, so a process pays to load them only when it runs them
from . import config, constructions, hardness, metrics
from .core import GraphSpec, format_vertex, indexed_graph, parse_vertex, write_edge_list
from .errors import CapExceededError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CAP = 2
EXIT_DISCREPANCY = 3

# `construct hamiltonian-cycle --out` formats this many rows per write, so the
# text of only one block is alive at a time
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


# the top-level commands, in the order the full parser lists them
COMMANDS = ("generate", "analyze", "construct", "distance", "aut", "reduce-3partition")


@functools.cache
def _build_parser(command: str | None = None) -> _Parser:
    """The parser for a command line whose first word is `command`, built
    once per command.  A parser for one of COMMANDS registers that command
    alone, so a call pays for its own subparsers only; None builds every
    command, for the top-level help and for a missing or unknown command.
    The one-command parser names all of COMMANDS in its subparsers' metavar,
    because its top-level errors (trailing junk) print the top-level usage
    line; the full parser leaves the metavar unset, since setting it would
    also rename 'argument command' in the invalid-choice and missing-command
    errors."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--enum-cap", type=int, default=None, help="vertex enumeration cap")
    common.add_argument("--eig-cap", type=int, default=None, help="dense eigensolver cap")
    common.add_argument(
        "--mask-limit", type=int, default=None, help="subset-DP limit on nonzero coordinates"
    )
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
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=_Parser, metavar=metavar
    )
    wanted = COMMANDS if command is None else (command,)

    if "generate" in wanted:
        p = spec_command(sub, "generate", _cmd_generate, help="write the canonical edge list")
        p.add_argument("--edges-out", default=None, help="output path (default stdout)")

    if "analyze" in wanted:
        from .report import ORACLE_QUANTITIES

        p = spec_command(sub, "analyze", _cmd_analyze, help="full invariant report")
        p.add_argument(
            "--oracle",
            default="none",
            help=f"'all', 'none', or comma list from {','.join(ORACLE_QUANTITIES)}",
        )
        p.add_argument("--json", default=None, help="also write the report as JSON to this path")

    if "construct" in wanted:
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

    if "distance" in wanted:
        p = spec_command(
            sub, "distance", _cmd_distance, ["csr"], "csr", help="CSR distance with witness"
        )
        p.add_argument("--from", dest="source", required=True, help="vertex as comma list")
        p.add_argument("--to", dest="target", required=True, help="vertex as comma list")

    if "aut" in wanted:
        p = sub.add_parser("aut", parents=[common], help="CSR automorphism group")
        p.add_argument("-m", type=int, required=True)
        p.add_argument("-n", type=int, required=True)
        p.add_argument("--count-only", action="store_true", help="skip the descriptor dump")
        p.add_argument("--oracle", action="store_true", help="independent backtracking count")
        p.set_defaults(func=_cmd_aut)

    if "reduce-3partition" in wanted:
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
    from . import report

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
    if args.json:  # before any output, so a path that cannot be written prints nothing
        import json

        with open(args.json, "w") as out:
            json.dump(result.to_json(), out, indent=2, sort_keys=True)
            out.write("\n")
    for line in result.to_lines():
        print(line)
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


def _exact_gamma(args) -> int | None:
    """The exact domination number from the oracle under --oracle, else None;
    run before any output, so a search over its cap prints nothing."""
    if not args.oracle:
        return None
    from . import oracles

    return oracles.oracle_gamma(_spec_from_args(args))[0]


def _cmd_dominating_set(args) -> int:
    if args.conjectured:
        if args.m != 3:
            raise ValueError("the conjectured diagonal set is defined for m=3 only")
        candidates, dominates = constructions.conjectured_dominating_set_sr3(
            args.n, cap=args.enum_cap
        )
        gamma = _exact_gamma(args)
        mismatch = gamma is not None and gamma != len(candidates)
        print(f"conjectured-dominating-set m=3 n={args.n} size={len(candidates)}")
        for v in candidates:
            print(f"vertex {format_vertex(v)}")
        print(f"verdict dominates={'yes' if dominates else 'no'}")
        if gamma is not None:
            print(f"oracle gamma={gamma} matches={'no' if mismatch else 'yes'}")
        return _strict_exit(args, mismatch or not dominates)

    size = len(constructions.dominating_set_sr(args.m, args.n, cap=args.enum_cap))
    spec = _spec_from_args(args)
    gamma = _exact_gamma(args)
    # the witness map doubles as the verification scan: each vertex's witness
    # must be a vertex of SR(m, n) in D, equal to it or differing in two places
    coords = indexed_graph(spec, args.enum_cap).coords
    w = constructions.equal_pair_dominators(coords)
    ok = (w >= 0).all(axis=1) & (w.sum(axis=1) == spec.n) & (w[:, 0] == w[:, 1])
    ok &= np.isin((w != coords).sum(axis=1), (0, 2))
    bad = int(np.count_nonzero(~ok))
    print(
        f"dominating-set m={args.m} n={args.n} size={size} "
        f"formula-size={constructions.equal_pair_size(args.m, args.n)} "
        f"upper-bound={constructions.equal_pair_bound(args.m, args.n)}"
    )
    print(f"verdict dominates={'yes' if bad == 0 else 'no'} witness-failures={bad}")
    if gamma is not None:
        print(f"oracle gamma={gamma} gap={size - gamma}")
    return _strict_exit(args, bad)


def _write_rows(out, rows: np.ndarray, top: int) -> None:
    """Write rows of integers in 0..top as comma-separated decimal lines, one
    block of CYCLE_BLOCK_ROWS rows per write.  Row v of a digit table holds
    the digits of v, right-aligned after NUL padding; a block is one uint8
    buffer of every cell's digits and separator, written with the NULs dropped."""
    width = len(str(top))
    digits = np.zeros((top + 1, width), np.uint8)
    for column in range(width):
        power = 10 ** (width - 1 - column)
        first = power if column < width - 1 else 0  # values below power have no digit here
        values = np.arange(first, top + 1, dtype=rows.dtype)  # in place: one temporary
        values //= power
        values %= 10
        values += ord("0")
        digits[first:, column] = values
    cells = np.empty((CYCLE_BLOCK_ROWS, rows.shape[1], width + 1), np.uint8)
    cells[:, :, width] = ord(",")
    cells[:, -1, width] = ord("\n")
    for start in range(0, len(rows), CYCLE_BLOCK_ROWS):
        block = rows[start : start + CYCLE_BLOCK_ROWS]
        text = cells[: len(block)]
        text[:, :, :width] = np.take(digits, block, axis=0)  # about 10x faster than digits[block]
        out.write(text[text != 0].tobytes().decode())


def _cmd_hamiltonian(args) -> int:
    from . import oracles

    cycle = constructions.hamiltonian_cycle_sr(args.m, args.n, cap=args.enum_cap)
    anchor = constructions.anchor_edge(args.m, args.n)
    reason = oracles.verify_cycle(_spec_from_args(args), cycle, anchor)
    if args.out:  # before any output, so a path that cannot be written prints nothing
        with open(args.out, "w") as out:
            _write_rows(out, cycle, args.n)
    print(
        f"hamiltonian-cycle m={args.m} n={args.n} length={len(cycle)} "
        f"anchor={format_vertex(anchor[0])};{format_vertex(anchor[1])}"
    )
    print("verdict valid=yes" if reason is None else f"verdict valid=no reason={reason}")
    if args.out:
        print(f"wrote cycle path={args.out}")
    if reason is not None:
        return EXIT_DISCREPANCY if args.strict else EXIT_USAGE
    return EXIT_OK


def _cmd_clique(args) -> int:
    kind, members = constructions.max_clique_csr(args.m, args.n)
    print(f"clique family=CSR m={args.m} n={args.n} kind={kind} size={len(members)}")
    for v in members:
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
    dist, blocks = metrics.csr_distance_witness(spec, source, target, args.mask_limit)
    print(
        f"distance family=CSR m={spec.m} n={spec.n} from={format_vertex(source)} "
        f"to={format_vertex(target)} value={dist}"
    )
    print(f"witness blocks={_format_blocks(blocks)} size={len(blocks)}")
    return EXIT_OK


def _cmd_aut(args) -> int:
    from . import automorphisms

    m, n = args.m, args.n
    order = automorphisms.group_order_formula(m, n)
    outside = automorphisms.outside_hypothesis(m, n)
    cap = config.enum_cap(args.enum_cap)
    if order > cap:  # the walk below visits every descriptor
        raise CapExceededError(
            f"CSR({m},{n}) has {order} automorphism descriptors, over the enumeration cap {cap}"
        )
    # the backtracking count before any output, so a search over its cap prints nothing
    oracle_count = automorphisms.oracle_aut_count(GraphSpec("CSR", m, n)) if args.oracle else None
    print(
        f"aut family=CSR m={m} n={n} formula-order={order} "
        f"outside-hypothesis={'yes' if outside else 'no'}"
    )
    count = 0
    for sigma, c, d in automorphisms.enumerate_group(m, n):
        count += 1
        if not args.count_only:
            perm = ",".join(str(s + 1) for s in sigma)
            print(f"descriptor sigma={perm} c={c} d={format_vertex(d)}")
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
    distance, blocks, decoded, solver = hardness.run_reduction(inst, args.mask_limit)
    agree = decoded == solver
    print(
        f"reduction k={inst.k} s={inst.s} family=CSR m={3 * inst.k} n={inst.s} "
        f"vertex={format_vertex(inst.values)}"
    )
    print(f"distance value={distance} target={2 * inst.k}")
    print(f"witness blocks={_format_blocks(blocks)} size={len(blocks)}")
    print(
        f"answer decoded={'yes' if decoded else 'no'} "
        f"solver={'yes' if solver else 'no'} agree={'yes' if agree else 'no'}"
    )
    return _strict_exit(args, not agree)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = _build_parser(command).parse_args(argv)
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
