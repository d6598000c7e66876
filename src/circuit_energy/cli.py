"""Command-line front end.

Exit codes: 0 on success, 1 when a checked inequality is violated (the
witness is printed), 2 on usage or input errors, 141 (128 + SIGPIPE) when
the reader of stdout goes away first.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .bounds import check_psens_bound, dt_from_patterns
from .corpus import (
    FULL,
    NONSKEW,
    SHAPES,
    SMOKE,
    GenSpec,
    check_neg_density,
    fixture,
    generate,
    generate_nonskew,
)
from .errors import ToolkitError
from .formulas import (
    decompose_gk,
    formula_stats,
    nonskew_energy_estimate,
    readonce_leafneg_energy,
)
from .ir import DecisionTree, as_formula, dt_depth_of, parse_fanin_mode, structural_stats
from .kw import make_instance, run_protocol
from .semantics import EVAL_CAP, _check_cap, energy_exhaustive, evaluate, firing_patterns
from .synth import compile_truth_table, dt_to_circuit, fanin2_reduce
from .textio import (
    parse_dtree,
    parse_netlist,
    parse_truth_table,
    serialize_dtree,
    serialize_netlist,
)


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load_circuit(arg: str, formula: bool = False):
    """A netlist path, '-' for stdin, or fixture:<name>."""
    if arg.startswith("fixture:"):
        c = fixture(arg[len("fixture:") :])
        return as_formula(c) if formula else c
    return parse_netlist(_read(arg), formula=formula)


def _bits(s: str) -> tuple[int, ...]:
    if not set(s) <= {"0", "1"}:
        raise ToolkitError(f"input {s!r} is not a 0/1 string")
    return tuple(int(ch) for ch in s)


def _bitstring(x) -> str:
    return "".join(str(int(b)) for b in x)


# --------------------------------------------------------------------------
# verbs


def _cmd_eval(args) -> int:
    c = _load_circuit(args.circuit)
    trace = evaluate(c, _bits(args.input))
    print(f"value={trace.value} energy={trace.energy}")
    return 0


def _cmd_energy(args) -> int:
    c = _load_circuit(args.circuit)
    rep = energy_exhaustive(c)
    print(f"EC={rep.ec} argmax={_bitstring(rep.argmax_input)}")
    return 0


def _cmd_patterns(args) -> int:
    c = _load_circuit(args.circuit)
    pats = firing_patterns(c)
    print(f"t={len(pats)}")
    for p in pats:
        print(_bitstring(p))
    return 0


def _cmd_compile_tt(args) -> int:
    f = parse_truth_table(_read(args.table))
    c = compile_truth_table(f)
    rep = energy_exhaustive(c)
    print(serialize_netlist(c, header=[f"EC={rep.ec} (bound {3 * f.num_vars - 1})"]))
    return 0


def _load_tree(arg: str) -> DecisionTree:
    """A decision tree that the sweeps after its compilation can take: its
    variable count is checked against EVAL_CAP before anything is built."""
    tree = parse_dtree(_read(arg))
    _check_cap(tree.num_vars, None, EVAL_CAP)
    return tree


def _cmd_dt2circuit(args) -> int:
    res = dt_to_circuit(_load_tree(args.tree))
    rep = energy_exhaustive(res.circuit)
    d = res.tree_depth
    print(
        serialize_netlist(
            res.circuit,
            header=[f"depth={d} EC={rep.ec} (bound {2 * d * d})"],
        )
    )
    return 0


def _cmd_fanin2(args) -> int:
    res = dt_to_circuit(_load_tree(args.tree))
    c2 = fanin2_reduce(res)
    rep = energy_exhaustive(c2)
    d = res.tree_depth
    print(
        serialize_netlist(
            c2,
            header=[f"depth={d} EC={rep.ec} (bound {2 * d * d * (d + 1)})"],
        )
    )
    return 0


def _cmd_psens_check(args) -> int:
    c = _load_circuit(args.circuit)
    rep = check_psens_bound(c)
    print(
        f"EC={rep.ec} psens={rep.psens} c={rep.fanin_bound} "
        f"holds={'yes' if rep.holds else 'no'} "
        f"witness={_bitstring(rep.witness_input)}"
    )
    return 0 if rep.holds else 1


def _cmd_extract_dt(args) -> int:
    c = _load_circuit(args.circuit)
    rep = dt_from_patterns(c)
    depth = dt_depth_of(rep.extracted_tree.root)
    budget = rep.max_fanin * rep.pattern_count
    print(
        f"size={rep.size} EC={rep.energy} patterns={rep.pattern_count} "
        f"maxFanin={rep.max_fanin} depth={depth} budget={budget}"
        + (f" DT={rep.dt_oracle}" if rep.dt_oracle is not None else "")
    )
    print(serialize_dtree(rep.extracted_tree))
    ok = depth <= budget and (rep.dt_oracle is None or rep.dt_oracle <= budget)
    return 0 if ok else 1


def _cmd_kw_run(args) -> int:
    c = _load_circuit(args.circuit)
    inst = make_instance(c, _bits(args.alice), _bits(args.bob))
    tr = run_protocol(inst)
    ec = evaluate(c, tr.minimized_input).energy
    bound = ec * tr.addr_bits
    print(
        f"result=x{tr.result} aliceBits={tr.alice_bits} bobBits={tr.bob_bits} "
        f"syncBits={tr.sync_bits} repairs={tr.repairs} "
        f"minimized={_bitstring(tr.minimized_input)} bound={bound}"
    )
    return 0 if tr.alice_bits <= bound else 1


def _cmd_fml_decompose(args) -> int:
    F = _load_circuit(args.formula, formula=True)
    dec = decompose_gk(F)
    st = structural_stats(F)
    budget = 5 * st.negs - 2 if st.negs else 1
    print(
        f"T={dec.block_count} budget={budget} L={F.leaves()} "
        f"L'={dec.f_prime.leaves()} skeleton={len(dec.skeleton_gates)}"
    )
    for lo, hi in dec.blocks:
        print(f"block g{lo}..g{hi}")
    print(serialize_netlist(dec.f_prime))
    return 0 if dec.block_count <= budget else 1


def _cmd_fml_stats(args) -> int:
    F = _load_circuit(args.formula, formula=True)
    st = formula_stats(F)
    print(
        f"L={st.leaves} size={st.size} depth={st.depth} negs={st.negs} "
        f"EC={st.ec} argmax={_bitstring(st.argmax_input)}"
    )
    if args.readonce:
        rep = readonce_leafneg_energy(F)
        print(f"readonce EC={rep.ec} equal={'yes' if rep.equal else 'no'}")
        return 0 if rep.equal else 1
    return 0


def _cmd_fml_nonskew(args) -> int:
    F = _load_circuit(args.formula, formula=True)
    stats = nonskew_energy_estimate(F, samples=args.samples, seed=args.seed)
    exact = (
        f" exactMean={stats.exact_mean:.4f}" if stats.exact_mean is not None else ""
    )
    print(
        f"t={stats.t} samples={stats.sample_count} "
        f"mean={stats.empirical_mean_energy:.4f} floor={stats.lower_envelope}"
        + exact
    )
    if stats.exact_energy_total is not None:
        ok = 4 * stats.exact_energy_total >= stats.t * (1 << F.num_vars)
        return 0 if ok else 1
    return 0


def _cmd_gen(args) -> int:
    # checked for every shape, NONSKEW too, though it reads neither
    fanin_mode = parse_fanin_mode(args.fanin)
    check_neg_density(args.neg_density)
    if args.shape == NONSKEW:
        F = generate_nonskew(args.seed, args.num_vars, args.size)
        header = [
            f"gen seed={args.seed} shape=NONSKEW num_vars={args.num_vars} "
            f"leaves={args.size}"
        ]
        print(serialize_netlist(F, header=header))
        return 0
    spec = GenSpec(
        seed=args.seed,
        num_vars=args.num_vars,
        size_budget=args.size,
        neg_density=args.neg_density,
        shape=args.shape,
        fanin_mode=fanin_mode,
    )
    obj = generate(spec)
    header = [
        f"gen seed={spec.seed} shape={spec.shape} num_vars={spec.num_vars} "
        f"size={spec.size_budget} neg_density={spec.neg_density} fanin={args.fanin}"
    ]
    if isinstance(obj, DecisionTree):
        print(f"# {header[0]}")
        print(serialize_dtree(obj))
    else:
        print(serialize_netlist(obj, header=header))
    return 0


def _cmd_verify_all(args) -> int:
    if args.cap_n is not None and args.cap_n < 1:
        # every check's smallest instance has n >= 1: such a cap skips them all
        raise ToolkitError(f"--cap-n must be >= 1, got {args.cap_n}")
    from . import verify  # the one verb that loads the checks

    only = args.only.split(",") if args.only else None
    if only:
        unknown = [cid for cid in only if cid not in verify.CHECKS]
        if unknown:
            raise ToolkitError(f"unknown check id(s): {', '.join(unknown)}")
    echo = (lambda line: None) if args.json else print
    report = verify.run_all(args.level, args.cap_n, only, report_line=echo)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        status = "all checks passed" if report.ok else "CHECK VIOLATIONS"
        skipped = sum(1 for c in report.checks if not c.instances_tried)
        if skipped:
            status += f" ({skipped} skipped: no instance tried)"
        print(f"{status} in {report.wall_time:.1f}s")
    return 0 if report.ok else 1


# --------------------------------------------------------------------------
# wiring


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cenergy",
        description="energy bounds for AND/OR/NOT circuits: constructions and checks",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def circ(sp, name="circuit"):
        sp.add_argument(name, help="netlist file, '-' for stdin, or fixture:<name>")

    sp = sub.add_parser("eval", help="evaluate a circuit on one input")
    circ(sp)
    sp.add_argument("--input", required=True, help="0/1 string, x0 first")
    sp.set_defaults(fn=_cmd_eval)

    sp = sub.add_parser("energy", help="exhaustive energy sweep")
    circ(sp)
    sp.set_defaults(fn=_cmd_energy)

    sp = sub.add_parser("patterns", help="distinct firing patterns over non-input gates")
    circ(sp)
    sp.set_defaults(fn=_cmd_patterns)

    sp = sub.add_parser("compile-tt", help="compile a truth table to a circuit")
    sp.add_argument("table", help="truth-table file or '-'")
    sp.set_defaults(fn=_cmd_compile_tt)

    sp = sub.add_parser("dt2circuit", help="compile a decision tree to a circuit")
    sp.add_argument("tree", help="decision-tree file or '-'")
    sp.set_defaults(fn=_cmd_dt2circuit)

    sp = sub.add_parser("fanin2", help="compile a decision tree and expand to fan-in 2")
    sp.add_argument("tree", help="decision-tree file or '-'")
    sp.set_defaults(fn=_cmd_fanin2)

    sp = sub.add_parser("psens-check", help="check (c+1)*EC >= psens")
    circ(sp)
    sp.set_defaults(fn=_cmd_psens_check)

    sp = sub.add_parser("extract-dt", help="decision tree from firing patterns")
    circ(sp)
    sp.set_defaults(fn=_cmd_extract_dt)

    sp = sub.add_parser("kw-run", help="run the separating-index game")
    circ(sp)
    sp.add_argument("--alice", required=True, help="Alice's input, f=1")
    sp.add_argument("--bob", required=True, help="Bob's input, f=0")
    sp.set_defaults(fn=_cmd_kw_run)

    sp = sub.add_parser("fml-decompose", help="negation-free block decomposition")
    circ(sp, "formula")
    sp.set_defaults(fn=_cmd_fml_decompose)

    sp = sub.add_parser("fml-stats", help="leaves, size, depth, negations, energy")
    circ(sp, "formula")
    sp.add_argument(
        "--readonce",
        action="store_true",
        help="also check the read-once leaf-negation exact value",
    )
    sp.set_defaults(fn=_cmd_fml_stats)

    sp = sub.add_parser("fml-nonskew", help="Monte-Carlo mean energy vs the t/4 floor")
    circ(sp, "formula")
    sp.add_argument("--samples", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=_cmd_fml_nonskew)

    sp = sub.add_parser("gen", help="deterministic seeded instance generator")
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--num-vars", type=int, required=True)
    sp.add_argument("--size", type=int, required=True, help="ops/leaves/depth budget")
    sp.add_argument("--neg-density", type=float, default=0.0)
    sp.add_argument("--shape", choices=[*SHAPES, NONSKEW], default="CIRCUIT")
    sp.add_argument("--fanin", default="FANIN2", help="FANIN2, UNBOUNDED, or BOUNDED:<c>")
    sp.set_defaults(fn=_cmd_gen)

    sp = sub.add_parser("verify-all", help="run the acceptance checks")
    sp.add_argument("--level", choices=[SMOKE, FULL], default=FULL)
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--cap-n", type=int, default=None)
    sp.add_argument("--only", default=None, help="comma-separated check ids")
    sp.set_defaults(fn=_cmd_verify_all)

    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader went away (`| head`): whatever is still buffered goes to
        # devnull, so the flush at interpreter exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
