import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from circuit_energy import TruthTable, bounds, cli, energy_moments, verify
from circuit_energy.bounds import check_psens_bound, dt_from_patterns
from circuit_energy.cli import main
from circuit_energy.corpus import (
    CIRCUIT,
    DTREE,
    FORMULA,
    MONOTONE,
    NONSKEW,
    READONCE_LEAFNEG,
    SHAPES,
    GenSpec,
    generate,
    generate_nonskew,
)
from circuit_energy.formulas import SAMPLE_CAP
from circuit_energy.ir import AND, INPUT, NOT, UNBOUNDED, Circuit, DecisionTree, Gate, dt_depth_of, restrict
from circuit_energy.kw import make_instance, run_protocol
from circuit_energy.semantics import (
    energy_exhaustive,
    evaluate,
    firing_patterns,
    is_monotone,
    truth_table,
)
from circuit_energy.synth import DtCompileResult
from circuit_energy.textio import parse_netlist, serialize_dtree, serialize_netlist

OR2 = "INPUT x0\nINPUT x1\ng = OR x0 x1\nOUTPUT g\n"


@pytest.fixture
def or2_path(tmp_path):
    p = tmp_path / "or2.cir"
    p.write_text(OR2)
    return str(p)


def test_eval(or2_path, capsys):
    assert main(["eval", or2_path, "--input", "10"]) == 0
    assert capsys.readouterr().out.strip() == "value=1 energy=1"


def test_energy_output_format(or2_path, capsys):
    assert main(["energy", or2_path]) == 0
    assert capsys.readouterr().out.strip() == "EC=1 argmax=10"


def test_energy_on_fixture(capsys):
    assert main(["energy", "fixture:and_tree(4)"]) == 0
    assert capsys.readouterr().out.strip() == "EC=3 argmax=1111"


def test_patterns(or2_path, capsys):
    assert main(["patterns", or2_path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "t=2"
    assert sorted(lines[1:]) == ["0", "1"]


def _or_chain(tmp_path, n, ors):
    """n inputs and a chain of ``ors`` ORs that all fire once x0 or x1 does."""
    lines = [f"INPUT x{i}" for i in range(n)] + ["o0 = OR x0 x1"]
    lines += [f"o{k} = OR o{k - 1} x{(k + 1) % n}" for k in range(1, ors)]
    path = tmp_path / "chain.cir"
    path.write_text("\n".join(lines) + f"\nOUTPUT o{ors - 1}\n")
    return str(path)


def test_energy_streams_over_blocks(tmp_path, capsys):
    # whole-width masks would take 3 000 x 256 KB
    assert main(["energy", _or_chain(tmp_path, 21, 3000)]) == 0
    assert capsys.readouterr().out.strip() == "EC=3000 argmax=1" + "0" * 20


def test_patterns_prices_its_masks_first(tmp_path, capsys):
    # 3 024 masks of 2 MB: refused before any is built
    assert main(["patterns", _or_chain(tmp_path, 24, 3000)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_extract_dt_prices_its_masks_before_the_sweep(tmp_path, capsys, monkeypatch):
    def sweep(*args, **kwargs):
        raise AssertionError("the energy sweep ran before the masks were priced")

    monkeypatch.setattr(bounds, "energy_exhaustive", sweep)
    assert main(["extract-dt", _or_chain(tmp_path, 24, 3000)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "MB budget" in err and err.count("\n") == 1


@pytest.mark.parametrize("name", ["parity30_dnf", "addr(24)", "cascade_tap(24,0)"])
def test_oversized_fixture_is_refused_before_building(name, capsys):
    assert main(["energy", f"fixture:{name}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "gates" in err and err.count("\n") == 1


def test_bad_input_is_a_usage_error(or2_path, capsys):
    assert main(["eval", or2_path, "--input", "2x"]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_file_is_a_usage_error(capsys):
    assert main(["energy", "/nonexistent/file.cir"]) == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_fixture_is_a_usage_error(capsys):
    assert main(["energy", "fixture:bogus"]) == 2


def test_compile_tt_roundtrip(tmp_path, capsys, monkeypatch):
    table = tmp_path / "xor2.tt"
    table.write_text("n=2\n0110\n")
    assert main(["compile-tt", str(table)]) == 0
    netlist = capsys.readouterr().out
    assert "EC=4" in netlist
    # feed the emitted netlist back through stdin
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(netlist))
    assert main(["energy", "-"]) == 0
    assert capsys.readouterr().out.strip().startswith("EC=4 ")


def test_dt2circuit_and_fanin2(tmp_path, capsys):
    tree = tmp_path / "t.dt"
    tree.write_text("(x0 (x1 0 1) (x1 1 0))\n")
    assert main(["dt2circuit", str(tree)]) == 0
    out = capsys.readouterr().out
    assert "depth=2" in out and "bound 8" in out
    assert main(["fanin2", str(tree)]) == 0
    out = capsys.readouterr().out
    assert "bound 24" in out


def test_psens_check(capsys):
    assert main(["psens-check", "fixture:and_tree(4)"]) == 0
    out = capsys.readouterr().out
    assert "psens=4" in out and "holds=yes" in out


_WIDE_INPUTS = "".join(f"INPUT x{i}\n" for i in range(20))


@pytest.mark.parametrize("body, line", [
    # the output reads x0..x3 and x19: the witness sits in the top block
    ("a = AND x0 x1\nb = AND x2 x3\nc = AND a b\nn = NOT x19\nd = OR b n\no = AND c d x19\n",
     "EC=5 psens=5 c=3 holds=yes witness=11110000000000000001"),
    # gates read x16..x19, but the output reads none of them
    ("h = AND x16 x17\nk = OR x18 x19\ng = AND h k\na = AND x0 x1\nb = OR x2 x3\no = AND a b\n",
     "EC=6 psens=3 c=2 holds=yes witness=11100000000000000000"),
])
def test_psens_check_above_two_to_the_16_inputs(body, line, tmp_path, capsys):
    path = tmp_path / "wide.cir"
    path.write_text(serialize_netlist(parse_netlist(_WIDE_INPUTS + body + "OUTPUT o\n")))
    assert main(["psens-check", str(path)]) == 0
    assert capsys.readouterr().out == line + "\n"


def test_extract_dt(or2_path, capsys):
    assert main(["extract-dt", or2_path]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("size=1 EC=1 patterns=2")
    assert out[1] == "(x0 (x1 0 1) (x1 1 1))"


def test_kw_run(or2_path, capsys):
    assert main(["kw-run", or2_path, "--alice", "11", "--bob", "00"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == (
        "result=x0 aliceBits=1 bobBits=1 syncBits=0 repairs=0 "
        "minimized=10 bound=1"
    )


def test_kw_run_rejects_nonmonotone(tmp_path, capsys):
    p = tmp_path / "not.cir"
    p.write_text("INPUT x0\ng = NOT x0\nOUTPUT g\n")
    assert main(["kw-run", str(p), "--alice", "0", "--bob", "1"]) == 2


def test_fml_verbs(tmp_path, capsys):
    p = tmp_path / "f.cir"
    p.write_text(
        "INPUT x0\nINPUT x1\nn = NOT x0\ng = OR n x1\nOUTPUT g\n"
    )
    assert main(["fml-decompose", str(p)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("T=3 budget=3 L=2 L'=3 skeleton=3")
    assert "block g0..g2" in out

    assert main(["fml-stats", str(p)]) == 0
    assert capsys.readouterr().out.startswith("L=2 size=2 depth=2 negs=1 EC=2")


def test_fml_stats_readonce(tmp_path, capsys):
    p = tmp_path / "ro.cir"
    p.write_text("INPUT x0\nINPUT x1\nn = NOT x1\ng = AND x0 n\nOUTPUT g\n")
    assert main(["fml-stats", str(p), "--readonce"]) == 0
    assert "readonce EC=1 equal=yes" in capsys.readouterr().out


def test_fml_nonskew(tmp_path, capsys):
    p = tmp_path / "ns.cir"
    p.write_text(
        "INPUT x0\nINPUT x1\nINPUT x2\nINPUT x3\n"
        "a = OR x0 x1\nb = OR x2 x3\ng = AND a b\nOUTPUT g\n"
    )
    assert main(["fml-nonskew", str(p), "--samples", "200", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "t=2" in out and "floor=0.5" in out and "exactMean=2.0625" in out


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_fml_nonskew_needs_a_sample(samples, capsys):
    assert main(["fml-nonskew", "fixture:and_tree(4)", "--samples", samples]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "samples" in err and err.count("\n") == 1


def test_fml_nonskew_checks_the_floor_above_twelve_inputs(capsys):
    assert main(["fml-nonskew", "fixture:and_tree(16)", "--samples", "50"]) == 0
    assert "exactMean=" in capsys.readouterr().out


def test_gen_pipes_back_into_energy(capsys, monkeypatch):
    assert main(
        ["gen", "--seed", "11", "--num-vars", "4", "--size", "8",
         "--neg-density", "0.25", "--shape", "CIRCUIT"]
    ) == 0
    netlist = capsys.readouterr().out
    assert "# gen seed=11" in netlist

    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(netlist))
    assert main(["energy", "-"]) == 0
    assert capsys.readouterr().out.startswith("EC=")


def test_gen_dtree_emits_a_tree(capsys):
    assert main(
        ["gen", "--seed", "2", "--num-vars", "4", "--size", "3", "--shape", "DTREE"]
    ) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("# gen seed=2")
    assert out[1].startswith("(") or out[1] in ("0", "1")


def test_gen_nonskew_shape(capsys):
    assert main(
        ["gen", "--seed", "4", "--num-vars", "3", "--size", "6", "--shape", "NONSKEW"]
    ) == 0
    assert "shape=NONSKEW" in capsys.readouterr().out


GEN_FANIN = ["gen", "--seed", "1", "--num-vars", "3", "--size", "4", "--fanin"]


@pytest.mark.parametrize("fanin", ["BOUNDED:3", "BOUNDED(3)"])
def test_gen_bounded_fanin_spellings(fanin, capsys):
    assert main(GEN_FANIN + [fanin]) == 0
    netlist = capsys.readouterr().out
    fanins = [len(line.split()) - 3 for line in netlist.splitlines() if " = " in line]
    assert max(fanins) == 3


def test_gen_bad_fanin_is_a_usage_error(capsys):
    assert main(GEN_FANIN + ["BOUNDED:x"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "args",
    [
        ["--num-vars", "0", "--size", "3"],
        ["--num-vars", "0", "--size", "3", "--shape", "NONSKEW"],
        ["--num-vars", "-1", "--size", "3", "--shape", "NONSKEW"],
        ["--num-vars", "0", "--size", "3", "--shape", "FORMULA"],
        ["--num-vars", "-1", "--size", "3", "--shape", "FORMULA"],
        ["--num-vars", "3", "--size", "-2"],
        ["--num-vars", "3", "--size", "-2", "--shape", "DTREE"],
        ["--num-vars", "30000000", "--size", "3"],
        ["--num-vars", "30", "--size", "5000000"],
    ],
)
def test_gen_rejects_sizes_it_cannot_build(args, capsys):
    assert main(["gen", "--seed", "1", *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_gen_prices_a_dtree_at_its_full_depth(capsys):
    # the generator branches at three nodes in four, so n = size = 40 could
    # draw about 1.5^40 nodes; the full tree of depth 40 is priced first
    args = ["gen", "--seed", "2", "--num-vars", "40", "--size", "40", "--shape", "DTREE"]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: a full decision tree of depth 40 would build at least "
        "2199023255551 gates, over the 1048576 budget\n"
    )


def _child_env():
    """The environment of a fresh interpreter that imports this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_closed_stdout_is_not_a_crash():
    proc = subprocess.Popen(
        [sys.executable, "-m", "circuit_energy.cli", "patterns", "fixture:cascade_tap(10,0)"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(),
    )
    proc.stdout.read(10)
    proc.stdout.close()  # the reader goes away, as `| head -c 10` does
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 141
    assert "Traceback" not in err and "BrokenPipeError" not in err


def test_fml_decompose_takes_a_deep_chain(tmp_path, capsys):
    # 700 leaves under a 699-deep AND chain over NOT x0: 1 400 gates
    lines = [f"INPUT x{i}" for i in range(700)] + ["a0 = NOT x0"]
    lines += [f"a{k} = AND a{k - 1} x{k}" for k in range(1, 700)]
    path = tmp_path / "chain.cir"
    path.write_text("\n".join(lines) + "\nOUTPUT a699\n")
    assert main(["fml-decompose", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "T=3 budget=3 L=700 L'=1399 skeleton=3"


def _python_m(*args, stdin=""):
    """``python -m circuit_energy ARGS`` in a fresh interpreter."""
    return subprocess.run([sys.executable, "-m", "circuit_energy", *args], input=stdin,
                          capture_output=True, text=True, env=_child_env(), timeout=60)


def test_python_m_replays_a_witness():
    def cenergy(*args):
        done = _python_m(*args, stdin=OR2)
        assert done.returncode == 0 and not done.stderr, done.stderr
        return done.stdout.strip()

    assert cenergy("energy", "-") == "EC=1 argmax=10"
    assert cenergy("eval", "-", "--input", "10") == "value=1 energy=1"


@pytest.mark.parametrize("verb", ["dt2circuit", "fanin2"])
@pytest.mark.parametrize("depth", [600, 900, 1200])
def test_deep_chain_tree_exits_2(verb, depth):
    # (x0 (x1 ... (x{d-1} 0 1) ...) 1): a valid reduced tree as deep as it
    # has variables.  It parses, and its n is refused in one line before
    # anything is compiled.
    text = f"(x{depth - 1} 0 1)"
    for v in reversed(range(depth - 1)):
        text = f"(x{v} {text} 1)"
    done = _python_m(verb, "-", stdin=text + "\n")
    assert done.returncode == 2, done.stderr[-300:]
    assert done.stderr == f"error: n={depth} exceeds the enumeration cap 24\n"


def test_verify_all_single_check_smoke(capsys):
    rc = main(["verify-all", "--level", "smoke", "--only", "cascade-taps"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[PASS] cascade-taps:" in out
    assert "all checks passed" in out


def test_verify_all_rejects_unknown_check_id(capsys):
    rc = main(["verify-all", "--level", "smoke", "--only", "cascade-tapz"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "unknown check id" in err
    assert "cascade-tapz" in err


def test_verify_all_json(capsys):
    rc = main(
        ["verify-all", "--level", "smoke", "--only", "readonce-exact", "--json"]
    )
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["suite"] == "smoke"
    assert data["checks"][0]["check_id"] == "readonce-exact"
    assert data["checks"][0]["violations"] == 0


def test_verify_all_check_with_no_instance_is_skipped(capsys):
    rc = main(
        ["verify-all", "--level", "smoke", "--cap-n", "2", "--only", "compile-all-functions"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "[SKIP] compile-all-functions:" in out and "(0 instances" in out
    assert "[PASS]" not in out
    assert "1 skipped" in out


def test_verify_all_cap_n_applies_to_every_check(capsys):
    assert main(["verify-all", "--level", "smoke", "--cap-n", "0"]) == 0
    *lines, status = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [f"[SKIP] {c}" for c in verify.CHECKS]
    assert status.startswith(f"all checks passed ({len(verify.CHECKS)} skipped")


def test_verify_all_cap_n_drops_the_larger_trees(capsys):
    # the 302 reduced trees on 3 variables; the 50 seeded n = 8 trees go
    rc = main(["verify-all", "--level", "smoke", "--cap-n", "3", "--only", "tree-compile"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[PASS] tree-compile:" in out and "(302 instances," in out


def test_tree_checks_share_one_walk_and_one_compile_per_tree(monkeypatch):
    walks, compiles = [], []
    enumerate_trees, compile_tree = verify._all_reduced_trees, verify.dt_to_circuit

    def miscounted(num_vars, depth):
        walks.append((num_vars, depth))
        trees, expected, cache = enumerate_trees(num_vars, depth)
        return trees, expected + 1, cache

    def counted(tree):
        compiles.append(tree.root)
        return compile_tree(tree)

    monkeypatch.setattr(verify, "_all_reduced_trees", miscounted)
    monkeypatch.setattr(verify, "dt_to_circuit", counted)
    report = verify.run_all(verify.SMOKE, only=["tree-compile", "tree-fanin2"])
    assert walks == [(3, 2)] and len(compiles) == 302 + 50
    for res in report.checks:
        assert (res.instances_tried, res.violations) == (353, 1)
        assert res.failures == ["enumeration: enumerated 302 trees, closed form says 303"]


# --------------------------------------------------------------------------
# a check fails when the construction it checks is wrong; each broken
# construction is a new circuit, so no masks swept before can hide it


def _drop_one_guard(compile_tree):
    def broken(tree):
        res = compile_tree(tree)
        gates = list(res.circuit.gates)
        for gid, (kind, ch, _) in enumerate(gates):
            if kind == AND:  # its guard literals come last
                gates[gid] = Gate(AND, ch[:-1] if len(ch) > 2 else ch[:1] * 2)
                break
        c = res.circuit
        return DtCompileResult(Circuit(c.num_vars, gates, c.output, c.fanin_mode),
                               res.tree_depth)
    return broken


def _keep_one_fanin3(reduce):
    def broken(res):
        c2 = reduce(res)
        gates = list(c2.gates)
        for gid, (kind, ch, _) in enumerate(gates):
            inner = [j for j, x in enumerate(ch) if gates[x].kind == AND]
            if kind == AND and inner:  # fold one AND back into its consumer
                j = inner[0]
                gates[gid] = Gate(AND, ch[:j] + gates[ch[j]].children + ch[j + 1:])
                break
        return Circuit(c2.num_vars, gates, c2.output, UNBOUNDED)
    return broken


def _complemented(compile_table):
    def broken(f):
        return compile_table(TruthTable(f.num_vars, f.bits ^ ((1 << (1 << f.num_vars)) - 1)))
    return broken


def _drop_last_gate(search):
    def broken(c, a, i, cap=None):
        path = search(c, a, i, cap)
        ids = path.gate_ids
        return replace(path, gate_ids=ids[:-1]) if len(ids) > 1 else path
    return broken


def _not_separating(run):
    def broken(instance, cap=None):
        tr = run(instance, cap)
        wrong = [j for j, (x, y) in enumerate(zip(instance.a, instance.b)) if not (x and not y)]
        return replace(tr, result=wrong[0]) if wrong else tr
    return broken


def _flip_first_leaf(extract):
    def flip(node):  # the leaf reached by taking every low branch
        return 1 - node if isinstance(node, int) else (node[0], flip(node[1]), node[2])

    def broken(c, cap=None):
        rep = extract(c, cap)
        tree = rep.extracted_tree
        return replace(rep, extracted_tree=DecisionTree(tree.num_vars, flip(tree.root)))
    return broken


def _two_more_nots(merge):
    def broken(c0, c1, i):
        m = merge(c0, c1, i)
        k = len(m.gates)
        gates = [*m.gates, Gate(NOT, (m.output,)), Gate(NOT, (k,))]
        return Circuit(m.num_vars, gates, k + 1, m.fanin_mode)
    return broken


def _swap_taps_0_and_1(cascade):
    def broken(n, cap=None):
        mc = cascade(n, cap)
        return replace(mc, taps=(mc.taps[1], mc.taps[0], *mc.taps[2:]))
    return broken


def _drop_first_block(decompose):
    def broken(formula):
        dec = decompose(formula)
        return replace(dec, blocks=dec.blocks[1:])
    return broken


def _one_more_firing(readonce):
    def broken(formula, cap=None):
        rep = readonce(formula, cap)
        return replace(rep, ec=rep.ec + 1)
    return broken


def _drop_one_term(fixture):
    def broken(name):  # the OR reads its second odd-weight term in its first one's slot
        c = fixture(name)
        *gates, top = c.gates
        gates.append(Gate(top.kind, (top.children[1], *top.children[1:])))
        return Circuit(c.num_vars, gates, c.output, c.fanin_mode)
    return broken


def _output_under_a_not(generate):
    def broken(spec):
        c = generate(spec)
        if spec.shape != MONOTONE:
            return c
        k = len(c.gates)
        return Circuit(c.num_vars, [*c.gates, Gate(NOT, (c.output,))], k, c.fanin_mode)
    return broken


def _drop_one_leaf(fixture):
    def broken(name):  # and_tree(k) reads x0 where it read x_{k-1}
        c = fixture(name)
        last = c.num_vars - 1
        gates = [Gate(g.kind, tuple(0 if ch == last else ch for ch in g.children), g.arg)
                 for g in c.gates]
        return Circuit(c.num_vars, gates, c.output, c.fanin_mode)
    return broken


def _biased_samples(estimate):
    def broken(formula, samples=1000, seed=0):  # the samples all set x0
        stats = estimate(formula, samples, seed)
        idx = np.random.default_rng(seed).integers(0, 1 << formula.num_vars, size=samples,
                                                   dtype=np.uint64)
        drawn = energy_moments(formula, idx | np.uint64(1)).drawn
        return replace(stats, empirical_mean_energy=float(drawn.mean()))
    return broken


@pytest.mark.parametrize("check_id, name, breaks, failure", [
    ("tree-compile", "dt_to_circuit", _drop_one_guard, "not equivalent to the tree"),
    ("tree-fanin2", "fanin2_reduce", _keep_one_fanin3, "fan-in 3"),
    ("compile-all-functions", "compile_truth_table", _complemented,
     "n=3 bits=0x0: computes the wrong function"),
    ("positive-paths", "find_positive_path", _drop_last_gate,
     "seed=0 a=0x3 x0: ROOT path does not end at the output"),
    ("kw-bits", "run_protocol", _not_separating, "does not separate"),
    ("pattern-tree", "dt_from_patterns", _flip_first_leaf,
     "seed=0: extracted tree differs from the circuit"),
    ("connector-merge", "connector_merge", _two_more_nots,
     "seed=0 x0: negs 3 != 1 + max(0, 0)"),
    ("cascade-taps", "minterm_cascade", _swap_taps_0_and_1, "n=1: tap 0 fires on the wrong inputs"),
    ("formula-blocks", "decompose_gk", _drop_first_block, "a leaf sits outside every block"),
    ("readonce-exact", "readonce_leafneg_energy", _one_more_firing, "seed=0: EC = 2 != L-1 = 1"),
    ("parity-dnf", "fixture", _drop_one_term, "n=2: not the parity function"),
    ("monotone-peak", "generate", _output_under_a_not, "seed=0: EC = 3 != size = 4"),
    ("psens-floor", "fixture", _drop_one_leaf, "and_tree(2): psens=1 != 2"),
    ("nonskew-floor", "nonskew_energy_estimate", _biased_samples,
     "seed=0: |MC - exact| = 1.5000 > 3*SE = 0.0712"),
])
def test_a_wrong_construction_fails_its_check(check_id, name, breaks, failure,
                                              monkeypatch, capsys):
    monkeypatch.setattr(verify, name, breaks(getattr(verify, name)))
    (res,) = verify.run_all(verify.SMOKE, only=[check_id]).checks
    assert res.violations > 0 and res.line().startswith(f"[FAIL] {check_id}:")
    assert failure in res.failures[0]
    assert main(["verify-all", "--level", "smoke", "--only", check_id]) == 1
    assert f"[FAIL] {check_id}:" in capsys.readouterr().out


# --------------------------------------------------------------------------
# every verb, given a malformed, a missing or an oversized input


_BAD_NETLIST = "INPUT x0\ng = FOO x0\nOUTPUT g\n"
_INPUTS = {  # (malformed, oversized) text per input kind
    "netlist": (_BAD_NETLIST, "".join(f"INPUT x{i}\n" for i in range(30)) + "g = OR x0 x29\nOUTPUT g\n"),
    "formula": (_BAD_NETLIST, "INPUT x0\nINPUT x70\ng = OR x0 x70\nOUTPUT g\n"),
    "table": ("n=2\n01x0\n", "n=40\n0101\n"),
    "tree": ("(x0 0\n", "(x30 0 1)\n"),
}
_FILE_VERBS = {  # verb -> (input kind, further arguments)
    "eval": ("netlist", ["--input", "10"]),
    "energy": ("netlist", []),
    "patterns": ("netlist", []),
    "compile-tt": ("table", []),
    "dt2circuit": ("tree", []),
    "fanin2": ("tree", []),
    "psens-check": ("netlist", []),
    "extract-dt": ("netlist", []),
    "kw-run": ("netlist", ["--alice", "11", "--bob", "00"]),
    "fml-decompose": ("formula", []),
    "fml-stats": ("formula", ["--readonce"]),
    "fml-nonskew": ("formula", ["--samples", "50"]),
}
_OPTION_VERBS = {  # verb -> {case: argv}
    "gen": {
        "malformed": ["--seed", "1", "--num-vars", "x", "--size", "3"],
        "missing": ["--seed", "1", "--num-vars", "3"],
        "oversized": ["--seed", "1", "--num-vars", "3", "--size", "4", "--shape", "READONCE_LEAFNEG"],
    },
    "verify-all": {
        "malformed": ["--only", "cascade-tapz"],
        "missing": ["--level"],
        "oversized": ["--level", "smoke", "--cap-n", "99", "--only", "cascade-taps"],
    },
}


_STRUCTURAL = {  # netlists that read well but break a structural rule of validate
    "not-arity": "INPUT x0\nINPUT x1\ng = NOT x0 x1\nOUTPUT g\n",
    "and-arity": "INPUT x0\ng = AND x0\nOUTPUT g\n",
}
_NETLIST_VERBS = [verb for verb, (kind, _) in _FILE_VERBS.items() if kind in ("netlist", "formula")]


def test_every_verb_has_bad_input_cases():
    (sub,) = [a for a in cli._parser()._actions if a.dest == "command"]
    assert set(sub.choices) == set(_FILE_VERBS) | set(_OPTION_VERBS)


@pytest.mark.parametrize("case", ["malformed", "missing", "oversized"])
@pytest.mark.parametrize("verb", [*_FILE_VERBS, *_OPTION_VERBS])
def test_bad_input_exits_without_a_traceback(verb, case, tmp_path, capsys):
    if verb in _OPTION_VERBS:
        argv = [verb, *_OPTION_VERBS[verb][case]]
    else:
        kind, extra = _FILE_VERBS[verb]
        path = tmp_path / "input"
        if case != "missing":
            path.write_text(_INPUTS[kind][case == "oversized"])
        argv = [verb, str(path), *extra]
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse's usage errors
        rc = exc.code
    assert rc in (0, 1, 2, 141)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("verb", [verb for verb, (kind, _) in _FILE_VERBS.items() if kind == "table"])
def test_a_huge_table_header_exits_2_with_one_line(verb, tmp_path, capsys):
    # 2^20000 is refused from the bit count, without being built or printed
    path = tmp_path / "input"
    path.write_text("n=20000\n01\n")
    assert main([verb, str(path), *_FILE_VERBS[verb][1]]) == 2
    err = capsys.readouterr().err
    assert err == "error: expected 2^20000 table bits for n=20000, got 2\n"


_HUGE_INDEX = {  # verb -> input reading x99999999999, whose 2^var mask is 12.5 GB
    "patterns": "INPUT x99999999999\nOUTPUT x99999999999\n",
    "extract-dt": "INPUT x99999999999\nOUTPUT x99999999999\n",
    "dt2circuit": "(x99999999999 0 1)",
    "fanin2": "(x99999999999 0 1)",
}
_UNDER_1_5_GB = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (3 << 29, 3 << 29))
from circuit_energy.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("verb", _HUGE_INDEX)
def test_a_huge_variable_index_exits_2_with_one_line(verb, tmp_path):
    # under a 1.5 GB address-space limit a mask built before the cap check
    # fails at once with a MemoryError, instead of filling the machine
    path = tmp_path / "input"
    path.write_text(_HUGE_INDEX[verb])
    done = subprocess.run([sys.executable, "-c", _UNDER_1_5_GB, verb, str(path)],
                          capture_output=True, text=True, timeout=60, env=_child_env())
    assert (done.returncode, done.stderr) == (
        2, "error: n=100000000000 exceeds the enumeration cap 24\n")


@pytest.mark.parametrize("samples", [SAMPLE_CAP + 1, 10_000_000_000_000])
def test_a_huge_sample_count_exits_2_with_one_line(samples, tmp_path):
    # refused before numpy allocates the draws, which would not fit in 1.5 GB
    path = tmp_path / "input"
    path.write_text(OR2)
    done = subprocess.run([sys.executable, "-c", _UNDER_1_5_GB, "fml-nonskew", str(path),
                           "--samples", str(samples)],
                          capture_output=True, text=True, timeout=60, env=_child_env())
    assert (done.returncode, done.stderr) == (
        2, f"error: samples={samples} exceeds the sample cap 1048576\n")


@pytest.mark.parametrize("argv", [
    *(["gen", "--seed", "-1", "--num-vars", "3", "--size", "3", "--shape", shape]
      for shape in (*SHAPES, NONSKEW)),
    ["fml-nonskew", "@or2", "--seed", "-1"],
], ids=[*(f"gen-{shape}" for shape in (*SHAPES, NONSKEW)), "fml-nonskew"])
def test_a_negative_seed_exits_2_with_one_line(argv, tmp_path, capsys):
    assert main(_with_files(argv, tmp_path, _TINY)) == 2
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"


@pytest.mark.parametrize("case", _STRUCTURAL)
@pytest.mark.parametrize("verb", _NETLIST_VERBS)
def test_a_structural_fault_exits_2_with_one_line(verb, case, tmp_path, capsys):
    path = tmp_path / "input"
    path.write_text(_STRUCTURAL[case])
    assert main([verb, str(path), *_FILE_VERBS[verb][1]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


# --------------------------------------------------------------------------
# every shape gen writes, read by every verb that takes it


_REFUSALS = {  # a well-formed input some verbs still refuse, by its error's message
    "NotAFormula": r"(output )?gate g\d+ feeds \d+ gates(; a formula gate feeds exactly 1)?",
    "NotMonotone": r"the circuit does not compute a monotone function",
    "NotAOneInput": r"f\(\d+\) = [01], (Alice|Bob) needs a [01]-input",
}
_REPEATED_X0 = "INPUT x0\nINPUT x1\nINPUT x0\ng = AND x0 x1\nh = AND g g2\nOUTPUT h\n"
_ROWS = {  # row -> the verbs that read it
    **{shape: ["dt2circuit", "fanin2"] if shape == DTREE else _NETLIST_VERBS
       for shape in (*SHAPES, NONSKEW)},
    "repeated-x0": _NETLIST_VERBS,
}


def _row_texts(row, capsys):
    """The texts of a row: ``gen`` at seeds 1-4 and n = 3..6, or one netlist."""
    if row == "repeated-x0":
        return [_REPEATED_X0]
    texts = []
    for seed in range(1, 5):
        n = 2 + seed
        size = n if row in (READONCE_LEAFNEG, DTREE) else 2 * n
        assert main(["gen", "--seed", str(seed), "--num-vars", str(n), "--size", str(size),
                     "--neg-density", "0.3", "--shape", row]) == 0
        texts.append(capsys.readouterr().out)
    return texts


@pytest.mark.parametrize("row, verb", [(row, verb) for row, verbs in _ROWS.items() for verb in verbs])
def test_each_shape_reads_in_each_verb(row, verb, tmp_path, capsys):
    refusals = []
    if verb == "kw-run":
        refusals = ["NotMonotone", "NotAOneInput"]
    elif verb.startswith("fml-") and row in (CIRCUIT, MONOTONE):
        refusals = ["NotAFormula"]
    refused = "|".join(_REFUSALS[r] for r in refusals)
    path = tmp_path / "input"
    for text in _row_texts(row, capsys):
        path.write_text(text)
        n = 1 + max(map(int, re.findall(r"^INPUT x(\d+)$", text, re.M)), default=-1)
        rest = {"eval": ["--input", "1" * n], "kw-run": ["--alice", "1" * n, "--bob", "0" * n],
                "fml-nonskew": ["--samples", "50"]}.get(verb, [])
        rc = main([verb, str(path), *rest])
        err = capsys.readouterr().err
        if rc == 2:
            assert refused and re.fullmatch(f"error: ({refused})\n", err), (text, err)
        else:
            assert rc in (0, 1) and err == "", (text, rc, err)


# --------------------------------------------------------------------------
# numpy loads on first use; the outputs computed with it are pinned


_NUMPY_FREE_VERBS = {  # verb -> argv after the verb, "@name" a file of _TINY
    "eval": ["@or2", "--input", "10"],
    "energy": ["@or2"],
    "compile-tt": ["@xor2"],
    "dt2circuit": ["@tree"],
    "fanin2": ["@tree"],
    "psens-check": ["@or2"],
    "kw-run": ["@or2", "--alice", "10", "--bob", "00"],
    "fml-decompose": ["@or2"],
    "fml-stats": ["@or2", "--readonce"],
}
_TINY = {"or2": OR2, "xor2": "n=2\n0110\n", "tree": "(x0 (x1 0 1) (x1 1 0))\n"}
_NUMPY_PROBE = """
import contextlib, io, json, sys
import circuit_energy, circuit_energy.cli
print("import", "numpy" in sys.modules)
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = circuit_energy.cli.main(argv)
    print(argv[0], rc, "numpy" in sys.modules)
"""


def _with_files(argv, tmp_path, texts):
    """``argv`` with each "@name" replaced by the path of a file holding
    ``texts[name]``."""
    out = []
    for arg in argv:
        if arg.startswith("@"):
            path = tmp_path / arg[1:]
            path.write_text(texts[arg[1:]])
            arg = str(path)
        out.append(arg)
    return out


def test_numpy_free_verbs_never_load_numpy(tmp_path):
    runs = [_with_files([verb, *rest], tmp_path, _TINY) for verb, rest in _NUMPY_FREE_VERBS.items()]
    done = subprocess.run([sys.executable, "-c", _NUMPY_PROBE, json.dumps(runs)],
                          capture_output=True, text=True, timeout=60, env=_child_env())
    assert done.returncode == 0, done.stderr
    want = ["import False"] + [f"{verb} 0 False" for verb in _NUMPY_FREE_VERBS]
    assert done.stdout.splitlines() == want


_PIN_TEXTS = {  # formulas: an input line per leaf, gates named by line
    "nonskew": "INPUT x0\nINPUT x1\ng2 = AND g0 g1\nINPUT x2\nINPUT x3\ng5 = OR g3 g4\n"
    "g6 = OR g2 g5\nINPUT x4\nINPUT x5\ng9 = AND g7 g8\nINPUT x1\nINPUT x4\n"
    "g12 = OR g10 g11\ng13 = AND g9 g12\ng14 = OR g6 g13\nOUTPUT g14\n",
    "wide": "INPUT x0\nINPUT x29\ng2 = AND g0 g1\nINPUT x7\nINPUT x0\ng5 = OR g3 g4\n"
    "g6 = OR g2 g5\nOUTPUT g6\n",
}
_GEN = ["gen", "--seed", "7", "--num-vars", "6", "--size", "24", "--neg-density", "0.3"]
_PINS = {  # case -> (argv, SHA-256 of its stdout)
    "gen-CIRCUIT": (
        [*_GEN, "--shape", "CIRCUIT"],
        "93d14d4d4c833763e57ab542baaa6d5e0ee0ee326370d5be35f6a6b42a7634e8"),
    "gen-CIRCUIT-UNBOUNDED": (
        [*_GEN, "--shape", "CIRCUIT", "--fanin", "UNBOUNDED"],
        "2e1aeed383465ceec35ee0eafd2e32eb521cb2b647216450a99680423778d1b5"),
    "gen-CIRCUIT-BOUNDED": (
        [*_GEN, "--shape", "CIRCUIT", "--fanin", "BOUNDED:3"],
        "159a55168c808033c313f55e301ea3db03f1dad022f9ee0489b7cc6f2086cec7"),
    "gen-MONOTONE": (
        [*_GEN, "--shape", "MONOTONE"],
        "9b85b48ff48dbd38a4ffb3db62f952703d42d932d1949c89f5062d14b6c42838"),
    "gen-FORMULA": (
        [*_GEN, "--shape", "FORMULA"],
        "db797a1082cbb6327586f6efb974838b53dda7c7ffa96ce9de7c4f3a056cd4cb"),
    "gen-READONCE_LEAFNEG": (
        ["gen", "--seed", "7", "--num-vars", "9", "--size", "8", "--neg-density", "0.5",
         "--shape", "READONCE_LEAFNEG"],
        "49e20166c61f9d50eec1a0cf7fd5485564258fe9c67b9cd061e27401729f6a69"),
    "gen-DTREE": (
        ["gen", "--seed", "7", "--num-vars", "6", "--size", "5", "--shape", "DTREE"],
        "42ada435210692fb78e21593ff36dcad11e0f28f8374e979b7d17742939d23ad"),
    "gen-NONSKEW": (
        [*_GEN, "--shape", "NONSKEW"],
        "4fd6ce84917665aff0a8305460fd388094da0776a3a450e0b1f54caf71020e47"),
    "patterns-parity4": (
        ["patterns", "fixture:parity4_dnf"],
        "9046979bcbccf52cebfddf52afcf78f6a2ff3d7f0e24159245bd9496126d870e"),
    "patterns-addr2": (
        ["patterns", "fixture:addr(2)"],
        "9c3d3e7596a1f91a905015314d3c912842bd9dc0cc8faf39e2fe42c9788c1c10"),
    "patterns-and17": (
        ["patterns", "fixture:and_tree(17)"],
        "e91d13f2189fd1a02fa30df2cfa3bc8f64f64e83b36be9e17b4797455375bc27"),
    "extract-dt-addr2": (
        ["extract-dt", "fixture:addr(2)"],
        "26efb18b1b95bd705fcfebe1a7727a1cab653b713753f15ffb1b7e039c394162"),
    "extract-dt-parity3": (
        ["extract-dt", "fixture:parity3_dnf"],
        "ad6efa4a4da69f199e276661058724da4b394be680b7a3aaa697667821f5b711"),
    "fml-nonskew": (
        ["fml-nonskew", "@nonskew", "--samples", "300", "--seed", "3"],
        "17e04fdc452a6511c8a6467743fa80cc570aef53fb42b42611d4e08a0386cd70"),
    "fml-nonskew-wide": (
        ["fml-nonskew", "@wide", "--samples", "40", "--seed", "5"],
        "7bf5a279c9b152f10c4b15520e9f0b093af9502406a84b144185298e8456ace4"),
}


@pytest.mark.parametrize("case", _PINS)
def test_output_is_pinned(case, tmp_path, capsys):
    argv, digest = _PINS[case]
    assert main(_with_files(argv, tmp_path, _PIN_TEXTS)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out


def test_verify_all_smoke_json_is_pinned(capsys):
    assert main(["verify-all", "--level", "smoke", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    del doc["wall_time"]
    for check in doc["checks"]:
        del check["seconds"]
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digest == "313fdec4cd0b5e82defd6fcdb3861e573b095e9ad445c0352deda0a723842d37"


# --------------------------------------------------------------------------
# formulas that repeat a variable: the in-process results, pinned


def _repeating_formulas():
    """120 seeded FORMULA and 120 NONSKEW formulas at n <= 6, most of which
    read some variable at several leaves."""
    for s in range(120):
        yield generate(GenSpec(seed=s, num_vars=1 + s % 6, size_budget=1 + s % 12,
                               neg_density=(s % 4) / 8, shape=FORMULA))
        yield generate_nonskew(s, 1 + s % 6, 2 + s % 11)


def _formula_results(F):
    """``(text, runs, extra)`` for a generated formula.  ``text`` is its
    netlist and ``runs`` maps a netlist verb to ``(further argv, exit code,
    stdout)``, computed in-process on the text read back as a Formula (a
    netlist does not carry n, so it has 1 + the largest variable read);
    ``extra`` holds the results no verb prints."""
    text = serialize_netlist(F)
    G = parse_netlist(text, formula=True)
    assert (G.gates, G.output) == (F.gates, F.output)
    rep = energy_exhaustive(G)
    runs = {"energy": ([], 0, f"EC={rep.ec} argmax={cli._bitstring(rep.argmax_input)}\n")}
    pc = check_psens_bound(G)
    runs["psens-check"] = ([], 0 if pc.holds else 1, (
        f"EC={pc.ec} psens={pc.psens} c={pc.fanin_bound} holds={'yes' if pc.holds else 'no'} "
        f"witness={cli._bitstring(pc.witness_input)}\n"))
    tr = dt_from_patterns(G)
    depth, budget = dt_depth_of(tr.extracted_tree.root), tr.max_fanin * tr.pattern_count
    ok = depth <= budget and (tr.dt_oracle is None or tr.dt_oracle <= budget)
    runs["extract-dt"] = ([], 0 if ok else 1, (
        f"size={tr.size} EC={tr.energy} patterns={tr.pattern_count} maxFanin={tr.max_fanin} "
        f"depth={depth} budget={budget}" + (f" DT={tr.dt_oracle}" if tr.dt_oracle is not None else "")
        + "\n" + serialize_dtree(tr.extracted_tree) + "\n"))
    ones, zeros = (1,) * G.num_vars, (0,) * G.num_vars
    f = truth_table(G)
    if is_monotone(f) and f.value_at(ones) and not f.value_at(zeros):
        kw = run_protocol(make_instance(G, ones, zeros))
        bound = evaluate(G, kw.minimized_input).energy * kw.addr_bits
        runs["kw-run"] = (["--alice", cli._bitstring(ones), "--bob", cli._bitstring(zeros)],
                          0 if kw.alice_bits <= bound else 1, (
            f"result=x{kw.result} aliceBits={kw.alice_bits} bobBits={kw.bob_bits} "
            f"syncBits={kw.sync_bits} repairs={kw.repairs} "
            f"minimized={cli._bitstring(kw.minimized_input)} bound={bound}\n"))
    extra = (G.num_vars, len(firing_patterns(G)), restrict(G, {0: 1}).gates)
    return text, runs, extra


def test_formulas_that_repeat_a_variable_are_pinned(tmp_path, capsys):
    # kw-run's Bob answers once per INPUT gate reached, so a repeated
    # variable costs a bit per leaf; the pin keeps that count
    digest = hashlib.sha256()
    repeats = kw = 0
    path = tmp_path / "formula.cir"
    for F in _repeating_formulas():
        text, runs, extra = _formula_results(F)
        path.write_text(text)
        for verb, (rest, code, out) in runs.items():  # the CLI prints the same
            assert main([verb, str(path), *rest]) == code
            assert capsys.readouterr() == (out, ""), (verb, text)
        leaves = [g.arg for g in F.gates if g.kind == INPUT]
        repeats += len(set(leaves)) < len(leaves)
        kw += "kw-run" in runs
        digest.update(repr((text, runs, extra)).encode())
    assert (repeats, kw) == (210, 178)
    assert digest.hexdigest() == "8464d6dfffbec82375ca47d7f6feff34d78c635753ee03a0ec0af94e3b9da0c7"
