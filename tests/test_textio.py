import pytest
from hypothesis import given, strategies as st

from circuit_energy import (
    CycleOrForwardRef,
    Formula,
    ParseError,
    TruthTable,
    UnknownGateRef,
    truth_table,
)
from circuit_energy.corpus import CIRCUIT, DTREE, FORMULA, READONCE_LEAFNEG, SHAPES, GenSpec, generate
from circuit_energy.ir import FANIN2, UNBOUNDED, bounded
from circuit_energy.synth import dt_to_circuit
from circuit_energy.textio import (
    parse_dtree,
    parse_netlist,
    parse_truth_table,
    serialize_dtree,
    serialize_netlist,
    serialize_truth_table,
)
from parse_ref import parse_netlist as ref_parse_netlist
from parse_ref import parse_truth_table as ref_parse_truth_table


def test_parse_basic_netlist():
    c = parse_netlist(
        """
        # a comment
        INPUT x0
        INPUT x1
        g2 = NOT x0
        g3 = AND g2 x1
        OUTPUT g3
        """
    )
    assert c.num_vars == 2
    assert truth_table(c).bitstring() == "0010"


def test_parse_named_wires():
    c = parse_netlist(
        "INPUT x0\nINPUT x1\nleft = NOT x0\nright = NOT x1\nboth = OR left right\nOUTPUT both\n"
    )
    assert truth_table(c).bitstring() == "1110"


def test_parse_const_and_fanin_inference():
    c = parse_netlist("INPUT x0\nzero = CONST 0\ng = OR x0 zero\nOUTPUT g\n")
    assert c.fanin_mode == FANIN2
    wide = parse_netlist(
        "INPUT x0\nINPUT x1\nINPUT x2\ng = AND x0 x1 x2\nOUTPUT g\n"
    )
    assert wide.fanin_mode == UNBOUNDED


def test_parse_forward_reference_is_rejected():
    with pytest.raises(CycleOrForwardRef):
        parse_netlist("INPUT x0\ng1 = NOT g2\ng2 = NOT x0\nOUTPUT g2\n")


def test_parse_unknown_output_name():
    with pytest.raises(UnknownGateRef):
        parse_netlist("INPUT x0\nOUTPUT nope\n")


def test_parse_garbage_line():
    with pytest.raises(ParseError):
        parse_netlist("INPUT x0\nwat\nOUTPUT x0\n")


def test_parse_duplicate_name():
    for body in (
        "a = NOT x0\na = NOT x0\nOUTPUT a\n",
        "g0 = NOT x0\ng0 = NOT x1\nOUTPUT g0\n",
        "x1 = NOT x0\nOUTPUT x1\n",  # an INPUT's x<k> is explicit too
    ):
        with pytest.raises(ParseError, match="already used"):
            parse_netlist("INPUT x0\nINPUT x1\n" + body)


def test_explicit_name_shadows_implicit_alias():
    c = parse_netlist("INPUT x0\nINPUT x1\ng0 = AND x0 x1\nn = NOT g0\nOUTPUT n\n")
    assert c.gates[3].children == (2,)  # g0 is the AND from its line on
    assert truth_table(c).bitstring() == "1110"
    # the canonical names are unchanged, so the text round-trips
    assert parse_netlist(serialize_netlist(c)).gates == c.gates


def test_netlist_roundtrip_over_generated_circuits():
    for s in range(25):
        spec = GenSpec(seed=s, num_vars=2 + s % 4, size_budget=4 + s % 9, neg_density=0.3)
        c = generate(spec)
        back = parse_netlist(serialize_netlist(c))
        assert back.num_vars == c.num_vars
        assert truth_table(back).bits == truth_table(c).bits


def test_netlist_roundtrip_keeps_formula_shape():
    spec = GenSpec(seed=7, num_vars=3, size_budget=6, neg_density=0.4, shape=FORMULA)
    f = generate(spec)
    back = parse_netlist(serialize_netlist(f), formula=True)
    assert isinstance(back, Formula)
    assert truth_table(back).bits == truth_table(f).bits


def test_dtree_roundtrip():
    text = "(x0 (x1 0 1) 1)"
    t = parse_dtree(text)
    assert t.root == (0, (1, 0, 1), 1)
    assert parse_dtree(serialize_dtree(t)).root == t.root


def test_deep_dtree_roundtrip():
    # (x0 (x1 ... (x1199 0 1) ... 1) 1), above the default recursion limit
    text = "(x1199 0 1)"
    for v in reversed(range(1199)):
        text = f"(x{v} {text} 1)"
    t = parse_dtree(text)
    assert t.num_vars == 1200 and t.depth() == 1200
    assert serialize_dtree(t) == text + "\n"
    # == on tuples this deep recurses in C, so the round trip compares text
    assert serialize_dtree(parse_dtree(serialize_dtree(t))) == text + "\n"


def test_dtree_parse_errors():
    with pytest.raises(ParseError):
        parse_dtree("(x0 0)")
    with pytest.raises(ParseError):
        parse_dtree("(x0 0 2)")


@given(st.integers(1, 4), st.data())
def test_truth_table_roundtrip(n, data):
    bits = data.draw(st.integers(0, (1 << (1 << n)) - 1))
    f = TruthTable(n, bits)
    assert parse_truth_table(serialize_truth_table(f)) == f


def test_truth_table_parse_errors():
    with pytest.raises(ParseError):
        parse_truth_table("0110")  # missing n= header
    with pytest.raises(ParseError):
        parse_truth_table("n=2\n01\n")  # wrong length
    for n, count in ((20000, 2), (3, 0), (0, 2)):  # 2^20000 is never built
        with pytest.raises(ParseError, match=rf"expected 2\^{n} table bits for n={n}, got {count}$"):
            parse_truth_table(f"n={n}\n" + "1" * count)


# --------------------------------------------------------------------------
# the parsers against the line-list reference of tests/parse_ref.py


def _netlist_outcome(parse, text, **kwargs):
    """What a parse gives: the class and every field, or the error and its
    message."""
    try:
        c = parse(text, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)
    return type(c), c.gates, c.output, c.num_vars, c.fanin_mode


def _assert_netlist_matches(text, **kwargs):
    got = _netlist_outcome(parse_netlist, text, **kwargs)
    assert got == _netlist_outcome(ref_parse_netlist, text, **kwargs), (text, kwargs)
    return got


def _generated_netlists():
    for s in range(200):
        for shape in SHAPES:
            spec = GenSpec(seed=s, num_vars=1 + s % 8, size_budget=1 + (s * 7) % 24,
                           neg_density=(s % 5) / 10, shape=shape,
                           fanin_mode=FANIN2 if s % 2 else UNBOUNDED)
            if shape == DTREE:
                spec = GenSpec(seed=s, num_vars=1 + s % 6, size_budget=1 + s % 5, shape=DTREE)
                c = dt_to_circuit(generate(spec)).circuit
            else:
                if shape == READONCE_LEAFNEG:  # one leaf per variable
                    spec = spec._replace(size_budget=min(spec.size_budget, spec.num_vars))
                c = generate(spec)
            header = [f"seed {s}", shape] if s % 3 == 0 else None
            yield serialize_netlist(c, header), isinstance(c, Formula)


def test_parse_netlist_matches_the_reference_on_generated_netlists():
    parsed = refused = 0
    for text, formula in _generated_netlists():
        for kwargs in ({"formula": formula}, {"formula": not formula}, {"fanin_mode": FANIN2}):
            got = _assert_netlist_matches(text, **kwargs)
            parsed += not issubclass(got[0], Exception)
            refused += issubclass(got[0], Exception)
    # both outcomes are exercised: the texts parse, and the wrong readings refuse
    assert parsed > 1500 and refused > 500, (parsed, refused)


_BAD_NETLISTS = [  # one per raise site that a text can reach
    "",  # empty netlist
    "# only a comment\n\n   \n",
    "INPUT x0\nOUTPUT nope\n",  # OUTPUT names unknown gate
    "INPUT x0\ng1 = NOT g2\ng2 = NOT x0\nOUTPUT g2\n",  # forward reference
    "INPUT x0\ng = NOT g\nOUTPUT g\n",  # a gate reading itself
    "INPUT x0\nOUTPUT x0\nINPUT x1\n",  # content after OUTPUT
    "INPUT x0\nOUTPUT x0 x0\n",  # OUTPUT wants one reference
    "INPUT x0\nOUTPUT\n",
    "INPUT x0\nwat\nOUTPUT x0\n",  # expected INPUT, OUTPUT or '<name> = ...'
    "INPUT x0\n1g = NOT x0\nOUTPUT x0\n",  # bad gate name
    "INPUT x0\n= NOT x0\nOUTPUT x0\n",
    "INPUT x0\ng =\nOUTPUT g\n",  # missing gate kind
    "INPUT x0\nz = CONST 2\nOUTPUT z\n",  # CONST wants a single 0 or 1
    "INPUT x0\nz = CONST 0 1\nOUTPUT z\n",
    "INPUT x0\nz = CONST\nOUTPUT z\n",
    "INPUT x0\ng = XOR x0 x0\nOUTPUT g\n",  # unknown gate kind
    "INPUT x0\ng = NOT x0\ng = NOT g\nOUTPUT g\n",  # name already used
    "INPUT x0\nx0 = NOT x0\nOUTPUT x0\n",
    "INPUT x0\ng = NOT x0\n",  # no OUTPUT line
    # the structural rules of Circuit.validate and Formula.validate
    "INPUT x0\nINPUT x1\ng = NOT x0 x1\nOUTPUT g\n",  # NOT arity
    "INPUT x0\ng = NOT\nOUTPUT g\n",
    "INPUT x0\ng = AND x0\nOUTPUT g\n",  # AND/OR arity
    "INPUT x0\ng = OR\nOUTPUT g\n",
]
_BAD_FORMULAS = [
    "INPUT x0\nINPUT x1\ng = AND x0 x1\nh = NOT g\nOUTPUT g\n",  # the output feeds a gate
    "INPUT x0\ng = AND x0 x0\nOUTPUT g\n",  # a gate feeds two
    "INPUT x0\nINPUT x1\ng = AND x0 x1\nOUTPUT x0\n",  # a gate feeds none
]
_HAND_NETLISTS = [
    # a g<id> spelling named before its gate exists, and after
    "INPUT x0\nINPUT x1\ng3 = NOT x0\nh = NOT x1\ng = AND g3 h\nOUTPUT g\n",
    "INPUT x0\nINPUT x1\ng3 = NOT x0\nh = NOT g3\nOUTPUT g3\n",
    "INPUT x0\nINPUT x1\nw = NOT x0\ng2 = NOT x1\ng = AND g2 w\nOUTPUT g\n",
    "INPUT x0\nINPUT x1\ng0 = AND x0 x1\nn = NOT g0\nOUTPUT n\n",
    "INPUT x0\nINPUT x1\na = AND g0 g1\nOUTPUT g2\n",  # implicit names only
    "INPUT x0\ng1 = NOT x0\ng1b = NOT g1\nOUTPUT g2\n",
    "INPUT x0\nINPUT x1\ng2 = NOT x0\ng2 = NOT x1\nOUTPUT g2\n",
    "INPUT x0\nINPUT x1\nx1 = NOT x0\nOUTPUT x1\n",
    # g05 is not the implicit name of gate 5
    "INPUT x0\ng1 = NOT x0\ng2 = NOT g1\ng3 = NOT g2\ng4 = NOT g3\ng5 = NOT g05\nOUTPUT g5\n",
    "INPUT x0\ng05 = NOT x0\nOUTPUT g05\n",
    "INPUT x0\ng05 = NOT x0\nOUTPUT g1\n",
    # x01 is read as x1
    "INPUT x01\nINPUT x0\ng = AND x0 x1\nOUTPUT g\n",
    "INPUT x01\nINPUT x0\ng = AND x0 x01\nOUTPUT g\n",
    "INPUT x3\nOUTPUT x3\n",
    # spacing, comments, blank lines and line ends
    "INPUT x0\nINPUT x1\ng=OR x0 x1\nOUTPUT g\n",
    "INPUT\tx0\nINPUT  x1\n  g =  OR\tx0   x1  \nOUTPUT   g\n",
    "# header\n\nINPUT x0 # the first\n\n\nINPUT x1\n# g = NOT x0\ng = OR x0 x1#tail\nOUTPUT g # done\n",
    "INPUT x0\r\nINPUT x1\r\ng = AND x0 x1\r\nOUTPUT g\r\n",
    "INPUT x0\rINPUT x1\rg = AND x0 x1\rOUTPUT g",
    "INPUT x0\nINPUT x1\ng = AND x0 x1\nOUTPUT g",  # no final newline
    "INPUT x0\nOUTPUT x0\n# trailing comment\n\n",
    # words that begin like a keyword
    "INPUT x0\nINPUT_a = NOT x0\nOUTPUT INPUT_a\n",
    "INPUT x0\nINPUTS = NOT x0\nOUTPUT INPUTS\n",
    "INPUT x0\nOUTPUTS = NOT x0\nOUTPUT OUTPUTS\n",
    "INPUT x0\nINPUTx1\nOUTPUT x0\n",
    "INPUT x-1\nOUTPUT g0\n",
    "INPUT y0\nOUTPUT g0\n",
    "INPUT x0\ng = NOT x0 = 1\nOUTPUT g\n",
    "INPUT x0\nz = CONST 1\ng = OR x0 z\nOUTPUT g\n",
    "z = CONST 1\nOUTPUT z\n",
    "INPUT x0\nINPUT x1\nINPUT x2\ng = AND x0 x1 x2\nh = OR g x0\nOUTPUT h\n",
    "INPUT x0\nINPUT x1\nINPUT x2\ng = NOT x0 x1 x2\nOUTPUT g\n",
    "INPUT x0\nINPUT x1\ng = AND x0 x1 zz\nOUTPUT g\n",
    # a variable with two INPUT gates, x0 naming the first
    "INPUT x0\nINPUT x0\ng = AND x0 g1\nOUTPUT g\n",
    # several faults: the first in line order, then in gate order, wins
    "INPUT x0\nINPUT x0\ng = NOT x0 x0\nOUTPUT g\n",
    "INPUT x0\ng = NOT x0 x0\nINPUT x0\nOUTPUT g\n",
    "INPUT x0\ng = AND x0\nh = FOO g\nOUTPUT h\n",
    "INPUT x0\ng = NOT x0\ng = NOT nope\nOUTPUT g\n",
    "INPUT x0\nINPUT x1\ng = AND x0 x1 x0\nh = NOT g g\nOUTPUT h\n",
]


@pytest.mark.parametrize("text", _BAD_NETLISTS + _BAD_FORMULAS + _HAND_NETLISTS)
def test_parse_netlist_matches_the_reference_on_hand_texts(text):
    for kwargs in ({}, {"formula": True}, {"fanin_mode": FANIN2}, {"fanin_mode": bounded(3)}):
        _assert_netlist_matches(text, **kwargs)


def test_every_bad_netlist_is_refused():
    for text in _BAD_NETLISTS:
        assert issubclass(_assert_netlist_matches(text)[0], Exception), text
    for text in _BAD_FORMULAS:
        assert issubclass(_assert_netlist_matches(text, formula=True)[0], Exception), text
    wide = "INPUT x0\nINPUT x1\nINPUT x2\ng = AND x0 x1 x2\nOUTPUT g\n"  # fan-in above the mode
    assert issubclass(_assert_netlist_matches(wide, fanin_mode=FANIN2)[0], Exception)


def _table_outcome(parse, text):
    try:
        f = parse(text)
    except Exception as exc:
        return type(exc), str(exc)
    return type(f), f.num_vars, f.bits


_TABLE_TEXTS = [
    "", "# nothing\n", "0110\n", "m=2\n0110\n", "n=2 0110\n", "n=\n0\n", "n=x\n01\n",
    "n=2\n01\n", "n=2\n01101\n", "n=2\n01x0\n", "n=2\n0_10\n", "n=1\n+1\n", "n=1\n-1\n",
    "n=2\n0 1\t1 0\n", "n=2\n01 # low half\n10\n", "n=2\r\n01\r\n10\r\n", "n = 2\n0110",
    "  n=02  \n0110\n", "# head\nn=1\n\n1\n0\n", "n=0\n1\n", "n=0\n0\n", "n=0\n",
    "n=2\n01\u00a010\n", "n=2\n01\x1f10\n", "n=2\n0\u0661 10\n", "n=3\n" + "1" * 8,
    "n=1\n10\n", "n=1\n01\n", "n=\u0662\n0110\n",
]


def test_parse_truth_table_matches_the_reference():
    texts = list(_TABLE_TEXTS)
    for n in range(7):
        for bits in (0, 1, (1 << (1 << n)) - 1, 0x5A5A5A5A5A5A5A5A % (1 << (1 << n))):
            texts.append(serialize_truth_table(TruthTable(n, bits)))
    for text in texts:
        got = _table_outcome(parse_truth_table, text)
        assert got == _table_outcome(ref_parse_truth_table, text), text
