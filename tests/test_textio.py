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
from circuit_energy.corpus import CIRCUIT, FORMULA, GenSpec, generate
from circuit_energy.ir import FANIN2, UNBOUNDED
from circuit_energy.textio import (
    parse_dtree,
    parse_netlist,
    parse_truth_table,
    serialize_dtree,
    serialize_netlist,
    serialize_truth_table,
)


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
