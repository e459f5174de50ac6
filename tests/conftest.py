import pathlib

import pytest

from plccontain.benchmarks import BranchSeg, LoopSeg, Shape, Straight, render
from plccontain.petri_net import PetriNet, Place, PnTransition
from plccontain.sfc_core import (Binary, BoolLit, IntLit, TRUE, Unary,
                                 VarDecl, VarRef, parse_sfc)

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"

PICK_PLACE_FOUT = {"s4": "s4", "s8": "s12", "s10": "s13"}
SPLIT_FOUT = {"s4": "s4", "s8": "s8", "s10": "s10"}

# Ta and Tb fire in one round and mark s9 and s2, which both write x
JOIN_CONFLICT = """
var x : int = 0;
step s0 { }
step s1 { }
step s2 { entry A2 { x := 2; } }
step s9 { entry A9 { x := 1; } }
step s5 { }
trans Ta : s0 -> s9;
trans Tb : s1 -> s2;
trans Tc : {s2, s9} -> s5;
trans Td : s5 -> {s0, s1};
init {s0, s1};
"""

# the initially marked s0 and s1 both write x, then a branch on g
INITIAL_CONFLICT = """
var g : bool = false;
var x : int = 0;
var y : int = 0;
step s0 { entry A0 { x := 1; } }
step s1 { entry A1 { x := 2; } }
step s2 { entry A2 { y := 1; } }
step s3 { entry A3 { y := 2; } }
trans T1 : {s0, s1} -> s2 when g;
trans T2 : {s0, s1} -> s3 when !g;
trans T3 : s2 -> {s0, s1};
trans T4 : s3 -> {s0, s1};
init {s0, s1};
"""


@pytest.fixture(scope="session")
def pick_place_v0():
    return parse_sfc((CORPUS / "pick_and_place_v0.sfc").read_text())


@pytest.fixture(scope="session")
def pick_place_v1():
    return parse_sfc((CORPUS / "pick_and_place_v1.sfc").read_text())


@pytest.fixture(scope="session")
def pick_place_split():
    return parse_sfc((CORPUS / "pick_and_place_split.sfc").read_text())


@pytest.fixture(scope="session")
def nets(pick_place_v0, pick_place_v1):
    from plccontain.petri_net import translate

    return translate(pick_place_v0), translate(pick_place_v1)


@pytest.fixture(scope="session")
def covers(nets):
    from plccontain.path_engine import path_constructor

    n0, n1 = nets
    return (path_constructor(n0, prefix="a"),
            path_constructor(n1, prefix="b"))


def build_counter_net(n: int = 2) -> PetriNet:
    """The counter example net: a fork into two chains, one carrying a
    loop (p7 -> t8 -> p9 -> t9 -> p7), joined again before the out-port
    p10. Place p9 increments the loop counter."""

    def place(pid, updates=()):
        ups = tuple(updates)
        return Place(pid, frozenset(v for v, _ in ups), ups, ups, ())

    i_lt_n = Binary("<", VarRef("i"), VarRef("n"))
    places = (
        place("p1"), place("p2"), place("p3"), place("p4"), place("p5"),
        place("p6"), place("p7"), place("p8"),
        place("p9", [("i", Binary("+", VarRef("i"), IntLit(1)))]),
        place("p10"), place("p11"),
    )
    trans = (
        PnTransition("t1"), PnTransition("t2"), PnTransition("t3"),
        PnTransition("t4"), PnTransition("t5"), PnTransition("t6"),
        PnTransition("t7", Unary("!", i_lt_n)),
        PnTransition("t8", i_lt_n), PnTransition("t9"),
        PnTransition("t10"), PnTransition("ts", TRUE, True),
    )
    input_arcs = frozenset({
        ("p1", "t1"), ("p2", "t2"), ("p3", "t3"), ("p4", "t4"),
        ("p5", "t5"), ("p6", "t6"), ("p8", "t7"), ("p7", "t8"),
        ("p9", "t9"), ("p7", "t10"), ("p11", "t10"), ("p10", "ts"),
    })
    output_arcs = frozenset({
        ("t1", "p2"), ("t1", "p3"), ("t2", "p4"), ("t3", "p5"),
        ("t4", "p6"), ("t5", "p7"), ("t6", "p8"), ("t7", "p11"),
        ("t8", "p9"), ("t9", "p7"), ("t10", "p10"), ("ts", "p1"),
    })
    return PetriNet(places,
                    (VarDecl("i", "int", IntLit(0)),
                     VarDecl("n", "int", IntLit(n))),
                    trans, input_arcs, output_arcs, frozenset(["p1"]))


@pytest.fixture(scope="session")
def counter_net():
    return build_counter_net()


def build_chain(kind: str, k: int):
    """A chart of k sequential `branch`, `loop` or `straight` segments,
    rendered by `benchmarks.render`. Covers have 2k+1, 4k+1 and 1 paths."""
    x = VarRef("x")

    def inc(n):
        return [("x", Binary("+", x, IntLit(n)))]

    decls = [VarDecl("start", "bool", BoolLit(True)),
             VarDecl("cycle", "bool", BoolLit(False)),
             VarDecl("x", "int", IntLit(0))]
    segments = []
    for i in range(k):
        if kind == "branch":
            segments.append(BranchSeg(Binary("<", x, IntLit(i)), inc(1),
                                      inc(2), inc(3)))
        elif kind == "loop":
            decls.append(VarDecl(f"c{i}", "int", IntLit(0)))
            segments.append(LoopSeg(f"c{i}", 2, inc(1), inc(2)))
        else:
            segments.append(Straight(inc(1)))
    return render(Shape(decls, segments))


@pytest.fixture(scope="session")
def chain():
    return build_chain
