import pathlib

import pytest

from plccontain.benchmarks import BranchSeg, LoopSeg, Shape, Straight, render
from plccontain.containment import compare_paths
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

# arm B's block on b1 reads x one round after arm A's block on a1 wrote it
SHARED_ARMS_N1 = """
var start : bool = true; var x : int = 0; var y : int = 0;
var c : int = 0; var cp : int = 0;
step s0 { } step s1 { entry I { c := 0; cp := 0; } } step e { }
step ha { } step a1 { entry A { x := x + 1; c := c + 1; } } step a2 { }
step hb { } step b0 { } step b1 { entry B { y := x; cp := cp + 1; } }
trans T0 : s0 -> s1 when start; trans T1 : s1 -> {ha, hb};
trans Tai : ha -> a1 when c < 1; trans Ta2 : a1 -> a2; trans Tab : a2 -> ha;
trans Tbi : hb -> b0 when cp < 1; trans Tb1 : b0 -> b1;
trans Tbb : b1 -> hb;
trans Tout : {ha, hb} -> e when !(c < 1) && !(cp < 1);
trans Tend : e -> s0; init s0;
"""

# one sequential loop whose body reads x before it increments it
SHARED_ARMS_N0 = """
var start : bool = true; var x : int = 0; var y : int = 0; var c : int = 0;
step s0 { } step s1 { entry I { c := 0; } } step e { }
step h { } step body { entry B { y := x; x := x + 1; c := c + 1; } }
trans T0 : s0 -> s1 when start; trans T1 : s1 -> h;
trans Tin : h -> body when c < 1; trans Tback : body -> h;
trans Tout : h -> e when !(c < 1); trans Tend : e -> s0; init s0;
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


def check_ledger(verdict) -> None:
    """Re-derive a verdict from its ledger alone, as translation validation
    does. Each cover path is a part of a listed pair or unmatched, never
    both; a side is contained exactly when every cover path of it is a
    part of a listed pair; and under a containment verdict every listed
    pair compares equal again under the final correspondences, with no
    new eta_v pair. That last check is left out for MAY_NOT_BE_EQUIVALENT:
    eta_p only grows, so the image of an early pair's pre-places can widen
    past its partner's."""
    # the sides (0 is N0, 1 is N1) the verdict claims are contained
    contained = {"EQUIVALENT": (0, 1), "N0_IN_N1": (0,), "N1_IN_N0": (1,),
                 "MAY_NOT_BE_EQUIVALENT": ()}[verdict.code]
    led = verdict.ledger
    covers = (verdict.cover0, verdict.cover1)
    for side, unmatched in enumerate((led.unmatched0, led.unmatched1)):
        ids = [p.id for p in covers[side].paths]
        matched = {o for m in led.pairs for o in m[side].parts}
        unmatched_ids = [pid for pid, _ in unmatched]
        assert sorted(list(matched) + unmatched_ids) == sorted(ids), side
        assert (matched == set(ids)) == (side in contained), side
    if contained:
        corr = verdict.correspondences
        for a, b in led.pairs:
            res = compare_paths(a, b, corr, covers[0].net, covers[1].net)
            assert res.ok and not res.new_pairs, (a.id, b.id, res.clause)
