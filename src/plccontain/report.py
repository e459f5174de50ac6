"""Human-readable and machine-readable containment reports.

The text form leads with the verdict and then explains, per path, how the
two models line up: matched pairs with their conditions and
transformations, and unmatched paths together with the clause that failed
and the SFC steps involved. The report is its JSON document: a dict that
is schema-versioned and dumped with sorted keys, so repeated runs are
byte-identical.
"""

from __future__ import annotations

import json

from ._util import natural_key
from .containment import Verdict, VERDICT_EQUIVALENT, VERDICT_MAY_NOT, \
    VERDICT_N0_IN_N1, VERDICT_N1_IN_N0
from .path_engine import Path, path_to_dict

SCHEMA_VERSION = 1

_VERDICT_LINES = {
    VERDICT_EQUIVALENT: "VERDICT: N0 ≡ N1 (equivalent models)",
    VERDICT_N0_IN_N1: "VERDICT: N0 ⊑ N1 and N1 ⊄ N0",
    VERDICT_N1_IN_N0: "VERDICT: N1 ⊑ N0 and N0 ⊄ N1",
    VERDICT_MAY_NOT: "VERDICT: N0 and N1 may not be equivalent",
}


def _path_dict(p: Path, net) -> dict:
    steps = set(p.pre_places) | set(p.post_places)
    for te in p.trans_seq:
        for t in te:
            steps |= net.post_places(t)
    return {**path_to_dict(p), "parts": list(p.parts),
            "steps": sorted(steps, key=natural_key)}


def build_report(verdict: Verdict) -> dict:
    """The report document that ``render_json`` dumps."""
    led = verdict.ledger
    by0 = verdict.cover0.by_id()
    by1 = verdict.cover1.by_id()
    un0 = sorted((pid for pid, _ in led.unmatched0), key=natural_key)
    un1 = sorted((pid for pid, _ in led.unmatched1), key=natural_key)
    clause0 = dict(led.unmatched0)
    clause1 = dict(led.unmatched1)
    corr = verdict.correspondences
    corr_doc = {
        "eta_p": [list(x) for x in sorted(corr.eta_p)],
        "eta_t": [list(x) for x in sorted(corr.eta_t)],
        "eta_v": [list(x) for x in corr.eta_v],
        "f_in": [[k, corr.f_in[k]] for k in sorted(corr.f_in,
                                                   key=natural_key)],
        "f_out": [[k, corr.f_out[k]] for k in sorted(corr.f_out,
                                                     key=natural_key)],
    }
    frac = verdict.bisim_degree
    return {
        "bisim_degree": f"{frac.numerator}/{frac.denominator}",
        "bisim_degree_decimal": float(frac),
        "correspondences": corr_doc,
        "matched": [{"n0": _path_dict(a, verdict.net0),
                     "n1": _path_dict(b, verdict.net1)}
                    for a, b in led.pairs],
        "paths_n0": [_path_dict(p, verdict.net0)
                     for p in verdict.cover0.paths],
        "paths_n1": [_path_dict(p, verdict.net1)
                     for p in verdict.cover1.paths],
        "schema_version": SCHEMA_VERSION,
        "unmatched_n0": un0,
        "unmatched_n0_detail": [{"clause": clause0[pid], "id": pid,
                                 "path": _path_dict(by0[pid], verdict.net0)}
                                for pid in un0],
        "unmatched_n1": un1,
        "unmatched_n1_detail": [{"clause": clause1[pid], "id": pid,
                                 "path": _path_dict(by1[pid], verdict.net1)}
                                for pid in un1],
        "verdict": verdict.code,
        "verdict_line": _VERDICT_LINES[verdict.code],
    }


# ---------------------------------------------------------------------------
# renderers


def render_text(report: dict) -> str:
    out = [report["verdict_line"]]
    out.append(f"bisim degree: {report['bisim_degree']} "
               f"(1-BisimDegree = "
               f"{1.0 - report['bisim_degree_decimal']:.1%})")
    out.append(f"matched pairs: {len(report['matched'])}; "
               f"unmatched N0: {len(report['unmatched_n0'])}; "
               f"unmatched N1: {len(report['unmatched_n1'])}")
    out.append("")
    out.append("== matched paths ==")
    for pair in report["matched"]:
        a, b = pair["n0"], pair["n1"]
        out.append(f"  {a['id']} ~ {b['id']}")
        out.append(f"    R: {a['R']}")
        out.append(f"    r: {a['r']}")
        if a["R"] != b["R"] or a["r"] != b["r"]:
            out.append(f"    (N1 side) R: {b['R']}")
            out.append(f"    (N1 side) r: {b['r']}")
    for label, details in (("N0", report["unmatched_n0_detail"]),
                           ("N1", report["unmatched_n1_detail"])):
        if not details:
            continue
        out.append("")
        out.append(f"== unmatched paths of {label} ==")
        for d in details:
            p = d["path"]
            out.append(f"  {d['id']}: {d['clause']}")
            out.append(f"    steps: {', '.join(p['steps'])}")
            out.append(f"    rounds: "
                       + " . ".join("{" + ",".join(r) + "}"
                                    for r in p["rounds"]))
            out.append(f"    R: {p['R']}")
            out.append(f"    r: {p['r']}")
    if report["verdict"] == VERDICT_EQUIVALENT:
        out.append("")
        out.append("every path of each model has an equivalent partner")
    out.append("")
    out.append("== variable correspondences (eta_v) ==")
    if report["correspondences"]["eta_v"]:
        for v0, v1 in report["correspondences"]["eta_v"]:
            out.append(f"  {v0} (N0) ~ {v1} (N1)")
    else:
        out.append("  none")
    return "\n".join(out) + "\n"


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True,
                      ensure_ascii=False) + "\n"
