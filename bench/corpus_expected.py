"""Expected outcome of every valid corpus (document, command) pair.

Written by hand from the README, the corpus file comments and the test
assertions, not from program output.  Each entry gives the exit code
(0 PASS or structural success, 1 FAIL), the overall verdict, the
condition verdicts that a source pins, and, where a source fixes them,
the record count and facts.  PASS implies that every record is zero.

Sources: C = tests/test_cli.py, A = tests/test_acceptance.py,
R = tests/test_criteria.py, M = README.md, F = the corpus file comment.
Entries marked "derived" follow from a stated fact rather than a pinned
value:
* appendix on a document that is not linearizable (check FAIL) must
  FAIL, since a flat lift at any gauge would linearize it (M, "Invariant
  tests ... hold if and only if a linearizing transformation exists");
* appendix at the zero gauge on sys-ex1-iso (connection entries
  G2_11 = w*y, G3_11 = w*z) and on sys-ex3-quad (G1_13 = G2_23 = -1/2,
  G2_22 = 1) is not flat: R2_121 = w and R1_313 = -1/4 by hand.
"""

ZERO, NONZERO = "zero", "nonzero"


def _pass(code=0, **extra):
    return dict(exit=code, overall="PASS", **extra)


def _fail(pinned=None, **extra):
    return dict(exit=1, overall="FAIL", pinned=pinned or {}, **extra)


def _lift(result_kind, **coefficients):
    return dict(exit=0, result_kind=result_kind, coefficients=coefficients)


_ELEVEN = {f"Eq11.{i}": ZERO for i in range(1, 7)}

EXPECTED = {
    # scalar-cubic documents
    ("lie-counter", "check"): _fail({"Eq3.2": NONZERO}),                    # C, A
    ("lie-counter", "lift"): _lift("geodesic-2"),                           # C (lift is structural)
    ("lie-counter", "appendix"): _fail(),                                   # derived
    ("lie-ex1", "check"): _pass(pinned={"Eq3.1": ZERO, "Eq3.2": ZERO}),     # C
    ("lie-ex1", "lift"): _lift("geodesic-2", a="1", e="1"),                 # C
    ("lie-ex1", "appendix"): _pass(pinned={"Eq9.2": ZERO}),                 # C
    ("lie-ex1", "verify-transform"): _pass(pinned={"Eqr4.2": ZERO}),        # C, A
    ("lie-ex1", "verify-metric"): _pass(                                    # C, A
        pinned=_ELEVEN, records=6, facts={"degenerate": "yes", "determinant": "0"}),
    ("lie-ex2", "check"): _pass(),                                          # A
    ("lie-ex2", "lift"): _lift("geodesic-2"),                               # C
    ("lie-ex2", "appendix"): _pass(),                                       # A
    ("lie-ex2", "verify-transform"): _pass(pinned={"Eqr4.2": ZERO}),        # C, A
    ("lie-ex2", "verify-metric"): _pass(                                    # C, A
        pinned=_ELEVEN, records=6, facts={"degenerate": "no"}),
    # linear-2 documents
    ("sys-ex1", "check"): _fail(                                            # M, C, R
        {"Eq55.1": ZERO, "Eq55.2": ZERO, "Eq55.3": NONZERO}, records=3),
    ("sys-ex1", "lift"): _lift("geodesic-3"),
    ("sys-ex1", "appendix"): _fail(),                                       # derived
    ("sys-ex1-iso", "check"): _pass(records=3),                             # C, A
    ("sys-ex1-iso", "lift"): _lift("geodesic-3"),
    ("sys-ex1-iso", "appendix"): _fail(),                                   # derived
    ("sys-ex2", "check"): _fail({"Eq55.2": NONZERO, "Eq55.3": NONZERO}),    # C, R
    ("sys-ex2", "lift"): _lift("geodesic-3"),
    ("sys-ex2", "appendix"): _fail({"EqA2.5": NONZERO}, records=33),        # R (forced pair)
    # quadratic-2 document
    ("sys-ex3-quad", "check"): _pass(records=4),                            # C
    ("sys-ex3-quad", "lift"): _lift("geodesic-3"),
    ("sys-ex3-quad", "appendix"): _fail(records=33),                        # derived
    # cubic-2 documents
    ("sys-ex2-cubic", "check"): _fail(                                      # C, A, R
        {"Eq51.4": NONZERO, "Eq51.12": NONZERO}, records=15),
    ("sys-ex2-cubic", "lift"): _lift("geodesic-3"),
    ("sys-ex2-cubic", "appendix"): _fail({"EqA2.5": NONZERO}, records=33),  # R
    ("sys-ex3", "check"): _pass(records=15),                                # C, A, R
    ("sys-ex3", "lift"): _lift("geodesic-3", G3_33="1"),                    # C
    ("sys-ex3", "appendix"): _pass(records=33),                             # C, R
    ("sys-ex3", "verify-transform"): _pass(                                 # C, A
        pinned={"Eqr4.2": ZERO, "Eqr4.3": ZERO}),
    ("sys-ex4", "check"): _pass(records=15),                                # C, A, R
    ("sys-ex4", "lift"): _lift("geodesic-3"),
    ("sys-ex4", "appendix"): _pass(records=33),                             # R (worked pair)
    ("sys-ex4", "verify-transform"): _pass(                                 # C, A
        pinned={"Eqr4.2": ZERO, "Eqr4.3": ZERO}),
    # general-2 document
    ("sys-ex5", "normal-form"): _fail({"Eqr55.Lam3_23": NONZERO}),          # C, F
    ("sys-ex5", "verify-transform"): _pass(                                 # C, A
        pinned={"Eqr4.2": ZERO, "Eqr4.3": ZERO}),
}


def mismatches(document: str, command: str, code: int, payload: dict) -> list:
    """Differences between one CLI result and the expected table."""
    want = EXPECTED[(document, command)]
    problems = []
    if code != want["exit"]:
        problems.append(f"exit {code}, expected {want['exit']}")
    if payload.get("command") != command:
        problems.append(f"command {payload.get('command')!r}")
    if "result_kind" in want:
        if payload.get("result_kind") != want["result_kind"]:
            problems.append(f"result_kind {payload.get('result_kind')!r}")
        table = payload.get("coefficients", {})
        for key, text in want["coefficients"].items():
            if table.get(key) != text:
                problems.append(f"coefficient {key} = {table.get(key)!r}, expected {text!r}")
        return problems
    if payload.get("overall") != want["overall"]:
        problems.append(f"overall {payload.get('overall')!r}, expected {want['overall']!r}")
    verdicts = {c["id"]: c["verdict"] for c in payload.get("conditions", [])}
    if want["overall"] == "PASS" and any(v != ZERO for v in verdicts.values()):
        problems.append("PASS with a record that is not zero")
    if want["overall"] == "FAIL" and NONZERO not in verdicts.values():
        problems.append("FAIL without a nonzero record")
    for cid, verdict in want.get("pinned", {}).items():
        if verdicts.get(cid) != verdict:
            problems.append(f"{cid} is {verdicts.get(cid)!r}, expected {verdict!r}")
    if "records" in want and len(verdicts) != want["records"]:
        problems.append(f"{len(verdicts)} records, expected {want['records']}")
    facts = payload.get("facts", {})
    for key, value in want.get("facts", {}).items():
        if facts.get(key) != value:
            problems.append(f"fact {key} = {facts.get(key)!r}, expected {value!r}")
    return problems
