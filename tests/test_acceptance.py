"""The acceptance suite, one test per criterion (criterion 3 split per monoid).

Each test prints its criterion's pass/fail lines; run with ``pytest -s`` to
see them.  It also pins the sha256 of those lines, so a change to the checks
that alters any byte of ``cycshift verify`` fails here.  Two criterion-3
reference values were catalogued wrongly and are corrected in
``verify.criterion_3``: the stalactic component of 1233 has 10 edges, not
11, and the hypoplactic component of 123445 has diameter 3, not 4.
``test_c3_reference.py`` recomputes all nine values independently; the README
gives the witnesses.
"""

import hashlib

from cycshift import verify


def _run(results, digest):
    lines = [r.line() for r in results]
    print("\n".join(lines))
    bad = [r for r in results if not r.passed]
    assert not bad, "; ".join(r.line() for r in bad)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest


def test_c1_cocharge_worked_example():
    _run(verify.criterion_1(), "b61bd0c6dbfc47ba36ce1c29f149af47040e9da0d96ec6f9e4e6791efb69fbc9")


def test_c2_insertion_matches_presentation():
    _run(verify.criterion_2(), "36eb70cd7e1445c62e6d7dbd0d5e3091a0b0bbfbe808f26fc90d8e32b6aff7d6")


def _c3():
    return {r.name: r for r in verify.criterion_3()}


def test_c3_plactic_component():
    rs = _c3()
    _run(
        [rs["c3 plac component of 12345: vertices"], rs["c3 plac component of 12345: diameter"]],
        "8e7a76fdc3f2ab96330920596b5e6870d2f8a5de178ac0f706d8e32493257b6b",
    )


def test_c3_hypoplactic_component():
    rs = _c3()
    _run(
        [
            rs["c3 hypo component of 123445: vertices"],
            rs["c3 hypo component of 123445: diameter"],
        ],
        "fe0cb2f80b71df73f9ea4cfc771cea7a67faf8b5e93edffa7555534f4078533a",
    )


def test_c3_sylvester_component():
    rs = _c3()
    _run(
        [rs["c3 sylv component of 1234: vertices"], rs["c3 sylv component of 1234: diameter"]],
        "a7e188b4623ecae1315f95562cf6244f3ff45d04c2369665698b29c0ecc3cad8",
    )


def test_c3_stalactic_component():
    rs = _c3()
    _run(
        [
            rs["c3 stal component of 1233: vertices"],
            rs["c3 stal component of 1233: edges"],
            rs["c3 stal component of 1233: diameter"],
        ],
        "c7e0a2efc44e41e4a5263e7e316ad91f7a6d02aca7d179b883e2e0602b5d54d5",
    )


def test_c4_table_reproduction():
    _run(verify.criterion_4(), "b832a9ec4f00fcde9bb084b2f71f1719966b8eb92b3844f68fc558b7b3e3fe47")


def test_c5_constructive_paths():
    _run(verify.criterion_5(), "1981306a41face686c3c1164735e5f43442cbb4ca8caf22f666f1f41e121fd03")


def test_c6_row_column_lower_bounds():
    _run(verify.criterion_6(), "90e4101409037a64762cd7ccd69750117d555e1ac0050062b1039837c038cf00")


def test_c7_baxter_structure():
    _run(verify.criterion_7(), "83375aac50f73f65654602482ee3dd09ce61e89d7e4a2c3245c61a973e228eda")


def test_c8_unbounded_counterexample():
    _run(verify.criterion_8(), "063d14d0427103c1fe0552b19891f2c26b62b263bcadcf7e9dff18bc7a54fd71")


def test_c9_conjugacy_witnesses():
    _run(verify.criterion_9(), "0e7690f3cc100378c1ce6066755c03a59aa3f3448247b3f6b85c2fa8f03919cc")


def test_c10_randomized_invariants():
    _run(verify.criterion_10(), "1e24e106a1ebd37a2d1ee9401291f4448cfca9a77684fbeeb176c0e8db3f5961")
