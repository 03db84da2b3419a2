"""The three workloads: their inputs, stated facts and operation lists.

Every expected value here is stated apart from the program: the orders,
coset counts, table rows and dimensions come from the paper's tables and
lemmas, not from a stored copy of the program's output.
"""

from __future__ import annotations

import random
from pathlib import Path

WORKLOADS = ("normals", "certify", "enumerate")

# the eleven maximal groups: name -> ((m, n, p), added-relator orders r1..r5
# with None for an omitted relator, order)
CATALOG = {
    "G1": ((4, 4, 4), None, 64),
    "G2": ((4, 4, 6), None, 144),
    "G3": ((4, 5, 5), None, 160),
    "G4": ((4, 5, 6), None, 240),
    "G5": ((5, 5, 5), None, 660),
    "G6": ((4, 6, 6), (4, None, None, None, None), 384),
    "G7": ((5, 5, 6), (None, 5, None, None, None), 960),
    "G8": ((5, 6, 6), (None, 4, None, None, None), 1440),
    "G9": ((6, 6, 6), (4, 6, 6, None, None), 1152),
    "G10": ((6, 6, 6), (5, 5, 5, 4, None), 3840),
    "G11": ((6, 6, 6), (6, 6, 6, None, 3), 17496),
}
CATALOG_ORDERS = {name: order for name, (_, _, order) in CATALOG.items()}

# the paper's table of normal subgroups of index > 12 in G1..G10:
# parent -> (|N|, type of G/N) per row; G3 and G5 have none
STATED_ROWS = {
    "G1": ((4, "2xD8"), (4, "2xD8"), (4, "2xD8"), (2, "2^4:2")),
    "G2": ((9, "2xD8"), (2, "(S3xS3):2")),
    "G3": (),
    "G4": ((2, "S5"),),
    "G5": (),
    "G6": ((16, "S4"), (16, "2^2xS3"), (8, "2xS4"), (8, "2xS4"), (8, "2xS4"),
           (4, "2^2xS4"), (2, "2^4:D12")),
    "G7": ((16, "A5"),),
    "G8": ((2, "S6"),),
    "G9": ((48, "2^2xS3"), (48, "2^2xS3"), (32, "S3xS3"), (16, "2xS3xS3"),
           (2, "2^4:(S3xS3)")),
    "G10": ((32, "S5"), (2, "2^4:S5")),
}

# the ten excluded types with their orders, in the paper's order
EXCLUDED = {
    "2xS3xS3": 72,
    "S6": 720,
    "(2^4:(S3xS3))x2": 1152,
    "2^4:S5": 1920,
    "S3xS3xS3": 216,
    "2x(3^{1+2}:2^2)": 216,
    "S3:(3^{1+2}:2^2)": 648,
    "(3^2:2):(3^{1+2}:2^2)": 1944,
    "(3^3:2):(3^{1+2}:2^2)": 5832,
    "(3^4:2):(3^{1+2}:2^2)": 17496,
}
# the types certify obstructs and verifies each round: all but the three
# whose single obstruct or verify call takes 2-13 s, too long to repeat
CERTIFY_TYPES = ("2xS3xS3", "S6", "(2^4:(S3xS3))x2", "S3xS3xS3",
                 "2x(3^{1+2}:2^2)", "S3:(3^{1+2}:2^2)", "(3^2:2):(3^{1+2}:2^2)")
# the one m1-audit type: obstructed once per run, in the cold round (5 s),
# and its certificate verified in every round
M1_AUDIT_TYPE = "2^4:S5"

# Norton-Sakuma algebras and their dimensions
DIHEDRAL_DIMS = {"1A": 1, "2A": 3, "2B": 2, "3A": 4, "3C": 3,
                 "4A": 5, "4B": 5, "5A": 6, "6A": 8}

# x = b(ac)^3 has order 6 in G11; a, b and x^3 span a 2^3 of index 2187
X3_WORD = "bacacacbacacacbacacac"
G11_R = CATALOG["G11"][1]


def _presentation(mnp, r=None, relators=(), subgroup=()) -> str:
    lines = ["mnp: %d %d %d" % mnp]
    if r is not None:
        lines.append("r: " + " ".join("-" if x is None else str(x) for x in r))
    lines += [f"relator: {w}" for w in relators]
    lines += [f"subgroup: {w}" for w in subgroup]
    return "\n".join(lines) + "\n"


def presentations() -> dict[str, tuple[str, int]]:
    """File name -> (presentation text, stated coset count)."""
    out = {}
    for name, (mnp, r, order) in CATALOG.items():
        out[f"{name}.txt"] = (_presentation(mnp, r), order)
    out["G11_over_ab.txt"] = (
        _presentation((6, 6, 6), G11_R, subgroup=("a", "b")), 17496 // 4)
    out["G11_over_abx3.txt"] = (
        _presentation((6, 6, 6), G11_R, subgroup=("a", "b", X3_WORD)),
        17496 // 8)
    # (6,6,6) with R1^6 R2^6 R3^6 and R4^k: the R4 lemma
    for k, count in zip(range(1, 6), (12, 216, 108, 216, 12)):
        out[f"R4_{k}.txt"] = (_presentation((6, 6, 6), (6, 6, 6, k, None)),
                              count)
    for m, count in ((1, 4), (2, 24), (3, 108)):
        out[f"m{m}_6_6.txt"] = (_presentation((m, 6, 6)), count)
    for i, r in enumerate(((2, 6, 6), (6, 2, 6), (6, 6, 2)), 1):
        out[f"variant72_{i}.txt"] = (
            _presentation((6, 6, 6), (*r, None, None)), 72)
    for i, y in enumerate(("(a * c^(bc))^2", "(b * c^(ac))^2",
                           "(ab * c^(ac))^2"), 1):
        out[f"yword216_{i}.txt"] = (
            _presentation((6, 6, 6), G11_R, relators=(y,)), 216)
    out["quotient5832.txt"] = (
        _presentation((6, 6, 6), G11_R,
                      relators=("c^(acbcacb) * c^(bcacbca)",)), 5832)
    return out


def write_inputs(workload: str, rundir: Path) -> None:
    if workload == "enumerate":
        pres = rundir / "presentations"
        pres.mkdir()
        for fname, (text, _) in presentations().items():
            (pres / fname).write_text(text)


def operations(workload: str, rundir: Path, seed: int, round_no: int):
    """Yield (key, argv) for each operation of one round, in order.

    The key names the operation the same way in every round.  Lazy, so that
    an operation may name a file written by the one before.
    """
    if workload == "normals":
        for name in STATED_ROWS:
            yield name, ["--format", "json", "normals", name]
    elif workload == "certify":
        m1_dir = rundir / "certs" / "m1-audit"
        if round_no == 0:
            yield (f"obstruct {M1_AUDIT_TYPE}", ["--out", str(m1_dir), "--format",
                                                 "json", "obstruct", M1_AUDIT_TYPE])
        written = sorted(m1_dir.glob("*.cert.json"))
        target = str(written[0]) if len(written) == 1 else str(m1_dir)
        yield f"verify {M1_AUDIT_TYPE}", ["--format", "json", "verify", target]
        yield "dihedral", ["--format", "json", "dihedral", "verify"]
        for i, name in enumerate(CERTIFY_TYPES):
            outdir = rundir / "certs" / str(round_no) / str(i)
            yield (f"obstruct {name}",
                   ["--out", str(outdir), "--format", "json", "obstruct", name])
            written = sorted(outdir.glob("*.cert.json"))
            target = str(written[0]) if len(written) == 1 else str(outdir)
            yield f"verify {name}", ["--format", "json", "verify", target]
    elif workload == "enumerate":
        files = sorted(presentations())
        random.Random(seed * 1000 + round_no).shuffle(files)
        for fname in files:
            yield fname, ["--format", "json", "enumerate",
                          str(rundir / "presentations" / fname)]
    else:
        raise ValueError(workload)
