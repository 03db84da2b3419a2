"""Output checks for the three workloads.

Each check compares an operation's output with facts stated apart from the
program (workloads.py) or with properties the method must have.  Checks
return a list of messages; an operation with any message counts as failed.
Certificates are checked with this file's own permutation arithmetic, not
with the program's.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from workloads import (CATALOG_ORDERS, DIHEDRAL_DIMS, EXCLUDED, STATED_ROWS,
                       presentations)

# -- permutations as tuples of 0-based images -----------------------------------


def parse_perm(text: str, degree: int) -> tuple[int, ...]:
    """Disjoint cycles such as "(1,2)(3,4)"; "()" is the identity."""
    img = list(range(degree))
    body = text.replace(" ", "")
    if body not in ("", "()"):
        if not (body.startswith("(") and body.endswith(")")):
            raise ValueError(f"malformed permutation {text!r}")
        seen = set()
        for part in body[1:-1].split(")("):
            pts = [int(x) - 1 for x in part.split(",")]
            if any(not 0 <= p < degree for p in pts) or seen & set(pts):
                raise ValueError(f"bad cycle {part!r}")
            seen.update(pts)
            for x, y in zip(pts, pts[1:] + pts[:1]):
                img[x] = y
    return tuple(img)


def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """p then q."""
    return tuple(q[i] for i in p)


def closure(gens: list[tuple[int, ...]], degree: int, limit: int = 64) -> set:
    """Elements generated by gens; stops once more than limit are found."""
    ident = tuple(range(degree))
    found = {ident}
    frontier = [ident]
    while frontier and len(found) <= limit:
        nxt = []
        for x in frontier:
            for g in gens:
                y = compose(x, g)
                if y not in found:
                    found.add(y)
                    nxt.append(y)
        frontier = nxt
    return found


def check_klein(cert: dict) -> list[str]:
    """Seven distinct commuting involutions, closed, generated as listed."""
    deg = cert["degree"]
    ident = tuple(range(deg))
    members = [parse_perm(p, deg) for p, _ in cert["members"]]
    gens = [parse_perm(p, deg) for p in cert["generators"]]
    msgs = []
    if len(members) != 7 or len(set(members)) != 7:
        msgs.append("klein: expected 7 distinct members")
    if any(m == ident or compose(m, m) != ident for m in members):
        msgs.append("klein: a member is not an involution")
    if any(compose(x, y) != compose(y, x) for x in members for y in members):
        msgs.append("klein: members do not commute")
    mset = set(members)
    if any(compose(x, y) not in mset
           for x in members for y in members if x != y):
        msgs.append("klein: members not closed under products")
    if closure(gens, deg) != mset | {ident}:
        msgs.append("klein: generators do not generate the members")
    return msgs


def check_m1_audit(cert: dict) -> list[str]:
    """Ten members, a K of order 16 and an associativity failure lhs != rhs."""
    deg = cert["degree"]
    members = {parse_perm(p, deg) for p, _ in cert["members"]}
    gens = [parse_perm(p, deg) for p in cert["generators"]]
    msgs = []
    if len(members) != 10 or len(cert["members"]) != 10:
        msgs.append("m1-audit: expected 10 distinct members")
    if len(closure(gens, deg)) != 16:
        msgs.append("m1-audit: K does not have order 16")
    if Fraction(cert["lhs"]) == Fraction(cert["rhs"]):
        msgs.append("m1-audit: lhs equals rhs")
    return msgs


def check_certificate(name: str, payload: dict) -> list[str]:
    try:
        cert = payload["certificate"]
        if payload.get("type") != name:
            return [f"{name}: certificate names type {payload.get('type')!r}"]
        msgs = []
        if cert["group_order"] != EXCLUDED[name]:
            msgs.append(f"{name}: group_order {cert['group_order']}, "
                        f"stated {EXCLUDED[name]}")
        if cert["kind"] == "klein":
            msgs += check_klein(cert)
        elif cert["kind"] == "m1-audit":
            msgs += check_m1_audit(cert)
        else:
            msgs.append(f"{name}: unknown kind {cert['kind']!r}")
        return [f"{name}: {m}" for m in msgs]
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return [f"{name}: malformed certificate ({type(exc).__name__}: {exc})"]


# -- normals ---------------------------------------------------------------------


def check_normals_rows(parent: str, rows) -> list[str]:
    """The paper's rows for parent, each with quotient order x |N| = |G|."""
    try:
        got = sorted((r["subgroup_order"], r["type"]) for r in rows)
        msgs = []
        if got != sorted(STATED_ROWS[parent]):
            msgs.append(f"{parent}: rows (|N|, type) {got}, stated "
                        f"{sorted(STATED_ROWS[parent])}")
        for r in rows:
            if (r["quotient_order"] * r["subgroup_order"]
                    != CATALOG_ORDERS[parent]):
                msgs.append(f"{parent}/N{r['subgroup_order']}: quotient "
                            f"order {r['quotient_order']}")
        return msgs
    except (KeyError, TypeError) as exc:
        return [f"{parent}: malformed rows ({type(exc).__name__}: {exc})"]


def check_normals(records: list[dict]) -> dict[int, list[str]]:
    """normals: the stated rows, and the same output in every round.

    Every round runs the same calls in one process, so a call that prints
    something else than its first run did breaks determinism.
    """
    first: dict[str, str] = {}
    out = {}
    for i, rec in enumerate(records):
        parent = rec["argv"][-1]
        msgs = _exit_msgs(rec)
        if not msgs:
            try:
                msgs = check_normals_rows(parent, json.loads(rec["stdout"]))
            except json.JSONDecodeError:
                msgs = [f"output is not JSON: {rec['stdout'][:80]!r}"]
        if first.setdefault(parent, rec["stdout"]) != rec["stdout"]:
            msgs.append(f"{parent}: output differs from the first round")
        out[i] = msgs
    return out


# -- certify ---------------------------------------------------------------------


def check_dihedral(results) -> list[str]:
    try:
        dims = {r["type"]: r["dim"] for r in results}
        msgs = []
        if dims != DIHEDRAL_DIMS or len(results) != len(DIHEDRAL_DIMS):
            msgs.append(f"dihedral dimensions {dims}")
        msgs += [f"{r['type']}: failures {r['failures']}"
                 for r in results if r["failures"]]
        msgs += [f"{r['type']}: Gram matrix not PSD"
                 for r in results if r["gram_psd"] is not True]
        return msgs
    except (KeyError, TypeError) as exc:
        return [f"malformed dihedral output ({type(exc).__name__}: {exc})"]


def _exit_msgs(rec: dict) -> list[str]:
    if rec["rc"] == 0:
        return []
    return [f"exit code {rec['rc']} {rec['error'] or ''}".strip()]


def check_certify(records: list[dict]) -> dict[int, list[str]]:
    """dihedral verify, and obstruct and verify for each certified type."""
    out: dict[int, list[str]] = {}
    for i, rec in enumerate(records):
        argv = rec["argv"]
        msgs = _exit_msgs(rec)
        try:
            payload = json.loads(rec["stdout"]) if not msgs else None
        except json.JSONDecodeError:
            msgs.append(f"output is not JSON: {rec['stdout'][:80]!r}")
        if msgs:
            pass
        elif argv[-2:] == ["dihedral", "verify"]:
            msgs = check_dihedral(payload)
        elif argv[-2] == "obstruct":
            written = sorted(Path(argv[1]).glob("*.cert.json"))
            if len(written) != 1:
                msgs.append(f"{len(written)} certificate files written")
            elif json.loads(written[0].read_text()) != payload:
                msgs.append("written certificate differs from stdout")
            msgs += check_certificate(argv[-1], payload)
        else:
            name = rec["key"].split(" ", 1)[1]
            if payload != {"type": name, "verified": True}:
                msgs.append(f"verify printed {rec['stdout'].strip()!r}")
        out[i] = msgs
    return out


# -- enumerate -------------------------------------------------------------------


def check_enumerate(records: list[dict]) -> dict[int, list[str]]:
    stated = presentations()
    out = {}
    for i, rec in enumerate(records):
        fname = Path(rec["argv"][-1]).name
        want = stated[fname][1]
        msgs = _exit_msgs(rec)
        if not msgs:
            try:
                got = json.loads(rec["stdout"])["cosets"]
            except (json.JSONDecodeError, KeyError, TypeError):
                got = rec["stdout"].strip()
            if got != want:
                msgs.append(f"{fname}: {got} cosets, stated {want}")
        out[i] = msgs
    return out
