"""Command line front end for the catalog, tables, proofs, and certificates.

Exit codes: 0 success, 1 verified discrepancy or failed check, 2 usage error.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import re
import sys
from functools import cache
from pathlib import Path

from . import classify
from .axial import cert_from_dict, cert_to_dict, obstruct, verify_certificate
from .dihedral import DIHEDRAL_TYPES, axis_checks, build, check_inclusion, check_m1
from .fpgrp import DEFAULT_CAPACITY, parse_presentation, todd_coxeter
from .permgrp import CapacityError

__all__ = ["main", "run"]

CERT_SCHEMA = "tpg.certificate/1"


@cache
def _parser() -> argparse.ArgumentParser:
    """Built once per process; each parse_args call fills a fresh Namespace."""
    p = argparse.ArgumentParser(
        prog="tpg",
        description="classification toolkit for triangle-point groups")
    p.add_argument("--out", default="out", metavar="DIR",
                   help="directory for emitted artifacts (default: out)")
    p.add_argument("--format", choices=("json", "markdown"),
                   default="markdown", help="stdout rendering")
    p.add_argument("--coset-capacity", type=int, default=DEFAULT_CAPACITY,
                   metavar="N", dest="capacity",
                   help="most cosets one coset enumeration may define, live "
                        "plus collapsed, not the size of the final table "
                        "(G9 defines 14,735 to reach 1,152); bounds "
                        "'enumerate' and the catalog entries that 'catalog', "
                        "'normals' and 'classify' build (default 1000000)")
    p.add_argument("--verify", action="store_true",
                   help="'catalog' only: re-check each entry's quotient rows "
                        "against its normal-subgroup lattice (obstruct "
                        "certificates are always self-verified)")
    sub = p.add_subparsers(dest="subcommand", required=True)

    sc = sub.add_parser("catalog", help="maximal groups with validation")
    sc.add_argument("--only", metavar="NAME", help="restrict to one group")
    sc.set_defaults(handler=_cmd_catalog)

    sn = sub.add_parser("normals",
                        help="normal subgroups of index > 12 with quotients")
    sn.add_argument("group", metavar="NAME")
    sn.set_defaults(handler=_cmd_normals)

    sd = sub.add_parser("dihedral", help="dihedral algebra checks")
    sd.add_argument("action", choices=("verify",))
    sd.set_defaults(handler=_cmd_dihedral)

    se = sub.add_parser("enumerate", help="coset enumeration from a file")
    se.add_argument("file", metavar="PRESENTATION")
    se.set_defaults(handler=_cmd_enumerate)

    so = sub.add_parser("obstruct",
                        help="certify non-existence for an excluded type")
    so.add_argument("target", metavar="TYPE")
    so.set_defaults(handler=_cmd_obstruct)

    sk = sub.add_parser("classify", help="full pipeline with report emission")
    sk.set_defaults(handler=_cmd_classify)

    sv = sub.add_parser("verify", help="re-check a certificate file")
    sv.add_argument("file", metavar="CERTIFICATE")
    sv.set_defaults(handler=_cmd_verify)

    return p


def _usage_error(msg: str) -> int:
    print(f"tpg: error: {msg}", file=sys.stderr)
    return 2


# -- subcommands -----------------------------------------------------------------


def _out_dir(ns: argparse.Namespace, names: tuple[str, ...]) -> Path | None:
    """The --out directory, created, for files names; None, after a usage
    error, if it cannot be created or a directory takes one of the names."""
    out = Path(ns.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file, or a path through one
        _usage_error(f"--out {ns.out}: cannot create directory ({exc.strerror})")
        return None
    for name in names:
        if (out / name).is_dir():
            _usage_error(f"--out {ns.out}: cannot write {name} "
                         f"({os.strerror(errno.EISDIR)})")
            return None
    return out


def _cmd_catalog(ns: argparse.Namespace) -> int:
    if ns.only is not None and ns.only not in classify.GROUP_NAMES:
        return _usage_error(f"unknown group {ns.only!r}; "
                            f"expected one of {', '.join(classify.GROUP_NAMES)}")
    entries = (classify.catalog(ns.capacity) if ns.only is None
               else [classify.entry(ns.only, ns.capacity)])
    if ns.verify:
        for e in entries:
            lattice = classify.normal_subgroups_index_gt(e.group, 12)
            classify.quotient_records(e, lattice)
    rows = []
    for e in entries:
        r = ",".join("-" if x is None else str(x) for x in e.r)
        rows.append({
            "name": e.name, "type": e.claimed, "mnp": list(e.mnp),
            "r": r, "order": e.order, "source": e.source,
            "normals_index_gt_12": len(classify.table_rows(e.name)),
        })
    if ns.format == "json":
        print(json.dumps(rows, indent=2))
    else:
        print(classify.markdown_table(
            ["name", "type", "(m,n,p)", "r", "order", "normals(index>12)"],
            [[d["name"], d["type"], str(tuple(d["mnp"])), f"({d['r']})",
              str(d["order"]), str(d["normals_index_gt_12"])] for d in rows]))
    return 0


def _cmd_normals(ns: argparse.Namespace) -> int:
    name = ns.group
    if name not in classify.GROUP_NAMES:
        return _usage_error(f"unknown group {name!r}; "
                            f"expected one of {', '.join(classify.GROUP_NAMES)}")
    recs = classify.quotient_records(classify.entry(name, ns.capacity))
    if ns.format == "json":
        print(json.dumps([
            {"subgroup_order": r.subgroup_order, "words": list(r.words),
             "quotient_order": r.quotient_order, "type": r.type_name,
             "triangle_point": r.triangle_point, "repaired": r.repaired}
            for r in recs], indent=2))
    else:
        print(classify.markdown_table(
            ["|N|", "X", "quotient order", "type"],
            [[str(r.subgroup_order),
              ", ".join(r.words) + (" *" if r.repaired else ""),
              str(r.quotient_order), r.type_name] for r in recs]))
        if not recs:
            print(f"{name}: no normal subgroups of index > 12")
    return 0


def _cmd_dihedral(ns: argparse.Namespace) -> int:
    results = []
    for t in DIHEDRAL_TYPES:
        alg = build(t)
        fusion, miyamoto = axis_checks(alg)
        failures = check_m1(alg) + fusion + miyamoto
        if t in ("4A", "4B", "6A"):
            failures += check_inclusion(alg)
        results.append({
            "type": t, "dim": alg.dim, "failures": failures,
            "gram_psd": alg.gram.is_psd(),
        })
    bad = [r for r in results if r["failures"] or not r["gram_psd"]]
    if ns.format == "json":
        print(json.dumps(results, indent=2))
    else:
        for r in results:
            status = "ok" if r not in bad else "FAIL " + "; ".join(r["failures"])
            print(f"{r['type']}: dim {r['dim']}, gram "
                  f"{'psd' if r['gram_psd'] else 'NOT PSD'}, {status}")
    return 1 if bad else 0


def _cmd_enumerate(ns: argparse.Namespace) -> int:
    path = Path(ns.file)
    if not path.is_file():
        return _usage_error(f"no such file: {path}")
    try:
        pres, subgroup = parse_presentation(path.read_text())
    except OSError as exc:
        return _usage_error(f"{path}: cannot read ({exc.strerror or exc})")
    except ValueError as exc:
        return _usage_error(f"{path}: {exc}")
    table = todd_coxeter(pres, subgroup=subgroup, capacity=ns.capacity)
    if ns.format == "json":
        print(json.dumps({"cosets": table.coset_count}))
    else:
        print(f"cosets: {table.coset_count}")
    return 0


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "_", name).strip("_")


def _cert_summary(cert) -> str:
    if cert.kind == "klein":
        members = ", ".join(p for p, _ in cert.members)
        return f"klein witness {members}"
    return (f"m1-audit witness triple {', '.join(cert.triple)}: "
            f"(u.v, w) = {cert.lhs} but (u, v.w) = {cert.rhs}")


def _cmd_obstruct(ns: argparse.Namespace) -> int:
    name = ns.target
    if name not in classify.EXCLUDED_TYPE_NAMES:
        known = ", ".join(classify.EXCLUDED_TYPE_NAMES)
        return _usage_error(f"unknown excluded type {name!r}; expected one "
                            f"of: {known}")
    fname = f"{_safe_name(name)}.cert.json"
    out = _out_dir(ns, (fname,))  # an unusable --out fails before the search
    if out is None:
        return 2
    tcfg = classify.target_config(name)
    cert = obstruct(tcfg)
    if cert is None:
        print(f"tpg: no obstruction certified for {name}", file=sys.stderr)
        return 1
    payload = {"schema": CERT_SCHEMA, "type": name,
               "certificate": cert_to_dict(cert)}
    dest = out / fname
    dest.write_text(json.dumps(payload, indent=2) + "\n")
    if ns.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(f"{name} (order {cert.group_order}): {_cert_summary(cert)}")
        print(f"wrote {dest}")
    return 0


def _cmd_verify(ns: argparse.Namespace) -> int:
    path = Path(ns.file)
    if not path.is_file():
        return _usage_error(f"no such file: {path}")
    try:
        payload = json.loads(path.read_text())
    except OSError as exc:
        return _usage_error(f"{path}: cannot read ({exc.strerror or exc})")
    except (ValueError, RecursionError) as exc:  # bad UTF-8, bad or deep JSON
        return _usage_error(f"{path}: invalid JSON ({exc})")
    if not isinstance(payload, dict):
        return _usage_error(f"{path}: expected a JSON object")
    if payload.get("schema") != CERT_SCHEMA:
        return _usage_error(f"{path}: expected schema {CERT_SCHEMA}")
    name = payload.get("type")
    if name not in classify.EXCLUDED_TYPE_NAMES:
        return _usage_error(f"{path}: unknown excluded type {name!r}")
    try:
        cert = cert_from_dict(payload["certificate"])
    except (KeyError, TypeError, ValueError) as exc:
        return _usage_error(f"{path}: malformed certificate ({exc})")
    tcfg = classify.target_config(name)
    ok = verify_certificate(tcfg, cert)
    if ns.format == "json":
        print(json.dumps({"type": name, "verified": ok}))
    else:
        verdict = "verified" if ok else "REJECTED"
        print(f"{name}: {verdict} ({_cert_summary(cert)})")
    return 0 if ok else 1


def _cmd_classify(ns: argparse.Namespace) -> int:
    out = _out_dir(ns, classify.OUTPUT_FILES)  # fails before the pipeline runs
    if out is None:
        return 2
    report = classify.classify_all(ns.capacity)
    paths = classify.write_outputs(report, out)
    rec = report.reconciliation
    if ns.format == "json":
        print(json.dumps(classify.report_to_json(report), indent=2))
    else:
        print(f"distinct triangle-point types: {rec['computed_total']} "
              f"(stated: {rec['stated_total']})")
        print(f"configurations (group with closed T-set): "
              f"{rec['computed_configurations']} "
              f"(stated: {rec['stated_total']})")
        print(f"excluded: {rec['computed_excluded']} "
              f"(stated: {rec['stated_excluded']})")
        print(f"admissible types: {rec['computed_admissible']} "
              f"(stated: {rec['stated_admissible']})")
        print(f"admissible configurations: "
              f"{rec['computed_admissible_configurations']} "
              f"(stated: {rec['stated_admissible']})")
        for line in report.repairs:
            print(f"repair: {line}")
        for line in report.discrepancies:
            print(f"discrepancy: {line}")
        for p in paths:
            print(f"wrote {p}")
    return 1 if report.discrepancies else 0


def run(argv: list[str] | None = None) -> int:
    try:
        ns = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if ns.capacity < 1:
        return _usage_error("--coset-capacity must be positive")
    try:
        return ns.handler(ns)
    except classify.ClassificationError as exc:
        print(f"tpg: verified discrepancy: {exc}", file=sys.stderr)
        return 1
    except CapacityError as exc:
        print(f"tpg: enumeration aborted: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        pass  # leaving the handler drops its traceback, and the storage it holds
    print("tpg: out of memory", file=sys.stderr)
    return 1


def main() -> int:
    return run()


if __name__ == "__main__":
    sys.exit(main())
