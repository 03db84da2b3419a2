"""Self-test of the output checks: each must accept a right output and
reject a deliberately wrong one.

Usage, from the root of a checkout:  python3 perf/selftest.py

Takes a few seconds: the only program calls are `tpg obstruct S6` and
`tpg verify` on its certificate before and after tampering, each in a fresh
process.  Exits 0 when every check behaves, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
import time

import checks
import workloads
from run import OUT, ROOT, program_env


def tpg(argv: list[str], cwd) -> subprocess.CompletedProcess:
    code = "import sys, tpg.cli; sys.exit(tpg.cli.run(sys.argv[1:]))"
    return subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd,
                          env=program_env(0), capture_output=True, text=True,
                          timeout=120)


def main() -> int:
    results = []

    def expect(label: str, msgs: list[str], should_fail: bool) -> None:
        ok = bool(msgs) == should_fail
        results.append(ok)
        verdict = "rejected" if msgs else "accepted"
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {verdict}"
              + (f" ({msgs[0]})" if msgs else ""))

    rows = [{"subgroup_order": n, "quotient_order": 3840 // n, "type": t}
            for n, t in workloads.STATED_ROWS["G10"]]
    expect("normals G10 with the paper's rows",
           checks.check_normals_rows("G10", rows), False)
    bad = copy.deepcopy(rows)
    bad[0]["quotient_order"] = 60
    expect("normals G10 with a quotient of order 60 for |N| = 32",
           checks.check_normals_rows("G10", bad), True)
    expect("normals G10 without its 2^4:S5 row",
           checks.check_normals_rows("G10", rows[:1]), True)

    fname = "G11.txt"
    path = str(ROOT / "presentations" / fname)
    rec = {"argv": ["--format", "json", "enumerate", path], "rc": 0,
           "error": None, "stdout": json.dumps({"cosets": 17496})}
    expect("coset count 17496 for G11", checks.check_enumerate([rec])[0], False)
    rec = dict(rec, stdout=json.dumps({"cosets": 17495}))
    expect("coset count 17495 for G11", checks.check_enumerate([rec])[0], True)

    work = OUT / f"selftest-{time.time_ns()}"
    work.mkdir(parents=True)
    made = tpg(["--out", str(work), "--format", "json", "obstruct", "S6"], work)
    if made.returncode != 0:
        print(f"FAIL tpg obstruct S6 exited {made.returncode}: {made.stderr}")
        return 1
    (cert_path,) = work.glob("*.cert.json")
    payload = json.loads(cert_path.read_text())
    expect("S6 klein certificate", checks.check_certificate("S6", payload), False)
    expect("tpg verify on the S6 certificate",
           [] if tpg(["verify", str(cert_path)], work).returncode == 0
           else ["exit code not 0"], False)

    cert = payload["certificate"]
    members = {checks.parse_perm(p, cert["degree"]) for p, _ in cert["members"]}
    swap = next(f"({i},{j})" for i in range(1, 7) for j in range(i + 1, 7)
                if checks.parse_perm(f"({i},{j})", 6) not in members)
    tampered = copy.deepcopy(payload)
    tampered["certificate"]["members"][0][0] = swap
    expect(f"S6 klein certificate with member 1 replaced by {swap}",
           checks.check_certificate("S6", tampered), True)
    bad_path = work / "tampered.cert.json"
    bad_path.write_text(json.dumps(tampered))
    rc = tpg(["verify", str(bad_path)], work).returncode
    expect("tpg verify on the tampered S6 certificate",
           [f"exit code {rc}"] if rc == 1 else [], True)

    print(f"{sum(results)} of {len(results)} self-test cases behave")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
