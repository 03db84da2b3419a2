"""List the functions under src/tpg that no command enters.

Run from anywhere: ``python tools/reach.py``.  In one process it runs every
command once through ``tpg.cli.main``, the ``tpg`` script's entry point:
classify, catalog, catalog --verify, dihedral verify, normals for every
catalog group, obstruct and then verify for every excluded type, enumerate
for each presentation of the benchmark's enumerate workload, and the command
line's usage and capacity error paths.  A profile hook, installed before tpg
is imported so that import-time calls count, records the code objects
entered.  Every function or method of src/tpg whose code object was never
entered is printed, with its line span."""

from __future__ import annotations

import ast
import contextlib
import io
import json
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "tpg"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perf")]

entered: set[tuple[str, int]] = set()


def _hook(frame, event, arg):
    if event == "call":
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))


def functions(path: Path):
    """(qualified name, first line, last line) of every def in the module.

    The first line is that of the first decorator, as in co_firstlineno.
    """
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                yield f"{prefix}{child.name}", first, child.end_lineno
                yield from walk(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.")
            else:
                yield from walk(child, prefix)
    return walk(ast.parse(path.read_text()), "")


def commands(work: Path):
    """Every argv the report runs, in order; lazy, since verify reads the
    certificate that obstruct wrote before it."""
    from tpg import classify
    import workloads

    out = str(work / "out")
    yield ["--out", out, "classify"]
    yield ["catalog"]
    yield ["--verify", "catalog"]
    yield ["dihedral", "verify"]
    for name in classify.GROUP_NAMES:
        yield ["normals", name]
    for i, name in enumerate(classify.EXCLUDED_TYPE_NAMES):
        certs = work / "certs" / str(i)
        yield ["--out", str(certs), "obstruct", name]
        yield ["verify", str(next(certs.glob("*.cert.json")))]
    pres = work / "presentations"
    pres.mkdir()
    for fname, (text, _) in sorted(workloads.presentations().items()):
        (pres / fname).write_text(text)
        yield ["enumerate", str(pres / fname)]
    # usage and capacity errors
    blocker = work / "a_file"
    blocker.write_text("")
    bad = {"bad.txt": "mnp: 6 6\n", "empty.json": "",
           "list.json": "[]", "schema.json": json.dumps({"schema": "x"}),
           "type.json": json.dumps({"schema": "tpg.certificate/1", "type": "x"}),
           "cert.json": json.dumps({"schema": "tpg.certificate/1",
                                    "type": "S6", "certificate": {}})}
    for fname, text in bad.items():
        (work / fname).write_text(text)
    yield []
    yield ["--coset-capacity", "0", "catalog"]
    yield ["--coset-capacity", "80", "catalog"]
    yield ["catalog", "--only", "G99"]
    yield ["normals", "G99"]
    yield ["obstruct", "A5"]
    yield ["--out", str(blocker), "obstruct", "S6"]
    yield ["--out", str(blocker), "classify"]
    yield ["--out", str(work / "out"), "obstruct", "S6"]  # then a directory
    (work / "out" / "S6.cert.json").unlink()
    (work / "out" / "S6.cert.json").mkdir()
    yield ["--out", str(work / "out"), "obstruct", "S6"]
    yield ["enumerate", str(work / "missing.txt")]
    yield ["enumerate", str(work / "bad.txt")]
    yield ["--coset-capacity", "100", "enumerate", str(pres / "G9.txt")]
    yield ["verify", str(work / "missing.json")]
    for fname in bad:
        if fname.endswith(".json"):
            yield ["verify", str(work / fname)]


def main() -> int:
    t0 = time.perf_counter()
    sys.setprofile(_hook)
    import tpg.cli

    with tempfile.TemporaryDirectory() as tmp:
        for argv in commands(Path(tmp)):
            sys.argv = ["tpg", *argv]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                tpg.cli.main()
    sys.setprofile(None)
    total = unreached = lines = 0
    for path in sorted(SRC.glob("*.py")):
        for qual, first, last in functions(path):
            total += 1
            if (str(path), first) not in entered:
                unreached += 1
                lines += last - first + 1
                print(f"{path.stem}.{qual}  {path.name}:{first}-{last}")
    print(f"{unreached} of {total} functions never entered "
          f"({lines} lines); {time.perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
