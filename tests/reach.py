"""The functions of src/grouplab that no entry point enters, with their line counts.

    python3 tests/reach.py

Installs a sys.settrace call hook before grouplab is imported, then runs:
the benchmark's corpus, ladder and build ops and its decide ops of seeds 1-3
(perfbench/workloads.py); the five demos; and the CLI's info, check,
corpus, series and liering on the bundled corpus, then info, check, series
and liering once more on a fixture with an inconsistent pc group.  Every
function and method defined in src/grouplab (read from each module's ast,
nested ones included) whose code object was never entered is printed as
FILE:QUALNAME and its line count, decorators included, and then the totals.
Demo and CLI output is discarded.  Not a test: its name keeps it out of the
pytest run.
"""

import ast
import contextlib
import importlib.util
import io
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "grouplab"

# p = 2 with g1^2 = g2 and [g2, g1] = g2: build_group refuses it as inconsistent
INCONSISTENT = """\
group Bad
backend pc
prime 2
ngens 2
pow 1 = 2^1
comm 2 1 = 2^1
end
"""


def defined() -> dict:
    """(file, first line of the code object) -> (qualified name, line count), per def."""
    found = {}

    def walk(node, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = prefix + child.name
                found[(str(path), first)] = (name, child.end_lineno - first + 1)
                walk(child, path, name + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            else:
                walk(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text("utf-8")), path, "")
    return found


def run_entry_points() -> None:
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for name, seeds in (("corpus", [1]), ("ladder", [1]), ("build", [1]), ("decide", [1, 2, 3])):
        for seed in seeds:
            for op in workloads.WORKLOADS[name].setup(seed):
                op.run()

    from grouplab.cli import main
    from grouplab.corpus import corpus_text

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for demo in sorted((ROOT / "demos").glob("*.py")):
            runpy.run_path(str(demo), run_name="__main__")
        with tempfile.TemporaryDirectory() as tmp:
            good, bad = Path(tmp) / "corpus.grp", Path(tmp) / "bad.grp"
            good.write_text(corpus_text(), encoding="utf-8")
            bad.write_text(INCONSISTENT, encoding="utf-8")
            main(["corpus"])
            for path, group in ((good, "Heis27"), (bad, "Bad")):
                main(["info", str(path)])
                main(["check", str(path)])
                main(["series", str(path), "--group", group])
                main(["liering", str(path), "--group", group])


def main() -> int:
    entered = set()
    prefix = str(PACKAGE)

    def hook(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(prefix):
            entered.add((code.co_filename, code.co_firstlineno))

    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(hook)
    try:
        run_entry_points()
    finally:
        sys.settrace(None)
    missed = [(key, info) for key, info in sorted(defined().items()) if key not in entered]
    for (path, _), (name, lines) in missed:
        print(f"{Path(path).name}:{name}  {lines}")
    print(f"{len(missed)} functions, {sum(lines for _, (_, lines) in missed)} lines never entered")
    return 0


if __name__ == "__main__":
    sys.exit(main())
