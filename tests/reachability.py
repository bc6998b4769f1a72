"""List the functions in src/ that no command or acceptance check reaches.

Runs the golden CLI cases (``test_golden.CASES``) and acceptance criteria
1-3, 5-10 and 12 with a ``sys.settrace`` hook that records every function
frame entered in ``src/perturbed_bandits``, then prints each function or
method defined there that was never entered, as ``file:line qualname``.
Criteria 4 and 11 are left out for time: they call only ``run_experiment``,
``final_rows``, ``run_gbpa``, ``tune_eta``, ``sup_hazard`` and
``asymptotic_block_max``, all of which the golden cases reach.  A criterion
that fails (criterion 10 is a known red) still counts for what it ran.
It exits 1 if any function is unreached, so it can serve as a gate, and
0 otherwise.

    PYTHONPATH=src python3 tests/reachability.py

The file name keeps pytest from collecting it.  It takes a few minutes.
"""
import contextlib
import inspect
import sys
import tempfile
import time
import traceback
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "perturbed_bandits"
CRITERIA = (1, 2, 3, 5, 6, 7, 8, 9, 10, 12)

entered: set[tuple[str, int, str]] = set()


def _tracer(frame, event, arg):
    code = frame.f_code
    if code.co_filename.startswith(str(SRC)):
        entered.add((code.co_filename, code.co_firstlineno, code.co_qualname))
    return None


def defined_functions():
    """(file, first line, qualname) of every function and method in src/."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        todo = [compile(path.read_text(), str(path), "exec")]
        while todo:
            code = todo.pop()
            todo.extend(c for c in code.co_consts if inspect.iscode(c))
            # Class bodies lack CO_NEWLOCALS; comprehensions are part of the
            # function that holds them.
            is_function = code.co_flags & inspect.CO_NEWLOCALS
            if is_function and (code.co_name == "<lambda>" or not code.co_name.startswith("<")):
                out.append((code.co_filename, code.co_firstlineno, code.co_qualname))
    return sorted(out)


def run_checks() -> None:
    sys.path.insert(0, str(TESTS))
    import test_acceptance
    import test_golden

    checks = [(f"golden {name}", lambda out, n=name: test_golden.run_case(n, out))
              for name in sorted(test_golden.CASES)]
    for number in CRITERIA:
        (test,) = [f for name, f in vars(test_acceptance).items() if name.startswith(f"test_criterion_{number:02d}_")]
        wants_dir = "tmp_path" in inspect.signature(test).parameters
        checks.append((f"criterion {number}", lambda out, t=test, w=wants_dir: t(out) if w else t()))
    with tempfile.TemporaryDirectory() as tmp:
        for i, (label, check) in enumerate(checks):
            out = Path(tmp) / str(i)
            out.mkdir()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sys.stderr):
                    check(out)
                status = "ran"
            except Exception:
                status = "failed: " + traceback.format_exc(limit=0).strip()
            print(f"{label}: {status} ({time.perf_counter() - start:.1f} s)", file=sys.stderr)


def main() -> int:
    sys.settrace(_tracer)
    try:
        run_checks()
    finally:
        sys.settrace(None)
    unreached = [f for f in defined_functions() if f not in entered]
    for filename, line, qualname in unreached:
        print(f"{Path(filename).relative_to(SRC.parent.parent)}:{line} {qualname}")
    print(f"{len(unreached)} unreached", file=sys.stderr)
    return int(bool(unreached))


if __name__ == "__main__":
    sys.exit(main())
