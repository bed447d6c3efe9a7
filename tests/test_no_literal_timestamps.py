"""No decision or trace event in ``src/repro`` is stamped with a literal time.

The ``t=0.0`` bug family: shed candidates scored, and trace events
stamped, at a hard-coded origin instead of the caller's clock.  Each was
fixed one instance at a time; this test closes the family.  It walks every
module under ``src/repro`` and fails on an int or float literal passed as
the time argument of a ``trace.*`` call, of ``select_shed`` /
``expected_utility``, or of an ``admit`` call.  The allow-list holds the
literal stamps that are true episode-relative time, one call site each,
with its reason.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: (module under src/repro, call) -> why its literal time is correct.  Each
#: entry covers exactly one call site.
ALLOWED = {
    ("scheduler/runtime.py", "trace.admit"): (
        "every task of a run_until_complete episode arrives when the episode "
        "starts, the origin every later stamp of the episode counts from"
    ),
    ("scheduler/simulator.py", "admit"): (
        "the first admission pass runs at the origin of virtual time, "
        "before any event is popped off the heap"
    ),
}


def time_argument(func):
    """(call name, positional index, keyword) of a callee that takes a
    time, or ``None``."""
    if isinstance(func, ast.Attribute):
        owner = func.value
        if (isinstance(owner, ast.Attribute) and owner.attr == "trace") or (
            isinstance(owner, ast.Name) and owner.id == "trace"
        ):
            # TraceLog helpers take ``t`` first; ``record(kind, t, ...)``.
            return f"trace.{func.attr}", 1 if func.attr == "record" else 0, "t"
        name = func.attr
        if name == "admit":
            # AdmissionController.admit(endpoint, model_id, tenant, now)
            return name, 3, "now"
    elif isinstance(func, ast.Name):
        name = func.id
        if name == "admit":
            # The simulator's admission pass, admit(now).
            return name, 0, "now"
    else:
        return None
    if name == "select_shed":
        return name, 3, "now"
    if name == "expected_utility":
        return name, 2, "now"
    return None


def is_number(node) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, (int, float))
        and not isinstance(node.value, bool)
    )


def literal_time_calls(source: str, filename: str = "<snippet>"):
    """(line, call name) of every call passing a literal as its time."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if not isinstance(node, ast.Call):
            continue
        spec = time_argument(node.func)
        if spec is None:
            continue
        name, index, keyword = spec
        args = [node.args[index]] if len(node.args) > index else []
        args += [k.value for k in node.keywords if k.arg == keyword]
        if any(is_number(arg) for arg in args):
            found.append((node.lineno, name))
    return found


def test_no_literal_time_arguments_in_src():
    offenders, allowed_hits = [], {}
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        for line, name in literal_time_calls(path.read_text(), str(path)):
            if (module, name) in ALLOWED:
                allowed_hits.setdefault((module, name), []).append(line)
            else:
                offenders.append(f"{module}:{line}: {name}(<literal time>)")
    assert not offenders, "literal time arguments:\n" + "\n".join(offenders)
    # Each entry permits exactly one call site: a second literal call of
    # the same name in the same module is an offender, and a stale entry
    # would silently permit a future one.
    assert set(allowed_hits) == set(ALLOWED)
    for key, lines in allowed_hits.items():
        assert len(lines) == 1, f"{key} allows one call site, found lines {lines}"


def test_checker_flags_a_synthetic_offender():
    bad = "\n".join(
        [
            "tel.trace.complete(0.0, tid, stages_done=1)",
            "tel.trace.load_shed(t=3, task_id=1, expected_utility=0.0)",
            "trace.record(COMPLETE, 0)",
            "select_shed(views, 1, predictor, 0.0)",
            "select_shed(views, 1, now=-1.5)",
            "expected_utility(view, None, 0)",
            "controller.admit('infer', now=0.0)",
            "admit(0.0)",
        ]
    )
    assert [line for line, _ in literal_time_calls(bad)] == list(range(1, 9))
    good = "\n".join(
        [
            "tel.trace.complete(now, tid, stages_done=1)",
            "tel.trace.load_shed(now, 1, expected_utility=0.0)",
            "select_shed(views, 1, now=now)",
            "expected_utility(view, None, now, 1.0)",
            "controller.admit('infer')",
            "record.stage_cap = 1",
        ]
    )
    assert literal_time_calls(good) == []
