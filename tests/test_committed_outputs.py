"""The committed outputs of tests/data, reproduced to roundoff: two
series CSVs and the convergence table (see committed_outputs for the
files, their bounds and how to rewrite them)."""

import io

import pytest

from vorspec import hm_norm

from committed_outputs import check, committed, moves, vortex_omega0


def test_outputs_reproduce_the_committed_files_to_roundoff():
    report = io.StringIO()
    failed = check(report)
    print(report.getvalue(), end="")  # pytest -rP shows it on a pass
    assert not failed, report.getvalue()


def _edited(text, status, col, edit):
    """text with edit applied to column col of its first row of status."""
    rows = [line.split(",") for line in text.splitlines()]
    row = next(r for r in rows if r[-1] == status)
    row[rows[0].index(col)] = edit(row[rows[0].index(col)])
    return "".join(",".join(r) + "\n" for r in rows)


def _ten_percent(x):
    return repr(1.1 * float(x))


# one edit of the committed convergence table, and the columns it puts past
# their bound: a polluted rung's errors are amplified roundoff, reported but
# not gated, while its status, an ok rung's errors and a blown-up rung's inf
# are held
@pytest.mark.parametrize("status, col, edit, past", [
    ("polluted", "linf_l2", _ten_percent, []),
    ("polluted", "l2_h1", _ten_percent, []),
    ("polluted", "status", lambda s: "ok", ["status"]),
    ("ok", "l2_h1", _ten_percent, ["l2_h1"]),
    ("blowup", "linf_l2", lambda s: "1e300", ["linf_l2"]),
])
def test_moves_gates_a_polluted_rung_on_its_status_alone(status, col, edit,
                                                         past):
    old = committed("convergence.csv")
    scale = hm_norm(vortex_omega0(), 0)
    largest, found, noise = moves(old, _edited(old, status, col, edit), scale)
    assert found == past
    moved = noise if status == "polluted" and col != "status" else largest
    assert moved[col] > 0.0
