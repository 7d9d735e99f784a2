"""Hybrid trajectories against frozen rows, compared exactly.

Each file under ``golden/`` holds the samples of one ``filippov_trajectory``
as ``t,x,y,z,mode`` rows at 17 significant digits, the format of
``slidim simulate``.  Any change that reorders floating-point work in the
flights, the sliding flow or their concatenation shows here as a changed
digit.  After a deliberate change of the numbers, rewrite the files with
``PYTHONPATH=src python tests/test_golden_trajectory.py``.
"""

from pathlib import Path

import pytest

from slidim.filippov import Mode, filippov_trajectory, make_system

GOLDEN = Path(__file__).resolve().parent / "golden"


def escaping_system():
    """Unstable focus above g = z; (2, 0, 0) lies in the escaping region."""
    return make_system("0.3*x - y, x + 0.3*y, x - 1", "0, 0, -1", "z")


def cases(bench_system):
    """(file name, system, u0, T, escaping policy) of each frozen trajectory."""
    esc = escaping_system()
    return [
        ("trajectory_bench.csv", bench_system, [0.2, 0.1, 0.5], 4.0, None),
        ("trajectory_escape_x.csv", esc, [2.0, 0.0, 0.0], 0.5, Mode.FLOW_X),
        ("trajectory_escape_slide.csv", esc, [2.0, 0.0, 0.0], 0.5, Mode.FLOW_SLIDING),
    ]


def rows(system, u0, T, policy):
    """The trajectory as CSV text, header included."""
    lines = ["t,x,y,z,mode"]
    for seg in filippov_trajectory(system, u0, T, escaping_policy=policy):
        for t, u in seg.samples:
            lines.append(",".join("%.17g" % float(v) for v in (t, *u))
                         + f",{seg.mode.value}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("index", range(3))
def test_trajectory_matches_golden_rows(bench, index):
    name, system, u0, T, policy = cases(bench.system)[index]
    assert rows(system, u0, T, policy) == (GOLDEN / name).read_text()


if __name__ == "__main__":
    from slidim.bench import make_bench

    for name, system, u0, T, policy in cases(make_bench().system):
        (GOLDEN / name).write_text(rows(system, u0, T, policy))
