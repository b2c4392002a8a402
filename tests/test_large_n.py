"""Answers at large N against a 50-digit closed form.

The CLI's answers at N = 2301 and 3301 are checked against mpmath at 50
digits, a route that shares no code with the package.  mpmath is imported
here only, never on the CLI's import path.

With ``c = cos(pi/N)``, the handle's first full-protocol outcome vector is
``q_1 = N (c/(1+c), (1-c)/(1+c), c/(1+c))``, and each later player applies the
t-pattern matrix with ``t = (1/2 + c^2)/(1+c)^2``.  The b protocol's values
follow ``v_1 = N x`` and the slope ``1 - 3x(1 - x)``, with ``x = tan^2(pi/2N)``.
"""

import mpmath
import pytest

from ncycle.protocols import VIOLATION_EPS

from test_cli import run_cli


def full_values(n, ineq, k):
    """The first k full-protocol values of the handle, at 50 digits."""
    mp = mpmath.mp
    with mpmath.workdps(50):
        c = mp.cos(mp.pi / n)
        q = [n * c / (1 + c), n * (1 - c) / (1 + c), n * c / (1 + c)]
        t = (mp.mpf(1) / 2 + c**2) / (1 + c) ** 2
        e, d = 1 - 2 * t, 4 * t - 1
        m = [[t, e, t], [e, d, e], [t, e, t]]
        out = []
        for _ in range(k):
            out.append((q[0] + q[2]) / 2 if ineq == "alpha" else q[1])
            q = [sum(m[i][j] * q[j] for j in range(3)) for i in range(3)]
        return out


def b_kmax(n):
    """(fixed, uniform) K_max of the b protocol at 50 digits, by scanning K."""
    mp = mpmath.mp
    with mpmath.workdps(50):
        x = mp.tan(mp.pi / (2 * n)) ** 2
        r = 1 - 3 * x * (1 - x)
        d = n * x - mp.mpf(n) / 3

        def last(value_at):
            k = 0
            while 1 - value_at(k + 1) > VIOLATION_EPS:
                k += 1
            return k

        fixed = last(lambda k: mp.mpf(n) / 3 + r ** (k - 1) * d)
        uniform = last(lambda k: mp.mpf(n) / 3 + d * (1 - r**k) / (k * (1 - r)))
        return fixed, uniform


@pytest.mark.parametrize("ineq", ["alpha", "beta"])
@pytest.mark.parametrize("n", [2301, 3301])
def test_full_sequence_matches_the_50_digit_closed_form(n, ineq):
    code, out = run_cli("sequence", "--protocol", "full", "--ineq", ineq, "--n", str(n))
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    exact = full_values(n, ineq, len(rows))
    bound = (n - 1) / 2 if ineq == "alpha" else 1
    for row, want in zip(rows, exact):
        # within one unit in the 12th significant digit, the printed precision
        unit = mpmath.mpf(10) ** (mpmath.floor(mpmath.log10(abs(want))) - 11)
        assert abs(mpmath.mpf(row[1]) - want) <= unit, (row, want)
        margin = want - bound if ineq == "alpha" else bound - want
        assert row[2] == ("true" if margin > VIOLATION_EPS else "false")


def test_table1_at_2301_matches_the_50_digit_kmax():
    code, out = run_cli("table1", "--n-min", "2301", "--n-max", "2301")
    assert code == 0
    row = out.strip().split("\n")[1]
    assert row == "2301,1,1,933,1,1,1865"
    fixed_b, uniform_b = b_kmax(2301)
    cells = row.split(",")
    assert (int(cells[3]), int(cells[6])) == (fixed_b, uniform_b)
