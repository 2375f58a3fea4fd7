"""Grammar fuzzer for the CLI's exit-code contract.

Random presentation files (1-3 generators, 0-5 relations, homogeneous or not,
with elem: lines, over Q, Q(i) and Q(sqrt 2)) go through all twelve file
commands in-process with --max-deg 4.  Every run must end in one of three
ways: exit 0; exit 2, the command refusing its input; or exit 1 with
`check failed:` or `error: <Class>:` where Class is an exception class the
package defines.  A builtin class there is a defect: a refusal that is not a
UsageError, or a broken invariant.
"""

import contextlib
import io
import re
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings, strategies as st

from ncconic import cli  # imports every module of the package


def _subclasses(cls: type):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


PACKAGE_ERRORS = {c.__name__ for c in _subclasses(Exception) if c.__module__.startswith("ncconic.")}
ERROR_LINE = re.compile(r"error: (\w+): ")

FIELDS = {"Q": "", "Q(i)": "i", "Q(sqrt 2)": "sqrt(2)"}
NAMES = ["x", "y", "z", "z1"]


@st.composite
def polys(draw, gens: list[str], unit: str, quadratic: bool = False) -> str:
    """A polynomial as text: 1-3 terms, all of one degree or of mixed ones."""
    # None mixes degrees
    degree = 2 if quadratic else draw(st.sampled_from([None, 2, 1, 3, 0]))
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        d = degree if degree is not None else draw(st.integers(0, 3))
        word = [draw(st.sampled_from(gens)) for _ in range(d)]
        c = draw(st.integers(-2, 3))
        coeff = f"({c})" if c < 0 else str(c)  # the grammar reads no "+ -2"
        if unit and draw(st.booleans()):
            coeff = f"({c} + {unit})"
        terms.append("*".join([coeff] + word))
    return " + ".join(terms)


@st.composite
def files(draw) -> tuple[str, int, int, str]:
    """(file text, basis degree, center degree, dehomogenize element)."""
    field = draw(st.sampled_from(sorted(FIELDS)))
    # 3 to 5 quadratic relations on 3 generators reach the conic commands'
    # mathematics
    quadratic = draw(st.booleans())
    gens = draw(
        st.lists(st.sampled_from(NAMES), min_size=3 if quadratic else 1, max_size=3, unique=True)
    )
    unit = FIELDS[field]
    rels = draw(st.lists(polys(gens, unit, quadratic), min_size=3 if quadratic else 0, max_size=5))
    lines = [f"field: {field}", "gens: " + " ".join(gens)]
    lines += ["rel: " + p for p in rels]
    lines += ["elem: " + p for p in draw(st.lists(polys(gens, unit), max_size=3))]
    elem = draw(st.one_of(st.sampled_from(gens), polys(gens, unit)))
    return "\n".join(lines) + "\n", draw(st.integers(0, 3)), draw(st.integers(0, 2)), elem


def _commands(path: str, basis_deg: int, center_deg: int, elem: str) -> list[list[str]]:
    plain = ["hilbert", "dual", "normal1", "homogenize", "cmap", "classify", "nabla",
             "delta", "pointscheme"]
    cmds = [[c, path] for c in plain]
    cmds += [
        ["basis", path, "--deg", str(basis_deg)],
        ["center", path, "--deg", str(center_deg)],
        ["dehomogenize", path, f"--elem={elem}"],
    ]
    return [c + ["--max-deg", "4"] for c in cmds]


def _outcome(code: int, err: str) -> str | None:
    """None when the run keeps the exit-code contract, else what broke it."""
    if code in (0, 2):
        return None
    if code == 1:
        if err.startswith("check failed:"):
            return None
        m = ERROR_LINE.match(err)
        if m and m.group(1) in PACKAGE_ERRORS:
            return None
    return f"exit {code}: {err.strip()[:200]}"


CUBIC = "field: Q\ngens: x y\nrel: x^2*y - y*x^2\nrel: x*y^2 - y^2*x\n"


@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(files())
# one input per defect of the contract that has been seen; their exact exit
# codes are asserted in test_presfile_cli
# delta on a cubic relation (it exited 1 where dual exits 2)
@example(("field: Q\ngens: x y z\nrel: x*y - y*x\nrel: y*z - z*y\nrel: x^3\n", 2, 1, "x"))
# a relation that is not homogeneous
@example(("field: Q\ngens: x y\nrel: x*y - y*x\nrel: x^2 - y\n", 2, 1, "x"))
# relations above the truncation: basis --deg 2 and center --deg 1 build at D = 2
@example((CUBIC, 2, 1, "x"))
# no rel: line is the free algebra
@example(("field: Q\ngens: x y z\n", 2, 1, "x"))
# a degree-0 relation
@example(("field: Q\ngens: x y\nrel: 2\n", 1, 0, "x"))
# a generator named z, and then z1, next to the homogenizing generator
@example(("field: Q\ngens: x y z\nrel: x*y - y*x\nelem: x^2 - 1\nelem: y^2 - 1\n", 1, 0, "x"))
@example(("field: Q\ngens: z z1\nrel: z*z1 - z1*z\nelem: z^2 - 1\nelem: z1^2 - 1\n", 1, 0, "z"))
# a sequence whose degree is not 2
@example(("field: Q\ngens: x y\nrel: x*y - y*x\nelem: x^3 - 1\n", 1, 0, "x"))
# a zero entry of the sequence
@example(("field: Q\ngens: x y\nrel: x*y - y*x\nelem: x - x\n", 1, 0, "x"))
# dehomogenize at an element that is zero in the algebra, or not homogeneous
@example(("field: Q\ngens: x y\nrel: x*y - y*x\nrel: x\n", 1, 0, "x"))
@example(("field: Q\ngens: x y\nrel: x*y - y*x\n", 1, 0, "x - 1"))
def test_every_command_keeps_the_exit_code_contract(case):
    text, basis_deg, center_deg, elem = case
    broken = []
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "fuzz.alg"
        path.write_text(text, encoding="utf-8")
        for args in _commands(str(path), basis_deg, center_deg, elem):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main(args, out=out)
            why = _outcome(code, err.getvalue())
            if why is not None:
                broken.append(f"{args[0]}: {why}")
    assert not broken, f"{text}\n" + "\n".join(broken)
