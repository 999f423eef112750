"""README claims kept by hand, checked against the code.

Every number README.md quotes outside its fenced examples is either read
back here from the code or test that sets it (``QUOTED``), or one of the
phrases in ``PLAIN``, which hold mathematics and numbering rather than
settings; ``test_every_number_is_bound`` fails on any other.  The fenced
examples are run: the JSON documents validate, the output sample is the
example config's ``simulate`` run, the Python example runs, and the
command lines parse.
"""

import ast
import functools
import importlib
import inspect
import json
import re
import shlex
import textwrap
from pathlib import Path

import numpy as np

import entchain
from entchain import ChainSpec, NumericsError, Partition, QuenchSchedule
from entchain import chain, config, entropy_series, ermakov, from_dict, gaussian
from entchain import integrate_general, quench_modes, verify_report
from entchain.cli import build_parser, main
from entchain.errors import ConfigError
from support import sudden_reference

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
TEXT = README.read_text()
FENCE = re.compile(r"^```(\w*)\n(.*?)^```\n", re.M | re.S)
# README without its fenced blocks, every run of whitespace one space
PROSE = re.sub(r"\s+", " ", FENCE.sub("", TEXT))

MINIMAL = {"model": {"n": 4, "omega_i": 1.0, "k_i": 1.0, "omega_f": 1.0, "k_f": 1.0}}


def _fenced(language: str) -> list[str]:
    return [body for lang, body in FENCE.findall(TEXT) if lang == language]


def _number(text: str) -> float:
    """A number as README writes it: 4096, 10,000,000, 2^20, 1e-8."""
    base, _, power = text.replace(",", "").partition("^")
    return float(base) ** int(power) if power else float(base)


@functools.cache
def _report() -> tuple[str, ...]:
    text, ok = verify_report()
    assert ok, text
    return tuple(text.splitlines()[:-1])


def _gates(label: str) -> float:
    """The one gate ``verify`` prints on every line of the check ``label``."""
    gates = {float(re.search(r"\(gate (\S+)\)$", line).group(1))
             for line in _report() if line.split("] ", 1)[1].startswith(label)}
    assert len(gates) == 1, f"{label}: gates {gates}"
    return gates.pop()


def _test(node: str):
    """The test function of a pytest node id, ``tests/<file>.py::[Class::]name``."""
    path, *names = node.split("::")
    obj = importlib.import_module(Path(path).stem)
    for name in names:
        obj = getattr(obj, name)
    return obj


def _tree(func):
    return ast.parse(textwrap.dedent(inspect.getsource(func)))


def _bound(node: str, side: str) -> float:
    """The constant a comparison in the test ``node`` holds the expression
    containing ``side`` to."""
    func = _test(node)
    source = textwrap.dedent(inspect.getsource(func))
    bounds = {
        cmp.comparators[-1].value for cmp in ast.walk(ast.parse(source))
        if isinstance(cmp, ast.Compare) and isinstance(cmp.comparators[-1], ast.Constant)
        and side in ast.get_source_segment(source, cmp.left)
    }
    assert len(bounds) == 1, f"{node}: bounds {bounds} on {side}"
    return bounds.pop()


def _calls(func, name: str) -> list[ast.Call]:
    """The calls to ``name``, a function or a method, in ``func``."""
    return [call for call in ast.walk(_tree(func)) if isinstance(call, ast.Call)
            and name in (getattr(call.func, "id", None), getattr(call.func, "attr", None))]


def _digits(node: str) -> int:
    """The digits the test ``node`` asks of ``sudden_reference``."""
    (call,) = _calls(_test(node), "sudden_reference")
    for keyword in call.keywords:
        if keyword.arg == "digits":
            return keyword.value.value
    return inspect.signature(sudden_reference).parameters["digits"].default


def _last_time(node: str) -> float:
    """The largest of the times the test ``node`` assigns to ``times``."""
    for assign in ast.walk(_tree(_test(node))):
        if isinstance(assign, ast.Assign) and getattr(assign.targets[0], "id", "") == "times":
            return max(ast.literal_eval(assign.value))
    raise AssertionError(f"{node} assigns no times")


def _collapse_sizes() -> tuple:
    """The ring sizes criterion 08 fits S_1 / ln N on and asserts collapse."""
    (sizes,) = [ast.literal_eval(call.args[0].generators[0].iter)
                for call in _calls(_test(COLLAPSE), "fit_scaling")
                if isinstance(call.args[0], ast.DictComp)]
    return sizes


def _call_form(func) -> str:
    """``name(a, b=default, *, c=default)`` of a function's signature."""
    parts, star = [], False
    for p in inspect.signature(func).parameters.values():
        if p.kind is p.KEYWORD_ONLY and not star:
            parts.append("*")
            star = True
        if p.default is p.empty:
            parts.append(p.name)
        else:
            text = json.dumps(p.default) if isinstance(p.default, str) else repr(p.default)
            parts.append(f"{p.name}={text}")
    return f"{func.__name__}({', '.join(parts)})"


def _smallest_chain() -> int:
    """The fewest sites ``from_dict`` accepts."""
    for n in range(1, 10):
        try:
            from_dict({"model": dict(MINIMAL["model"], n=n)})
        except ConfigError:
            continue
        return n
    raise AssertionError("no small chain is accepted")


def _python_floor() -> str:
    text = (ROOT / "pyproject.toml").read_text()
    return re.search(r'requires-python = ">=([\d.]+)"', text).group(1)


# README's slow ramp: the open chain of the ramp-limit test, ramped over this long
SLOW_RAMP = 1e5


def _slow_ramp_pieces() -> float:
    """The Taylor pieces the slow ramp needs, to three digits, from the
    count ``integrate_general`` refuses it with."""
    spec = ChainSpec(8, 3.0, 2.0, 1.0, 2.5, "open")
    schedule = QuenchSchedule([0.0, SLOW_RAMP], [3.0, 1.0], [2.0, 2.5])
    try:
        entropy_series(spec, Partition.second_half(spec.n), [SLOW_RAMP], schedule=schedule)
    except NumericsError as err:
        count = float(re.search(r"needs (\S+) Taylor pieces", str(err)).group(1))
        return float(f"{count:.3g}")
    raise AssertionError("the slow ramp is within the piece cap")


# The long table whose Wronskian drift README quotes, k = 5 throughout.
LONG_RAMP = ChainSpec(64, 30.0, 5.0, 1.0, 5.0), 1000.0


def _long_ramp_text() -> str:
    spec, duration = LONG_RAMP
    return (f"a {spec.n}-site ring ramped from omega {spec.omega_i:g} to {spec.omega_f:g} "
            f"over t = {duration:g}")


@functools.cache
def _long_ramp_drift() -> tuple[int, float]:
    """The Taylor pieces of the long ramp and the largest drift of their
    Wronskians, to two digits."""
    spec, duration = LONG_RAMP
    modes = quench_modes(spec)
    lams = np.stack([spec.omega_i**2 + spec.k_i * modes.mu,
                     spec.omega_f**2 + spec.k_f * modes.mu], axis=1)
    phis = integrate_general(modes.lam_pre, [0.0, duration], lams).phis
    drift = np.abs(phis[:, 0, 0] * phis[:, 1, 1] - phis[:, 0, 1] * phis[:, 1, 0] - 1.0)
    return phis.shape[0], float(f"{drift.max():.2g}")


SUDDEN = "tests/test_entanglement.py::test_sudden_quench_matches_the_50_digit_reference"
TABLE = "tests/test_entanglement.py::test_general_protocols_match_the_50_digit_reference"
FREE = "tests/test_entanglement.py::test_free_expansion_is_right_or_refused"
SPECTRUM = "tests/test_oracles.py::test_spectrum_routes_match_50_digit_reference"
RANDOM = "tests/test_oracles.py::test_random_chains_agree_across_paths"
FAR = "tests/test_cli.py::TestMain::test_open_chain_far_times_are_right_or_refused"
COLLAPSE = "tests/test_acceptance.py::test_criterion_08_entropy_scaling_collapse"
VOLUME = "tests/test_acceptance.py::test_scaling_collapse_gives_way_to_a_volume_law"
NO_LAPACK = "tests/test_entanglement.py::TestEntropySeries::test_ramp_runs_without_an_eigensolver"
LAWS = [f"tests/test_acceptance.py::{name}" for name in (
    "test_static_block_follows_the_area_and_log_laws", "test_gapless_quench_grows_like_ln_t",
    "test_large_ring_follows_the_quasiparticle_law")]

# (pattern, value): the group ``v`` of every match of ``pattern`` in the
# README prose must equal ``value()``, a number or, for a string, the text.
QUOTED = [
    (r"Python >= (?P<v>[\d.]+)", _python_floor),
    (r"`n` \(at least (?P<v>\d+) sites\)", _smallest_chain),
    (r"`model\.n` at most (?P<v>[\d,]+)", lambda: config.MAX_SITES),
    (r"time grid at most (?P<v>[\d,]+) points", lambda: config.MAX_TIME_POINTS),
    (r"(?:at most|more than) (?P<v>2\^\d+) Taylor pieces", lambda: ermakov._MAX_PIECES),
    (r"\|slope\|\^\(1/3\)\) / (?P<v>\d+) pieces", lambda: ermakov._PIECE_PHASE),
    (r"ramped over T = (?P<v>[\d.e]+) needs", lambda: SLOW_RAMP),
    (r"needs (?P<v>[\d.e]+)\.", _slow_ramp_pieces),
    (r"may drift by at most (?P<v>[\d.e-]+), a fixed bound", lambda: ermakov._WRONSKIAN_TOLERANCE),
    (r"largest drift measured is (?P<v>[\d.e-]+),", lambda: _long_ramp_drift()[1]),
    (r"over the (?P<v>[\d,]+) Taylor pieces of a", lambda: _long_ramp_drift()[0]),
    (r"Taylor pieces of (?P<v>a \d+-site ring ramped from omega \d+ to \d+ over t = \d+)",
     _long_ramp_text),
    (r"`time\.dt` \(default (?P<v>[\d.]+)\)", lambda: from_dict(MINIMAL).dt),
    (r"`time\.t_max` \(default (?P<v>[\d.]+)\)", lambda: from_dict(MINIMAL).t_max),
    (r"`entropy\.alphas` \(default `(?P<v>\[[\d, ]*\])`\)",
     lambda: json.dumps(list(from_dict(MINIMAL).alphas))),
    (r"`output\.precision` \(default (?P<v>\d+),", lambda: from_dict(MINIMAL).precision),
    (r"at most (?P<v>\d+)\) the significant digits", lambda: config.MAX_PRECISION),
    (r"(?P<v>`entropy_series\([^`]*\)`)", lambda: f"`{_call_form(entropy_series)}`"),
    (r"(?P<v>`integrate_general\([^`]*\)`)", lambda: f"`{_call_form(integrate_general)}`"),
    (r"above (?P<v>[\d.e-]+) on the bond Laplacian", lambda: chain._BASIS_RESIDUAL),
    (r"more than (?P<v>[\d.e-]+) below the physical floor", lambda: gaussian._NU_SLACK),
    (r"values below 1/2 \+ (?P<v>[\d.e-]+) count", lambda: gaussian._NU_PURE_BAND),
    (r"exports (?P<v>\d+) names", lambda: len(entchain.__all__)),
    (r"\|S_1\(0\) - (?P<v>[\d.]+)\|",
     lambda: float(re.search(r"\|S_1\(0\) - ([\d.]+)\|", "\n".join(_report())).group(1))),
    (r"agree within (?P<v>[\d.e-]+) in `entchain verify`", lambda: _gates("oracle match")),
    (r"agree within (?P<v>[\d.e-]+) in `entchain verify`", lambda: _bound(RANDOM, "oracle")),
    (r"are within (?P<v>[\d.e-]+) of a \d+-digit evaluation",
     lambda: _bound(SUDDEN, "reference")),
    (r"of a (?P<v>\d+)-digit evaluation", lambda: _digits(SUDDEN)),
    (r"same quench, up to t = (?P<v>[\d.e]+)\.", lambda: _last_time(SUDDEN)),
    (r"stay within (?P<v>[\d.e-]+) of the \d+-digit evaluation chained",
     lambda: _bound(TABLE, "reference")),
    (r"of the (?P<v>\d+)-digit evaluation chained", lambda: _digits(TABLE)),
    (r"table's rows, up to t = (?P<v>[\d.e]+)\.", lambda: _last_time(TABLE)),
    (r"within (?P<v>\d+) eps \|\|Sigma_A\|\|",
     lambda: importlib.import_module("test_oracles")._SPECTRUM_C),
    (r"of a (?P<v>\d+)-digit spectrum",
     lambda: _calls(importlib.import_module("test_oracles")._mp_symplectic_eigenvalues,
                    "workdps")[0].args[0].value),
    (r"give S_1 within (?P<v>[\d.e-]+) of a", lambda: _bound(FAR, "s1_exact")),
    (r"of a (?P<v>\d+)-digit value", lambda: _digits(FAR)),
    (r"rings of N from (?P<v>\d+) to \d+ sites", lambda: min(_collapse_sizes())),
    (r"rings of N from \d+ to (?P<v>\d+) sites", lambda: max(_collapse_sizes())),
    (r"to a ratio within (?P<v>[\d.]+) of 1", lambda: _bound(LAWS[2], "slope_misfit")),
    (r"From N = (?P<v>\d+) to \d+ it does not",
     lambda: min(importlib.import_module("test_acceptance").VOLUME_SIZES)),
    (r"From N = \d+ to (?P<v>\d+) it does not",
     lambda: max(importlib.import_module("test_acceptance").VOLUME_SIZES)),
]
# and each gate of README's ``verify`` list, which
# ``test_verify_checks_are_listed`` holds to the checks the report prints
QUOTED += [
    (rf"\* `{re.escape(label)}`: [^*]*?gate (?P<v>[\d.e-]+)[;.]",
     functools.partial(_gates, label))
    for label in re.findall(r"\* `([^`]+)`: [^*]*?gate [\d.e-]+[;.]", PROSE)
]

# Numbers that state mathematics, numbering or an exit code, not a setting.
PLAIN = [
    "b'' + lambda(t) b = lambda(0) / b^3, b(0) = 1, b'(0) = 0",
    "u'' + lambda(t) u = 0",
    "max |b'' + lambda b - lambda(0) / b^3|",
    "xi_j = (2 nu_j - 1) / (2 nu_j + 1)",
    "Exit codes: 0 success; 1 configuration error",
    "; 2 numerical failure",
    "one failed line exits 2",
    "(exit 1)",
    "(exit 2)",
    "before the run exits 2",
    "must exit 2",
    "some exit 0",
    "labels like `omega_f=0.3`",
    "the example config above run with `--t-max 0.01`",
    "1/2",
    "xi rounds to 1",
    "S_1(0)",
    "`omega_i > 0` and `omega_f >= 0`",
    "`k_i, k_f >= 0`",
    "`k = 2 omega_bh hop`",
    "starting at t = 0",
    "u1 u2' - u2 u1' = 1",
    "numbered from 1",
    "grid 0, dt, 2 dt, ... of floor(t_max / dt) + 1 points",
    "order 1",
    "omega^2 + 4 k",
    "|slope|^(1/3)",
    "1..N",
    "`mu[0]` exactly 0",
    "2-norm",
    "t^2",
    "(c/3) ln xi",
    "of 1 that nears 1",
]


def _bound_spans() -> list[tuple[int, int]]:
    spans = []
    for pattern, value in QUOTED:
        matches = list(re.finditer(pattern, PROSE))
        assert matches, f"README no longer quotes {pattern!r}"
        want = value()
        for match in matches:
            text = match.group("v")
            got = text if isinstance(want, str) else _number(text)
            assert got == want, f"README says {text} where the code has {want}: {pattern!r}"
            spans.append(match.span("v"))
    return spans


def test_every_number_is_bound():
    """Each number README quotes equals the constant, default or test
    bound it names, and no digit is left in the prose once those and the
    plain phrases are taken out: a new number needs a ``QUOTED`` entry,
    or a ``PLAIN`` one if it is no setting."""
    prose = PROSE
    for start, stop in _bound_spans():
        prose = prose[:start] + "#" * (stop - start) + prose[stop:]
    for phrase in PLAIN:
        assert phrase in prose, f"README no longer says {phrase!r}"
        prose = prose.replace(phrase, "#")
    loose = [prose[max(0, m.start() - 30):m.end() + 30]
             for m in re.finditer(r"(?<!\w)\d[\d.,]*(?:e-?\d+)?(?!\w)", prose)]
    assert not loose, "numbers not bound to the code: " + " | ".join(loose)


def test_verify_checks_are_listed():
    """The README's ``verify`` list names every check the report prints,
    each once, and no other."""
    listed = re.findall(r"\* `([^`]+)`: [^*]*?gate [\d.e-]+[;.]", PROSE)
    for line in _report():
        text = line.split("] ", 1)[1]
        labels = [label for label in listed if text.startswith(label)]
        assert len(labels) == 1, f"README lists {labels} for {text!r}"
    for label in listed:
        _gates(label)


def test_cited_tests_exist():
    """Every test the README names is a test of the suite; the far-time
    and free-expansion ones are strict xfails."""
    nodes = re.findall(r"`(tests/test_\w+\.py(?:::\w+)+)`", PROSE)
    cited = {SUDDEN, TABLE, SPECTRUM, RANDOM, FAR, FREE, COLLAPSE, VOLUME, NO_LAPACK, *LAWS}
    assert cited <= set(nodes)
    for node in nodes:
        assert callable(_test(node)), node
    for node in (FAR, FREE):
        marks = [m for m in getattr(_test(node), "pytestmark", []) if m.name == "xfail"]
        assert marks and marks[0].kwargs.get("strict") is True, node


def test_readme_export_list_matches_all():
    """The backticked names of README's "The package root exports N names"
    list, and N, equal ``entchain.__all__``."""
    text = README.read_text()
    head = re.search(r"The package root exports (\d+) names .*\n\n", text)
    assert head, "README has no export list"
    block = text[head.end():text.index("\n\n", head.end())]
    names = re.findall(r"`([^`]+)`", block)
    assert len(names) == len(set(names)), "README lists a name twice"
    assert sorted(names) == sorted(entchain.__all__)
    assert int(head.group(1)) == len(entchain.__all__)


def test_json_examples_validate():
    documents = _fenced("json")
    assert documents
    for document in documents:
        from_dict(json.loads(document))


def test_output_example_is_a_simulate_run(tmp_path, capsys):
    """The output sample is, byte for byte, the CSV ``simulate`` writes
    for the config example with ``--t-max`` as the README says."""
    (document,), (sample,) = _fenced("json"), _fenced("")
    t_max = re.search(r"run with `--t-max ([\d.]+)`", PROSE).group(1)
    (tmp_path / "run.json").write_text(document)
    out = tmp_path / "run.csv"
    args = ["simulate", "--config", str(tmp_path / "run.json"), "--t-max", t_max,
            "--output", str(out)]
    assert main(args) == 0
    capsys.readouterr()
    assert out.read_text() == sample


def test_python_example_runs(capsys):
    (example,) = _fenced("python")
    exec(compile(example, "README.md", "exec"), {})
    values = capsys.readouterr().out.split()
    assert len(values) == 2 and all(np.isfinite(float(v)) for v in values)


def test_command_examples_parse():
    lines = [line for block in _fenced("sh") for line in block.splitlines()
             if line.startswith("entchain ")]
    assert {shlex.split(line)[1] for line in lines} == {"simulate", "sweep", "figure", "verify"}
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])

