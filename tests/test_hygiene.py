"""Static hygiene checks over the package, its tests and its README.

An AST pass stands in for a linter: every imported name must be used,
and the package's public ``__all__`` must resolve without duplicates.
Every public name is documented in the README's Library section, whose
code example is run, every `module.name` the README quotes exists,
with the value the README gives it, and every `facepulse` command line
it shows parses.
A CLI default or choice that the library also holds has one definition,
every float setting of a public dataclass refuses NaN, infinity, an
int beyond the float range and a bool, every ranged setting is refused
just outside its interval, a record that holds arrays compares by
identity, and a record of the wrong type is refused where it is taken.
No module but frameio refuses a setting's type or range itself, and
parse_finite reads only CLI arguments and CSV cells.  Every function the
benchmark's tracer wraps by name exists, but for the ones known gone.
"""

from __future__ import annotations

import argparse
import ast
import copy
import dataclasses
import importlib
import json
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import facepulse
from facepulse.cli import build_parser, main
from facepulse.evaluate import CHANNEL_OF_FORMAT, CHANNELS, PROTOCOL_LENGTHS
from facepulse.frameio import BYTES_PER_PIXEL, SessionManifest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "facepulse").glob("*.py")) + \
    sorted((ROOT / "tests").glob("*.py"))


def _exported(tree: ast.Module) -> set[str]:
    """Names listed in a module-level ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts
                    if isinstance(elt, ast.Constant)}
    return set()


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported(tree)
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_checker_finds_unused_names():
    source = ("import json\nimport numpy as np\nfrom os import path, sep\n"
              "__all__ = ['sep']\nprint(np.pi)\n")
    assert unused_imports(source) == ["line 1: json", "line 3: path"]


@pytest.mark.parametrize("path", SOURCES,
                         ids=[str(p.relative_to(ROOT)) for p in SOURCES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_csv_read_only_in_frameio():
    """Every CSV sidecar is read through frameio.read_csv_rows."""
    readers = [p.name for p in sorted((ROOT / "src" / "facepulse").glob("*.py"))
               if re.search(r"\bcsv\.reader\b|\bfrom csv import\b", p.read_text())]
    assert readers == ["frameio.py"]


def thread_imports(source: str) -> list[str]:
    """Modules of the thread APIs (threading, _thread, concurrent.futures)
    that a module imports."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [n for n in names if n.split(".")[0] in ("threading", "_thread", "concurrent")]


def test_checker_finds_thread_imports():
    source = ("import os, threading\nfrom concurrent import futures\n"
              "import _thread as t\nfrom . import parallel\nimport concurrent.futures\n")
    assert thread_imports(source) == ["threading", "concurrent", "_thread", "concurrent.futures"]


def test_threads_started_only_in_parallel():
    """parallel.WORKERS is the one thread setting: no module but parallel
    imports a thread API."""
    importers = [p.name for p in sorted((ROOT / "src" / "facepulse").glob("*.py"))
                 if thread_imports(p.read_text())]
    assert importers == ["parallel.py"]


def test_session_stages_used_only_in_evaluate():
    """load_session is the one path from a session to its signal: outside
    the modules that define them, only evaluate uses the stages."""
    stages = {"map_frames": "frameio.py", "load_box_track": "roi.py",
              "place_regions": "roi.py", "extract_traces": "pulse.py",
              "build_pulse_signal": "pulse.py"}
    users: dict[str, set[str]] = {name: set() for name in stages}
    for path in (ROOT / "src" / "facepulse").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            # the name a Name reads, or the attribute an Attribute reads
            name = getattr(node, "id", getattr(node, "attr", None))
            if name in stages and path.name != stages[name]:
                users[name].add(path.name)
    assert users == {name: {"evaluate.py"} for name in stages}


def _callers(name: str) -> set[str]:
    """module.qualname of every function in the package that calls `name`,
    as a plain or an attribute call."""
    callers = set()

    def visit(node: ast.AST, scope: list[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call) and name in (
                    getattr(child.func, "id", None), getattr(child.func, "attr", None)):
                callers.add(".".join(scope))
            visit(child, scope)

    for path in (ROOT / "src" / "facepulse").glob("*.py"):
        visit(ast.parse(path.read_text()), [path.stem])
    return callers


def test_signal_checks_have_fixed_sites():
    """PulseSignal checks its band against Nyquist and converts its
    samples; load_session checks the band early, before any frame is
    read; only the stages that know the window check its two cycles."""
    assert _callers("check_below_nyquist") == {"evaluate.load_session",
                                               "pulse.PulseSignal.__post_init__"}
    assert _callers("check_two_cycles") == {"cli.cmd_estimate", "evaluate.evaluate_sessions",
                                            "spectral.estimate_series"}
    assert [c for c in _callers("asarray") if c.startswith("spectral.")] == []


def test_parse_finite_reads_only_text():
    """parse_finite reads CLI arguments and CSV cells; a manifest's JSON
    numbers are checked by SessionManifest itself, as settings are."""
    assert _callers("parse_finite") == {"cli._parse_band", "cli._parse_base_color",
                                        "cli._parse_lengths", "synth.parse_profile",
                                        "roi._parse_row", "evaluate.load_groundtruth"}


def test_manifest_name_only_in_frameio_and_synth():
    """Only frameio, which resolves a session to its manifest, and synth,
    which writes one, know the session layout."""
    users = [p.name for p in sorted((ROOT / "src" / "facepulse").glob("*.py"))
             if re.search(r"\bMANIFEST_NAME\b", p.read_text())]
    assert users == ["frameio.py", "synth.py"]


def test_package_all_resolves():
    names = facepulse.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(facepulse, n)] == []


# tracer targets whose functions were deleted or renamed; the tracer
# reports them unmeasured (ROADMAP item 1 re-points or drops them)
_GONE_TRACE_TARGETS = {"frameio:FrameStream.next_frame", "roi:derive_rois",
                       "pulse:spatial_mean", "pipeline:load_session_trace",
                       "pipeline:build_session_signal", "pipeline:estimate_session"}


def _trace_targets() -> list[str]:
    """The "module:attr" of each entry of perfbench/tracing.py's TARGETS,
    read with ast: the benchmark is not imported."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    for node in tree.body:
        names = [node.target] if isinstance(node, ast.AnnAssign) else getattr(node, "targets", [])
        if any(getattr(name, "id", None) == "TARGETS" for name in names):
            return [ast.literal_eval(entry.elts[1]) for entry in node.value.elts]
    raise AssertionError("perfbench/tracing.py defines no TARGETS")


def test_trace_targets_resolve():
    """Every function the benchmark's tracer wraps by name resolves in
    the package, but the ones known gone: a rename or a deletion that
    would leave a per-layer metric at 0 fails here."""
    missing = set()
    for target in _trace_targets():
        module, _, attr = target.partition(":")
        try:
            found = importlib.import_module(f"facepulse.{module}")
            for part in attr.split("."):
                found = getattr(found, part)
        except (ImportError, AttributeError):
            missing.add(target)
    assert missing - _GONE_TRACE_TARGETS == set()


@pytest.mark.parametrize("argv", [["estimate", "s"], ["sweep", "s"]],
                         ids=lambda argv: argv[0])
def test_combine_default_has_one_definition(argv):
    """--band and --combine fall back to the PipelineParams defaults, not
    to copies of them."""
    args = build_parser().parse_args(argv + ["--out", "out"])
    assert args.combine == facepulse.PipelineParams().combine
    params = facepulse.PipelineParams(args.band, args.combine)
    assert params == facepulse.PipelineParams()


def _subcommand_option(command: str, dest: str) -> argparse.Action:
    """The action behind one option of one subcommand."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return next(a for a in sub.choices[command]._actions if a.dest == dest)


def test_protocol_and_channel_choices_have_one_definition():
    """--lengths defaults to the 5.2 set of evaluate's table, which no
    --protocol option names again, and each pixel format maps to one of
    its channel labels, which no option repeats."""
    assert _subcommand_option("sweep", "lengths").default is PROTOCOL_LENGTHS["5.2"]
    assert list(CHANNEL_OF_FORMAT) == list(BYTES_PER_PIXEL)
    assert tuple(CHANNEL_OF_FORMAT.values()) == CHANNELS
    for dest in ("protocol", "channel"):
        with pytest.raises(StopIteration):
            _subcommand_option("sweep", dest)


def _readme_commands() -> list[str]:
    return [line.strip() for line in (ROOT / "README.md").read_text().splitlines()
            if line.startswith("    facepulse ")]


@pytest.mark.parametrize("line", _readme_commands())
def test_readme_commands_parse(line):
    """Every facepulse command line the README shows is one the CLI takes."""
    build_parser().parse_args(shlex.split(line)[1:])


def test_sweep_defaults_to_monitoring_lengths(clean72_session, tmp_path, capsys):
    """sweep without --lengths sweeps the 5.2 lengths, and reports the
    published figure at each of them."""
    out = tmp_path / "out"
    assert main(["sweep", str(clean72_session), "--out", str(out)]) == 0
    capsys.readouterr()
    payload = json.loads((out / "report_rgb.json").read_text())
    lengths = PROTOCOL_LENGTHS["5.2"]
    assert [a["window_s"] for a in payload["dataset"]] == list(lengths)
    assert list(payload["reference_mae_bpm"]["monitoring"]) == [f"{t:g}" for t in lengths]


_VALID_SETTINGS = [facepulse.BandLimits(), facepulse.WindowSpec(10.0), facepulse.SynthConfig(),
                   facepulse.ConstantProfile(72.0), facepulse.StepProfile(70.0, 100.0, 30.0),
                   facepulse.RampProfile(70.0, 100.0),
                   facepulse.PulseSignal(30.0, [0.0, 1.0], facepulse.DEFAULT_BAND),
                   SessionManifest(16, 16, 10.0, "gray8", 1, Path("f"), Path("b"))]
_FLOAT_FIELDS = [(valid, f.name) for valid in _VALID_SETTINGS
                 for f in dataclasses.fields(valid) if f.type.startswith("float")]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400, True],
                         ids=["nan", "inf", "-inf", "10**400", "True"])
@pytest.mark.parametrize("valid, name", _FLOAT_FIELDS,
                         ids=[f"{type(v).__name__}.{n}" for v, n in _FLOAT_FIELDS])
def test_float_settings_refuse_non_finite(valid, name, value):
    with pytest.raises(facepulse.InputError):
        dataclasses.replace(valid, **{name: value})


_GROUNDTRUTH = facepulse.GroundTruth(np.array([0.0, 1.0]), np.array([70.0, 71.0]))
_SIGNAL = facepulse.PulseSignal(30.0, [0.0, 1.0], facepulse.DEFAULT_BAND)


@pytest.mark.parametrize("record", [
    _GROUNDTRUTH, _SIGNAL, facepulse.Session(_GROUNDTRUTH, _SIGNAL),
    facepulse.HrSeries(np.array([0.0]), np.array([10.0]), np.array([72.0]))],
    ids=lambda record: type(record).__name__)
def test_array_records_compare_by_identity(record):
    """A frozen record that holds arrays compares and hashes by identity:
    generated field equality would compare arrays and raise."""
    assert record == record
    assert record != copy.copy(record)
    assert hash(record) == hash(record)


_BAND, _SPEC, _SYNTH, _CONSTANT, _STEP, _RAMP, _VALID_SIGNAL, _MANIFEST = _VALID_SETTINGS


def _field(valid, name):
    return lambda value: dataclasses.replace(valid, **{name: value})


# every ranged setting: how to make a record holding a value, and the
# interval it must lie in, each end open "(" ")" or closed "[" "]"
_RANGED = [
    ("BandLimits.f_lo", _field(_BAND, "f_lo"), 0.0, math.inf, "()"),
    ("BandLimits.f_hi", _field(_BAND, "f_hi"), _BAND.f_lo, math.inf, "()"),
    ("WindowSpec.length", _field(_SPEC, "length"), 0.0, math.inf, "()"),
    ("WindowSpec.hop", _field(_SPEC, "hop"), 0.0, _SPEC.length, "(]"),
    ("PulseSignal.fps", _field(_VALID_SIGNAL, "fps"), 0.0, math.inf, "()"),
    ("ConstantProfile.bpm", _field(_CONSTANT, "bpm"), 42.0, 240.0, "()"),
    ("StepProfile.bpm_a", _field(_STEP, "bpm_a"), 42.0, 240.0, "()"),
    ("StepProfile.bpm_b", _field(_STEP, "bpm_b"), 42.0, 240.0, "()"),
    ("StepProfile.t_switch", _field(_STEP, "t_switch"), 0.0, math.inf, "()"),
    ("RampProfile.bpm_a", _field(_RAMP, "bpm_a"), 42.0, 240.0, "()"),
    ("RampProfile.bpm_b", _field(_RAMP, "bpm_b"), 42.0, 240.0, "()"),
    ("SynthConfig.width", _field(_SYNTH, "width"), 16, math.inf, "[)"),
    ("SynthConfig.height", _field(_SYNTH, "height"), 16, math.inf, "[)"),
    ("SynthConfig.seed", _field(_SYNTH, "seed"), 0, math.inf, "[)"),
    ("SynthConfig.fps", _field(_SYNTH, "fps"), 0.0, math.inf, "()"),
    ("SynthConfig.duration", _field(_SYNTH, "duration"), 1.0, math.inf, "[)"),
    ("SynthConfig.pulse_amplitude", _field(_SYNTH, "pulse_amplitude"), 0.0, 0.1, "(]"),
    ("SynthConfig.noise_sigma", _field(_SYNTH, "noise_sigma"), 0.0, math.inf, "[)"),
    ("SynthConfig.illum_drift", _field(_SYNTH, "illum_drift"), 0.0, 1.0, "[)"),
    ("SynthConfig.base_color", lambda c: dataclasses.replace(_SYNTH, base_color=(c, 120.0, 100.0)),
     0.0, 255.0, "[]"),
    ("SynthConfig.hr_profile.t_switch", lambda t: dataclasses.replace(
        _SYNTH, hr_profile=dataclasses.replace(_STEP, t_switch=t)), 0.0, _SYNTH.duration, "()"),
    ("SessionManifest.width", _field(_MANIFEST, "width"), 16, math.inf, "[)"),
    ("SessionManifest.height", _field(_MANIFEST, "height"), 16, math.inf, "[)"),
    ("SessionManifest.fps", _field(_MANIFEST, "fps"), 0.0, math.inf, "()"),
    ("SessionManifest.frame_count", _field(_MANIFEST, "frame_count"), 1, math.inf, "[)"),
]
# each finite end: the bound, whether it is closed, and the way out of the interval
_ENDS = [(f"{name}-{'upper' if way > 0 else 'lower'}", make, bound, closed, way)
         for name, make, lower, upper, (left, right) in _RANGED
         for bound, closed, way in ((lower, left == "[", -1), (upper, right == "]", 1))
         if math.isfinite(bound)]


@pytest.mark.parametrize("make, bound, closed, way", [end[1:] for end in _ENDS],
                         ids=[end[0] for end in _ENDS])
def test_ranged_settings_bounds(make, bound, closed, way):
    """A ranged setting is accepted at a closed end and refused at an open
    one, and one step outside, with the wording that prints its interval."""
    beyond = bound + way if isinstance(bound, int) else math.nextafter(bound, way * math.inf)
    refused = [beyond] if closed else [bound, beyond]
    if closed:
        make(bound)
    for value in refused:
        with pytest.raises(facepulse.InputError, match=r"must be a real number in [\[(]"):
            make(value)


@pytest.mark.parametrize("call, message", [
    (lambda out: facepulse.PipelineParams(band=(0.7, 4.0)),
     "band must be a BandLimits, not tuple"),
    (lambda out: facepulse.estimate_series(_SIGNAL, 10.0), "spec must be a WindowSpec, not float"),
    (lambda out: facepulse.estimate_series(np.arange(600.0), facepulse.WindowSpec(10.0)),
     "signal must be a PulseSignal, not ndarray"),
    (lambda out: facepulse.load_session("s", None),
     "params must be a PipelineParams, not NoneType"),
    (lambda out: facepulse.evaluate_sessions(["s"], [10.0], params=None),
     "params must be a PipelineParams, not NoneType"),
    (lambda out: facepulse.SynthConfig(seed=True), "seed must be an int, not bool"),
    (lambda out: facepulse.SynthConfig(mono="no"), "mono must be a bool, not str"),
    (lambda out: facepulse.load_session(str(out)),
     "session must be a SessionManifest, not str"),
    (lambda out: facepulse.WindowSpec(True),
     r"window length must be a real number in \(0, inf\), not bool"),
    (lambda out: facepulse.evaluate_sessions([1, 2], [10.0]),
     "session path must be a str or PathLike, not int"),
    (lambda out: facepulse.load_session(None),
     "session must be a SessionManifest, not NoneType"),
    (lambda out: facepulse.open_session(None),
     "session path must be a str or PathLike, not NoneType"),
    (lambda out: facepulse.load_groundtruth(None),
     "groundtruth path must be a str or PathLike, not NoneType"),
    (lambda out: facepulse.render_session(None, out),
     "config must be a SynthConfig, not NoneType"),
    (lambda out: facepulse.write_report_csv(None, out),
     "report must be an EvalReport, not NoneType"),
    (lambda out: facepulse.write_report_json(None, out),
     "report must be an EvalReport, not NoneType"),
], ids=["PipelineParams.band", "estimate_series.spec", "estimate_series.signal",
        "load_session.params", "evaluate_sessions.params", "SynthConfig.seed", "SynthConfig.mono",
        "load_session.path", "WindowSpec.length",
        "evaluate_sessions.sessions", "load_session.source", "open_session.source",
        "load_groundtruth.path", "render_session.config", "write_report_csv.report",
        "write_report_json.report"])
def test_wrong_typed_records_refused(call, message, tmp_path):
    """A record or path of the wrong type is refused where it is taken, not
    left to fail on a missing attribute later, and nothing is written."""
    out = tmp_path / "out"
    with pytest.raises(facepulse.InputError, match=message):
        call(out)
    assert not out.exists()


_INPUT_ERRORS = {name for name, obj in vars(facepulse.errors).items()
                 if isinstance(obj, type) and issubclass(obj, facepulse.InputError)}
# refusals outside frameio that test a type or an order, each relating
# two values or parsing a sidecar rather than checking one setting
_OWN_CHECKS = {
    "evaluate.evaluate_sessions",  # a str or bytes is iterable: refused where a list is wanted
    "pulse.BandLimits.check_below_nyquist",  # the band against a session's fps
    "pulse.BandLimits.check_two_cycles",  # the band against a window's length
    "roi.load_box_track",  # box-track rows against the manifest's frame count
}


def _own_setting_refusals(tree: ast.Module, module: str) -> set[str]:
    """module.qualname of each function with an `if` that calls isinstance,
    or orders (<, <=, >, >=) one of its parameters or a field of its
    class through self, and raises an InputError in its body."""
    found = set()

    def visit(node: ast.AST, scope: list[str], params: set[str], fields: set[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                names = {s.target.id for s in child.body
                         if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)}
                visit(child, scope + [child.name], set(), names)
                continue
            if isinstance(child, ast.FunctionDef):
                args = child.args
                names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
                visit(child, scope + [child.name], names - {"self"}, fields)
                continue
            if (isinstance(child, ast.If) and _raises_input_error(child.body)
                    and _tests_setting(child.test, params, fields)):
                found.add(".".join([module, *scope]))
            visit(child, scope, params, fields)

    visit(tree, [], set(), set())
    return found


def _raises_input_error(body: list[ast.stmt]) -> bool:
    return any(isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
               and getattr(node.exc.func, "id", None) in _INPUT_ERRORS
               for stmt in body for node in ast.walk(stmt))


def _tests_setting(test: ast.expr, params: set[str], fields: set[str]) -> bool:
    def setting(expr: ast.expr) -> bool:
        if isinstance(expr, ast.Attribute) and getattr(expr.value, "id", None) == "self":
            return expr.attr in fields
        return isinstance(expr, ast.Name) and expr.id in params

    ordering = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
    return any(
        isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
        or isinstance(node, ast.Compare) and any(isinstance(op, ordering) for op in node.ops)
        and any(map(setting, [node.left, *node.comparators]))
        for node in ast.walk(test))


def test_checker_finds_own_setting_refusals():
    source = ("class A:\n    x: float\n    def __post_init__(self):\n"
              "        if self.x < 0:\n            raise InputError('x')\n"
              "def f(p, q):\n    if isinstance(p, int):\n        raise MissingFileError()\n"
              "    if q > len(p):\n        raise ProcessingError()\n"
              "def g(p):\n    n = len(p)\n    if n < 1:\n        raise InputError()\n")
    assert _own_setting_refusals(ast.parse(source), "m") == {"m.A.__post_init__", "m.f"}


def test_settings_refused_only_through_frameio():
    """Outside frameio, a setting's type and range are refused only by
    frameio.require_type and frameio.require_real, so every refusal has
    one wording."""
    found = set()
    for path in sorted((ROOT / "src" / "facepulse").glob("*.py")):
        if path.name != "frameio.py":
            found |= _own_setting_refusals(ast.parse(path.read_text()), path.stem)
    assert found == _OWN_CHECKS


def test_synth_defaults_are_synth_configs():
    """Every SynthConfig field is the dest of one synth flag, and synth
    without flags parses to SynthConfig()."""
    names = [f.name for f in dataclasses.fields(facepulse.SynthConfig)]
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    dests = [a.dest for a in sub.choices["synth"]._actions]
    assert sorted(dest for dest in dests if dest in names) == sorted(names)
    args = parser.parse_args(["synth", "--out", "x"])
    assert facepulse.SynthConfig(**{name: getattr(args, name) for name in names}) \
        == facepulse.SynthConfig()


def _library_section() -> str:
    text = (ROOT / "README.md").read_text()
    return text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def test_public_names_documented():
    """Each export but the version and the error classes is named in the
    README's Library section."""
    def is_error(name):
        obj = getattr(facepulse, name)
        return isinstance(obj, type) and issubclass(obj, facepulse.FacePulseError)

    section = _library_section()
    public = [n for n in facepulse.__all__ if n != "__version__" and not is_error(n)]
    assert [n for n in public if not re.search(rf"\b{n}\b", section)] == []


def test_readme_module_names_resolve():
    """Every backticked `module.name` in the README whose module is a
    facepulse module names an attribute of that module."""
    modules = {p.stem for p in (ROOT / "src" / "facepulse").glob("*.py")}
    refs = re.findall(r"`(\w+)\.(\w+)`", (ROOT / "README.md").read_text())
    refs = [(m, n) for m, n in refs if m in modules]
    assert refs
    assert [f"{m}.{n}" for m, n in refs
            if not hasattr(importlib.import_module(f"facepulse.{m}"), n)] == []


def test_readme_constant_values_match():
    """Each backticked `module.NAME` followed by a value in parentheses,
    such as (16), (64 KiB) or (512 KiB; ...), has that value."""
    units = {"": 1, "KiB": 1024, "MiB": 1024 * 1024}
    refs = re.findall(r"`(\w+)\.(\w+)`\s+\((\d+)(?:\s+(KiB|MiB))?[;)]",
                      (ROOT / "README.md").read_text())
    assert refs
    assert [f"{m}.{n} ({value} {unit})" for m, n, value, unit in refs
            if getattr(importlib.import_module(f"facepulse.{m}"), n)
            != int(value) * units[unit]] == []


def test_readme_library_example_runs(clean72_session, capsys):
    # a 60 s session: the 2 s tiny_session is shorter than the bandpass filter
    code = re.search(r"```python\n(.*?)```", _library_section(), re.S).group(1)
    exec(code.replace("/tmp/demo", str(clean72_session)), {})
    out = capsys.readouterr().out
    assert out.count(" bpm\n") == 7 and out.startswith("  0.0.. 10.0s")
