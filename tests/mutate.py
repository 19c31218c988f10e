"""Mutation testing: how many one-site changes to a module the tests catch.

    python3 tests/mutate.py synth [--list] [--only 3,17]

Each mutant changes one site of one module under src/facepulse, with the
selective operators of Offutt et al. (ACM TOSEM 5(2), 1996): a relational
swap (< and <=, > and >=, == and !=), an arithmetic swap (+ and -, * and
/) or a numeric constant plus one.  Only the source text of one node that
sits on one line is rewritten, so comments and the rest of the file stay
as they are (the hygiene tests read the sources).

Each mutant runs tier-1 with -x in a fresh copy of the repository, under
TIMEOUT_S, one after another: two at once would share the cores with the
heap and timing tests and the worker threads.  A mutant is killed when
pytest fails or times out, and survives when it passes.  A second pass
reruns without tests/test_golden.py every mutant whose first failure was
in it: the digests catch any output change, so a mutant that only they
catch is detected, not judged.  Uses the standard library only; pytest
does not collect this file.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "facepulse"
GOLDEN_TEST = "tests/test_golden.py"
# per tier-1 run; an unmutated run takes 40-50 s on a 2-core VM
TIMEOUT_S = 300.0
SWAPS = {ast.Lt: "<=", ast.LtE: "<", ast.Gt: ">=", ast.GtE: ">", ast.Eq: "!=", ast.NotEq: "==",
         ast.Add: "-", ast.Sub: "+", ast.Mult: "/", ast.Div: "*"}
SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
           ast.NotEq: "!=", ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                 ".perfbench_run")


@dataclass(frozen=True)
class Site:
    kind: str  # "relational", "arithmetic" or "constant"
    line: int
    col: int  # 0-based offset of the rewritten text in the line
    old: str
    new: str


def _operator_site(kind: str, line: bytes, lineno: int, left: ast.AST, right: ast.AST,
                   op: ast.AST) -> Site | None:
    """The swap of op, found in the text between its two operands."""
    if left.end_lineno != lineno or right.lineno != lineno:
        return None
    gap = line[left.end_col_offset:right.col_offset].decode()
    symbol = SYMBOLS[type(op)]
    # the gap holds the operator, blanks and parentheses only
    at = gap.find(symbol)
    if at < 0 or gap.replace(symbol, "", 1).strip(" ()"):
        return None
    return Site(kind, lineno, left.end_col_offset + at, symbol, SWAPS[type(op)])


def _literal(text: str):
    try:
        return ast.literal_eval(text)
    except (SyntaxError, ValueError):
        return None


def find_sites(source: str) -> list[Site]:
    """Every mutation site of a module, in source order.  Columns are
    UTF-8 byte offsets, as ast gives them."""
    lines = [line.encode() for line in source.splitlines()]
    sites = []
    for node in ast.walk(ast.parse(source)):
        if getattr(node, "lineno", None) != getattr(node, "end_lineno", -1):
            continue
        line = lines[node.lineno - 1]
        if isinstance(node, ast.Compare):
            for left, op, right in zip([node.left, *node.comparators], node.ops,
                                       node.comparators):
                if type(op) in SWAPS:
                    sites.append(_operator_site("relational", line, node.lineno, left, right, op))
        elif isinstance(node, ast.BinOp) and type(node.op) in SWAPS:
            sites.append(_operator_site("arithmetic", line, node.lineno, node.left, node.right,
                                        node.op))
        elif isinstance(node, ast.AugAssign) and type(node.op) in SWAPS:
            symbol = SYMBOLS[type(node.op)] + "="
            at = line.find(symbol.encode(), node.target.end_col_offset, node.value.col_offset)
            if at >= 0:
                sites.append(Site("arithmetic", node.lineno, at, symbol,
                                  SWAPS[type(node.op)] + "="))
        elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
            text = line[node.col_offset:node.end_col_offset].decode()
            # Python 3.11 misplaces the nodes of an f-string's expressions
            if text.isascii() and _literal(text) == node.value:
                sites.append(Site("constant", node.lineno, node.col_offset, text,
                                  repr(node.value + 1)))
    return sorted((s for s in sites if s is not None), key=lambda s: (s.line, s.col, s.kind))


def apply(source: str, site: Site) -> str:
    lines = source.splitlines(keepends=True)
    line = lines[site.line - 1].encode()
    old = site.old.encode()
    assert line[site.col:site.col + len(old)] == old
    lines[site.line - 1] = (line[:site.col] + site.new.encode()
                            + line[site.col + len(old):]).decode()
    return "".join(lines)


def run_tests(module: str, source: str, skip_golden: bool = False) -> tuple[str, str, float]:
    """Tier-1 with -x over a fresh copy holding source as the module;
    returns the outcome, the first failing test and the seconds taken."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORED)
        (copy / "src" / "facepulse" / f"{module}.py").write_text(source)
        command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                   "--continue-on-collection-errors", f"--basetemp={Path(tmp) / 'pytest'}"]
        if skip_golden:
            command.append(f"--ignore={GOLDEN_TEST}")
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        t0 = time.perf_counter()
        proc = subprocess.Popen(command, cwd=copy, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return "timeout", "", time.perf_counter() - t0
        seconds = time.perf_counter() - t0
    failed = [ln.split()[1] for ln in out.splitlines() if ln.startswith(("FAILED ", "ERROR "))]
    if proc.returncode == 0:
        return "survived", "", seconds
    return "killed", failed[0] if failed else f"exit {proc.returncode}", seconds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="module name under src/facepulse, e.g. synth")
    parser.add_argument("--list", action="store_true", help="list the sites and stop")
    parser.add_argument("--only", help="comma-separated site numbers, as --list prints them")
    args = parser.parse_args(argv)

    source = (PACKAGE / f"{args.module}.py").read_text()
    sites = list(enumerate(find_sites(source), 1))
    if args.only:
        wanted = {int(n) for n in args.only.split(",")}
        sites = [(n, s) for n, s in sites if n in wanted]
    if args.list:
        for n, s in sites:
            print(f"{n:4d} {args.module}.py:{s.line} {s.kind} {s.old!r} -> {s.new!r}")
        return 0

    outcome, failed, seconds = run_tests(args.module, source)
    print(f"unmutated tier-1: {outcome} in {seconds:.1f} s", flush=True)
    if outcome != "survived":
        print(f"tier-1 fails without a mutant ({failed}); nothing to score", file=sys.stderr)
        return 1

    survivors, second_survivors = [], []
    for n, s in sites:
        name = f"{n:4d} {args.module}.py:{s.line} {s.old!r} -> {s.new!r}"
        outcome, failed, seconds = run_tests(args.module, apply(source, s))
        line = f"{name}: {outcome} {failed} ({seconds:.1f} s)"
        if failed.startswith(GOLDEN_TEST):
            # the second score judges the mutant by the tests other than the digests
            outcome, failed, seconds = run_tests(args.module, apply(source, s), True)
            line += f"; without golden: {outcome} {failed} ({seconds:.1f} s)"
        else:
            survivors += [name] if outcome == "survived" else []
        second_survivors += [name] if outcome == "survived" else []
        print(line, flush=True)

    total = len(sites)
    print(f"score: {total - len(survivors)}/{total} killed; without {GOLDEN_TEST}: "
          f"{total - len(second_survivors)}/{total} killed")
    for name in second_survivors:
        print(f"{'survived' if name in survivors else 'golden only'}: {name.strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
