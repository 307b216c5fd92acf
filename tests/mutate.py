"""Run the test suite against each source mutant listed in tests/mutants.txt.

    python tests/mutate.py

The runner first checks that every mutant's snippet occurs exactly once in
its file, so the list follows the code. It then copies src/, tests/ and
pyproject.toml into a temporary directory, runs `python -m pytest -x -q` on
the unmutated copy (which must pass, or no kill would mean anything), and
then on one mutated copy per mutant, with the copy's src/ first on the
import path. A mutant is killed when pytest fails or runs past its time.

Exit status: 0 when every mutant is killed or marked `equivalent`, 1 when
one that is not marked survives, 2 when a snippet does not match or the
unmutated copy fails. Standard library only; pytest does not collect it.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = ROOT / "tests" / "mutants.txt"
PYTEST = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
TIMEOUT_S = 300  # one Tier-1 run takes about 20 s; a hang counts as a kill


@dataclass
class Mutant:
    name: str
    file: str
    find: str
    replace: str
    equivalent: str | None = None


def parse_mutants(text: str) -> list[Mutant]:
    """Entries of this form; everything before the first `==` is a comment:

        == name
        file: src/tokenledger/store.py
        equivalent: why no test can tell it apart   (optional)
        --- find
        <exact source lines>
        --- replace
        <their replacement>

    Blank lines that end a block are not part of it.
    """
    entries: list[dict] = []
    block: list[str] | None = None
    for line in text.splitlines():
        if line.startswith("== "):
            entries.append({"name": line[3:].strip()})
            block = None
        elif not entries:
            continue
        elif line in ("--- find", "--- replace"):
            block = entries[-1][line[4:]] = []
        elif block is not None:
            block.append(line)
        elif line.strip() and not line.startswith("#"):
            key, sep, value = line.partition(":")
            if not sep or key not in ("file", "equivalent"):
                raise ValueError(f"{entries[-1]['name']}: bad header line {line!r}")
            entries[-1][key] = value.strip()
    mutants = []
    for entry in entries:
        for part in ("find", "replace"):
            entry[part] = "\n".join(entry.get(part, [])).rstrip()
        mutant = Mutant(**{"file": "", **entry})
        if not mutant.file or not mutant.find or mutant.find == mutant.replace:
            raise ValueError(f"{mutant.name}: needs a file and a snippet that it changes")
        mutants.append(mutant)
    return mutants


def mismatches(mutants: list[Mutant]) -> list[str]:
    """The mutants whose snippet does not occur exactly once in its file."""
    bad = []
    for mutant in mutants:
        path = ROOT / mutant.file
        count = path.read_text(encoding="utf-8").count(mutant.find) if path.is_file() else 0
        if count != 1:
            bad.append(f"{mutant.name}: snippet found {count} times in {mutant.file}")
    return bad


def run_suite(copy: Path) -> tuple[bool, str]:
    """(passed, pytest's output) for the copy's tests against the copy's src/."""
    # no bytecode cache: a mutant of the same size, written in the same
    # second, could otherwise run from the previous mutant's cached code
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(copy / "src"), env.get("PYTHONPATH")]))
    try:
        done = subprocess.run(
            PYTEST, cwd=copy, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return False, f"timed out after {TIMEOUT_S} s"
    return done.returncode == 0, done.stdout


def main() -> int:
    mutants = parse_mutants(MUTANTS.read_text(encoding="utf-8"))
    bad = mismatches(mutants)
    for message in bad:
        print(f"STALE {message}")
    if bad:
        return 2
    started = time.monotonic()
    killed = survivors = 0
    with tempfile.TemporaryDirectory(prefix="tokenledger-mutate-") as tmp:
        copy = Path(tmp) / "tree"
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")
        passed, output = run_suite(copy)
        if not passed:
            print(output)
            print("the unmutated copy fails its tests; no mutant was run")
            return 2
        for mutant in mutants:
            target = copy / mutant.file
            original = target.read_text(encoding="utf-8")
            target.write_text(original.replace(mutant.find, mutant.replace, 1), encoding="utf-8")
            t0 = time.monotonic()
            try:
                passed, _output = run_suite(copy)
            finally:
                target.write_text(original, encoding="utf-8")
            took = f"{time.monotonic() - t0:.1f} s"
            if not passed:
                killed += 1
                print(f"killed   {mutant.name} ({took})")
            elif mutant.equivalent:
                print(f"survived {mutant.name} ({took}; equivalent: {mutant.equivalent})")
            else:
                survivors += 1
                print(f"SURVIVED {mutant.name} ({took})")
    print(
        f"{len(mutants)} mutants: {killed} killed, {len(mutants) - killed - survivors} "
        f"equivalent, {survivors} unmarked survivors; {time.monotonic() - started:.0f} s"
    )
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
