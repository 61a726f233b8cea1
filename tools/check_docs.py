#!/usr/bin/env python3
"""Executable-documentation checks (the CI docs job).

Documentation in this repository is held to the same bar as code: every
command and snippet it shows must actually run.  This tool fails CI when
docs drift:

1. **Cross-links** — every relative Markdown link in ``README.md`` and
   ``docs/*.md`` resolves to an existing file, and ``#anchors`` resolve
   to a heading in the target page.
2. **API reference** — every public class/function (and public method)
   of the modules the docs reference carries a docstring, so the pages
   never point at undocumented API.
3. **Doctested snippets** — every ````bash```` command in ``README.md``
   and ``docs/*.md`` exits 0, and every ````python```` block executes
   cleanly (run from the repo root with ``PYTHONPATH`` resolved; files a
   snippet creates at top level are cleaned up afterwards, and the
   ``/tmp/`` paths the docs write to are redirected into one temporary
   directory that is removed when the run ends).
4. **Examples** — every ``examples/*.py`` script smoke-executes
   (``--quick``).
5. **Spec reference** — ``docs/experiment-spec.md`` names every spec
   kind, every top-level field, every field of each section (under the
   section's own heading) and every artefact kind, all read from the
   schema in :mod:`repro.api.spec` and :data:`repro.api.compile.ARTEFACTS`.
6. **Symbols** — every backticked ``repro.…`` dotted name in
   ``README.md`` and ``docs/*.md`` (a call's name before its ``(``
   included) imports and resolves attribute by attribute, so a page
   never names deleted API.

Usage::

    python tools/check_docs.py [--skip-slow] [--list]

``--skip-slow`` skips commands that re-run whole test suites (anything
invoking pytest) for fast local iteration; CI runs everything.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DOC_FILES = [REPO_ROOT / "README.md",
             *sorted((REPO_ROOT / "docs").glob("*.md"))]

#: Modules whose public API the docs reference; all of it must be
#: documented (docs/architecture.md, docs/coordination.md).
API_MODULES = [
    "repro.api.cache",
    "repro.api.compile",
    "repro.api.run",
    "repro.api.spec",
    "repro.api.validate",
    "repro.core.coordinator",
    "repro.core.scheduler",
    "repro.experiments.pool",
    "repro.faults.inject",
    "repro.faults.plan",
    "repro.forecast.forecasters",
    "repro.experiments.runner",
    "repro.neighborhood.aggregate",
    "repro.neighborhood.coordination",
    "repro.neighborhood.federation",
    "repro.neighborhood.fleet",
    "repro.neighborhood.grid",
    "repro.neighborhood.online",
    "repro.neighborhood.shard",
    "repro.neighborhood.transport",
    "repro.service.client",
    "repro.service.queue",
    "repro.service.retry",
    "repro.service.server",
    "repro.service.store",
    "repro.service.worker",
    "repro.telemetry.log",
    "repro.telemetry.stream",
]

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
SYMBOL_RE = re.compile(r"`(repro(?:\.\w+)+)[`(]")
FENCE_RE = re.compile(r"^```(\w*)\s*$")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$")

failures: list[str] = []


def fail(message: str) -> None:
    failures.append(message)
    print(f"FAIL: {message}")


def ok(message: str) -> None:
    print(f"  ok: {message}")


# ---------------------------------------------------------------------------
# 1. cross-links
# ---------------------------------------------------------------------------

def github_anchor(heading: str) -> str:
    """GitHub's heading → anchor slug (lowercase, dashes, strip punct)."""
    slug = heading.strip().lower()
    slug = re.sub(r"[`*_~]", "", slug)
    slug = re.sub(r"[^\w\- ]", "", slug)
    return slug.replace(" ", "-")


def anchors_of(path: Path) -> set[str]:
    anchors = set()
    for line in path.read_text().splitlines():
        match = HEADING_RE.match(line)
        if match:
            anchors.add(github_anchor(match.group(1)))
    return anchors


def check_links() -> None:
    print("== cross-links ==")
    for doc in DOC_FILES:
        text = doc.read_text()
        for target in LINK_RE.findall(text):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            base, _, anchor = target.partition("#")
            resolved = (doc.parent / base).resolve() if base else doc
            if not resolved.exists():
                fail(f"{doc.relative_to(REPO_ROOT)}: broken link "
                     f"-> {target}")
                continue
            if anchor and resolved.suffix == ".md" \
                    and anchor not in anchors_of(resolved):
                fail(f"{doc.relative_to(REPO_ROOT)}: broken anchor "
                     f"-> {target}")
                continue
            ok(f"{doc.relative_to(REPO_ROOT)} -> {target}")


# ---------------------------------------------------------------------------
# 2. API docstrings
# ---------------------------------------------------------------------------

def _inherited_doc(cls: type, name: str) -> bool:
    for base in cls.__mro__[1:]:
        attr = base.__dict__.get(name)
        if attr is not None and getattr(attr, "__doc__", None):
            return True
    return False


def check_api_docstrings() -> None:
    print("== API docstrings ==")
    import importlib
    src = str(REPO_ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    for module_name in API_MODULES:
        module = importlib.import_module(module_name)
        if not module.__doc__:
            fail(f"{module_name}: missing module docstring")
        missing: list[str] = []
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if getattr(obj, "__module__", None) != module_name:
                continue  # re-export; documented at its home
            if isinstance(obj, type):
                if not obj.__doc__:
                    missing.append(name)
                for attr_name, attr in vars(obj).items():
                    if attr_name.startswith("_"):
                        continue
                    if isinstance(attr, property):
                        documented = bool(attr.__doc__)
                    elif callable(attr) or isinstance(
                            attr, (staticmethod, classmethod)):
                        documented = bool(getattr(attr, "__doc__", None))
                    else:
                        continue
                    if not documented and not _inherited_doc(obj, attr_name):
                        missing.append(f"{name}.{attr_name}")
            elif callable(obj) and not obj.__doc__:
                missing.append(name)
        if missing:
            fail(f"{module_name}: undocumented public API: "
                 f"{', '.join(sorted(missing))}")
        else:
            ok(f"{module_name}: all public API documented")


def check_spec_reference() -> None:
    print("== spec reference ==")
    from dataclasses import fields

    from repro.api.compile import ARTEFACTS
    from repro.api.spec import (
        KINDS,
        SCHEMA,
        SECTIONS,
        ArtefactSpec,
        ExperimentSpec,
        FeederPlan,
        GridPlan,
        SweepSpec,
    )
    page = REPO_ROOT / "docs" / "experiment-spec.md"
    text = page.read_text()
    # ### `section` headings -> the text up to the next heading
    bodies = {}
    for chunk in re.split(r"^### ", text, flags=re.MULTILINE)[1:]:
        heading, _, body = chunk.partition("\n")
        match = re.match(r"`(\w+)`", heading)
        if match:
            bodies[match.group(1)] = body.split("\n## ")[0]
    names = [spec_field.name for spec_field in SCHEMA[FeederPlan]]
    expected = {
        "": ([f"`{kind}`" for kind in KINDS]
             + [f"`{name}`" for name in ARTEFACTS]
             + [f"`{spec_field.name}`"
                for spec_field in fields(ExperimentSpec)]),
        **{section: [f"`{spec_field.name}`"
                     for spec_field in SCHEMA[section_cls]]
           for section, section_cls in SECTIONS.items()},
        "grid": [f"`{spec_field.name}`" for spec_field in fields(GridPlan)]
        + [f"`{name}`" for name in names],
        "sweep": [f"`{spec_field.name}`"
                  for spec_field in fields(SweepSpec)],
        "artefact": [f"`{spec_field.name}`"
                     for spec_field in fields(ArtefactSpec)],
    }
    for section, tokens in expected.items():
        where = f"### `{section}`" if section else "the page"
        body = bodies.get(section) if section else text
        if body is None:
            fail(f"{page.name}: no ### `{section}` heading")
            continue
        missing = [token for token in tokens if token not in body]
        if missing:
            fail(f"{page.name}: {where} does not name "
                 f"{', '.join(missing)}")
        else:
            ok(f"{page.name}: {where} names all {len(tokens)} entries")


def resolve_symbol(name: str) -> bool:
    """Whether dotted ``name`` imports: its longest module prefix, then
    ``getattr`` for each remaining part."""
    import importlib
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        module_name = ".".join(parts[:cut])
        try:
            obj = importlib.import_module(module_name)
        except ModuleNotFoundError as exc:
            if exc.name is not None and module_name.startswith(exc.name):
                continue  # not a module: try a shorter prefix
            raise
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def check_symbols() -> None:
    print("== symbols ==")
    for doc in DOC_FILES:
        names = sorted(set(SYMBOL_RE.findall(doc.read_text())))
        broken = [name for name in names if not resolve_symbol(name)]
        if broken:
            fail(f"{doc.relative_to(REPO_ROOT)}: unresolved names: "
                 f"{', '.join(broken)}")
        elif names:
            ok(f"{doc.relative_to(REPO_ROOT)}: all {len(names)} "
               f"repro.* names resolve")


# ---------------------------------------------------------------------------
# 3. fenced snippets
# ---------------------------------------------------------------------------

def fenced_blocks(path: Path) -> list[tuple[str, str]]:
    """``(language, body)`` for every fenced code block in ``path``."""
    blocks = []
    language = None
    body: list[str] = []
    for line in path.read_text().splitlines():
        match = FENCE_RE.match(line)
        if match and language is None:
            language = match.group(1) or "text"
            body = []
        elif line.strip() == "```" and language is not None:
            blocks.append((language, "\n".join(body)))
            language = None
        elif language is not None:
            body.append(line)
    return blocks


def bash_commands(body: str) -> list[str]:
    """Commands of a bash block: comments stripped, continuations joined."""
    commands: list[str] = []
    pending = ""
    for raw in body.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        line = re.sub(r"\s+#.*$", "", line)  # trailing comment
        if line.endswith("\\"):
            pending += line[:-1] + " "
            continue
        commands.append((pending + line).strip())
        pending = ""
    if pending:
        commands.append(pending.strip())
    return commands


def redirect_tmp(text: str, tmp_dir: str) -> str:
    """Redirect a snippet's ``/tmp/`` paths into ``tmp_dir``."""
    return text.replace("/tmp/", f"{tmp_dir}/")


def snippet_env(tmp_dir: str) -> dict[str, str]:
    """The snippet environment: ``src`` on the path, and the result
    cache and service store inside ``tmp_dir`` — a snippet such as
    ``repro cache clear`` must never touch the developer's real
    ``~/.cache/repro`` or ``~/.cache/repro-service``."""
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}:{existing}" if existing else src
    env["REPRO_CACHE_DIR"] = f"{tmp_dir}/repro-cache"
    env["REPRO_SERVICE_STORE"] = f"{tmp_dir}/repro-service"
    return env


def run_command(command: str, skip_slow: bool, tmp_dir: str) -> None:
    if skip_slow and "pytest" in command:
        print(f"  skip (slow): {command}")
        return
    # The docs write `PYTHONPATH=src ...` for copy-paste use; the env
    # already carries the resolved path, so drop the textual prefix.
    executable = redirect_tmp(re.sub(r"^PYTHONPATH=\S+\s+", "", command),
                              tmp_dir)
    before = set(REPO_ROOT.iterdir())
    result = subprocess.run(["bash", "-c", executable], cwd=REPO_ROOT,
                            env=snippet_env(tmp_dir), capture_output=True,
                            text=True)
    for leftover in set(REPO_ROOT.iterdir()) - before:
        if leftover.is_file():
            leftover.unlink()  # snippet artifacts (exports etc.)
    if result.returncode != 0:
        tail = (result.stderr or result.stdout).strip().splitlines()[-8:]
        fail(f"command exited {result.returncode}: {command}\n      "
             + "\n      ".join(tail))
    else:
        ok(command)


def run_python_block(source: str, origin: str, tmp_dir: str) -> None:
    before = set(REPO_ROOT.iterdir())
    result = subprocess.run([sys.executable, "-"],
                            input=redirect_tmp(source, tmp_dir),
                            cwd=REPO_ROOT, env=snippet_env(tmp_dir),
                            capture_output=True, text=True)
    for leftover in set(REPO_ROOT.iterdir()) - before:
        if leftover.is_file():
            leftover.unlink()
    if result.returncode != 0:
        tail = result.stderr.strip().splitlines()[-8:]
        fail(f"python block in {origin} failed:\n      "
             + "\n      ".join(tail))
    else:
        first = source.strip().splitlines()[0]
        ok(f"python block in {origin} ({first} ...)")


def check_snippets(skip_slow: bool, list_only: bool, tmp_dir: str) -> None:
    """Execute every snippet once — identical commands/blocks shown in
    several pages are deduplicated (the heavy neighborhood runs appear in
    README and docs alike; one passing execution covers them all)."""
    print("== doc snippets ==")
    seen: set[str] = set()
    for doc in DOC_FILES:
        origin = str(doc.relative_to(REPO_ROOT))
        for language, body in fenced_blocks(doc):
            if language == "bash":
                for command in bash_commands(body):
                    if command in seen:
                        print(f"  dup (already ran): {command}")
                        continue
                    seen.add(command)
                    if list_only:
                        print(f"  would run: {command}")
                    else:
                        run_command(command, skip_slow, tmp_dir)
            elif language == "python":
                key = "\n".join(line.strip()
                                for line in body.strip().splitlines())
                if key in seen:
                    print(f"  dup (already ran): python block in {origin}")
                    continue
                seen.add(key)
                if list_only:
                    first = body.strip().splitlines()[0]
                    print(f"  would exec python block ({first} ...)")
                else:
                    run_python_block(body, origin, tmp_dir)


# ---------------------------------------------------------------------------
# 4. examples
# ---------------------------------------------------------------------------

def check_examples(list_only: bool, tmp_dir: str) -> None:
    print("== examples ==")
    for script in sorted((REPO_ROOT / "examples").glob("*.py")):
        command = f"python {script.relative_to(REPO_ROOT)} --quick"
        if list_only:
            print(f"  would run: {command}")
        else:
            run_command(command, skip_slow=False, tmp_dir=tmp_dir)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--skip-slow", action="store_true",
                        help="skip pytest-invoking doc commands")
    parser.add_argument("--list", action="store_true",
                        help="list the snippets without running them")
    args = parser.parse_args(argv)
    check_links()
    check_api_docstrings()
    check_spec_reference()
    check_symbols()
    with tempfile.TemporaryDirectory(prefix="check-docs-") as tmp_dir:
        check_snippets(args.skip_slow, args.list, tmp_dir)
        check_examples(args.list, tmp_dir)
    if failures:
        print(f"\n{len(failures)} doc check(s) failed")
        return 1
    print("\nall doc checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
