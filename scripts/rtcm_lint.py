#!/usr/bin/env python3
"""rtcm-lint: repo-specific determinism and event-path invariant linter.

The repo's central contract -- same seed => byte-identical traces and
reports, N-thread sweep == 1-thread -- is enforced dynamically by goldens
and comparators.  This linter enforces the *sources* of that contract
statically, so a hazard is flagged at analysis time instead of surfacing as
a flaky nightly diff.  Rules:

  unordered-iteration   Iterating a std::unordered_map / std::unordered_set
                        (range-for, .begin(), or iterating the return value
                        of a function declared to return one).  Hash-table
                        iteration order is libstdc++-internal and changes
                        across compilers/versions, so any iteration feeding
                        traces, reports, JSON, or ledger ordering is a
                        determinism hazard.  Lookups (find/at/count/
                        contains/operator[]) are fine.
  wall-clock            std::rand/srand/random_device and wall-clock reads
                        (std::chrono::system_clock, time(nullptr)).  All
                        randomness must flow from the seeded rtcm::Rng; sim
                        time comes from the Simulator.  (steady_clock is
                        allowed: wall_ms measurement is explicitly
                        non-deterministic and excluded from reports.)
  pointer-keyed         std::map/std::set keyed on a pointer type: ordered
                        iteration over addresses is allocation-order
                        dependent, i.e. nondeterministic across runs.
  sim-path-alloc        std::function or raw `new` in simulation event-path
                        code: any file under a sim/ directory (the event
                        kernel), an events/ directory (the event channel,
                        which runs once per pushed event), or a core/ or
                        sched/ directory (the middleware components and
                        the admission/placement code whose handlers run
                        on every arrival inside the simulation).  Event
                        paths must use InlineFunction and slab/arena
                        storage: zero per-event heap allocations is an
                        enforced contract (tests/sim_alloc_test.cpp).

Suppressions:
  * inline: `// rtcm-lint: allow(<rule>) <reason>` on the offending line or
    the line directly above.  A reason is mandatory -- an allow without one
    is itself reported.
  * allowlist file (--allowlist, default scripts/rtcm_lint_allowlist.txt):
    lines of `<path-glob>:<rule>` with `#` comments.

Usage:
  rtcm_lint.py [--root DIR] [PATH...]       lint src/ (or PATHs)
  rtcm_lint.py --self-test DIR              run the fixture corpus protocol
  rtcm_lint.py --list-rules

Exit codes: 0 clean, 1 findings, 2 usage/internal error.

Implementation note: this is the regex half of the libclang/regex hybrid.
When the clang python bindings are importable they refine unordered-type
resolution through typedef chains; without them (the common case in this
container) the regex engine runs alone and the fixture corpus pins its
behaviour.
"""

from __future__ import annotations

import argparse
import fnmatch
import re
import sys
from pathlib import Path

RULES = {
    "unordered-iteration": (
        "iteration over an unordered container (nondeterministic order)"
    ),
    "wall-clock": "wall-clock / ambient-randomness source",
    "pointer-keyed": "ordered container keyed on a pointer",
    "sim-path-alloc": "std::function or raw new on a sim event path",
}

ALLOW_RE = re.compile(r"//\s*rtcm-lint:\s*allow\(([a-z-]+)\)\s*(.*)")
EXPECT_RE = re.compile(r"//\s*lint-expect:\s*([a-z-]+)")

# Optional libclang refinement: resolves unordered types through typedef
# chains that the regex pass cannot see.  Entirely optional -- absence of
# the bindings must never change the exit code on the fixture corpus.
try:  # pragma: no cover - environment-dependent
    import clang.cindex as _cindex  # type: ignore

    HAVE_LIBCLANG = True
except ImportError:
    _cindex = None
    HAVE_LIBCLANG = False


class Finding:
    def __init__(self, path: Path, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literals, preserving line
    structure so reported line numbers stay exact."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            if j == -1:
                j = n
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            out.append("".join(ch if ch == "\n" else " " for ch in text[i:j]))
            i = j
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote:
                    j += 1
                    break
                if text[j] == "\n":  # unterminated; bail at line end
                    break
                j += 1
            out.append(quote + " " * (j - i - 2) + (quote if j > i + 1 else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


UNORDERED_DECL_RE = re.compile(
    r"\bstd\s*::\s*unordered_(?:map|set|multimap|multiset)\s*<"
)
# `std::unordered_map<K, V> name` (variable / member / parameter).
UNORDERED_VAR_RE = re.compile(
    r"\bstd\s*::\s*unordered_(?:map|set|multimap|multiset)\s*<[^;{}()]*?>\s*&?\s*(\w+)\s*[;={,)]"
)
# `std::unordered_map<K, V> name(` at the start of a declaration line: a
# function returning an unordered container.
UNORDERED_FN_RE = re.compile(
    r"^\s*(?:\[\[nodiscard\]\]\s*)?(?:static\s+|inline\s+)*std\s*::\s*unordered_(?:map|set|multimap|multiset)\s*<.*>\s*\n?\s*(\w+)\s*\(",
    re.MULTILINE,
)
# `using Alias = std::unordered_map<...>` / typedef.
UNORDERED_ALIAS_RE = re.compile(
    r"\busing\s+(\w+)\s*=\s*std\s*::\s*unordered_(?:map|set|multimap|multiset)\s*<"
)

RANGE_FOR_HEAD_RE = re.compile(r"\bfor\s*\(")
BEGIN_CALL_RE = re.compile(r"\b(\w+)\s*(?:\(\s*\))?\s*\.\s*(?:c?r?begin)\s*\(")

WALL_CLOCK_PATTERNS = [
    (re.compile(r"\bstd\s*::\s*rand\b|(?<![\w:])rand\s*\(\s*\)"), "std::rand"),
    (re.compile(r"\bsrand\s*\("), "srand"),
    (re.compile(r"\bstd\s*::\s*random_device\b"), "std::random_device"),
    (re.compile(r"\bsystem_clock\b"), "std::chrono::system_clock"),
    (re.compile(r"\btime\s*\(\s*(?:nullptr|NULL|0)\s*\)"), "time(nullptr)"),
]

POINTER_KEYED_RE = re.compile(
    r"\bstd\s*::\s*(?:map|set|multimap|multiset)\s*<\s*(?:const\s+)?[\w:]+(?:\s*<[^<>]*>)?\s*\*"
)

STD_FUNCTION_RE = re.compile(r"\bstd\s*::\s*function\s*<")
RAW_NEW_RE = re.compile(r"(?<![\w_])new\s+[\w:<(]")


def collect_unordered_names(code: str) -> set[str]:
    names: set[str] = set()
    aliases = set(UNORDERED_ALIAS_RE.findall(code))
    names |= set(UNORDERED_VAR_RE.findall(code))
    names |= set(UNORDERED_FN_RE.findall(code))
    for alias in aliases:
        # Variables declared with the alias type: `Alias name;` etc.
        for m in re.finditer(
            r"\b" + re.escape(alias) + r"\s*&?\s*(\w+)\s*[;={,)]", code
        ):
            names.add(m.group(1))
    # Structured-binding / reference re-binds of an unordered name:
    # `auto& other = name;` keeps the hazard alive under a new name.
    for m in re.finditer(r"\bauto\s*&?\s*(\w+)\s*=\s*(\w+)\s*;", code):
        if m.group(2) in names:
            names.add(m.group(1))
    return names


SIM_PATH_DIRS = ("sim", "events", "core", "sched")


def on_sim_path(path: Path) -> bool:
    return any(part in SIM_PATH_DIRS for part in path.parts)


def lint_text(
    path: Path, text: str, global_unordered_fns: set[str]
) -> tuple[list[Finding], list[Finding]]:
    """Return (findings, suppressed). Allow comments are honoured here;
    malformed allows (no reason) are surfaced as findings themselves."""
    raw_lines = text.splitlines()
    allows: dict[int, str] = {}
    findings: list[Finding] = []
    for idx, line in enumerate(raw_lines, start=1):
        m = ALLOW_RE.search(line)
        if not m:
            continue
        rule, reason = m.group(1), m.group(2).strip()
        if rule not in RULES:
            findings.append(
                Finding(path, idx, "lint-usage", f"allow() names unknown rule '{rule}'")
            )
            continue
        if not reason:
            findings.append(
                Finding(
                    path,
                    idx,
                    "lint-usage",
                    f"allow({rule}) requires a justification after the ')'",
                )
            )
            continue
        allows[idx] = rule

    code = strip_comments_and_strings(text)
    code_lines = code.splitlines()
    unordered = collect_unordered_names(code) | global_unordered_fns

    raw: list[Finding] = []

    def line_of(offset: int) -> int:
        return code.count("\n", 0, offset) + 1

    # unordered-iteration -----------------------------------------------
    for m in RANGE_FOR_HEAD_RE.finditer(code):
        # Balance parens to the end of the for-header, then split the
        # range-for at the first top-level colon that is not part of `::`.
        start = m.end()
        depth, j = 1, start
        while j < len(code) and depth:
            if code[j] == "(":
                depth += 1
            elif code[j] == ")":
                depth -= 1
            j += 1
        header = code[start : j - 1]
        if ";" in header:
            continue  # classic for-loop
        colon = -1
        d = 0
        for k, ch in enumerate(header):
            if ch in "([{":
                d += 1
            elif ch in ")]}":
                d -= 1
            elif (
                ch == ":"
                and d == 0
                and header[k - 1 : k] != ":"
                and header[k + 1 : k + 2] != ":"
            ):
                colon = k
                break
        if colon < 0:
            continue
        seq = header[colon + 1 :].strip()
        base = re.match(r"(\w+)\s*(?:\(.*\))?\s*$", seq)
        hazardous = UNORDERED_DECL_RE.search(seq) is not None
        if base and base.group(1) in unordered:
            hazardous = True
        if hazardous:
            raw.append(
                Finding(
                    path,
                    line_of(m.start()),
                    "unordered-iteration",
                    f"range-for over unordered container '{seq[:60]}'",
                )
            )
    for m in BEGIN_CALL_RE.finditer(code):
        if m.group(1) in unordered:
            raw.append(
                Finding(
                    path,
                    line_of(m.start()),
                    "unordered-iteration",
                    f"iterator over unordered container '{m.group(1)}'",
                )
            )

    # wall-clock --------------------------------------------------------
    for regex, label in WALL_CLOCK_PATTERNS:
        for m in regex.finditer(code):
            raw.append(
                Finding(
                    path,
                    line_of(m.start()),
                    "wall-clock",
                    f"{label}: use the seeded rtcm::Rng / simulator time",
                )
            )

    # pointer-keyed -----------------------------------------------------
    for m in POINTER_KEYED_RE.finditer(code):
        raw.append(
            Finding(
                path,
                line_of(m.start()),
                "pointer-keyed",
                "std::map/std::set keyed on a pointer iterates in "
                "allocation order",
            )
        )

    # sim-path-alloc ----------------------------------------------------
    if on_sim_path(path):
        for m in STD_FUNCTION_RE.finditer(code):
            raw.append(
                Finding(
                    path,
                    line_of(m.start()),
                    "sim-path-alloc",
                    "std::function on a sim event path: use "
                    "rtcm::InlineFunction (util/inline_fn.h)",
                )
            )
        for m in RAW_NEW_RE.finditer(code):
            lineno = line_of(m.start())
            line = code_lines[lineno - 1] if lineno <= len(code_lines) else ""
            # Placement new into pre-owned storage is the slab/arena idiom
            # itself; only flag allocating `new`.
            if re.search(r"new\s*\(", line):
                continue
            raw.append(
                Finding(
                    path,
                    lineno,
                    "sim-path-alloc",
                    "raw new on a sim event path: use slab/arena storage",
                )
            )

    suppressed: list[Finding] = []
    for f in raw:
        allow_rule = allows.get(f.line) or allows.get(f.line - 1)
        if allow_rule == f.rule:
            suppressed.append(f)
        else:
            findings.append(f)
    findings.sort(key=lambda f: (str(f.path), f.line))
    return findings, suppressed


def load_allowlist(path: Path) -> list[tuple[str, str]]:
    entries: list[tuple[str, str]] = []
    if not path.is_file():
        return entries
    for raw in path.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ValueError(f"{path}: malformed allowlist line '{raw}'")
        glob, rule = (part.strip() for part in line.rsplit(":", 1))
        if rule not in RULES:
            raise ValueError(f"{path}: unknown rule '{rule}' in '{raw}'")
        entries.append((glob, rule))
    return entries


def allowlisted(f: Finding, entries: list[tuple[str, str]]) -> bool:
    posix = f.path.as_posix()
    for glob, rule in entries:
        if rule != f.rule:
            continue
        if fnmatch.fnmatch(posix, glob) or fnmatch.fnmatch(posix, "*/" + glob):
            return True
    return False


def gather_files(paths: list[Path]) -> list[Path]:
    files: list[Path] = []
    for p in paths:
        if p.is_dir():
            files.extend(sorted(p.rglob("*.h")))
            files.extend(sorted(p.rglob("*.cpp")))
        elif p.is_file():
            files.append(p)
        else:
            raise FileNotFoundError(p)
    return sorted(set(files))


def global_unordered_functions(files: list[Path]) -> set[str]:
    """Names of functions declared (in any scanned file) to return an
    unordered container: iterating their return value anywhere is the same
    hazard as iterating a local."""
    fns: set[str] = set()
    for path in files:
        code = strip_comments_and_strings(path.read_text(errors="replace"))
        fns |= set(UNORDERED_FN_RE.findall(code))
    return fns


def run_lint(paths: list[Path], allowlist: Path, verbose: bool) -> int:
    try:
        files = gather_files(paths)
        entries = load_allowlist(allowlist)
    except (FileNotFoundError, ValueError) as err:
        print(f"rtcm-lint: {err}", file=sys.stderr)
        return 2
    fns = global_unordered_functions(files)
    all_findings: list[Finding] = []
    n_suppressed = 0
    for path in files:
        findings, suppressed = lint_text(
            path, path.read_text(errors="replace"), fns
        )
        n_suppressed += len(suppressed)
        for f in findings:
            if f.rule != "lint-usage" and allowlisted(f, entries):
                n_suppressed += 1
            else:
                all_findings.append(f)
    for f in all_findings:
        print(f.render())
    if verbose or all_findings:
        print(
            f"rtcm-lint: {len(files)} files, {len(all_findings)} findings, "
            f"{n_suppressed} suppressed",
            file=sys.stderr,
        )
    return 1 if all_findings else 0


def run_self_test(corpus: Path) -> int:
    """Fixture protocol: bad_* files must trip exactly the rules named in
    their `// lint-expect: <rule>` comments; good_* and allow_* files must
    be clean.  A fixture directory containing allowlist.txt is linted with
    that allowlist applied."""
    failures: list[str] = []
    fixtures = sorted(corpus.rglob("*.cpp"))
    if not fixtures:
        print(f"rtcm-lint: no fixtures under {corpus}", file=sys.stderr)
        return 2
    for path in fixtures:
        text = path.read_text()
        expected = set(EXPECT_RE.findall(text))
        entries = load_allowlist(path.parent / "allowlist.txt")
        fns = global_unordered_functions([path])
        findings, _ = lint_text(path, text, fns)
        findings = [f for f in findings if not allowlisted(f, entries)]
        got = {f.rule for f in findings}
        name = path.name
        if name.startswith("bad_"):
            if not expected:
                failures.append(f"{path}: bad_ fixture missing lint-expect")
            elif got != expected:
                failures.append(
                    f"{path}: expected rules {sorted(expected)}, got "
                    f"{sorted(got)}"
                )
        elif name.startswith(("good_", "allow_")):
            if expected:
                # An expected rule in a good_/allow_ file pins a malformed-
                # suppression edge case: the finding must survive.
                if got != expected:
                    failures.append(
                        f"{path}: expected surviving rules "
                        f"{sorted(expected)}, got {sorted(got)}"
                    )
            elif got:
                failures.append(
                    f"{path}: expected clean, got {sorted(got)}: "
                    + "; ".join(f.render() for f in findings)
                )
        else:
            failures.append(f"{path}: fixture must be bad_*/good_*/allow_*")
    for failure in failures:
        print(f"SELF-TEST FAIL {failure}")
    print(
        f"rtcm-lint self-test: {len(fixtures)} fixtures, "
        f"{len(failures)} failures"
    )
    return 1 if failures else 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="rtcm_lint.py", add_help=True)
    parser.add_argument("paths", nargs="*", type=Path)
    parser.add_argument("--root", type=Path, default=None)
    parser.add_argument(
        "--allowlist",
        type=Path,
        default=Path(__file__).resolve().parent / "rtcm_lint_allowlist.txt",
    )
    parser.add_argument("--self-test", type=Path, default=None)
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, doc in RULES.items():
            print(f"{rule}: {doc}")
        return 0
    if args.self_test:
        return run_self_test(args.self_test)
    # --root anchors the default scan target (and nothing else: explicit
    # paths are taken verbatim, so CI can point at an out-of-tree checkout).
    paths = list(args.paths)
    if not paths:
        paths = [(args.root or Path(".")) / "src"]
    return run_lint(paths, args.allowlist, args.verbose)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
