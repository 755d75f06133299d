#!/usr/bin/env python3
"""Determinism lint: machine-check the repo's exactness invariants.

The whole dist/ + service stack rests on one promise: the same work item
produces the same BYTES whichever process, shard, worker or host
computes it.  That promise is easy to break with one innocent line — a
"%g" in a serializer, a clock read feeding a result, a float where the
parity-locked engines expect a double.  This lint scans src/ and tools/
for the known hazard classes and fails CI on any hit that is not in the
allowlist (ci/lint_allowlist.json), where every entry carries a one-line
justification.

Hazard classes
  double-format       printf-family float conversion that is not %.17g —
                      only 17 significant digits round-trip a double, so
                      anything else in an emit path silently drops bits.
  wall-clock          std::rand/srand/time()/chrono ::now() — any clock or
                      ambient-seeded RNG in result-affecting code makes
                      runs unrepeatable.  (util/rng.h's seeded xoshiro is
                      the sanctioned randomness.)
  float-arithmetic    `float` in src/power/ or src/engine/ — the engines
                      are parity-locked on double IEEE arithmetic; a
                      float narrows intermediate values differently per
                      optimization level.
  fp-contract         the root CMakeLists must pin -ffp-contract=off
                      (FMA contraction evaluates shared energy
                      expressions differently on FMA targets), and no
                      file may re-enable contraction or -ffast-math.
  random-device       std::random_device — hardware-entropy seeding in the
                      parity-locked subsystems (the schedule search, the
                      engines, the dist/ merge paths) makes the same spec
                      produce different bytes per run; every RNG must be
                      util::Rng keyed from serialized state (e.g. a fault
                      library's seed).
  unordered-iteration range-for over a std::unordered_{map,set} — their
                      iteration order is implementation-defined, so any
                      such loop that feeds a serializer or accumulates
                      floating-point sums is a nondeterminism hazard.
                      Flagged wholesale; provably order-insensitive
                      loops (pure counting, key erasure) get allowlisted.

Findings are keyed `rule|path|matched-text` (no line numbers), so
unrelated edits do not invalidate the allowlist; stale allowlist entries
fail the run to keep the file honest.

Usage: tools/lint/determinism_lint.py [--root REPO] [--allowlist FILE]
Exit 0 = clean, 1 = findings (or stale allowlist entries), 2 = bad usage.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

SOURCE_GLOBS = ("src/**/*.cpp", "src/**/*.h", "tools/**/*.cpp",
                "tools/**/*.h", "tools/**/*.py")

# printf-family float conversion specifier, e.g. %f, %5.2f, %-8g, %Le.
FLOAT_FORMAT = re.compile(r"%[-+ #0]*[\d*]*(?:\.[\d*]+)?[hlLqjzt]*[efgaEFGA]")
EXACT_FORMAT = "%.17g"

WALL_CLOCK = re.compile(
    r"std::rand\b|\bsrand\s*\(|[^_\w]time\s*\(\s*(?:NULL|nullptr|0|\))"
    r"|(?:system_clock|steady_clock|high_resolution_clock)\s*::\s*now"
    r"|\btime\.time\s*\(|\bdatetime\.now\b")

FLOAT_DECL = re.compile(r"\bfloat\b(?!\s*\*?\s*(?:&&|\())")
FLOAT_DIRS = ("src/power/", "src/engine/")

FP_CONTRACT_BAD = re.compile(r"-ffp-contract=(?:fast|on)|-ffast-math"
                             r"|__FP_FAST_FMA|#pragma\s+STDC\s+FP_CONTRACT\s+ON")

RANDOM_DEVICE = re.compile(r"\bstd::random_device\b|\brandom_device\b")

UNORDERED_DECL = re.compile(
    r"std::unordered_(?:map|set)\s*<[^;{}]*?>\s+(\w+)\s*[;{=]")
RANGE_FOR = re.compile(r"for\s*\(\s*(?:const\s+)?auto[^:;)]*:\s*([\w.\->]+)\s*\)")


def finding_key(rule: str, path: str, match: str) -> str:
    return f"{rule}|{path}|{match.strip()}"


def scan(root: Path):
    findings = []  # (key, path, line_number, message)

    def add(rule, rel, lineno, match, message):
        findings.append((finding_key(rule, rel, match), rel, lineno, message))

    files = []
    for pattern in SOURCE_GLOBS:
        files.extend(sorted(root.glob(pattern)))
    # The lint's own pattern tables would match themselves.
    files = [f for f in files if "tools/lint" not in f.as_posix()]

    # Names declared anywhere as unordered containers; range-fors over
    # these identifiers are iteration-order hazards wherever they appear
    # (member declarations live in headers, the loops in their .cpp twin).
    unordered_names = set()
    texts = {}
    for path in files:
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError:
            continue
        texts[path] = text
        for m in UNORDERED_DECL.finditer(text):
            unordered_names.add(m.group(1))

    for path, text in texts.items():
        rel = path.relative_to(root).as_posix()
        for lineno, line in enumerate(text.splitlines(), start=1):
            stripped = line.strip()
            # Pure comment lines don't execute (block-comment bodies use
            # the leading-'*' convention here).  #define lines stay in:
            # macros can hide format strings and flags.
            if stripped.startswith(("//", "* ", "*/", "/*")):
                continue

            for m in FLOAT_FORMAT.finditer(line):
                if m.group(0) != EXACT_FORMAT:
                    add("double-format", rel, lineno, m.group(0),
                        f"float conversion '{m.group(0)}' is not %.17g — "
                        "drops bits if this string ever reaches a result "
                        "artifact")

            for m in WALL_CLOCK.finditer(line):
                add("wall-clock", rel, lineno, m.group(0),
                    f"wall-clock / ambient randomness '{m.group(0).strip()}'"
                    " — results must not depend on when they were computed")

            if any(rel.startswith(d) for d in FLOAT_DIRS):
                for m in FLOAT_DECL.finditer(line):
                    add("float-arithmetic", rel, lineno, "float",
                        "`float` in a parity-locked double subsystem "
                        f"({rel}) — narrows differently per optimization "
                        "level")

            for m in RANDOM_DEVICE.finditer(line):
                add("random-device", rel, lineno, m.group(0),
                    f"'{m.group(0)}' — hardware entropy in a "
                    "parity-locked subsystem; seed util::Rng from "
                    "serialized state instead")

            for m in FP_CONTRACT_BAD.finditer(line):
                add("fp-contract", rel, lineno, m.group(0),
                    f"'{m.group(0)}' re-enables FP contraction / fast "
                    "math — breaks cross-engine bit-identity")

            for m in RANGE_FOR.finditer(line):
                container = m.group(1).split("->")[-1].split(".")[-1]
                if container in unordered_names:
                    add("unordered-iteration", rel, lineno,
                        f"for:{container}",
                        f"range-for over unordered container "
                        f"'{container}' — iteration order is "
                        "implementation-defined; must not feed a "
                        "serializer or FP accumulation")

    # Build-flag check: the determinism pin itself.
    cmake = root / "CMakeLists.txt"
    if cmake.exists():
        if "-ffp-contract=off" not in cmake.read_text(encoding="utf-8"):
            findings.append((
                "fp-contract|CMakeLists.txt|missing -ffp-contract=off",
                "CMakeLists.txt", 0,
                "root CMakeLists.txt no longer pins -ffp-contract=off — "
                "FMA targets will break engine parity"))
    else:
        findings.append(("fp-contract|CMakeLists.txt|missing file",
                         "CMakeLists.txt", 0, "root CMakeLists.txt missing"))
    return findings


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parents[2],
                        help="repository root (default: two dirs up)")
    parser.add_argument("--allowlist", type=Path, default=None,
                        help="allowlist JSON (default: ROOT/ci/"
                             "lint_allowlist.json)")
    args = parser.parse_args()

    root = args.root.resolve()
    allowlist_path = args.allowlist or root / "ci" / "lint_allowlist.json"
    allowlist = {}
    if allowlist_path.exists():
        doc = json.loads(allowlist_path.read_text(encoding="utf-8"))
        for entry in doc["entries"]:
            if not entry.get("why", "").strip():
                print(f"lint: allowlist entry '{entry['key']}' has no "
                      "justification ('why')", file=sys.stderr)
                return 1
            allowlist[entry["key"]] = entry["why"]

    findings = scan(root)

    used = set()
    failed = False
    for key, rel, lineno, message in findings:
        if key in allowlist:
            used.add(key)
            continue
        failed = True
        print(f"{rel}:{lineno}: [{key.split('|', 1)[0]}] {message}")
        print(f"    allowlist key: {key}")

    for key in sorted(set(allowlist) - used):
        failed = True
        print(f"stale allowlist entry (nothing matches it any more): {key}")

    if failed:
        print(f"\ndeterminism lint: FAILED "
              f"({len(findings)} findings, {len(allowlist)} allowlisted)",
              file=sys.stderr)
        return 1
    print(f"determinism lint: clean "
          f"({len(findings)} findings, all allowlisted)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
