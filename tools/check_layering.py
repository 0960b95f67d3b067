#!/usr/bin/env python3
"""Include-graph layering gate for the src/ subsystems.

The repo is grown as a stack of subsystems with a declared dependency
DAG (LAYERS below): common at the bottom; the math layers (opt,
queueing, workload, power) above it; the simulator; the core facade;
then the analysis/management layers (lint, certify, check, online);
and the orchestration layers (sweep, bench) on top. The gate parses
every `#include "cpm/<subsystem>/..."` edge in src/ and fails on:

  LAYER-1  an edge the declared DAG does not allow (either a brand-new
           dependency — declare it here deliberately, in review — or an
           inversion, e.g. queueing reaching up into core);
  LAYER-2  a cycle in the declared DAG itself (a bad declaration must
           not be able to "allow" mutual dependency);
  LAYER-3  a subsystem directory on disk that LAYERS does not mention
           (new subsystems must be placed in the stack explicitly).

The declared graph is the single source of truth; the checker never
infers permissions from the tree. Indirect reach stays transitive by
construction (allowing core -> sim does not allow sim -> core).

Usage: tools/check_layering.py [root] [--format text|sarif] [--out FILE]
       [--layers FILE.json]   (test override: {"sub": ["dep", ...], ...})
Exit code 0 when clean, 1 when any violation is found.
"""
import argparse
import json
import re
import sys
from pathlib import Path

# Declared DAG: subsystem -> subsystems it may include from. This is the
# architecture, not a measurement — check_layering_matches_tree in ctest
# keeps it honest against the real include graph.
LAYERS: dict[str, list[str]] = {
    "common": [],
    "resilience": ["common"],
    "opt": ["common"],
    "queueing": ["common"],
    "workload": ["common"],
    "power": ["common"],
    "sim": ["common", "queueing", "workload"],
    "core": ["common", "opt", "power", "queueing", "sim"],
    "lint": ["common", "core"],
    "online": ["common", "core", "sim", "workload"],
    "certify": ["common", "core", "lint", "queueing"],
    "check": ["certify", "common", "core", "lint", "queueing", "sim"],
    "sweep": ["check", "common", "core", "online", "queueing",
              "resilience", "sim"],
    "bench": ["common", "core", "online", "sim"],
}

INCLUDE = re.compile(r'^\s*#\s*include\s+"cpm/([A-Za-z0-9_]+)/')

RULE_HELP = {
    "LAYER-1": "src/ include edges follow the declared subsystem DAG",
    "LAYER-2": "The declared subsystem graph is acyclic",
    "LAYER-3": "Every src/ subsystem is declared in the layering DAG",
}


class Violation:
    def __init__(self, path: Path, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def declared_cycle(layers: dict[str, list[str]]) -> list[str] | None:
    """Returns one cycle (as a node path) in the declared graph, or None."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = {n: WHITE for n in layers}
    stack: list[str] = []

    def visit(n: str) -> list[str] | None:
        color[n] = GREY
        stack.append(n)
        for dep in layers.get(n, []):
            if dep not in layers:
                continue
            if color[dep] == GREY:
                return stack[stack.index(dep):] + [dep]
            if color[dep] == WHITE:
                found = visit(dep)
                if found:
                    return found
        stack.pop()
        color[n] = BLACK
        return None

    for n in sorted(layers):
        if color[n] == WHITE:
            found = visit(n)
            if found:
                return found
    return None


def check(root: Path, layers: dict[str, list[str]]) -> list[Violation]:
    src = root / "src"
    violations: list[Violation] = []

    cycle = declared_cycle(layers)
    if cycle:
        violations.append(Violation(
            src, 1, "LAYER-2",
            "declared layering graph has a cycle: " + " -> ".join(cycle)))

    subsystems = sorted(p.name for p in src.iterdir()
                        if p.is_dir() and not p.name.startswith("."))
    for sub in subsystems:
        if sub not in layers:
            violations.append(Violation(
                src / sub, 1, "LAYER-3",
                f"subsystem '{sub}' is not declared in the layering DAG: "
                "add it to LAYERS (tools/check_layering.py) at the right "
                "level"))

    for sub in subsystems:
        allowed = set(layers.get(sub, ())) | {sub}
        for path in sorted((src / sub).rglob("*.[ch]pp")):
            for lineno, line in enumerate(
                    path.read_text(encoding="utf-8").splitlines(), start=1):
                m = INCLUDE.match(line)
                if not m:
                    continue
                target = m.group(1)
                if target not in allowed:
                    direction = ("an inversion"
                                 if sub in set(layers.get(target, ()))
                                 else "undeclared")
                    violations.append(Violation(
                        path, lineno, "LAYER-1",
                        f"'{sub}' includes from '{target}' but the declared "
                        f"DAG does not allow that edge ({direction}); if the "
                        "dependency is intended, declare it in LAYERS"))
    return violations


def to_sarif(violations: list[Violation], root: Path) -> dict:
    rules = [{
        "id": rule_id,
        "shortDescription": {"text": short},
        "defaultConfiguration": {"level": "error"},
    } for rule_id, short in sorted(RULE_HELP.items())]
    rule_index = {r["id"]: i for i, r in enumerate(rules)}
    results = []
    for v in violations:
        try:
            uri = str(v.path.resolve().relative_to(root.resolve()))
        except ValueError:
            uri = str(v.path)
        results.append({
            "ruleId": v.rule,
            "ruleIndex": rule_index[v.rule],
            "level": "error",
            "message": {"text": v.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": uri},
                    "region": {"startLine": v.line},
                }
            }],
        })
    return {
        "$schema": ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                    "master/Schemata/sarif-schema-2.1.0.json"),
        "version": "2.1.0",
        "runs": [{
            "tool": {
                "driver": {
                    "name": "check_layering",
                    "informationUri":
                        "https://example.invalid/cpm/tools/check_layering.py",
                    "rules": rules,
                }
            },
            "results": results,
        }],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Enforce the declared include DAG across src/ "
                    "subsystems")
    parser.add_argument("root", nargs="?", default=None,
                        help="repo root (default: parent of tools/)")
    parser.add_argument("--format", choices=("text", "sarif"),
                        default="text")
    parser.add_argument("--out", default=None,
                        help="write the report here instead of stdout")
    parser.add_argument("--layers", default=None,
                        help="JSON file mapping subsystem -> allowed deps "
                             "(overrides the built-in DAG; for tests)")
    args = parser.parse_args(argv)

    root = Path(args.root) if args.root else Path(__file__).parent.parent
    layers = LAYERS
    if args.layers:
        layers = json.loads(Path(args.layers).read_text(encoding="utf-8"))

    violations = check(root, layers)

    if args.format == "sarif":
        report = json.dumps(to_sarif(violations, root), indent=2) + "\n"
    else:
        report = "".join(v.render() + "\n" for v in violations)
        report += f"check_layering: {len(violations)} violation(s)\n"
    if args.out:
        Path(args.out).write_text(report, encoding="utf-8")
        if args.format == "text":
            sys.stdout.write(report)
    else:
        sys.stdout.write(report)
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
