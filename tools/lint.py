#!/usr/bin/env python3
"""Registry lint: instrumentation names used in src/ must match DESIGN.md.

The runtime has three string-keyed namespaces that are trivially easy to
drift: telemetry keys (counters/gauges/histograms), trace span names, and
failpoint site names. A typo'd key silently mints a new metric; a renamed
failpoint silently turns a chaos test into a no-op. This lint cross-checks
the literals in the source tree against the machine-readable registries in
DESIGN.md (fenced blocks following ``<!-- lint:telemetry-keys -->``,
``<!-- lint:span-names -->``, and ``<!-- lint:failpoint-sites -->``).

Failures (exit 1):
  * a key/span/site used in src/ but absent from its registry;
  * a registered failpoint site no longer present in src/ (dead chaos hook);
  * a registered telemetry key or span name no longer present in src/
    (a dead registry line), unless it is a ``.*`` family;
  * a malformed name (uppercase, spaces, leading/trailing dots);
  * a histogram key not ending in ``_us`` (microseconds) or ``_pct``.

Registry entries ending in ``.*`` are dynamic families (e.g.
``breaker.opened.*`` — one counter per named breaker): they match any used
key with that prefix and are exempt from the unused check, since their
concrete names only exist at runtime. Every other key and span is a literal
the scanner sees, so a registered one that src/ no longer uses is stale.

Run from the repo root (the lint_registries ctest entry does):
    python3 tools/lint.py
"""

from __future__ import annotations

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
DESIGN = ROOT / "DESIGN.md"
SRC = ROOT / "src"

NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)*$")

# --- extraction -------------------------------------------------------------

TM_MACRO = re.compile(r'ISAAC_TM_(COUNT_N|COUNT|RECORD)\(\s*"([^"]+)"')
TM_DIRECT = re.compile(r'telemetry::(counter|gauge|histogram)\(\s*"([^"]+)"')
# Dynamic families built as std::string("prefix.") + suffix: the literal ends
# with '.' and the registry must carry the matching "prefix.*" entry.
TM_DYNAMIC = re.compile(r'telemetry::(counter|gauge|histogram)\(\s*std::string\(\s*"([^"]+\.)"')
# circuit_breaker.cpp's count_transition(event, name) bumps both the bare
# event counter and event.<name>, so one literal implies two registry entries.
TM_TRANSITION = re.compile(r'count_transition\(\s*"([^"]+)"')
SPAN = re.compile(r'(?:Span\s+[A-Za-z_]\w*\(|Span\(|record_span\()\s*"([^"]+)"')
FAILPOINT = re.compile(r'ISAAC_FAILPOINT(?:_FIRED)?\(\s*"([^"]+)"')


def strip_line_comments(text: str) -> str:
    return re.sub(r"//[^\n]*", "", text)


def scan_sources():
    """Returns ({key: kind}, {span}, {site}) used across src/."""
    keys: dict[str, str] = {}  # name -> 'counter' | 'gauge' | 'histogram'
    spans: set[str] = set()
    sites: set[str] = set()
    for path in sorted(SRC.rglob("*")):
        if path.suffix not in {".hpp", ".cpp"}:
            continue
        text = strip_line_comments(path.read_text())
        for macro, name in TM_MACRO.findall(text):
            keys[name] = "histogram" if macro == "RECORD" else "counter"
        for kind, name in TM_DIRECT.findall(text):
            keys[name] = kind
        for kind, prefix in TM_DYNAMIC.findall(text):
            keys[prefix + "*"] = kind
        for event in TM_TRANSITION.findall(text):
            keys[event] = "counter"
            keys[event + ".*"] = "counter"
        spans.update(SPAN.findall(text))
        sites.update(FAILPOINT.findall(text))
    return keys, spans, sites


# --- registry parsing -------------------------------------------------------


def parse_registry(marker: str) -> list[str]:
    """Entries of the fenced block following ``<!-- lint:<marker> -->``."""
    text = DESIGN.read_text()
    tag = f"<!-- lint:{marker} -->"
    at = text.find(tag)
    if at < 0:
        sys.exit(f"lint.py: DESIGN.md is missing the '{tag}' registry marker")
    block = re.search(r"```[^\n]*\n(.*?)```", text[at:], re.DOTALL)
    if not block:
        sys.exit(f"lint.py: no fenced block after '{tag}' in DESIGN.md")
    return [line.strip() for line in block.group(1).splitlines() if line.strip()]


def registry_match(name: str, registry: list[str]) -> bool:
    if name in registry:
        return True
    return any(name.startswith(entry[:-1]) for entry in registry if entry.endswith(".*"))


# --- checks -----------------------------------------------------------------


def main() -> int:
    errors: list[str] = []

    used_keys, used_spans, used_sites = scan_sources()
    reg_keys = parse_registry("telemetry-keys")
    reg_spans = parse_registry("span-names")
    reg_sites = parse_registry("failpoint-sites")

    for registry, label in ((reg_keys, "telemetry key"), (reg_spans, "span name"),
                            (reg_sites, "failpoint site")):
        for entry in registry:
            base = entry[:-2] if entry.endswith(".*") else entry
            if not NAME_RE.match(base):
                errors.append(f"malformed {label} in DESIGN.md registry: '{entry}'")

    for name, kind in sorted(used_keys.items()):
        base = name[:-2] if name.endswith(".*") else name
        if not NAME_RE.match(base):
            errors.append(f"malformed telemetry key in src/: '{name}'")
        if not registry_match(name, reg_keys):
            errors.append(f"telemetry key '{name}' used in src/ but not in the "
                          "DESIGN.md lint:telemetry-keys registry")
        if kind == "histogram" and not base.endswith(("_us", "_pct")):
            errors.append(f"histogram key '{name}' must end in _us (microseconds) "
                          "or _pct (percentage)")

    for name in sorted(used_spans):
        if not NAME_RE.match(name):
            errors.append(f"malformed span name in src/: '{name}'")
        if not registry_match(name, reg_spans):
            errors.append(f"span name '{name}' used in src/ but not in the "
                          "DESIGN.md lint:span-names registry")

    for name in sorted(used_sites):
        if not NAME_RE.match(name):
            errors.append(f"malformed failpoint site in src/: '{name}'")
        if name not in reg_sites:
            errors.append(f"failpoint site '{name}' used in src/ but not in the "
                          "DESIGN.md lint:failpoint-sites registry")

    # A registered failpoint that no code fires is a dead chaos hook: tests
    # armed on it silently stop injecting anything. Hard error.
    for entry in reg_sites:
        if entry not in used_sites:
            errors.append(f"failpoint site '{entry}' is registered in DESIGN.md "
                          "but no ISAAC_FAILPOINT site in src/ uses it")

    # A registered key or span that src/ no longer uses is a dead registry
    # line: removing an instrument must remove its entry too. Dynamic
    # families are exempt (their concrete names only exist at runtime).
    for entry in reg_keys:
        if entry not in used_keys and not entry.endswith(".*"):
            errors.append(f"telemetry key '{entry}' is registered in DESIGN.md "
                          "but not found in src/")
    for entry in reg_spans:
        if entry not in used_spans and not entry.endswith(".*"):
            errors.append(f"span name '{entry}' is registered in DESIGN.md "
                          "but not found in src/")

    for e in errors:
        print(f"lint.py: error: {e}")
    if errors:
        print(f"lint.py: FAILED with {len(errors)} error(s)")
        return 1
    print(f"lint.py: OK — {len(used_keys)} telemetry keys, {len(used_spans)} spans, "
          f"{len(used_sites)} failpoint sites checked against DESIGN.md")
    return 0


if __name__ == "__main__":
    sys.exit(main())
