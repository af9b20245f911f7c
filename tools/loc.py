#!/usr/bin/env python3
"""Lines of Rust per crate: `src/` split at each file's first
`#[cfg(test)]` (code above, in-file tests below; a test-only file opens
with `#![cfg(test)]` and counts whole), plus `tests/`.

Usage: python3 tools/loc.py [repo-root] [--max crate=N]...
  repo-root      default: this file's repo
  --max crate=N  exit 1 when that row's non-test `src` exceeds N; `crate`
                 is a directory under crates/ or `total`. CI passes the
                 current figures, so growth is a deliberate edit there.
"""
import argparse
import pathlib
import sys

cli = argparse.ArgumentParser(usage=__doc__)
cli.add_argument("root", nargs="?", type=pathlib.Path, default=pathlib.Path(__file__).resolve().parents[1])
cli.add_argument("--max", action="append", default=[], metavar="crate=N")
args = cli.parse_args()
root = args.root
limits = {name: int(n) for name, n in (m.split("=") for m in args.max)}

crates = sorted(p.parent for p in root.glob("crates/*/Cargo.toml")) + [root]
print(f"{'crate':<18} {'src':>7} {'src tests':>10} {'tests/':>7}")
totals = [0, 0, 0]
src = {}
for crate in crates:
    code = in_file_tests = 0
    for path in sorted((crate / "src").rglob("*.rs")):
        lines = path.read_text().splitlines()
        cut = next((i for i, l in enumerate(lines) if l.strip() in ("#[cfg(test)]", "#![cfg(test)]")), len(lines))
        code += cut
        in_file_tests += len(lines) - cut
    suites = sum(len(p.read_text().splitlines()) for p in (crate / "tests").rglob("*.rs"))
    name = "flips (facade)" if crate == root else crate.name
    print(f"{name:<18} {code:>7} {in_file_tests:>10} {suites:>7}")
    src[crate.name] = code
    totals = [t + n for t, n in zip(totals, (code, in_file_tests, suites))]
print(f"{'total':<18} {totals[0]:>7} {totals[1]:>10} {totals[2]:>7}")
src["total"] = totals[0]

over = [f"{name}: {src.get(name, '?')} > {cap}" for name, cap in limits.items() if src.get(name, cap + 1) > cap]
if over:
    sys.exit("non-test src over its --max — " + "; ".join(over))
