#!/usr/bin/env python3
"""Compare a fresh bench run against the committed baseline.

    bench/check_regression.py <baseline.json> <current.json> [--threshold=3.0]

Both inputs are run_all.sh aggregates: a JSON array of rows, each with a
"bench" (binary) and "name" (benchmark/args) field plus timings. Rows are
matched on (bench, name); rows present on only one side are reported but
never fail the gate (benchmarks come and go across PRs).

A shared row fails when current real_time exceeds baseline real_time by
more than the threshold factor (default 3x). The threshold is deliberately
loose: CI runners are noisy and the committed baseline was measured on
different hardware, so only order-of-magnitude blowups — an accidentally
quadratic kernel, a lost index — should trip it. Exit status: 0 clean,
1 regression detected, 2 usage/parse error.

Timings are only compared like-for-like on ISA: every row carries a
"simd" field (the dispatched bitset64 kernel level — scalar, avx2 or
avx512), and a shared row whose baseline and current levels differ is
skipped with a note instead of silently gating an AVX run against a
scalar baseline (or vice versa). Rows from baselines old enough to lack
the field are compared as before.

Rows stamped with a "plan" field (the engine's HomPlan::Summary()) are
additionally diffed: a changed kernel=, simd=, or components= token is
printed as a PLAN CHANGE warning. Plan changes are informational, never
fatal — they explain timing shifts (a query that stopped factorizing, a
kernel swap) rather than gate them.

The exception is the "degraded=" token: the engine stamps it only when a
run fell down the degradation ladder (index -> scan, parallel -> serial,
...; see DESIGN.md §4.6). A current row carrying a degraded kind absent
from its baseline row means the bench silently measured a fallback path
— for example, an index build failing on the runner — so it fails the
gate like a timing regression does.

Correctness counters gate too: a current row whose "agree" counter or
any "agreement*" counter reads below 1 fails, whatever its timing and
whether or not the row has a baseline. Those counters compare a bench's
answer against an oracle (a maintained view against the refixpoint, a
kernel against Chandra-Merlin), so a 0 is a wrong answer, not noise.
"""

import json
import sys


def load_rows(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            rows = json.load(f)
    except (OSError, ValueError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    if not isinstance(rows, list):
        print(f"error: {path}: expected a JSON array of rows", file=sys.stderr)
        sys.exit(2)
    table = {}
    plans = {}
    simd = {}
    disagreements = {}
    for row in rows:
        key = (row.get("bench", "?"), row.get("name", "?"))
        time = row.get("real_time_ns")
        if isinstance(time, (int, float)) and time > 0:
            table[key] = float(time)
        plan = row.get("plan")
        if isinstance(plan, str) and plan:
            plans[key] = plan
        level = row.get("simd")
        if isinstance(level, str) and level:
            simd[key] = level
        counters = row.get("counters")
        if isinstance(counters, dict):
            failed = sorted(
                name for name, value in counters.items()
                if (name == "agree" or name.startswith("agreement"))
                and isinstance(value, (int, float)) and value < 1)
            if failed:
                disagreements[key] = failed
    return table, plans, simd, disagreements


def plan_tokens(summary):
    """The dispatch-relevant tokens of a plan summary, as a dict."""
    tokens = {}
    for part in summary.split():
        if "=" in part:
            name, _, value = part.partition("=")
            if name in ("kernel", "components", "strategy", "simd"):
                tokens[name] = value
    return tokens


def degraded_kinds(summary):
    """The degradation kinds of a plan summary ("degraded=a+b"), as a set."""
    for part in summary.split():
        if part.startswith("degraded="):
            return set(part[len("degraded="):].split("+")) - {""}
    return set()


def main(argv):
    threshold = 3.0
    paths = []
    for arg in argv[1:]:
        if arg.startswith("--threshold="):
            threshold = float(arg.split("=", 1)[1])
        else:
            paths.append(arg)
    if len(paths) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2

    baseline, base_plans, base_simd, _ = load_rows(paths[0])
    current, cur_plans, cur_simd, disagreements = load_rows(paths[1])
    shared = sorted(set(baseline) & set(current))
    if not shared:
        print("error: no shared (bench, name) rows to compare", file=sys.stderr)
        return 2

    only_base = len(set(baseline) - set(current))
    only_cur = len(set(current) - set(baseline))
    if only_base or only_cur:
        print(f"note: {only_base} baseline-only and {only_cur} current-only "
              "rows skipped", file=sys.stderr)

    # Like-for-like ISA: timings from different dispatched SIMD levels are
    # not comparable (that difference is the point of the dispatch), so
    # mismatched rows sit out the timing gate. Rows lacking the field on
    # either side (pre-simd baselines) are compared as before.
    isa_skipped = []
    comparable = []
    for key in shared:
        b_level = base_simd.get(key)
        c_level = cur_simd.get(key)
        if b_level is not None and c_level is not None and b_level != c_level:
            isa_skipped.append((key, b_level, c_level))
        else:
            comparable.append(key)
    if isa_skipped:
        print(f"note: {len(isa_skipped)} shared row(s) skipped: baseline and "
              "current ran different SIMD levels", file=sys.stderr)
        for (bench, name), b_level, c_level in isa_skipped:
            print(f"ISA MISMATCH  {bench}  {name}  "
                  f"(baseline {b_level}, current {c_level})")

    regressions = []
    for key in comparable:
        ratio = current[key] / baseline[key]
        if ratio > threshold:
            regressions.append((ratio, key))

    # Non-fatal plan diffs: a changed kernel, strategy, or component
    # count explains (or predicts) a timing shift. Unexpected degraded=
    # tokens are fatal: the current run silently measured a fallback.
    plan_changes = 0
    degradations = []
    for key in shared:
        if key not in cur_plans:
            continue
        base_plan = base_plans.get(key, "")
        unexpected = sorted(degraded_kinds(cur_plans[key]) -
                            degraded_kinds(base_plan))
        if unexpected:
            degradations.append((key, unexpected))
        if key not in base_plans:
            continue
        before = plan_tokens(base_plan)
        after = plan_tokens(cur_plans[key])
        changed = sorted(name for name in set(before) | set(after)
                         if before.get(name) != after.get(name))
        if changed:
            plan_changes += 1
            bench, name = key
            detail = ", ".join(
                f"{n}: {before.get(n, '?')} -> {after.get(n, '?')}"
                for n in changed)
            print(f"PLAN CHANGE  {bench}  {name}  ({detail})")

    print(f"compared {len(comparable)} shared rows "
          f"(threshold {threshold:.1f}x on real_time_ns"
          + (f"; {len(isa_skipped)} ISA-mismatched skipped" if isa_skipped
             else "") + ")")
    if plan_changes:
        print(f"{plan_changes} row(s) changed plan (informational)")
    for (bench, name), kinds in degradations:
        print(f"DEGRADED  {bench}  {name}  ({'+'.join(kinds)})")
    for (bench, name), counters in sorted(disagreements.items()):
        print(f"DISAGREE  {bench}  {name}  ({', '.join(counters)} < 1)")
    if regressions:
        regressions.sort(reverse=True)
        for ratio, (bench, name) in regressions:
            print(f"REGRESSION {ratio:6.2f}x  {bench}  {name}  "
                  f"({baseline[(bench, name)]:.0f}ns -> "
                  f"{current[(bench, name)]:.0f}ns)")
        print(f"{len(regressions)} row(s) regressed beyond {threshold:.1f}x",
              file=sys.stderr)
        return 1
    if degradations:
        print(f"{len(degradations)} row(s) ran degraded with no degraded "
              "baseline (injected or real fault during the bench run)",
              file=sys.stderr)
        return 1
    if disagreements:
        print(f"{len(disagreements)} row(s) disagree with their oracle "
              "(agree/agreement counter below 1)", file=sys.stderr)
        return 1
    print("no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
