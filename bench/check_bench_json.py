#!/usr/bin/env python3
"""Validates the machine-readable benchmark report (BENCH_query.json).

The bench binaries built on bench/bench_util.h always emit a Google
Benchmark JSON report next to the console output. CI runs this script
after a bench smoke invocation to make sure the report parses and the
fields downstream tooling depends on are present with sane values.

Usage: check_bench_json.py [report.json ...]
"""

import json
import sys


def fail(path, message):
    print(f"{path}: FAIL: {message}", file=sys.stderr)
    return 1


def check_report(path):
    try:
        with open(path, encoding="utf-8") as handle:
            report = json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        return fail(path, f"unreadable or invalid JSON: {err}")

    for key in ("context", "benchmarks"):
        if key not in report:
            return fail(path, f"missing top-level key '{key}'")

    context = report["context"]
    if not isinstance(context.get("date"), str) or not context["date"]:
        return fail(path, "context.date missing or empty")
    if not isinstance(context.get("num_cpus"), int) or context["num_cpus"] < 1:
        return fail(path, "context.num_cpus missing or < 1")

    benchmarks = report["benchmarks"]
    if not isinstance(benchmarks, list) or not benchmarks:
        return fail(path, "benchmarks array missing or empty")

    for i, entry in enumerate(benchmarks):
        where = f"benchmarks[{i}]"
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            return fail(path, f"{where}.name missing or empty")
        for field in ("real_time", "cpu_time"):
            value = entry.get(field)
            if not isinstance(value, (int, float)) or value < 0:
                return fail(path, f"{where}.{field} ({name}) missing or negative")
        if entry.get("time_unit") not in ("ns", "us", "ms", "s"):
            return fail(path, f"{where}.time_unit ({name}) invalid")

    status = check_thread_sweeps(path, benchmarks)
    if status:
        return status

    status = check_limit_sweep(path, benchmarks)
    if status:
        return status

    status = check_recovery_sweep(path, benchmarks)
    if status:
        return status

    status = check_cancellation_sweep(path, benchmarks)
    if status:
        return status

    status = check_optimizer_sweep(path, benchmarks)
    if status:
        return status

    status = check_concurrency_sweep(path, benchmarks, context["num_cpus"])
    if status:
        return status

    status = check_index_sweep(path, benchmarks)
    if status:
        return status

    print(f"{path}: OK ({len(benchmarks)} benchmark entries)")
    return 0


def check_thread_sweeps(path, benchmarks):
    """Parallel-executor sweeps (BM_Parallel*) must carry a `threads`
    counter, and every swept family needs its parallelism-1 entry — that is
    the serial baseline the speedup trajectory is computed against."""
    families = {}
    for i, entry in enumerate(benchmarks):
        name = entry.get("name", "")
        if not name.startswith("BM_Parallel"):
            continue
        threads = entry.get("threads")
        if not isinstance(threads, (int, float)) or threads < 1:
            return fail(path, f"benchmarks[{i}].threads ({name}) missing or < 1")
        families.setdefault(name.split("/")[0], set()).add(int(threads))
    for family, seen in sorted(families.items()):
        if max(seen) > 1 and 1 not in seen:
            return fail(path, f"{family}: thread sweep has no parallelism-1 baseline")
    return 0


EXPECTED_TOPK_KS = (8, 64)


def check_limit_sweep(path, benchmarks):
    """The top-k family (BM_ParallelTopK) must sweep the expected k values
    with a parallelism-1 serial baseline per k, carry a rows_pruned counter
    everywhere, actually prune at the tightest k once the plan is parallel,
    and prune monotonically non-increasingly as k grows at a fixed thread
    count (guaranteed because max_threads * min_k <= max_k)."""
    entries = []
    for i, entry in enumerate(benchmarks):
        name = entry.get("name", "")
        if not name.startswith("BM_ParallelTopK"):
            continue
        where = f"benchmarks[{i}] ({name})"
        for counter in ("threads", "limit_k", "rows_pruned"):
            value = entry.get(counter)
            if not isinstance(value, (int, float)) or value < 0:
                return fail(path, f"{where}.{counter} missing or negative")
        entries.append((int(entry["threads"]), int(entry["limit_k"]),
                        float(entry["rows_pruned"]), name))
    if not entries:
        # Reports from other bench binaries simply have no top-k family.
        return 0

    ks_seen = {k for _, k, _, _ in entries}
    if not set(EXPECTED_TOPK_KS) <= ks_seen:
        return fail(path, f"BM_ParallelTopK: k sweep {sorted(ks_seen)} missing "
                          f"expected values {list(EXPECTED_TOPK_KS)}")
    for k in sorted(ks_seen):
        threads = {t for t, kk, _, _ in entries if kk == k}
        if max(threads) > 1 and 1 not in threads:
            return fail(path, f"BM_ParallelTopK k={k}: no parallelism-1 baseline")

    min_k = min(ks_seen)
    for t, k, pruned, name in entries:
        if t > 1 and k == min_k and pruned <= 0:
            return fail(path, f"{name}: parallel top-k with k={k} pruned no rows")

    by_threads = {}
    for t, k, pruned, _ in entries:
        by_threads.setdefault(t, []).append((k, pruned))
    for t, points in sorted(by_threads.items()):
        points.sort()
        for (k_lo, pruned_lo), (k_hi, pruned_hi) in zip(points, points[1:]):
            if pruned_hi > pruned_lo:
                return fail(path, f"BM_ParallelTopK threads={t}: rows_pruned grew "
                                  f"from {pruned_lo} (k={k_lo}) to {pruned_hi} "
                                  f"(k={k_hi}); pruning must not increase with k")
    return 0


def check_recovery_sweep(path, benchmarks):
    """The recovery family (BM_ParallelRecovery) sweeps WAL-replay
    parallelism over a fixed prebuilt log: every entry must carry the
    threads / wal_records / chains counters, the parallelism-1 serial
    baseline must be present (the generic thread-sweep check enforces it
    too), every entry must have replayed the same record count (otherwise
    the sweep timed different workloads), and the parallel entries must
    have partitioned replay into more than one chain — a single chain
    cannot scale with cores."""
    entries = []
    for i, entry in enumerate(benchmarks):
        name = entry.get("name", "")
        if not name.startswith("BM_ParallelRecovery"):
            continue
        where = f"benchmarks[{i}] ({name})"
        for counter in ("threads", "wal_records", "chains"):
            value = entry.get(counter)
            if not isinstance(value, (int, float)) or value < 1:
                return fail(path, f"{where}.{counter} missing or < 1")
        entries.append((int(entry["threads"]), int(entry["wal_records"]),
                        int(entry["chains"]), name))
    if not entries:
        # Reports from other bench binaries simply have no recovery family.
        return 0

    threads_seen = {t for t, _, _, _ in entries}
    if max(threads_seen) > 1 and 1 not in threads_seen:
        return fail(path, "BM_ParallelRecovery: no parallelism-1 baseline")
    records_seen = {r for _, r, _, _ in entries}
    if len(records_seen) != 1:
        return fail(path, f"BM_ParallelRecovery: replayed record counts differ "
                          f"across the sweep: {sorted(records_seen)}")
    for t, _, chains, name in entries:
        if t > 1 and chains < 2:
            return fail(path, f"{name}: parallel replay produced {chains} "
                              f"chain(s); partitioning did not happen")
    return 0


def check_cancellation_sweep(path, benchmarks):
    """The query-lifecycle families (BM_CancelUnwind / BM_MemoryBudgetOverhead)
    must carry a `threads` counter with a parallelism-1 baseline, and the
    overhead family must sweep both sides of the comparison — every thread
    count needs a budgeted AND an unbudgeted entry, plus a positive mem_peak
    on the budgeted side (a zero peak means accounting never ran and the
    "overhead" measured nothing)."""
    cancel_threads = set()
    overhead = {}
    for i, entry in enumerate(benchmarks):
        name = entry.get("name", "")
        if not (name.startswith("BM_CancelUnwind")
                or name.startswith("BM_MemoryBudgetOverhead")):
            continue
        where = f"benchmarks[{i}] ({name})"
        threads = entry.get("threads")
        if not isinstance(threads, (int, float)) or threads < 1:
            return fail(path, f"{where}.threads missing or < 1")
        if name.startswith("BM_CancelUnwind"):
            cancel_threads.add(int(threads))
            continue
        budgeted = entry.get("budgeted")
        if budgeted not in (0, 1, 0.0, 1.0):
            return fail(path, f"{where}.budgeted missing or not 0/1")
        if budgeted and not entry.get("mem_peak", 0) > 0:
            return fail(path, f"{where}: budgeted run reports no mem_peak")
        overhead.setdefault(int(threads), set()).add(int(budgeted))
    if not cancel_threads and not overhead:
        # Reports from other bench binaries have no lifecycle families.
        return 0

    if cancel_threads and max(cancel_threads) > 1 and 1 not in cancel_threads:
        return fail(path, "BM_CancelUnwind: no parallelism-1 baseline")
    for threads, sides in sorted(overhead.items()):
        if sides != {0, 1}:
            return fail(path, f"BM_MemoryBudgetOverhead threads={threads}: "
                              f"needs both budgeted and unbudgeted entries, "
                              f"saw budgeted={sorted(sides)}")
    if overhead and max(overhead) > 1 and 1 not in overhead:
        return fail(path, "BM_MemoryBudgetOverhead: no parallelism-1 baseline")
    return 0


# The optimized plan may not regress past this factor of the rule-driven
# plan. The bench workloads are engineered with >= 5x margins (an index
# probe vs a 20k-row scan), so 1.25 only absorbs timer noise, never a real
# plan-choice regression.
OPTIMIZER_TOLERANCE = 1.25


def check_optimizer_sweep(path, benchmarks):
    """The optimizer families (BM_Opt*) sweep the same query rule-driven
    (optimized=0) and cost-based (optimized=1). Both sides must be present
    per family and the optimized side must be no slower than the
    rule-driven side (within OPTIMIZER_TOLERANCE) — the optimizer's whole
    contract is that it never picks a worse plan than the rule-driven one."""
    families = {}
    for i, entry in enumerate(benchmarks):
        name = entry.get("name", "")
        if not name.startswith("BM_Opt"):
            continue
        # A --benchmark_repetitions report adds aggregate rows; their
        # counters are statistics of the flag (stddev 0, cv NaN), not the
        # flag. The median row keeps both the flag and a real time, and is
        # all a --benchmark_report_aggregates_only report has.
        if (entry.get("run_type") == "aggregate"
                and entry.get("aggregate_name") != "median"):
            continue
        where = f"benchmarks[{i}] ({name})"
        optimized = entry.get("optimized")
        if optimized not in (0, 1, 0.0, 1.0):
            return fail(path, f"{where}.optimized missing or not 0/1")
        family = name.split("/")[0]
        families.setdefault(family, {}).setdefault(int(optimized), []).append(
            float(entry["real_time"]))
    if not families:
        # Reports from other bench binaries have no optimizer families.
        return 0

    for family, sides in sorted(families.items()):
        if set(sides) != {0, 1}:
            return fail(path, f"{family}: needs both rule-driven and optimized "
                              f"entries, saw optimized={sorted(sides)}")
        baseline = min(sides[0])
        optimized = min(sides[1])
        if optimized > baseline * OPTIMIZER_TOLERANCE:
            return fail(path, f"{family}: optimized plan took {optimized:.3f} "
                              f"vs rule-driven {baseline:.3f} (> {OPTIMIZER_TOLERANCE}x); "
                              f"the cost-based plan regressed")
    return 0


# Successive reader counts on the idle side may not lose more than this
# fraction of throughput while they still fit the host's cores. Scaling is
# allowed to be flat (slot contention, 1-core CI hosts); what the check
# rejects is throughput actively collapsing as readers are added, which is
# the signature of a shared lock on the read path.
CONCURRENCY_TOLERANCE = 0.85


def check_concurrency_sweep(path, benchmarks, num_cpus):
    """The concurrent-session families (BM_Concurrent*) sweep reader counts
    against one shared engine, idle and under live AnnotateBatch ingest.
    Every entry must carry readers / with_ingest / qps counters, each
    (family, ingest-side) series needs its 1-reader baseline, at least one
    with-ingest series must be present (reader scaling with an idle writer
    does not exercise snapshot isolation at all), and on the idle side
    throughput must be monotone non-decreasing — within tolerance — for
    reader counts that still fit the host's cores. Beyond num_cpus readers
    merely time-slice, so a flat or declining tail there is acceptable."""
    series = {}
    for i, entry in enumerate(benchmarks):
        name = entry.get("name", "")
        if not name.startswith("BM_Concurrent"):
            continue
        where = f"benchmarks[{i}] ({name})"
        readers = entry.get("readers")
        if not isinstance(readers, (int, float)) or readers < 1:
            return fail(path, f"{where}.readers missing or < 1")
        with_ingest = entry.get("with_ingest")
        if with_ingest not in (0, 1, 0.0, 1.0):
            return fail(path, f"{where}.with_ingest missing or not 0/1")
        qps = entry.get("qps")
        if not isinstance(qps, (int, float)) or qps <= 0:
            return fail(path, f"{where}.qps missing or not positive")
        family = name.split("/")[0]
        series.setdefault((family, int(with_ingest)), {})[int(readers)] = float(qps)
    if not series:
        # Reports from other bench binaries have no concurrency families.
        return 0

    if not any(ingest for _, ingest in series):
        return fail(path, "BM_Concurrent*: no with-ingest series present")
    for (family, ingest), points in sorted(series.items()):
        if 1 not in points:
            return fail(path, f"{family} (ingest={ingest}): reader sweep has "
                              f"no 1-reader baseline")
        if ingest:
            continue
        counts = sorted(points)
        best_so_far = points[counts[0]]
        for readers in counts[1:]:
            if readers > num_cpus:
                break
            if points[readers] < best_so_far * CONCURRENCY_TOLERANCE:
                return fail(path, f"{family}: throughput fell from "
                                  f"{best_so_far:.1f} to {points[readers]:.1f} qps "
                                  f"at {readers} readers (<= {num_cpus} cores); "
                                  f"reader scaling regressed")
            best_so_far = max(best_so_far, points[readers])
    return 0


# The persistent-open series may not spread wider than this factor across
# the table-size sweep. The sweep spans 16x in rows; adoption reads a
# fixed number of WAL records and metadata pages regardless of table
# size, so anything approaching linear growth (16x) means the reopen
# rebuilt the tree from a scan. 5x absorbs filesystem and timer noise.
INDEX_OPEN_TOLERANCE = 5.0


def check_index_sweep(path, benchmarks):
    """The persistent-index family: BM_IndexOpenPersistent (adoption on
    reopen, persistent=1) must carry rows/persistent counters, sweep a
    >= 4x row span, and stay FLAT in table size — open time scaling with
    rows is the signature of a restart-time table-scan rebuild, the exact
    thing the WAL index checkpoint exists to avoid. The BM_IndexRebuild
    contrast series (persistent=0) must be present and must grow with
    rows (it does the O(N) work)."""
    opens = {}
    rebuilds = {}
    for i, entry in enumerate(benchmarks):
        name = entry.get("name", "")
        if not (name.startswith("BM_IndexOpenPersistent")
                or name.startswith("BM_IndexRebuild")):
            continue
        where = f"benchmarks[{i}] ({name})"
        rows = entry.get("rows")
        if not isinstance(rows, (int, float)) or rows < 1:
            return fail(path, f"{where}.rows missing or < 1")
        persistent = entry.get("persistent")
        if persistent not in (0, 1, 0.0, 1.0):
            return fail(path, f"{where}.persistent missing or not 0/1")
        series = opens if name.startswith("BM_IndexOpenPersistent") else rebuilds
        expected = 1 if series is opens else 0
        if int(persistent) != expected:
            return fail(path, f"{where}.persistent={persistent}, "
                              f"expected {expected}")
        # Keep the best time per size: benchmark repetitions append
        # mean/median/stddev entries whose real_time is not a sample.
        prev = series.get(int(rows))
        time = float(entry["real_time"])
        series[int(rows)] = time if prev is None else min(prev, time)
    if not opens and not rebuilds:
        # Reports from other bench binaries have no index families.
        return 0

    if not opens:
        return fail(path, "BM_IndexOpenPersistent: series missing")
    if not rebuilds:
        return fail(path, "BM_IndexRebuild: contrast series missing")
    if len(opens) < 2 or max(opens) < 4 * min(opens):
        return fail(path, f"BM_IndexOpenPersistent: row sweep {sorted(opens)} "
                          f"spans less than 4x")
    slowest = max(opens.values())
    fastest = min(opens.values())
    if fastest > 0 and slowest > fastest * INDEX_OPEN_TOLERANCE:
        return fail(path, f"BM_IndexOpenPersistent: open time spread "
                          f"{slowest:.3f}/{fastest:.3f} exceeds "
                          f"{INDEX_OPEN_TOLERANCE}x across the row sweep; "
                          f"reopen is scaling with table size (rebuild?)")
    if len(rebuilds) >= 2 and rebuilds[max(rebuilds)] <= rebuilds[min(rebuilds)]:
        return fail(path, f"BM_IndexRebuild: build time did not grow from "
                          f"{min(rebuilds)} to {max(rebuilds)} rows; the "
                          f"contrast series measured nothing")
    return 0


def main(argv):
    paths = argv[1:] or ["BENCH_query.json"]
    return max(check_report(path) for path in paths)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
