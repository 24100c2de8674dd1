#!/bin/sh
# Render an SGFS observability snapshot (the JSON the FSS `Query` op and
# `Obs::json` emit, e.g. a saved Query payload) as a human-readable
# report: the per-emitter counters table, per-procedure and per-hop
# latency tables, and the tail of the trace-event log.
#
# Usage:  scripts/obs_dump.sh [snapshot.json]
#         (default: benchmark/out/trace-lan_smallfile.json)
#
# Takes a raw `Snapshot` (has a "procs" key) or a benchmark trace file,
# whose "obs" member is the snapshot; the default is the trace the
# per-layer contract run in scripts/verify.sh writes. Requires only
# python3.
set -eu

FILE="${1:-benchmark/out/trace-lan_smallfile.json}"
if [ ! -f "$FILE" ]; then
    echo "no such snapshot: $FILE" >&2
    echo "usage: $0 [snapshot.json]" >&2
    echo "(BENCHMARK.json's command with --workload lan_smallfile --trace 1 writes the default)" >&2
    exit 1
fi

python3 - "$FILE" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    snap = json.load(f)

if "procs" not in snap and "obs" in snap:
    # A benchmark trace file: the snapshot rides under "obs".
    snap = snap["obs"]

if "procs" not in snap:
    # Neither: nothing tabular to show beyond the document itself.
    print(json.dumps(snap, indent=2))
    sys.exit(0)

print(f"session {snap.get('session', 0)}  "
      f"logical clock {snap.get('logical_now', 0)}  "
      f"tracing {'on' if snap.get('enabled') else 'off'}")
print(f"events: {snap.get('events_captured', 0)} captured, "
      f"{snap.get('events_dropped', 0)} dropped to ring wrap")

# Counters: one column per emitter. Rows that read zero everywhere are
# folded away, except the health rows an operator looks for by name.
HEALTH = ["reconnect", "replay", "replica_failover", "degraded", "shed",
          "jukebox_retry", "cache_io_errors", "dirty_at_shutdown"]
counters = snap.get("counters", {})
if counters:
    # `role#n` keys: n is the attach order within the domain.
    emitters = sorted(counters, key=lambda k: int(k.rsplit("#", 1)[1]))
    names = sorted({n for rows in counters.values() for n in rows})
    shown = [n for n in names
             if n in HEALTH or any(counters[e].get(n, 0) for e in emitters)]
    print(f"\n{'counter':<22}" + "".join(f" {e:>16}" for e in emitters))
    for n in shown:
        print(f"{n:<22}" + "".join(f" {counters[e].get(n, 0):>16}" for e in emitters))

def table(title, rows):
    if not rows:
        return
    print(f"\n{title:<14} {'count':>8} {'mean':>10} {'p50':>10} "
          f"{'p95':>10} {'p99':>10} {'max':>10}  (microseconds)")
    for r in rows:
        print(f"{r['name']:<14} {r['count']:>8} {r['mean_micros']:>10.1f} "
              f"{r['p50_micros']:>10.1f} {r['p95_micros']:>10.1f} "
              f"{r['p99_micros']:>10.1f} {r['max_micros']:>10.1f}")

table("per-procedure", snap.get("procs", []))
table("per-hop", snap.get("hops", []))

events = snap.get("events", [])
if events:
    print(f"\nlast {len(events)} trace events (oldest first):")
    print(f"{'seq':>8} {'xid':>10} {'proc':>12} {'hop':<14} {'aux':>12}")
    procs = ["null", "getattr", "setattr", "lookup", "access", "readlink",
             "read", "write", "create", "mkdir", "symlink", "mknod",
             "remove", "rmdir", "rename", "link", "readdir", "readdirplus",
             "fsstat", "fsinfo", "pathconf", "commit"]
    for e in events:
        p = procs[e["proc"]] if e["proc"] < len(procs) else "-"
        xid = f"{e['xid']:#x}" if e["xid"] else "-"
        print(f"{e['seq']:>8} {xid:>10} {p:>12} {e['hop']:<14} {e['aux']:>12}")
EOF
