#!/usr/bin/env bash
# ThreadSanitizer soak of the analysis daemon.
#
# Configures a separate TSan-instrumented build tree (the tier-1 build stays
# uninstrumented), runs the daemon lifecycle unit matrix under TSan, and then
# soaks the real `bivc --serve` / `bivc --connect` binaries over the
# regression corpus:
#
#  1. server_test under TSan: byte-identity, warm shared cache, bounded
#     admission, deadlines, exception isolation, SIGTERM drain, socket
#     takeover refusal -- the daemon's lifecycle matrix with the race
#     detector watching.
#  2. CLI byte-identity: every corpus report served over the socket must
#     equal the one-shot `bivc FILE` bytes, cold and warm.
#  3. Concurrent warm blast: parallel clients hammer the shared cache, then
#     the Stats request kind must show the hits.
#  4. No-silent-drop under overload: a tiny-admission daemon answers every
#     one of a burst of concurrent clients, and its `serve.overloaded`
#     counter equals the number of clients that were told so.
#  5. SIGTERM drain: in-flight clients are answered, the daemon exits 0,
#     the socket file is gone.
#  6. Mid-flight flushes and a warm restart: concurrent clients push more
#     distinct programs than the daemon's flush cadence (CacheFlushEvery,
#     64 misses) through one daemon with --cache, so the cache file is
#     appended several times while requests are in flight.  Every reply is
#     byte-identical to one-shot, SIGTERM drains with exit 0, and a
#     restarted daemon on the same file answers every program warm.
#
# Invoked by `ctest -C stress -R serve_soak` or directly:
#
#   tools/serve_soak.sh
#
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="$ROOT/build-serve-tsan"

cmake -S "$ROOT" -B "$BUILD" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DBIV_SANITIZE=thread >/dev/null
cmake --build "$BUILD" --target bivc server_test -j "$(nproc)" >/dev/null

export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"

BIVC="$BUILD/tools/bivc"
DIR="$(mktemp -d)"
SERVE_PID=""
cleanup() {
  [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
  rm -rf "$DIR"
}
trap cleanup EXIT

wait_for_socket() {
  for _ in $(seq 1 100); do
    [ -S "$1" ] && return 0
    sleep 0.1
  done
  echo "serve_soak: daemon never bound $1" >&2
  return 1
}

# 1. Lifecycle matrix under the race detector.
"$BUILD/tests/server_test"
echo "serve_soak: server_test clean under TSan"

# 2 + 3. Byte-identity and the concurrent warm blast against one daemon.
SOCK="$DIR/soak.sock"
"$BIVC" --serve "$SOCK" --cache "$DIR/soak.cache" -j4 \
  2>"$DIR/serve.log" &
SERVE_PID=$!
wait_for_socket "$SOCK"

for F in "$ROOT"/tests/corpus/*.biv; do
  "$BIVC" "$F" >"$DIR/one.out" 2>/dev/null || true
  "$BIVC" --connect "$SOCK" "$F" >"$DIR/served.out" 2>/dev/null || true
  if ! cmp -s "$DIR/one.out" "$DIR/served.out"; then
    echo "serve_soak: served report differs from one-shot for $F:" >&2
    diff "$DIR/one.out" "$DIR/served.out" >&2 || true
    exit 1
  fi
done
echo "serve_soak: served reports byte-identical to one-shot (cold)"

# (explicit pid list: a bare `wait` would also wait on the daemon job)
BLAST_PIDS=""
for C in 1 2 3 4 5 6 7 8; do
  (
    for F in "$ROOT"/tests/corpus/*.biv; do
      "$BIVC" --connect "$SOCK" "$F" >/dev/null 2>&1 || true
    done
  ) &
  BLAST_PIDS="$BLAST_PIDS $!"
done
for P in $BLAST_PIDS; do
  wait "$P" || true
done
"$BIVC" --connect "$SOCK" --server-stats >"$DIR/stats.json"
HITS=$(grep -o '"cache.hit": [0-9]*' "$DIR/stats.json" |
  grep -o '[0-9]*$' || echo 0)
if [ "${HITS:-0}" -lt 8 ]; then
  echo "serve_soak: warm blast shows only ${HITS:-0} cache hits:" >&2
  cat "$DIR/stats.json" >&2
  exit 1
fi
echo "serve_soak: concurrent warm blast served from shared cache" \
  "($HITS hits)"

# 5 (first daemon). Drain with clients in flight.
CLIENT_PIDS=""
for C in 1 2 3 4; do
  "$BIVC" --connect "$SOCK" "$ROOT"/tests/corpus/linear_chain.biv \
    >/dev/null 2>"$DIR/drain.$C.err" &
  CLIENT_PIDS="$CLIENT_PIDS $!"
done
kill -TERM "$SERVE_PID"
if ! wait "$SERVE_PID"; then
  echo "serve_soak: daemon exited non-zero after SIGTERM:" >&2
  cat "$DIR/serve.log" >&2
  exit 1
fi
SERVE_PID=""
for P in $CLIENT_PIDS; do
  wait "$P" || true # answered or politely refused; never hung
done
if [ -e "$SOCK" ]; then
  echo "serve_soak: daemon left its socket file behind" >&2
  exit 1
fi
echo "serve_soak: SIGTERM drained with clients in flight, socket removed"

# 4. Overload burst: every client answered, and the daemon's own counter
# agrees with how many were turned away.
SOCK2="$DIR/tiny.sock"
"$BIVC" --serve "$SOCK2" --admit 1 -j1 2>"$DIR/tiny.log" &
SERVE_PID=$!
wait_for_socket "$SOCK2"
BURST=16
PIDS=""
for C in $(seq 1 $BURST); do
  "$BIVC" --connect "$SOCK2" "$ROOT"/tests/corpus/linear_chain.biv \
    >"$DIR/burst.$C.out" 2>"$DIR/burst.$C.err" &
  PIDS="$PIDS $!"
done
ANSWERED=0
REFUSED=0
for P in $PIDS; do
  if wait "$P"; then
    ANSWERED=$((ANSWERED + 1))
  else
    REFUSED=$((REFUSED + 1))
  fi
done
if [ $((ANSWERED + REFUSED)) -ne "$BURST" ]; then
  echo "serve_soak: burst lost requests ($ANSWERED + $REFUSED != $BURST)" >&2
  exit 1
fi
CLIENT_OVERLOADED=$(grep -l "overloaded" "$DIR"/burst.*.err 2>/dev/null |
  wc -l)
"$BIVC" --connect "$SOCK2" --server-stats >"$DIR/tiny.stats.json"
SERVER_OVERLOADED=$(grep -o '"serve.overloaded": [0-9]*' \
  "$DIR/tiny.stats.json" | grep -o '[0-9]*$' || echo 0)
if [ "${SERVER_OVERLOADED:-0}" -ne "$CLIENT_OVERLOADED" ]; then
  echo "serve_soak: daemon counted ${SERVER_OVERLOADED:-0} overloads but" \
    "$CLIENT_OVERLOADED clients were told so" >&2
  exit 1
fi
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
SERVE_PID=""
echo "serve_soak: overload burst fully answered" \
  "($ANSWERED ok, $REFUSED refused, counter agrees)"

# 6. Mid-flight flushes under concurrent clients, then a warm restart.
FSOCK="$DIR/flush.sock"
FCACHE="$DIR/flush.cache"
NPROG=200
mkdir -p "$DIR/gen"
for I in $(seq 1 $NPROG); do
  printf 'func f%d(n) { s = %d; for L: i = 1 to n { s = s + i * %d; } return s; }\n' \
    "$I" "$I" "$I" >"$DIR/gen/g$I.biv"
done
# Each client owns one shard of the programs: `served` then compares with
# the one-shot bytes.  Usage: soak_shard SOCKET CLIENT CLIENTS
soak_shard() {
  local I
  for I in $(seq "$2" "$3" $NPROG); do
    G="$DIR/gen/g$I.biv"
    "$BIVC" "$G" >"$DIR/flush.$2.one" 2>/dev/null || return 1
    "$BIVC" --connect "$1" "$G" >"$DIR/flush.$2.served" 2>/dev/null ||
      return 1
    cmp -s "$DIR/flush.$2.one" "$DIR/flush.$2.served" || return 1
  done
}
# Usage: soak_pass SOCKET LOG WHAT
soak_pass() {
  local P PIDS=""
  for C in 1 2 3 4; do
    soak_shard "$1" "$C" 4 &
    PIDS="$PIDS $!"
  done
  for P in $PIDS; do
    if ! wait "$P"; then
      echo "serve_soak: $3 served bytes differ from one-shot" >&2
      cat "$2" >&2
      exit 1
    fi
  done
}
"$BIVC" --serve "$FSOCK" --cache "$FCACHE" -j4 2>"$DIR/flush.log" &
SERVE_PID=$!
wait_for_socket "$FSOCK"
soak_pass "$FSOCK" "$DIR/flush.log" "cold pass"
# Only the flush cadence can have written the file before the drain.
if [ ! -s "$FCACHE" ]; then
  echo "serve_soak: $NPROG misses left no mid-flight cache flush" >&2
  exit 1
fi
kill -TERM "$SERVE_PID"
if ! wait "$SERVE_PID"; then
  echo "serve_soak: daemon exited non-zero after SIGTERM:" >&2
  cat "$DIR/flush.log" >&2
  exit 1
fi
SERVE_PID=""
"$BIVC" --serve "$FSOCK" --cache "$FCACHE" -j4 2>"$DIR/warm.log" &
SERVE_PID=$!
wait_for_socket "$FSOCK"
soak_pass "$FSOCK" "$DIR/warm.log" "restarted daemon"
"$BIVC" --connect "$FSOCK" --server-stats >"$DIR/warm.stats.json"
counter() {
  grep -o "\"$1\": [0-9]*" "$2" | grep -o '[0-9]*$' || echo 0
}
WHITS=$(counter cache.hit "$DIR/warm.stats.json")
WMISSES=$(counter cache.miss "$DIR/warm.stats.json")
if [ "$WHITS" -ne "$NPROG" ] || [ "$WMISSES" -ne 0 ]; then
  echo "serve_soak: restarted daemon was not fully warm" \
    "($WHITS hits, $WMISSES misses for $NPROG programs)" >&2
  exit 1
fi
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
SERVE_PID=""
echo "serve_soak: $NPROG programs byte-identical across mid-flight" \
  "flushes, clean drain, restart fully warm ($WHITS hits)"

echo "serve_soak: OK"
