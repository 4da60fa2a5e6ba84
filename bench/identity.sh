#!/bin/sh
# Capture every deterministic output surface of the repository into OUT.
#
#   bench/identity.sh OUT
#
# Builds the tree, then runs, each in its own directory under OUT:
#   bench/     the 13 gated experiments (BENCH_<e>.json and stdout) and
#              bench/compare.exe's report against bench/baseline;
#   smoke/     the ofe surfaces over bench/baseline/smoke.workload:
#              workload, blame (text, --json, --what-if batch=off,
#              --request 1), health --slo, top, trace, stats,
#              explain --json, profile --json, hotspots --all --json,
#              lint --all --verify --json, impact --all --verify --json;
#   faults/    a concurrency-4 fault workload: its flight.json and
#              flight.txt dumps, blame --json, and the critical path of a
#              coalesced request under --what-if coalesce=off;
#   fuzz/      ofe fuzz seeds 1 (200 iterations) and 7 (100), and every
#              bench/corpus replay;
#   examples/  the stdout of the seven examples.
# Every command leaves stdout, stderr and its exit code behind, plus any
# file it wrote into its directory. The only wall-clock values, relink's
# ungated relink.wall.* gauges and its "<n> ms" stdout lines, are masked.
#
# Two captures are byte-identical exactly when the deterministic output
# is: compare them with `diff -r A B`.

set -eu

if [ $# -ne 1 ]; then
  echo "usage: $0 OUT" >&2
  exit 2
fi

ROOT=$(cd "$(dirname "$0")/.." && pwd)
dune build --root "$ROOT" 2>&1
B=$ROOT/_build/default
OFE=$B/bin/ofe.exe
SMOKE=$ROOT/bench/baseline/smoke.workload

mkdir -p "$1"
OUT=$(cd "$1" && pwd)

# run DIR NAME CMD... : run CMD in DIR, keeping NAME.stdout, NAME.stderr
# and NAME.exit there
run() {
  dir=$1
  name=$2
  shift 2
  mkdir -p "$dir"
  code=0
  (cd "$dir" && "$@") >"$dir/$name.stdout" 2>"$dir/$name.stderr" || code=$?
  echo "$code" >"$dir/$name.exit"
}

# -- bench experiments --------------------------------------------------------
for e in table1 reorder memory cache constraints linktime sweep sharing \
  dispatch pipeline hotspots blame relink; do
  run "$OUT/bench" "$e" "$B/bench/main.exe" "$e"
done
sed -E -i 's/: +[0-9]+(\.[0-9]+)? ms$/: <wall> ms/' "$OUT/bench/relink.stdout"
sed -E -i 's/("relink\.wall\.[a-z_]+":)[-+.0-9e]+/\1"<wall>"/g' \
  "$OUT/bench/BENCH_relink.json"
run "$OUT/bench" compare "$B/bench/compare.exe" "$ROOT/bench/baseline" .

# -- ofe over the smoke workload ---------------------------------------------
S=$OUT/smoke
run "$S/workload" out "$OFE" workload "$SMOKE"
run "$S/blame" out "$OFE" blame --workload "$SMOKE"
run "$S/blame-json" out "$OFE" blame --workload "$SMOKE" --json
run "$S/blame-whatif" out "$OFE" blame --workload "$SMOKE" --what-if batch=off
run "$S/blame-request" out "$OFE" blame --workload "$SMOKE" --request 1
run "$S/health" out "$OFE" health --slo "$ROOT/bench/baseline/omos.slo" "$SMOKE"
run "$S/top" out "$OFE" top "$SMOKE"
run "$S/trace" out "$OFE" trace /lib/libc
run "$S/stats" out "$OFE" stats
run "$S/explain" out "$OFE" explain --json /lib/libc
run "$S/profile" out "$OFE" profile --json
run "$S/hotspots" out "$OFE" hotspots --all --json
run "$S/lint" out "$OFE" lint --all --workload "$SMOKE" --verify --json
run "$S/impact" out "$OFE" impact --all --verify --json

# -- a fault workload at concurrency 4 ----------------------------------------
F=$OUT/faults
mkdir -p "$F"
sed '/^#/d' "$SMOKE" >"$F/faults.workload"
cat >>"$F/faults.workload" <<'EOF'
concurrency 4
fault_seed 11
fault place_conflict 0.6
fault evict_storm 0.3
fault reserve_fail 0.2
EOF
run "$F/workload" out "$OFE" workload "$F/faults.workload"
run "$F/blame" out "$OFE" blame --workload "$F/faults.workload" --json
run "$F/blame-request" out "$OFE" blame --workload "$F/faults.workload" \
  --what-if coalesce=off --request 3

# -- fuzzing ---------------------------------------------------------------------
run "$OUT/fuzz" seed1 "$OFE" fuzz --seed 1 --iterations 200
run "$OUT/fuzz" seed7 "$OFE" fuzz --seed 7 --iterations 100
for c in "$ROOT"/bench/corpus/*.fuzzcase; do
  run "$OUT/fuzz" "replay-$(basename "$c" .fuzzcase)" "$OFE" fuzz --replay "$c"
done

# -- examples ----------------------------------------------------------------------
for x in quickstart interposition rename_resolve partial_image reorder_demo \
  dynload_demo publish_demo; do
  run "$OUT/examples" "$x" "$B/examples/$x.exe"
done
