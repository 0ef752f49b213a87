#!/bin/sh
# Golden pin of one CLI surface of the iterative technique.
#
# Usage: golden.sh CLI KIND HEURISTIC GOLDEN WORKDIR
#
# Runs CLI on etc_8x4.csv (next to this script; integer cells with many
# ties) with random ties from seed 3, normalizes the output of KIND and
# compares it byte for byte with the file GOLDEN:
#   iterate     stdout of `iterate`
#   report      stdout of `report` without its last table (map-call
#               latencies are wall-clock times)
#   trace       the iterative.iteration / iterative.done events of
#               `iterate --trace`, without their "seq" field
#   checkpoint  the checkpoint file of `study --trials 4 --tasks 10
#               --machines 3 --checkpoint`, its lines sorted (pool workers
#               append them in completion order); here HEURISTIC names the
#               variant: `clean`, or `fault` for a run under
#               --fault heuristic-map:0.2:99 (quarantine records)
# Exit status 0 on a match, 1 on a difference (the diff is printed).
# With GOLDEN_RECORD=1 in the environment the output is written to GOLDEN
# instead.
set -u
cli=$1 kind=$2 heuristic=$3 golden=$4 workdir=$5
etc="$(dirname "$0")/etc_8x4.csv"
out="$workdir/golden_${kind}_${heuristic}.out"
run="--etc $etc --heuristic $heuristic --ties random --seed 3"

case $kind in
  iterate)
    "$cli" iterate $run > "$out" || exit 1 ;;
  report)
    # The latency table is the last five lines of the report.
    "$cli" report $run > "$out.raw" || exit 1
    head -n -5 "$out.raw" > "$out" ;;
  trace)
    rm -f "$out.jsonl"
    "$cli" iterate $run --trace "$out.jsonl" > /dev/null || exit 1
    sed -n 's/^{"seq":[0-9]*,"event":"iterative\./{"event":"iterative./p' \
      "$out.jsonl" > "$out" ;;
  checkpoint)
    case $heuristic in
      clean) fault= ;;
      fault) fault="--fault heuristic-map:0.2:99" ;;
      *) echo "golden.sh: unknown checkpoint variant '$heuristic'" >&2
         exit 2 ;;
    esac
    rm -f "$out.jsonl"
    "$cli" study --trials 4 --tasks 10 --machines 3 $fault \
      --checkpoint "$out.jsonl" > /dev/null 2>&1 || exit 1
    LC_ALL=C sort "$out.jsonl" > "$out" ;;
  *)
    echo "golden.sh: unknown kind '$kind'" >&2
    exit 2 ;;
esac

if [ "${GOLDEN_RECORD:-0}" = 1 ]; then
  cp "$out" "$golden"
  exit 0
fi
cmp -s "$out" "$golden" && exit 0
diff "$golden" "$out"
exit 1
