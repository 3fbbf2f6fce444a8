#!/bin/sh
# Repository gate. This script only produces artifacts: it builds
# everything (lib/telemetry with warnings as errors, see
# lib/telemetry/dune), runs the test suite, then runs the example, the
# benches and the mvpn commands the gate inspects, saving each output
# and exit code under _build/gate. Every assertion is a row of the table
# in tools/gate.ml; `gate check` reports each row's measured value
# against its bound and exits 1 if any row failed. A build, test or
# bench crash stops the script.
set -eu

cd "$(dirname "$0")/.."
out=_build/gate

echo "== dune build @all"
dune build @all

echo "== dune runtest"
dune runtest

rm -rf "$out"
mkdir -p "$out"
mvpn=./_build/default/bin/mvpn.exe

# run NAME CMD...: stdout to $out/NAME, exit code to $out/<NAME stem>.rc
run() {
  name=$1
  shift
  rc=0
  "$@" > "$out/$name" || rc=$?
  echo "$rc" > "$out/${name%.*}.rc"
}

echo "== example and Packet.pp smoke"
run capacity.txt ./_build/default/examples/capacity_planning.exe
run pp_smoke.txt ./_build/default/tools/pp_smoke.exe

for e in E0 E6 E15 E16 E18 E19; do
  echo "== bench $e"
  ./_build/default/bench/main.exe --only "$e" > /dev/null
  cp BENCH_telemetry.json "$out/$(echo "$e" | tr E e).json"
done

echo "== mvpn --json envelopes (each deterministic one twice)"
run slo.json "$mvpn" slo --json --duration 5
run chaos_a.json "$mvpn" chaos --seed 42 --duration 10 --json
run chaos_b.json "$mvpn" chaos --seed 42 --duration 10 --json
run stats.json "$mvpn" stats --json --duration 2
run tl_a.json "$mvpn" timeline --duration 5 --json
run tl_b.json "$mvpn" timeline --duration 5 --json
run tl_k4.json "$mvpn" timeline --duration 5 --shards 4 --json
run par_a.json "$mvpn" par --shards 4 --duration 2 --json
run par_b.json "$mvpn" par --shards 4 --duration 2 --json
run par_seq.json "$mvpn" par --seq --duration 2 --json
run soak_a.json "$mvpn" soak --hours 0.002 --chaos 7 --json
run soak_b.json "$mvpn" soak --hours 0.002 --chaos 7 --json
run soak_k4.json "$mvpn" soak --hours 0.002 --chaos 7 --shards 4 --json
run prov_a.json "$mvpn" provision --customers 300 --churn 50 --json
run prov_b.json "$mvpn" provision --customers 300 --churn 50 --json
run prov_rr_a.json "$mvpn" provision --customers 300 --churn 50 --rr --json
run prov_rr_b.json "$mvpn" provision --customers 300 --churn 50 --rr --json

echo "== mvpn exit codes"
run slo_chaos.txt "$mvpn" slo --chaos 2 --duration 20 2> /dev/null
run usage_slo_flag.txt "$mvpn" slo --bogus-flag 2> /dev/null
run usage_soak_hours.txt "$mvpn" soak --hours -1 2> /dev/null
run usage_soak_nan.txt "$mvpn" soak --hours nan 2> /dev/null
run usage_soak_interval.txt "$mvpn" soak --hours 0.001 --audit-interval 0 \
  2> /dev/null
run usage_prov_customers.txt "$mvpn" provision --customers 0 2> /dev/null
run usage_prov_flag.txt "$mvpn" provision --bogus-flag 2> /dev/null
run usage_prov_pops.txt "$mvpn" provision --pops 99 2> /dev/null
run usage_prov_churn.txt "$mvpn" provision --churn -1 2> /dev/null
run usage_run_pops.txt "$mvpn" run --pops 2 2> /dev/null
run usage_par_shards.txt "$mvpn" par --shards 0 2> /dev/null
run usage_par_core_delay.txt "$mvpn" par --core-delay=-1 2> /dev/null
run usage_tl_interval.txt "$mvpn" timeline --interval 0 2> /dev/null
run usage_soak_segments.txt "$mvpn" soak --segments 0 2> /dev/null
run usage_run_load.txt "$mvpn" run --load=-1 2> /dev/null
run usage_stats_duration.txt "$mvpn" stats --duration nan 2> /dev/null
run usage_plan_demands.txt "$mvpn" plan --demands=-1 2> /dev/null
run usage_chaos_duration.txt "$mvpn" chaos --duration=-5 2> /dev/null

echo "== gate check $out"
./_build/default/tools/gate.exe check "$out"
