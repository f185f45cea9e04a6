#!/usr/bin/env bash
# What the programs run: builds every binary of cmd/ and examples/, and the
# benchmark's, with coverage of all of repro/..., drives them through the
# invocations below and prints every non-test function under internal/ that
# no run executed — code only tests reach, or no one. internal/lp is left
# out: it is the tests' exact oracle and no binary links it. Informational,
# not a gate; about two minutes on 2 vCPUs. Run from anywhere:
#   bash scripts/traffic.sh [repo-root]
#
# The runs: the five examples and albic-bench (every figure, reduced scale);
# albic-run for rj1-rj4 under each of the six balancers; CI's rj2 run with
# checkpoints, lockstep and pipelined, and its rj1 Flux run with checkpoints
# (deltas that delete cells), each in one process and over 1 controller + 2
# albic-node processes on TCP loopback; an -incremental -shards 2 run; and the
# benchmark's four workloads with -quick, with and without -trace.
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"
work=$(mktemp -d)
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$work"' EXIT
bin="$work/bin"
mkdir -p "$bin" "$work/cov"

go build -cover -coverpkg=repro/... -o "$bin/" ./cmd/... ./examples/...
go -C bench build -cover -coverpkg=repro/... -o "$bin/bench" .
export GOCOVERDIR="$work/cov"

quiet() { "$@" >/dev/null; }

for ex in quickstart scaling faulttolerance wikipedia airline; do
  quiet "$bin/$ex"
done
quiet "$bin/albic-bench"

small=(-nodes 6 -groups 24 -periods 12 -rate 1200 -seed 7)
for job in rj1 rj2 rj3 rj4; do
  for bal in albic milp flux cola potc none; do
    quiet "$bin/albic-run" -job "$job" -balancer "$bal" "${small[@]}"
  done
done
ci=("${small[@]}" -job rj2 -budget 4 -ckpt-every 3)
quiet "$bin/albic-run" "${ci[@]}" -pipelined=false
quiet "$bin/albic-run" "${ci[@]}"
quiet "$bin/albic-run" "${ci[@]}" -incremental -shards 2
rj1=(-nodes 6 -groups 24 -periods 24 -rate 1200 -seed 7 -job rj1 -balancer flux -ckpt-every 3)
quiet "$bin/albic-run" "${rj1[@]}"

# tcp port args...: the run as 1 controller + 2 workers on loopback.
tcp() {
  local port=$1
  shift
  "$bin/albic-run" -listen "127.0.0.1:$port" -workers 2 "$@" >/dev/null &
  local ctrl=$! up=0
  for _ in $(seq 50); do
    if (exec 3<>"/dev/tcp/127.0.0.1/$port") 2>/dev/null; then up=1; break; fi
    sleep 0.2
  done
  [ "$up" = 1 ] || { echo "traffic.sh: controller never listened on 127.0.0.1:$port" >&2; exit 1; }
  "$bin/albic-node" -controller "127.0.0.1:$port" &
  "$bin/albic-node" -controller "127.0.0.1:$port" &
  wait "$ctrl"
  wait
}
tcp 7076 "${ci[@]}" -pipelined=false
tcp 7077 "${ci[@]}"
tcp 7079 "${rj1[@]}"

for w in steady-rj1 reconfig-rj1 adaptive-rj3 adaptive-rj3-tcp; do
  for tr in 0 1; do
    (cd "$work" && quiet "$bin/bench" -workload "$w" -quick -trace "$tr")
  done
done

# go tool cover resolves every package of the profile in this module, which
# repro/bench is not: its blocks go before it reads them, with internal/lp's.
go tool covdata textfmt -i="$work/cov" -o "$work/all.txt"
grep -vE '^repro/(bench|internal/lp)/' "$work/all.txt" >"$work/prog.txt"
go tool cover -func="$work/prog.txt" >"$work/func.txt"
awk '$1 ~ /^repro\/internal\// && $NF == "0.0%" { sub(/^repro\//, "", $1); print "  " $1 " " $2 }' "$work/func.txt" >"$work/never"
echo "statements run (cmd, examples, internal but lp): $(awk '$1 == "total:" { print $NF }' "$work/func.txt")"
echo "internal funcs never run:  $(wc -l <"$work/never")"
cat "$work/never"
