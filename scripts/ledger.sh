#!/usr/bin/env bash
# The size ledger the simplicity PRs quote: non-test Go lines per package
# (all lines, and code — lines that are neither blank nor a // comment), the
# same over the production packages (those the binaries and examples import:
# `go list -deps ./cmd/... ./examples/...`; code only tests reach is in the
# repo total but not here), the field counts of engine.Config and
# controller.Options, the exported fields of the planner, baseline and
# workload option structs, albic-run's flag count, the number of exported
# types, functions and methods of internal/engine, internal/controller,
# internal/core, internal/statestore, internal/transport, internal/assign and
# internal/baseline,
# the frame and request kinds of the engine's wire schema, and the non-test
# functions and methods under internal/ that no binary links (CI holds that
# list to scripts/unlinked.txt). bench/ is its own module: its lines are left
# out, but its binary is one of those the last count links. Run from
# anywhere:
#   bash scripts/ledger.sh [repo-root]
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

# lines_of dir... -> "<lines> <code>" over the non-test Go files directly in
# the given directories.
lines_of() {
  find "$@" -maxdepth 1 -name '*.go' ! -name '*_test.go' -print0 |
    xargs -0 cat |
    awk '{ n++ } !/^[[:space:]]*($|\/\/)/ { c++ } END { printf "%d %d\n", n, c }'
}

# fields_of file type -> exported fields of `type <type> struct` (each name of
# a `A, B int` line counts).
fields_of() {
  awk -v t="$2" '
    $0 ~ "^type " t " struct {" { in_s = 1; next }
    in_s && /^}/ { exit }
    in_s && /^\t[A-Z][A-Za-z0-9_]*[ ,]/ {
      n++
      rest = substr($0, 2)
      while (match(rest, /^[A-Za-z0-9_]+, */)) { n++; rest = substr(rest, RLENGTH + 1) }
    }
    END { print n + 0 }' "$1"
}

# exported_of dir -> "<types> <funcs> <methods>": the exported names the
# non-test Go files directly in dir declare (grouped type blocks included;
# methods count only on exported receiver types).
exported_of() {
  find "$1" -maxdepth 1 -name '*.go' ! -name '*_test.go' -print0 |
    xargs -0 cat |
    awk '
      /^type \($/ { in_t = 1; next }
      in_t && /^\)/ { in_t = 0; next }
      in_t && /^\t[A-Z]/ { t++ }
      /^type [A-Z]/ { t++ }
      /^func [A-Z]/ { f++ }
      /^func \(([A-Za-z_][A-Za-z0-9_]* )?\*?[A-Z][^)]*\) [A-Z]/ { m++ }
      END { printf "%d %d %d\n", t, f, m }'
}

printf '%-28s %8s %8s\n' 'non-test Go' lines code
total=0 total_code=0
for d in . $(find cmd examples internal -type d | sort); do
  read -r n c < <(lines_of "$d")
  [ "$n" -gt 0 ] || continue
  printf '%-28s %8d %8d\n' "$d" "$n" "$c"
  total=$((total + n)) total_code=$((total_code + c))
done
printf '%-28s %8d %8d\n' 'total (outside bench/)' "$total" "$total_code"
mapfile -t prod < <(go list -deps -f '{{if .Module}}{{if .Module.Main}}{{.Dir}}{{end}}{{end}}' ./cmd/... ./examples/...)
read -r n c < <(lines_of "${prod[@]}")
printf '%-28s %8d %8d\n' "production (${#prod[@]} packages)" "$n" "$c"
read -r n c < <(lines_of internal/engine internal/controller)
printf '%-28s %8d %8d\n' 'engine + controller' "$n" "$c"
echo
echo "engine.Config fields:      $(fields_of internal/engine/engine.go Config)"
echo "controller.Options fields: $(fields_of internal/controller/controller.go Options)"
# The settable values of the planners, the baselines and the workload: every
# exported field of these structs is an option (a Snapshot's are what a
# controller sets before planning).
opts=0
for ft in internal/core/albic.go:ALBIC internal/core/milp.go:MILPBalancer \
  internal/core/scaling.go:UtilizationScaler internal/core/snapshot.go:Snapshot \
  internal/controller/controller.go:Options internal/baseline/cola.go:COLA \
  internal/assign/solver.go:Options \
  internal/workload/datasets.go:WikipediaConfig internal/workload/datasets.go:AirlineConfig \
  internal/workload/datasets.go:WeatherConfig internal/workload/jobs.go:JobConfig; do
  opts=$((opts + $(fields_of "${ft%%:*}" "${ft##*:}")))
done
echo "option-struct fields:      $opts (11 structs)"
echo "albic-run flags:           $(grep -cE '\bflag\.(Bool|Duration|Float64|Int|Int64|String|Uint|Uint64|Var|Func)\(' cmd/albic-run/main.go)"
for d in internal/engine internal/controller internal/core internal/statestore internal/transport internal/assign internal/baseline; do
  read -r t f m < <(exported_of "$d")
  echo "$d exported: $((t + f + m)) ($t types, $f funcs, $m methods)"
done
# The kinds are the lines of wire.go's two iota blocks that name one constant.
echo "frame kinds:               $(grep -cE '^[[:blank:]]fr[A-Z][A-Za-z]*( byte = iota \+ 1)?$' internal/engine/wire.go)"
echo "request kinds:             $(grep -cE '^[[:blank:]]rq[A-Z][A-Za-z]*( byte = iota \+ 1)?$' internal/engine/wire.go)"

# unlinked: build every binary (cmd/..., examples/..., bench) without
# inlining, so each function a binary calls keeps its symbol, and list the
# functions and methods declared in internal/ that none of them contains.
# Both sides are normalised to pkg.Name and pkg.Type.Method: type parameters,
# the pointer of a receiver and method-value suffixes are dropped; init
# functions are left out.
bins=$(mktemp -d)
trap 'rm -rf "$bins"' EXIT
go build -gcflags=all=-l -o "$bins/" ./cmd/... ./examples/...
go -C bench build -gcflags=all=-l -o "$bins/bench" .
for b in "$bins"/*; do go tool nm "$b"; done |
  awk '$2 == "T" || $2 == "t" { print $3 }' | grep '^repro/internal/' |
  sed -E ':a; s/\[[^][]*\]//; ta; s/\(\*([A-Za-z0-9_]+)\)/\1/; s/-fm$//' |
  sort -u >"$bins/linked"
find internal -name '*.go' ! -name '*_test.go' -print0 | xargs -0 awk '
  /^func / {
    pkg = FILENAME; sub(/\/[^\/]*$/, "", pkg)
    s = substr($0, 6); recv = ""
    if (s ~ /^\(/) {
      r = substr(s, 2, index(s, ")") - 2); s = substr(s, index(s, ")") + 2)
      sub(/\[.*\]/, "", r); n = split(r, part, " "); r = part[n]; sub(/^\*/, "", r)
      recv = r "."
    }
    match(s, /^[A-Za-z0-9_]+/); name = substr(s, 1, RLENGTH)
    if (recv != "" || name != "init") print "repro/" pkg "." recv name
  }' | sort -u >"$bins/declared"
comm -23 "$bins/declared" "$bins/linked" >"$bins/unlinked"
echo
echo "unlinked internal funcs:   $(wc -l <"$bins/unlinked")"
sed 's/^repro\//  /' "$bins/unlinked"
