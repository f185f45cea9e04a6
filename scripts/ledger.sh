#!/usr/bin/env bash
# The size ledger the simplicity PRs quote: non-test Go lines per package
# (all lines, and code — lines that are neither blank nor a // comment), the
# field counts of engine.Config and controller.Options, albic-run's flag
# count, the number of exported types, functions and methods of
# internal/engine, internal/controller, internal/core and internal/lp, and the
# frame and request kinds of the engine's wire schema. bench/ is its own
# module and is left out. Run from anywhere:
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

# fields_of file type -> exported fields of `type <type> struct`.
fields_of() {
  awk -v t="$2" '
    $0 ~ "^type " t " struct {" { in_s = 1; next }
    in_s && /^}/ { exit }
    in_s && /^\t[A-Z][A-Za-z0-9_]*[ ,]/ { n++ }
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
read -r n c < <(lines_of internal/engine internal/controller)
printf '%-28s %8d %8d\n' 'engine + controller' "$n" "$c"
echo
echo "engine.Config fields:      $(fields_of internal/engine/engine.go Config)"
echo "controller.Options fields: $(fields_of internal/controller/controller.go Options)"
echo "albic-run flags:           $(grep -cE '\bflag\.(Bool|Duration|Float64|Int|Int64|String|Uint|Uint64|Var|Func)\(' cmd/albic-run/main.go)"
for d in internal/engine internal/controller internal/core internal/lp; do
  read -r t f m < <(exported_of "$d")
  echo "$d exported: $((t + f + m)) ($t types, $f funcs, $m methods)"
done
# The kinds are the lines of wire.go's two iota blocks that name one constant.
echo "frame kinds:               $(grep -cE '^[[:blank:]]fr[A-Z][A-Za-z]*( byte = iota \+ 1)?$' internal/engine/wire.go)"
echo "request kinds:             $(grep -cE '^[[:blank:]]rq[A-Z][A-Za-z]*( byte = iota \+ 1)?$' internal/engine/wire.go)"
