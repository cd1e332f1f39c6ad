#!/usr/bin/env bash
# A/B two prebuilt rossf-benchmark binaries on one workload the way every perf
# claim here is made: alternating pairs, order flipped each pair. Prints, per
# end-to-end metric (and `failed`), each side's median [Q1, Q3], the change's
# delta, and the pairs it won (ties count for neither), then every raw value.
#   [AB_SECONDS=18] scripts/ab.sh PARENT_BIN CHANGE_BIN WORKLOAD [PAIRS=10] [SEED=2022]
set -euo pipefail
parent=$1 change=$2 workload=$3 pairs=${4:-10} seed=${5:-2022}
root="$(cd "$(dirname "$0")/.." && pwd)"
tmp=$(mktemp -d) && trap 'rm -rf "$tmp"' EXIT
run() { # SIDE BIN PAIR: one run, kept as "SIDE PAIR metric value" lines
    "$2" --out-dir "$tmp/out" --workload "$workload" --seed "$seed" \
        --seconds "${AB_SECONDS:-18}" --trace 0 2>/dev/null | tail -1 |
        grep -o '"[a-z_0-9]*":\({"value":\)\?[0-9.e+-]\+' |
        sed -e 's/{"value"://' -e 's/"//g' -e "s/^\([^:]*\):/$1 $3 \1 /" >>"$tmp/runs"
}
for ((i = 0; i < pairs; i++)); do
    if ((i % 2)); then run change "$change" "$i" && run parent "$parent" "$i"
    else run parent "$parent" "$i" && run change "$change" "$i"; fi
done
# Which way is better comes from the benchmark's own declaration.
{ echo "better failed lower"
  sed -n 's/.*"name": "\([a-z_0-9]*\)".*"better": "\([a-z]*\)", "bound".*/better \1 \2/p' "$root/BENCHMARK.json"
  cat "$tmp/runs"; } | awk -v n="$pairs" '
function q(a, f,    i, j, t, s, pos, lo) { # quantile f of a[0..n-1]
    for (i = 0; i < n; i++) s[i] = a[i]
    for (i = 1; i < n; i++) for (j = i; j > 0 && s[j-1] > s[j]; j--) { t = s[j]; s[j] = s[j-1]; s[j-1] = t }
    pos = f * (n - 1); lo = int(pos); return s[lo] + (pos - lo) * (s[lo + (lo < n - 1)] - s[lo])
}
$1 == "better" { better[$2] = $3; order[m++] = $2; next }
{ v[$1, $3, $2] = $4 }
END { for (k = 0; k < m; k++) { name = order[k]; wins = 0; raw["parent"] = raw["change"] = ""
        for (i = 0; i < n; i++) { p[i] = v["parent", name, i]; c[i] = v["change", name, i]
            wins += better[name] == "lower" ? c[i] < p[i] : c[i] > p[i]
            raw["parent"] = raw["parent"] " " p[i]; raw["change"] = raw["change"] " " c[i] }
        pm = q(p, .5); cm = q(c, .5)
        printf "%-18s parent %.5g [%.5g, %.5g]  change %.5g [%.5g, %.5g]  %+.1f %%  change wins %d/%d\n",
            name, pm, q(p, .25), q(p, .75), cm, q(c, .25), q(c, .75), pm ? 100 * (cm - pm) / pm : 0, wins, n
        tail = tail sprintf("raw %s: parent%s; change%s\n", name, raw["parent"], raw["change"]) }
      printf "%s", tail }'
