#!/usr/bin/env bash
# Prints the numbers the CHANGES.md shrink table is built from, so the table
# is reproduced rather than hand-counted. Run at the parent and at the change.
#
# The second column is the system without its unit tests: every top-level
# `#[cfg(test)] mod … { … }` block is cut out wherever it sits (rustfmt puts
# its closing brace in column 0); a `#[cfg(test)]` item or an early test
# module does not hide the code after it. Each message module under
# crates/msg/src has exactly one test module, at its end.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

code_lines() { # non-blank, non-comment lines of every .rs file under $1
    find "$1" -name '*.rs' -print0 | xargs -0 cat | grep -v '^\s*$' | grep -vc '^\s*//' || true
}
without_tests() { # the Rust under the given dirs without its #[cfg(test)] modules: unit tests are not the system
    find "$@" -name '*.rs' -print0 | xargs -0 -n1 awk '
        skip { if ($0 == "}") skip = 0; next }
        held != "" { if ($0 ~ /^(pub(\([a-z]+\))? )?mod [a-z_0-9]+ \{$/) { held = ""; skip = 1; next } print held; held = "" }
        $0 == "#[cfg(test)]" { held = $0; next }
        { print }'
}
system_lines() { # code lines of $1 without the #[cfg(test)] modules
    without_tests "$1" | grep -v '^\s*$' | grep -vc '^\s*//' || true
}
occurrences() { # fixed-string occurrences (not lines) in the Rust sources under the given dirs
    local pat=$1; shift
    { grep -rFo --include='*.rs' -- "$pat" "$@" || true; } | wc -l
}
futex_lines() { # non-test lines naming the futex outside crates/model, each behind its file: a ring's reader has one wake-up, its doorbell
    local f
    for f in $(find crates/*/src src examples shims -name '*.rs' | grep -v '^crates/model/' | sort); do
        without_tests "$f" | { grep -i futex || true; } | sed "s|^|$f: |"
    done
}
# Sourced (scripts/check.sh does), the helpers above are all this file does.
[[ ${BASH_SOURCE[0]} == "$0" ]] || return 0

echo "code lines (non-blank, non-comment) per source directory, whole files | without #[cfg(test)] modules:"
total=0 system=0
for src in crates/*/src crates/bench/benches shims/*/src; do
    [ -d "$src" ] || continue
    n=$(code_lines "$src") m=$(system_lines "$src")
    printf '  %-22s %6d %6d\n' "$src" "$n" "$m"
    total=$((total + n)) system=$((system + m))
done
printf '  %-22s %6d %6d\n' total "$total" "$system"

# The message set is defined once, as .msg text that rossf-idl turns into
# crates/msg/src's modules at build time: report the IDL beside the Rust it
# replaced, and guard against a hand-declared message coming back.
printf '%-24s %3d files, %d non-blank lines\n' '.msg definitions' \
    "$(find crates/idl/msg -name '*.msg' | wc -l)" \
    "$(find crates/idl/msg -name '*.msg' -print0 | xargs -0 cat | grep -vc '^\s*$')"
printf '%-24s %3d\n' 'hand-declared Sfm structs' \
    "$({ grep -rh '^pub struct Sfm' crates/msg/src || true; } | wc -l)"

# One fault gate per link: the injector's verdict is asked for in one place.
printf '%-24s %3d\n' 'next_frame_action call sites' \
    "$({ without_tests crates/*/src | grep -o '\.next_frame_action(' || true; } | wc -l)"

# One module per tier: both halves of a link live in crates/ros/src/tier/<tier>.rs.
for f in crates/ros/src/tier/*.rs; do
    printf '%-24s %3d\n' "tier ${f##*/} non-test" "$(system_lines "$f")"
done
printf '%-24s %3d\n' 'pub(crate) ros/src' "$({ grep -r 'pub(crate)' crates/ros/src || true; } | wc -l)"

for pat in '#[deprecated' 'allow(deprecated)' 'fn syscall6' 'cfg(not(all(target_os'; do
    printf '%-24s %3d\n' "$pat" "$(occurrences "$pat" crates tests examples src)"
done
printf '%-24s %s\n' 'asm!( outside sys+lint' \
    "$(grep -rlF --include='*.rs' 'asm!(' crates tests examples src | grep -vc '^crates/\(sys\|lint\)/' || true)"
printf '%-24s %3d\n' 'futex sites' "$(futex_lines | wc -l)"
printf '%-24s %3d\n' 'SYS_MODULES entries' \
    "$(perl -0ne 'print $1 if /const SYS_MODULES[^=]*=\s*\[(.*?)\];/s' crates/lint/src/rules.rs | grep -o '"[^"]*"' | wc -l)"

reexports() { # names a lib.rs re-exports with `pub use`
    perl -0ne 'while (/^pub use ([^;]+);/mg) { my $u = $1; $n += $u =~ /\{(.*)\}/s ? () = $1 =~ /\w+/g : 1 } END { print $n + 0 }' "$1"
}
for lib in crates/ros/src/lib.rs crates/core/src/lib.rs crates/shm/src/lib.rs crates/sys/src/lib.rs crates/trace/src/lib.rs; do
    printf '%-24s %3d\n' "pub use ${lib#crates/}" "$(reexports "$lib")"
done
# One count per event: the public names of the counters and their views — the
# pub types, pub fields and pub fns of crates/ros/src/metrics.rs (a struct the
# counter macro declares `pub` has one field per counter it is given) plus
# every `*Stats` struct under crates/ros/src and its fields.
counter_names() {
    perl -0ne '
        my ($macro) = /macro_rules! \w+ \{(.*?)\n\}\n/s;
        my ($list) = /^\w+! \{\n(.*?)\n\}/ms;
        my $counters = () = ($list // "") =~ /^\s*\w+,$/mg;
        my $generated = () = ($macro // "") =~ /^\s*pub struct /mg;
        (my $rest = $_) =~ s/macro_rules! \w+ \{.*?\n\}\n//s;
        $rest =~ s/^#\[cfg\(test\)\]\nmod tests \{.*//ms;
        my $types = () = $_ =~ /^\s*pub (?:struct|enum|type|trait) /mg;
        my $fields = () = $rest =~ /^\s*pub \w+:/mg;
        my $fns = () = $_ =~ /^\s*pub fn /mg;
        print $types + $generated * $counters + $fields + $fns;
    ' crates/ros/src/metrics.rs
}
stats_names() {
    find crates/ros/src -name '*.rs' -print0 | xargs -0 cat |
        perl -0ne '$n += 1 + (() = $1 =~ /^\s*pub \w+:/mg) while /^pub struct \w*Stats \{(.*?)\n\}/msg; END { print $n + 0 }'
}
printf '%-24s %3d\n' 'pub counter/stats names' "$(($(counter_names) + $(stats_names)))"
# One options/stats API: the knobs a node sets, the endpoint options and the
# endpoint methods (every counter is a `stats()` field, not a getter).
printf '%-24s %3d\n' 'TransportConfig fields' \
    "$(perl -0ne 'print scalar(() = $1 =~ /^\s*pub \w+:/mg) if /pub struct TransportConfig \{(.*?)\n\}/s' crates/ros/src/config.rs)"
printf '%-24s %3d\n' 'pub fn ros/options.rs' "$(grep -c '^\s*pub fn ' crates/ros/src/options.rs)"
printf '%-24s %3d\n' 'pub fn Publisher+Subscriber' \
    "$(cat crates/ros/src/publisher.rs crates/ros/src/subscriber.rs | grep -c '^\s*pub fn ')"
printf '%-24s %3d\n' 'Tier variants' \
    "$(perl -0ne 'print scalar(() = $1 =~ /=>/g) if /Tier, TIER_COUNT \{(.*?)\n    \}/s' crates/trace/src/stage.rs)"
