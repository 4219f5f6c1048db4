#!/bin/sh
# Smoke test: build + tier-1 tests, then run the representative
# harnesses at CI scale and require byte-identical output against the
# golden files — with the parallel engine on (UMI_JOBS=2), so any
# nondeterminism in the fan-out shows up as a diff. cache_sink doubles
# as a correctness gate: it asserts sink agreement before printing.
#
# umi_lint is both a harness and a gate: it exits non-zero on any
# Error-severity static diagnostic or when static-vs-dynamic delinquency
# agreement drops below its bar, which aborts this script before the
# golden comparison. table_absint likewise exits non-zero when exact
# simulation contradicts any must-analysis verdict, and table_staticplan
# when any composed miss-count interval is escaped (the soundness gates;
# all three share one static audit, umi_bench::staticplan_audit, and
# umi_lint runs it on the original and the prefetch-rewritten program).
#
# Every harness must also reject a bad UMI_JOBS or UMI_SCALE up front
# (exit 2, one line on stderr, nothing on stdout).
#
# Run from the repository root: scripts/smoke.sh
set -eu

cargo build --release --workspace
cargo test -q

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

harnesses="table6 table4 fig3 table_static umi_lint table_absint table_staticplan cache_sink table_profile vm_dispatch"

# Bad knobs fail fast: a zero UMI_JOBS or an unknown UMI_SCALE must
# stop every harness before any work, with exit status 2, nothing on
# stdout and exactly one line on stderr.
for bin in $harnesses; do
    for knob in UMI_JOBS=0 UMI_SCALE=bogus; do
        status=0
        env UMI_SCALE=test UMI_JOBS=2 "$knob" ./target/release/$bin \
            > "$tmp/knob.out" 2> "$tmp/knob.err" || status=$?
        lines=$(wc -l < "$tmp/knob.err" | tr -d ' ')
        if [ "$status" -ne 2 ] || [ -s "$tmp/knob.out" ] || [ "$lines" -ne 1 ]; then
            echo "smoke: $bin with $knob: want exit 2, empty stdout, one stderr line;" \
                "got exit $status, $(wc -c < "$tmp/knob.out" | tr -d ' ') stdout bytes," \
                "$lines stderr lines" >&2
            exit 1
        fi
    done
done
echo "smoke: every harness rejects UMI_JOBS=0 and UMI_SCALE=bogus with one line"

for bin in $harnesses; do
    UMI_SCALE=test UMI_JOBS=2 ./target/release/$bin > "$tmp/$bin.txt"
    if ! diff -u "results/golden/$bin.txt" "$tmp/$bin.txt"; then
        echo "smoke: $bin output differs from results/golden/$bin.txt" >&2
        exit 1
    fi
    echo "smoke: $bin matches golden output"
done

# Golden coverage: every file under results/golden/ must have been
# diffed above. A golden nobody compares against is a gate that silently
# stopped gating (the harness-list drift PR 9 had to repair by hand).
for golden in results/golden/*.txt; do
    bin=$(basename "$golden" .txt)
    case " $harnesses " in
        *" $bin "*) ;;
        *)
            echo "smoke: $golden was never diffed (add $bin to the harness list)" >&2
            exit 1
            ;;
    esac
done
echo "smoke: all $(ls results/golden/*.txt | wc -l | tr -d ' ') goldens were diffed"

echo "smoke: OK"
