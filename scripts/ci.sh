#!/usr/bin/env bash
# Full local CI gate: formatting, lints-as-errors, then the tier-1
# build + test pass and the remaining workspace tests.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo clippy (pairhmm hot-loop lints)"
# The kernel crate additionally forbids indexed hot loops (they defeat
# autovectorization) and large stack arrays.
cargo clippy -p pairhmm --all-targets -- \
    -D clippy::needless_range_loop -D clippy::large_stack_arrays

echo "==> cargo clippy + fmt (engine contract crate)"
# The contract crate is the one surface every caller depends on; hold it
# to warnings-as-errors on its own (fast signal even when the workspace
# pass is skipped) and keep it formatted.
cargo fmt -p engine -- --check
cargo clippy -p engine --all-targets -- -D warnings

echo "==> rustdoc (warnings are errors, shims excluded)"
# A doc link to a deleted or private item fails here instead of going
# stale. The offline dependency stand-ins under shims/ are not held to it.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps \
    --exclude criterion --exclude crossbeam \
    --exclude proptest --exclude rand --exclude rand_chacha

echo "==> tier-1: build + test"
cargo build --release
cargo test -q

echo "==> workspace tests"
cargo test -q --workspace

echo "==> conformance gate: gnumap verify --fast"
target/release/gnumap verify --fast

echo "==> trace smoke: --trace-json through the registry drivers"
trace_dir="target/trace-smoke"
rm -rf "$trace_dir"
mkdir -p "$trace_dir"
target/release/gnumap simulate --out-dir "$trace_dir" \
    --genome-len 8000 --snps 6 --coverage 6 --seed 1109 >/dev/null
target/release/gnumap drivers | grep -q '`serial`' || {
    echo "gnumap drivers does not list the serial driver"; exit 1;
}
for driver in serial read-split genome-split stream server; do
    target/release/gnumap call --reference "$trace_dir/reference.fa" \
        --reads "$trace_dir/reads.fq" --out "$trace_dir/$driver.vcf" \
        --driver "$driver" --trace-json "$trace_dir/$driver.trace.jsonl" \
        >/dev/null
    target/release/gnumap trace-check --trace "$trace_dir/$driver.trace.jsonl" \
        >/dev/null || {
        echo "trace-check rejected the $driver trace:"
        cat "$trace_dir/$driver.trace.jsonl"
        exit 1
    }
done

echo "==> index smoke: index-stats on the direct and bucket-search paths"
# 300 kbp gives a 4^10 prefix directory: k = 10 addresses it by the whole
# k-mer, k = 16 binary-searches within a bucket.
index_dir="target/index-smoke"
rm -rf "$index_dir"
mkdir -p "$index_dir"
target/release/gnumap simulate --out-dir "$index_dir" \
    --genome-len 300000 --snps 1 --coverage 0.1 --seed 10 >/dev/null
for k in 10 16; do
    stats="$(target/release/gnumap index-stats \
        --reference "$index_dir/reference.fa" --k "$k")"
    distinct="$(sed -n 's/^ *distinct k-mers *: *//p' <<<"$stats")"
    stored="$(sed -n 's/^ *stored positions *: *//p' <<<"$stats")"
    [[ -n "$distinct" && -n "$stored" && "$stored" -ge "$distinct" ]] || {
        echo "index-stats at k = $k is inconsistent:"; echo "$stats"; exit 1;
    }
done

echo "==> abandon smoke: the serial driver stops hopeless candidates early"
# On the 300 kbp reference most candidates' likelihood bounds fall below
# 2^-64 of their read's best total; a change that silently disables the
# early stop leaves the summed `abandoned` of the batch events at 0.
target/release/gnumap call --reference "$index_dir/reference.fa" \
    --reads "$index_dir/reads.fq" --out "$index_dir/serial.vcf" \
    --driver serial --trace-json "$index_dir/serial.trace.jsonl" >/dev/null
target/release/gnumap trace-check --trace "$index_dir/serial.trace.jsonl" >/dev/null
abandoned="$(sed -n 's/.*"event":"batch".*"abandoned":\([0-9]*\).*/\1/p' \
    "$index_dir/serial.trace.jsonl" | awk '{ s += $1 } END { print s + 0 }')"
[[ "$abandoned" -gt 0 ]] || {
    echo "the serial driver abandoned no candidates on the 300 kbp smoke"; exit 1;
}

echo "==> lane posterior smoke: multi-mapping and unique reads run four-lane posterior chunks"
# Seven more copies of the first 1.2 kbp of a simulated genome make the
# reads drawn from it multi-map, so their survivors run in four-lane
# posterior chunks; a change that stops doing so leaves the summed
# `posterior_lanes` of the batch events at 0. With the order-independent
# fixed-point accumulator the serial and stream drivers must write
# identical calls.
lanes_dir="target/lanes-smoke"
rm -rf "$lanes_dir"
mkdir -p "$lanes_dir"
target/release/gnumap simulate --out-dir "$lanes_dir" \
    --genome-len 6000 --snps 4 --coverage 6 --seed 1313 >/dev/null
genome="$(tail -n +2 "$lanes_dir/reference.fa" | tr -d '\n')"
unit="${genome:0:1200}"
{
    echo ">repeats"
    printf '%s' "$genome" "$unit" "$unit" "$unit" "$unit" "$unit" "$unit" "$unit" | fold -w 60
    echo
} > "$lanes_dir/repeats.fa"
for driver in serial stream; do
    target/release/gnumap call --reference "$lanes_dir/repeats.fa" \
        --reads "$lanes_dir/reads.fq" --out "$lanes_dir/$driver.vcf" \
        --accumulator fixed --driver "$driver" \
        --trace-json "$lanes_dir/$driver.trace.jsonl" >/dev/null
    target/release/gnumap trace-check --trace "$lanes_dir/$driver.trace.jsonl" >/dev/null
    lanes="$(sed -n 's/.*"event":"batch".*"posterior_lanes":\([0-9]*\).*/\1/p' \
        "$lanes_dir/$driver.trace.jsonl" | awk '{ s += $1 } END { print s + 0 }')"
    [[ "$lanes" -gt 0 ]] || {
        echo "the $driver driver ran no four-lane posterior chunks on the repeat smoke"; exit 1;
    }
done
cmp -s "$lanes_dir/serial.vcf" "$lanes_dir/stream.vcf" || {
    echo "serial and stream calls differ on the repeat smoke"; exit 1;
}
# The simulated reference itself has no repeats, so its reads have about
# one survivor each: only packing lone survivors of different reads into
# shared lanes (the batch-wide posterior) fills four-lane chunks there.
# Genome-split's three ranks each pack the survivors they own across a
# 16-read allreduce batch, so at most one survivor per rank and batch may
# run on its own: lanes + 3 × ⌈reads / 16⌉ must reach the survivors.
batch_sum() {
    sed -n "s/.*\"event\":\"batch\".*\"$1\":\([0-9]*\).*/\1/p" "$2" |
        awk '{ s += $1 } END { print s + 0 }'
}
for driver in serial stream genome-split; do
    threads=1
    [[ "$driver" == genome-split ]] && threads=3
    trace="$lanes_dir/unique-$driver.trace.jsonl"
    target/release/gnumap call --reference "$lanes_dir/reference.fa" \
        --reads "$lanes_dir/reads.fq" --out "$lanes_dir/unique-$driver.vcf" \
        --accumulator fixed --driver "$driver" --threads "$threads" \
        --trace-json "$trace" >/dev/null
    target/release/gnumap trace-check --trace "$trace" >/dev/null
    lanes="$(batch_sum posterior_lanes "$trace")"
    [[ "$lanes" -gt 0 ]] || {
        echo "the $driver driver packed no lone survivors into lanes on the unique smoke"; exit 1;
    }
    if [[ "$driver" == genome-split ]]; then
        survivors="$(batch_sum survivors "$trace")"
        reads="$(batch_sum reads "$trace")"
        (( lanes + threads * ((reads + 15) / 16) >= survivors )) || {
            echo "genome-split ran $survivors survivors of $reads reads in only $lanes lanes"
            exit 1
        }
    fi
    cmp -s "$lanes_dir/unique-serial.vcf" "$lanes_dir/unique-$driver.vcf" || {
        echo "serial and $driver calls differ on the unique smoke"; exit 1;
    }
done

echo "==> serve smoke: loopback server round trip + clean drain"
smoke_dir="target/serve-smoke"
rm -rf "$smoke_dir"
mkdir -p "$smoke_dir"
target/release/gnumap simulate --out-dir "$smoke_dir" \
    --genome-len 6000 --snps 5 --coverage 8 --seed 404 >/dev/null
serve_log="$smoke_dir/serve.log"
target/release/gnumap serve --reference "$smoke_dir/reference.fa" \
    --addr 127.0.0.1:0 --workers 2 --port-file "$smoke_dir/port" \
    > "$serve_log" 2>&1 &
serve_pid=$!
for _ in $(seq 1 100); do
    [[ -s "$smoke_dir/port" ]] && break
    kill -0 "$serve_pid" 2>/dev/null || { cat "$serve_log"; exit 1; }
    sleep 0.1
done
addr="$(cat "$smoke_dir/port")"
target/release/gnumap client --addr "$addr" --ping >/dev/null
target/release/gnumap client --addr "$addr" --reads "$smoke_dir/reads.fq" \
    --out "$smoke_dir/served.vcf" >/dev/null
target/release/gnumap client --addr "$addr" --stats >/dev/null
target/release/gnumap client --addr "$addr" --shutdown >/dev/null
wait "$serve_pid"
grep -q "drained:" "$serve_log" || {
    echo "server did not report a clean drain:"; cat "$serve_log"; exit 1;
}
grep -qv "^#" "$smoke_dir/served.vcf" || {
    echo "served VCF has no call records"; exit 1;
}

echo "==> serve memory smoke: one shared index, session and serial evidence sized by their reads, stream and serial calls equal served calls"
# The server's workers share one MappingEngine, so the ~8 MB k-mer index
# of a 1 Mbp reference is resident once however many workers run: four
# workers may cost at most half an index (4 MiB) more than one. A
# session's evidence is paged, so a panel session (reads tiling the first
# 64 kbp, 64 pages of 1,024 positions) must peak under 4 MiB of evidence
# where a dense session would hold 40 MB, and must free it at finalize.
# Both servers must also write the same calls for the same reads.
mem_dir="target/serve-mem-smoke"
rm -rf "$mem_dir"
mkdir -p "$mem_dir"
target/release/gnumap simulate --out-dir "$mem_dir" \
    --genome-len 1000000 --snps 20 --coverage 2 --seed 808 >/dev/null
awk 'NR > 1 { printf "%s", $0 }' "$mem_dir/reference.fa" |
    awk -v q="$(printf 'I%.0s' $(seq 62))" '{
        for (i = 1; i + 61 <= 65536; i += 16)
            printf "@panel_%d\n%s\n+\n%s\n", i - 1, substr($0, i, 62), q
    }' > "$mem_dir/panel.fq"
declare -A rss_kib
for workers in 1 4; do
    target/release/gnumap serve --reference "$mem_dir/reference.fa" \
        --addr 127.0.0.1:0 --workers "$workers" --port-file "$mem_dir/port$workers" \
        > "$mem_dir/serve$workers.log" 2>&1 &
    mem_pid=$!
    for _ in $(seq 1 300); do
        [[ -s "$mem_dir/port$workers" ]] && break
        kill -0 "$mem_pid" 2>/dev/null || { cat "$mem_dir/serve$workers.log"; exit 1; }
        sleep 0.1
    done
    addr="$(cat "$mem_dir/port$workers")"
    target/release/gnumap client --addr "$addr" --ping >/dev/null
    rss_kib[$workers]="$(awk '/^VmRSS:/ { print $2 }' "/proc/$mem_pid/status")"
    target/release/gnumap client --addr "$addr" --reads "$mem_dir/panel.fq" \
        --out "$mem_dir/panel$workers.vcf" >/dev/null
    target/release/gnumap client --addr "$addr" --stats > "$mem_dir/stats$workers.txt"
    live="$(awk '/^evidence/ { print $2 }' "$mem_dir/stats$workers.txt")"
    peak="$(awk '/^evidence/ { print $5 }' "$mem_dir/stats$workers.txt")"
    echo "panel session evidence with $workers worker(s): peak $peak B, $live B live after finalize"
    [[ -n "$peak" ]] && (( peak < 4194304 && live == 0 )) || {
        echo "panel session evidence must peak under 4 MiB and be freed"
        cat "$mem_dir/stats$workers.txt"; exit 1;
    }
    target/release/gnumap client --addr "$addr" --reads "$mem_dir/reads.fq" \
        --out "$mem_dir/served$workers.vcf" >/dev/null
    target/release/gnumap client --addr "$addr" --shutdown >/dev/null
    wait "$mem_pid"
done
echo "VmRSS after the first ping: ${rss_kib[1]} KiB with 1 worker, ${rss_kib[4]} KiB with 4"
(( rss_kib[4] - rss_kib[1] < 4096 )) || {
    echo "4 workers hold $(( rss_kib[4] - rss_kib[1] )) KiB more than 1 (limit 4096)"; exit 1;
}
for run in served panel; do
    cmp -s "$mem_dir/${run}1.vcf" "$mem_dir/${run}4.vcf" || {
        echo "1- and 4-worker servers wrote different $run calls"; exit 1;
    }
done
# The stream driver deposits into the same paged evidence store as a
# session, so `gnumap call` with the calling options the clients used
# (the defaults) must write the served calls byte for byte.
for run in panel:panel reads:served; do
    reads="${run%%:*}" served="${run##*:}"
    target/release/gnumap call --reference "$mem_dir/reference.fa" \
        --reads "$mem_dir/$reads.fq" --out "$mem_dir/stream-$reads.vcf" \
        --driver stream --threads 2 --accumulator fixed >/dev/null
    cmp -s "$mem_dir/stream-$reads.vcf" "$mem_dir/${served}1.vcf" || {
        echo "the stream driver and the server wrote different calls for $reads.fq"; exit 1;
    }
done

# The serial driver holds its evidence in the same paged store, in any
# layout: on the panel its trace must report under 4 MiB of accumulator
# (a dense fixed-point accumulator over 1 Mbp is 40 MB), and its calls
# must be the served panel calls byte for byte.
target/release/gnumap call --reference "$mem_dir/reference.fa" \
    --reads "$mem_dir/panel.fq" --out "$mem_dir/serial-panel.vcf" \
    --driver serial --accumulator fixed \
    --trace-json "$mem_dir/serial-panel.trace.jsonl" >/dev/null
target/release/gnumap trace-check --trace "$mem_dir/serial-panel.trace.jsonl" >/dev/null
acc_bytes="$(sed -n 's/.*"event":"run_end".*"accumulator_bytes":\([0-9]*\).*/\1/p' \
    "$mem_dir/serial-panel.trace.jsonl")"
echo "serial panel evidence: $acc_bytes B"
[[ -n "$acc_bytes" ]] && (( acc_bytes < 4194304 )) || {
    echo "the serial driver's panel evidence must be under 4 MiB"; exit 1;
}
cmp -s "$mem_dir/serial-panel.vcf" "$mem_dir/panel1.vcf" || {
    echo "the serial driver and the server wrote different calls for panel.fq"; exit 1;
}

echo "==> benchmark harness smoke: scripts/bench.sh --quick"
scripts/bench.sh --quick

echo "CI gate passed."
