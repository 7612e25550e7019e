//! Golden snapshot tests.
//!
//! Each test renders an artifact to canonical text (timing and filesystem
//! paths normalised away) and compares it byte-for-byte against a file
//! under `tests/golden/`. To regenerate after an intentional behaviour
//! change, bless the snapshots:
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test --test golden
//! ```
//!
//! and review the diff like any other code change.

use gnumap_snp::cli::run_to_string;
use gnumap_snp::conformance::workload::{build, WorkloadSpec};
use gnumap_snp::core::accum::FixedAccumulator;
use gnumap_snp::core::observe::Observer;
use gnumap_snp::core::pipeline::run_serial;
use gnumap_snp::core::report::RunReport;
use std::fmt::Write as _;
use std::path::Path;

fn assert_golden(name: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing golden file {}; run with GOLDEN_BLESS=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "snapshot {name} differs from tests/golden/{name}; \
         if the change is intentional, rerun with GOLDEN_BLESS=1 and review the diff"
    );
}

/// Canonical text form of a [`RunReport`]: everything deterministic, with
/// floats in shortest-round-trip form; wall-clock fields are omitted.
fn render_report(report: &RunReport) -> String {
    let mut s = String::new();
    writeln!(s, "reads_processed: {}", report.reads_processed).unwrap();
    writeln!(s, "reads_mapped: {}", report.reads_mapped).unwrap();
    writeln!(s, "accumulator_bytes: {}", report.accumulator_bytes).unwrap();
    match report.accumulator_digest {
        Some(d) => writeln!(s, "accumulator_digest: {d:#018x}").unwrap(),
        None => writeln!(s, "accumulator_digest: none").unwrap(),
    }
    writeln!(s, "calls: {}", report.calls.len()).unwrap();
    for c in &report.calls {
        writeln!(
            s,
            "  pos={} ref={} allele={} second={} statistic={:?} p_adjusted={:?} counts={:?}",
            c.pos,
            c.reference.to_char(),
            c.allele.to_char(),
            c.second_allele.map_or('-', |b| b.to_char()),
            c.statistic,
            c.p_adjusted,
            c.counts,
        )
        .unwrap();
    }
    s
}

#[test]
fn run_report_snapshot() {
    let wl = build(&WorkloadSpec {
        seed: 0x90_1d,
        genome_len: 2_000,
        snp_count: 4,
        coverage: 8.0,
        read_length: 62,
        repeat_families: 0,
    });
    let report =
        run_serial::<FixedAccumulator>(&wl.reference, &wl.reads, &wl.config, &Observer::disabled());
    assert_golden("run_report.txt", &render_report(&report));
}

/// The `call` summary line, with the elapsed-seconds token and the
/// temp-directory path normalised.
#[test]
fn cli_summary_snapshot() {
    let dir = std::env::temp_dir().join(format!("gnumap-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let dirs = dir.to_str().unwrap();

    run_to_string(&[
        "simulate",
        "--out-dir",
        dirs,
        "--genome-len",
        "2000",
        "--snps",
        "4",
        "--coverage",
        "8",
        "--seed",
        "17",
    ])
    .unwrap();
    let summary = run_to_string(&[
        "call",
        "--reference",
        &format!("{dirs}/reference.fa"),
        "--reads",
        &format!("{dirs}/reads.fq"),
        "--out",
        &format!("{dirs}/calls.vcf"),
    ])
    .unwrap();

    // "mapped A/B reads in 1.23s; wrote N calls to <path>" — keep the
    // deterministic fields, normalise timing and the path.
    let normalized = {
        let s = summary.replace(dirs, "<DIR>");
        let mut out = String::new();
        for token in s.split_whitespace() {
            if !out.is_empty() {
                out.push(' ');
            }
            if token.ends_with("s;") && token.trim_end_matches("s;").parse::<f64>().is_ok() {
                out.push_str("<TIME>;");
            } else {
                out.push_str(token);
            }
        }
        out.push('\n');
        out
    };
    assert_golden("cli_summary.txt", &normalized);
    std::fs::remove_dir_all(&dir).ok();
}
