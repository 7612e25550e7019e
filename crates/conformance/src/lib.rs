//! Driver-matrix conformance harness for the GNUMAP-SNP workspace.
//!
//! The paper's claim is that every parallel decomposition computes *the
//! same* posterior accumulator and LRT calls as the serial Pair-HMM
//! pipeline. This crate is the executable form of that claim, organised
//! into four tiers (each a module, each runnable on its own):
//!
//! * [`oracle`] — independent reference implementations (an O(nm)
//!   log-space Pair-HMM forward/backward, a direct numerical-maximisation
//!   LRT, a quadrature χ² CDF) checked against the production kernels on
//!   randomized inputs within tight tolerances;
//! * [`matrix`] — a differential runner that executes the serial,
//!   read-split MPI, genome-split MPI, streaming and server drivers over seeded
//!   randomized workloads and asserts **bit-identical** `FixedAccumulator`
//!   digests, SNP-call wires and mapped counts across the whole matrix;
//! * [`faults`] — deterministic fault injection (failing/stuttering read
//!   streams, checkpoint truncation/bit-flips, corrupt mpisim call wires,
//!   kill-at-window-k/resume sweeps) asserting every fault surfaces as a
//!   typed `Err` — never a panic, never silently wrong calls;
//! * [`truth`] — an end-to-end gate on `simulate`'s planted SNPs with
//!   sensitivity/precision thresholds.
//!
//! [`run_verify`] runs all four with per-tier timing; the `gnumap verify
//! [--fast]` CLI subcommand and `scripts/ci.sh` are thin wrappers over it.

pub mod faults;
pub mod matrix;
pub mod oracle;
pub mod truth;
pub mod workload;

use std::io::{self, Write};
use std::time::Instant;

/// What one tier observed: how many checks ran and which ones failed.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Individual assertions evaluated.
    pub checks: usize,
    /// Human-readable description of each failed assertion.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Record one assertion; `describe` is only rendered on failure.
    pub fn check(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failures.push(describe());
        }
    }

    /// Record an unconditional failure (for faults that should have
    /// produced an error but did not, etc.).
    pub fn fail(&mut self, message: String) {
        self.checks += 1;
        self.failures.push(message);
    }

    /// Fold another outcome into this one.
    pub fn merge(&mut self, other: Outcome) {
        self.checks += other.checks;
        self.failures.extend(other.failures);
    }
}

/// One tier's result with its wall-clock cost.
#[derive(Debug)]
pub struct TierReport {
    /// Tier name as printed (`oracle`, `matrix`, `faults`, `truth`).
    pub name: &'static str,
    /// Assertions evaluated.
    pub checks: usize,
    /// Failed assertions.
    pub failures: Vec<String>,
    /// Wall-clock seconds the tier took.
    pub secs: f64,
}

/// Aggregate over all tiers.
#[derive(Debug)]
pub struct VerifyReport {
    /// Per-tier results in execution order.
    pub tiers: Vec<TierReport>,
}

impl VerifyReport {
    /// True when no tier recorded a failure.
    pub fn passed(&self) -> bool {
        self.tiers.iter().all(|t| t.failures.is_empty())
    }

    /// Total failed assertions across tiers.
    pub fn failure_count(&self) -> usize {
        self.tiers.iter().map(|t| t.failures.len()).sum()
    }
}

/// Run every tier, streaming per-tier timing and failures to `out`.
///
/// `fast` trims the randomized sweeps (fewer seeds, fewer matrix
/// workloads, a sparser kill-point sweep) for use as a CI gate; the full
/// run is the release-grade verification.
pub fn run_verify(fast: bool, out: &mut dyn Write) -> io::Result<VerifyReport> {
    let mode = if fast { "fast" } else { "full" };
    writeln!(out, "verify ({mode}): oracle, matrix, faults, truth")?;

    type TierRunner = fn(bool) -> Outcome;
    let mut tiers = Vec::new();
    let runners: [(&'static str, TierRunner); 4] = [
        ("oracle", oracle::run),
        ("matrix", matrix::run),
        ("faults", faults::run),
        ("truth", truth::run),
    ];
    for (name, tier) in runners {
        let start = Instant::now();
        let outcome = tier(fast);
        let secs = start.elapsed().as_secs_f64();
        let status = if outcome.failures.is_empty() {
            "ok"
        } else {
            "FAILED"
        };
        writeln!(
            out,
            "tier {name:<8} {status:<6} {:>4} checks, {} failure(s)  [{secs:7.2}s]",
            outcome.checks,
            outcome.failures.len(),
        )?;
        for failure in &outcome.failures {
            writeln!(out, "    FAIL: {failure}")?;
        }
        tiers.push(TierReport {
            name,
            checks: outcome.checks,
            failures: outcome.failures,
            secs,
        });
    }

    let report = VerifyReport { tiers };
    if report.passed() {
        writeln!(out, "verify passed")?;
    } else {
        writeln!(out, "verify FAILED: {} failure(s)", report.failure_count())?;
    }
    Ok(report)
}
