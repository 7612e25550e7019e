//! Reproduce paper **Table II** — "Memory usage for optimizations":
//! virtual memory for NORM / CHARDISC / CENTDISC on the 155 Mbp human X
//! chromosome and the 3.1 Gbp human genome.
//!
//! Two views are printed: *measured* heap bytes of the real data
//! structures on the simulated workload (accumulator + packed genome +
//! k-mer index), and the analytic per-base model *projected* to the
//! paper's genome sizes. The paper's shape: NORM ≫ CHARDISC > CENTDISC at
//! human-genome scale (100g / 58g / 40g).

use bench::{render_table, WorkloadSpec};
use genome::index::{IndexConfig, KmerIndex};
use genome::packed::PackedSeq;
use gnumap_core::accum::{AccumulatorMode, GenomeAccumulator};
use gnumap_core::footprint::{human_bytes, FootprintModel, CHR_X_BASES, HUMAN_GENOME_BASES};

fn measured_bytes(mode: AccumulatorMode, genome_len: usize, shared: usize) -> usize {
    gnumap_core::with_accumulator!(mode, |A| A::new(genome_len).heap_bytes()) + shared
}

fn main() {
    let spec = WorkloadSpec::from_env(200_000, 10);
    eprintln!(
        "[table2] measuring on a {} bp simulated genome",
        spec.genome_len
    );
    let w = spec.build();

    // Shared (mode-independent) structures: packed genome + k-mer index.
    let packed = PackedSeq::from_dna(&w.reference);
    let index = KmerIndex::build(&w.reference, IndexConfig::default()).expect("index");
    let shared = packed.heap_bytes() + index.heap_bytes();

    let modes = [
        AccumulatorMode::Norm,
        AccumulatorMode::CharDisc,
        AccumulatorMode::CentDisc,
    ];
    let rows: Vec<Vec<String>> = modes
        .iter()
        .map(|&mode| {
            let model = FootprintModel::for_mode(mode);
            vec![
                mode.name().to_string(),
                human_bytes(measured_bytes(mode, w.reference.len(), shared) as u64),
                human_bytes(model.project(CHR_X_BASES)),
                human_bytes(model.project(HUMAN_GENOME_BASES)),
            ]
        })
        .collect();

    println!("Table II — memory usage per accumulator layout");
    println!(
        "{}",
        render_table(
            &[
                "optimization",
                &format!("measured ({} bp)", w.reference.len()),
                "model: chrX (155Mbp)",
                "model: human (3.1Gbp)",
            ],
            &rows,
        )
    );
    println!(
        "paper shape: NORM needs the most memory at every scale, the\n\
         discretized layouts cut it roughly in half or better (paper human\n\
         genome: 100g / 58g / 40g). The paper's chrX anomaly (CHARDISC <\n\
         CENTDISC at small scale) stemmed from allocator overheads our\n\
         model does not reproduce — see EXPERIMENTS.md."
    );
}
