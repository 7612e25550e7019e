//! Pair-HMM kernel and pipeline throughput tracker.
//!
//! Measures the layers of the alignment hot path — emission-table build,
//! forward, forward+backward+marginal, and the end-to-end single-thread
//! mapping pipeline — and appends the numbers, keyed by git revision, to
//! the `history` array of `BENCH_phmm.json`, so the perf trajectory is
//! recorded in-repo across kernel changes.
//!
//! The `*_band4_*` entries time the kernels in the shape production runs
//! them (`MappingConfig::default()`: 62-bp read, 62-column window, band
//! half-width 4): the emission-profile build done once per read
//! orientation, the lockstep `forward_totals` every candidate gets (four
//! candidates per call, reported per candidate, with an early-stop rule
//! armed that never fires, so the figure includes the cost of its bound
//! checks), and the fused posterior only surviving candidates get: the
//! single-lane `posterior_columns_profiled` a lone survivor runs
//! (`posterior_columns_*`), and `posterior_columns_lanes` for four
//! survivors at once, reported per survivor with every lane's columns read
//! back (`posterior_lanes_*`).
//!
//! The seed-index layer is timed on a 1 Mbp reference with the production
//! index (`MappingConfig::default()`, k = 10): `index_build_1mbp_s` is
//! seconds per `KmerIndex::build`, and `seed_hits_62bp_ns_per_read` is
//! nanoseconds to walk every seed hit of a 62-bp read and of its reverse
//! complement, as candidate generation does. On the same reference and
//! reads, `map_read_1mbp_ns_per_read` is nanoseconds per read of the
//! production `MappingEngine::map_read_with`, and `abandoned_frac_1mbp` the
//! fraction of its scored candidates whose forward stopped early.
//! `map_read_repeats_ns_per_read` times the same call on a repeat-dense
//! 200 kbp reference (60 families × 20 copies × 300 bp, 1% divergence),
//! where reads multi-map (`repeats_survivors_per_read`, about 8), so the
//! posterior phase dominates.
//!
//! Usage: `bench_phmm [--quick] [--out PATH]`
//!
//! `--quick` shrinks the workload and measurement windows to a smoke test
//! (used by CI to assert the harness compiles and reports non-zero
//! throughput); the default settings give stable numbers for comparison.

use bench::WorkloadSpec;
use genome::alphabet::Base;
use genome::index::KmerIndex;
use genome::read::SequencedRead;
use genome::seq::DnaSeq;
use gnumap_core::accum::NormAccumulator;
use gnumap_core::evidence::PagedEvidence;
use gnumap_core::mapping::AlignScratch;
use gnumap_core::observe::Observer;
use gnumap_core::pipeline::accumulate_reads;
use gnumap_core::GnumapConfig;
use gnumap_core::MappingEngine;
use pairhmm::bound::{fill_suffix_bounds, StopRule};
use pairhmm::forward::forward;
use pairhmm::kernel::LANES;
use pairhmm::marginal::PosteriorAlignment;
use pairhmm::params::PhmmParams;
use pairhmm::pwm::{base_code, ProfileRow, Pwm};
use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;
use simulate::reads::{simulate_reads, ReadSimConfig, ReadSource};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// One measured quantity: name, value in the unit its name ends with
/// (`_per_sec`, `_s`, `_ns_per_read`, `_frac`, or `_per_read` for a count
/// per read), and iterations timed.
struct Measurement {
    name: &'static str,
    value: f64,
    iters: u64,
}

/// Run `f` repeatedly for at least `window` seconds (after one warmup
/// call) and return items/second, where each call to `f` processes
/// `items_per_iter` items.
fn measure<F: FnMut()>(window: f64, items_per_iter: u64, mut f: F) -> (f64, u64) {
    f(); // warmup: touch caches, grow scratch buffers
    let mut iters = 0u64;
    let start = Instant::now();
    loop {
        f();
        iters += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= window && iters >= 3 {
            return ((iters * items_per_iter) as f64 / elapsed, iters);
        }
    }
}

/// One lane's inputs of the lockstep kernels: a read's PWM, its emission
/// profile and suffix bounds, and a window of genome codes.
struct LaneFixture {
    pwm: Pwm,
    profile: Vec<ProfileRow>,
    suffix: Vec<f64>,
    codes: Vec<u8>,
}

/// A deterministic 62-bp read/window pair in the mapping sweet spot.
fn kernel_fixture(len: usize, seed: u64) -> (SequencedRead, Vec<Option<Base>>, PhmmParams) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let params = PhmmParams::default();
    let bases: Vec<Base> = (0..len)
        .map(|_| Base::from_index(rng.random_range(0..4)))
        .collect();
    let genome_seq = DnaSeq::from_bases(bases.iter().copied());
    let read_seq: DnaSeq = bases
        .iter()
        .map(|&b| {
            if rng.random_bool(0.01) {
                Some(b.transition())
            } else {
                Some(b)
            }
        })
        .collect();
    let quals: Vec<u8> = (0..len).map(|i| 40 - (i * 20 / len.max(1)) as u8).collect();
    let read = SequencedRead::new("bench", read_seq, quals).unwrap();
    let window: Vec<Option<Base>> = genome_seq.iter().collect();
    (read, window, params)
}

/// The checked-out git revision (`-dirty` with uncommitted changes), or
/// `none` outside a git checkout.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|rev| rev.trim().to_string())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "none".to_string())
}

/// The entries of a report this binary wrote: one JSON object per line
/// inside its `history` array. `None` if `text` is not such a report.
fn history_entries(text: &str) -> Option<Vec<String>> {
    let mut lines = text.lines().map(str::trim);
    if lines.next()? != "{" || lines.next()? != "\"history\": [" {
        return None;
    }
    let entries: Vec<String> = lines
        .take_while(|line| *line != "]")
        .map(|line| line.trim_end_matches(',').to_string())
        .collect();
    entries
        .iter()
        .all(|e| e.starts_with('{') && e.ends_with('}'))
        .then_some(entries)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_phmm.json".to_string());

    let window = if quick { 0.05 } else { 1.0 };
    let mut results: Vec<Measurement> = Vec::new();

    // --- Kernel-level layers on a 62-bp pair (paper read length). ---
    let (read, win, params) = kernel_fixture(62, 1);
    let pwm = Pwm::from_read(&read);

    let (per_sec, iters) = measure(window, 1, || {
        black_box(pwm.emission_table(black_box(&win), &params));
    });
    results.push(Measurement {
        name: "emission_build_62bp_per_sec",
        value: per_sec,
        iters,
    });

    let emit = pwm.emission_table(&win, &params);
    let (per_sec, iters) = measure(window, 1, || {
        black_box(forward(black_box(emit.view()), &params).total);
    });
    results.push(Measurement {
        name: "forward_62bp_per_sec",
        value: per_sec,
        iters,
    });

    let (per_sec, iters) = measure(window, 1, || {
        let post = PosteriorAlignment::compute(black_box(&pwm), black_box(&win), &params);
        black_box(post.column_posteriors(&pwm));
    });
    results.push(Measurement {
        name: "fwd_bwd_marginal_62bp_per_sec",
        value: per_sec,
        iters,
    });

    // Fused zero-allocation path: emission + forward + streaming
    // backward/marginal inside one reused scratch arena.
    let mut phmm_scratch = pairhmm::PhmmScratch::new();
    let (per_sec, iters) = measure(window, 1, || {
        black_box(phmm_scratch.posterior_columns(black_box(&pwm), black_box(&win), &params, None));
    });
    results.push(Measurement {
        name: "fused_scratch_62bp_per_sec",
        value: per_sec,
        iters,
    });

    // --- Production shape: 62x62, band 4, profile + genome codes. ---
    let band = Some(4);
    let mut profile = Vec::new();
    let (per_sec, iters) = measure(window, 1, || {
        pwm.fill_profile(&params, black_box(&mut profile));
    });
    results.push(Measurement {
        name: "profile_build_62bp_per_sec",
        value: per_sec,
        iters,
    });
    pwm.fill_profile(&params, &mut profile);
    let codes: Vec<u8> = win.iter().map(|&y| base_code(y)).collect();
    // One chunk of LANES candidates, each its own read against its own
    // window, scored in lockstep; counted per candidate.
    let lanes: Vec<LaneFixture> = (0..LANES as u64)
        .map(|l| {
            let (read, win, _) = kernel_fixture(62, 1 + l);
            let pwm = Pwm::from_read(&read);
            let (mut profile, mut suffix) = (Vec::new(), Vec::new());
            pwm.fill_profile(&params, &mut profile);
            fill_suffix_bounds(&profile, params.q, &mut suffix);
            let codes = win.iter().map(|&y| base_code(y)).collect();
            LaneFixture {
                pwm,
                profile,
                suffix,
                codes,
            }
        })
        .collect();
    let lane_profiles: [&[ProfileRow]; LANES] = std::array::from_fn(|l| &lanes[l].profile[..]);
    // Bounds are never negative, so this rule checks but never stops.
    let never = StopRule {
        suffix: std::array::from_fn(|l| &lanes[l].suffix[..]),
        below: 0.0,
    };
    let lane_codes: Vec<[u8; LANES]> = (0..codes.len())
        .map(|j| std::array::from_fn(|l| lanes[l].codes[j]))
        .collect();
    let (per_sec, iters) = measure(window, LANES as u64, || {
        black_box(phmm_scratch.forward_totals(
            black_box(lane_profiles),
            black_box(&lane_codes),
            &params,
            band,
            Some(never),
        ));
    });
    results.push(Measurement {
        name: "forward_totals_62bp_band4_per_sec",
        value: per_sec,
        iters,
    });
    let (per_sec, iters) = measure(window, 1, || {
        black_box(phmm_scratch.posterior_columns_profiled(
            black_box(&pwm),
            black_box(&profile),
            black_box(&codes),
            &params,
            band,
        ));
    });
    results.push(Measurement {
        name: "posterior_columns_62bp_band4_per_sec",
        value: per_sec,
        iters,
    });
    let lane_pwms: [&Pwm; LANES] = std::array::from_fn(|l| &lanes[l].pwm);
    let (per_sec, iters) = measure(window, LANES as u64, || {
        black_box(phmm_scratch.posterior_columns_lanes(
            black_box(lane_pwms),
            black_box(lane_profiles),
            black_box(&lane_codes),
            &params,
            band,
        ));
        for lane in 0..LANES {
            black_box(phmm_scratch.lane_columns(lane).last());
        }
    });
    results.push(Measurement {
        name: "posterior_lanes_62bp_band4_per_sec",
        value: per_sec,
        iters,
    });

    // --- End-to-end single-thread pipeline: index once, map the batch. ---
    let spec = WorkloadSpec {
        genome_len: if quick { 4_000 } else { 40_000 },
        snp_count: if quick { 4 } else { 20 },
        coverage: if quick { 4.0 } else { 10.0 },
        seed: 0xbe9c,
    };
    let wl = spec.build();
    let config = GnumapConfig::default();
    let engine = MappingEngine::new(&wl.reference, config.mapping);
    let n_reads = wl.reads.len() as u64;
    let (per_sec, iters) = measure(window.max(0.1), n_reads, || {
        let evidence = PagedEvidence::<NormAccumulator>::new(wl.reference.len(), Arc::default());
        black_box(accumulate_reads(
            &engine,
            &wl.reads,
            &evidence,
            &Observer::disabled(),
        ));
    });
    results.push(Measurement {
        name: "pipeline_e2e_reads_per_sec",
        value: per_sec,
        iters,
    });

    // --- Seed index on 1 Mbp: build, then every hit of both strands. ---
    let spec = WorkloadSpec {
        genome_len: 1_000_000,
        snp_count: 1,
        coverage: if quick { 0.02 } else { 0.1 },
        seed: 0x1d3,
    };
    let wl = spec.build();
    let index_config = GnumapConfig::default().mapping.index;
    let (per_sec, iters) = measure(window, 1, || {
        black_box(KmerIndex::build(black_box(&wl.reference), index_config).unwrap());
    });
    results.push(Measurement {
        name: "index_build_1mbp_s",
        value: 1.0 / per_sec,
        iters,
    });
    let index = KmerIndex::build(&wl.reference, index_config).unwrap();
    let queries: Vec<[DnaSeq; 2]> = wl
        .reads
        .iter()
        .map(|r| [r.seq.clone(), r.seq.reverse_complement()])
        .collect();
    let (per_sec, iters) = measure(window, queries.len() as u64, || {
        let mut sum = 0u64;
        for strands in &queries {
            for seq in strands {
                sum += index.seed_hits(seq).map(|(_, g)| u64::from(g)).sum::<u64>();
            }
        }
        black_box(sum);
    });
    results.push(Measurement {
        name: "seed_hits_62bp_ns_per_read",
        value: 1e9 / per_sec,
        iters,
    });

    // --- Production mapping of the same reads on the same reference. ---
    let engine = MappingEngine::new(&wl.reference, GnumapConfig::default().mapping);
    let mut scratch = AlignScratch::new();
    let (per_sec, iters) = measure(window, wl.reads.len() as u64, || {
        for read in &wl.reads {
            engine.map_read_with(black_box(read), &mut scratch);
        }
        black_box(scratch.len());
    });
    results.push(Measurement {
        name: "map_read_1mbp_ns_per_read",
        value: 1e9 / per_sec,
        iters,
    });
    let (mut scored, mut abandoned) = (0, 0);
    for read in &wl.reads {
        engine.map_read_with(read, &mut scratch);
        scored += scratch.scored();
        abandoned += scratch.abandoned();
    }
    results.push(Measurement {
        name: "abandoned_frac_1mbp",
        value: abandoned as f64 / scored as f64,
        iters: 1,
    });

    // --- Production mapping on a repeat-dense reference. ---
    let mut rng = ChaCha8Rng::seed_from_u64(0x2e9e);
    let reference = simulate::generate_genome(
        &simulate::GenomeConfig {
            length: if quick { 20_000 } else { 200_000 },
            repeat_families: if quick { 6 } else { 60 },
            repeat_length: 300,
            repeat_copies: 20,
            repeat_divergence: 0.01,
            ..simulate::GenomeConfig::default()
        },
        &mut rng,
    );
    let sim = ReadSimConfig {
        coverage: if quick { 0.2 } else { 0.5 },
        ..ReadSimConfig::default()
    };
    let reads: Vec<SequencedRead> = simulate_reads(
        &ReadSource::Monoploid(&reference),
        sim.read_count(reference.len()),
        &sim,
        &mut rng,
    )
    .into_iter()
    .map(|r| r.read)
    .collect();
    let engine = MappingEngine::new(&reference, GnumapConfig::default().mapping);
    let (per_sec, iters) = measure(window, reads.len() as u64, || {
        for read in &reads {
            engine.map_read_with(black_box(read), &mut scratch);
        }
        black_box(scratch.len());
    });
    results.push(Measurement {
        name: "map_read_repeats_ns_per_read",
        value: 1e9 / per_sec,
        iters,
    });
    let survivors: usize = reads
        .iter()
        .map(|read| {
            engine.map_read_with(read, &mut scratch);
            scratch.len()
        })
        .sum();
    results.push(Measurement {
        name: "repeats_survivors_per_read",
        value: survivors as f64 / reads.len() as f64,
        iters: 1,
    });

    // --- Report: append this run to the history in `out_path`. ---
    let mut entry = format!(
        "{{\"rev\": \"{}\", \"unix_time\": {}, \"quick\": {quick}, \"e2e_reads\": {n_reads}",
        git_rev(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs()),
    );
    for m in &results {
        let decimals = if m.value < 1.0 { 6 } else { 2 };
        entry.push_str(&format!(", \"{}\": {:.*}", m.name, decimals, m.value));
        eprintln!(
            "[bench_phmm] {:<34} {:>14.*}  ({} iters)",
            m.name, decimals, m.value, m.iters
        );
    }
    entry.push('}');
    let previous = match std::fs::read_to_string(&out_path) {
        Ok(text) => history_entries(&text).unwrap_or_else(|| {
            panic!("{out_path} holds no `history` array; refusing to overwrite it")
        }),
        Err(_) => Vec::new(),
    };
    let mut json = String::from("{\n  \"history\": [\n");
    for line in previous.iter().chain([&entry]) {
        json.push_str("    ");
        json.push_str(line);
        json.push_str(",\n");
    }
    json.truncate(json.len() - 2);
    json.push_str("\n  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write benchmark report");
    eprintln!(
        "[bench_phmm] appended run {} to {out_path}",
        previous.len() + 1
    );

    // CI smoke: every measurement must be a non-zero finite number.
    for m in &results {
        assert!(
            m.value.is_finite() && m.value > 0.0,
            "{} reported a non-positive value",
            m.name
        );
    }
}
