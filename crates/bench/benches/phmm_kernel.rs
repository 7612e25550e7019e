//! Criterion microbenches for the Pair-HMM kernels: the materialized
//! forward and backward, full vs banded planes through one `Band`
//! argument, and the fused zero-allocation scratch path — the ablations
//! for the banded-DP and scratch-arena design choices called out in
//! DESIGN.md.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use genome::alphabet::Base;
use genome::read::SequencedRead;
use genome::seq::DnaSeq;
use pairhmm::backward::backward;
use pairhmm::forward::forward;
use pairhmm::kernel::{backward_planes, diagonal_bounds, forward_planes, Band};
use pairhmm::marginal::PosteriorAlignment;
use pairhmm::params::PhmmParams;
use pairhmm::pwm::Pwm;
use pairhmm::{EmissionTable, PhmmScratch};
use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

struct Fixture {
    pwm: Pwm,
    window: Vec<Option<Base>>,
    emit: EmissionTable,
    params: PhmmParams,
}

fn random_pair(len: usize, seed: u64) -> Fixture {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let params = PhmmParams::default();
    let bases: Vec<Base> = (0..len)
        .map(|_| Base::from_index(rng.random_range(0..4)))
        .collect();
    let genome_seq = DnaSeq::from_bases(bases.iter().copied());
    // Read = the window with ~1% mutations, realistic qualities.
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
    let pwm = Pwm::from_read(&read);
    let emit = pwm.emission_table(&window, &params);
    Fixture {
        pwm,
        window,
        emit,
        params,
    }
}

fn bench_forward_by_length(c: &mut Criterion) {
    let mut group = c.benchmark_group("phmm_forward");
    for len in [36usize, 62, 100, 150] {
        let fx = random_pair(len, 1);
        group.bench_with_input(BenchmarkId::from_parameter(len), &len, |b, _| {
            b.iter(|| black_box(forward(black_box(fx.emit.view()), &fx.params).total))
        });
    }
    group.finish();
}

fn bench_forward_backward_pair(c: &mut Criterion) {
    let fx = random_pair(62, 2);
    c.bench_function("phmm_forward_backward_62bp", |b| {
        b.iter(|| {
            let f = forward(black_box(fx.emit.view()), &fx.params);
            let bwd = backward(black_box(fx.emit.view()), &fx.params);
            black_box(f.total + bwd.total)
        })
    });
}

fn bench_banded_vs_full(c: &mut Criterion) {
    let mut group = c.benchmark_group("phmm_banded_vs_full_62bp");
    let fx = random_pair(62, 3);
    let (n, m) = (fx.emit.n(), fx.emit.m());
    let plane = (n + 1) * (m + 1);
    let mut planes = [vec![0.0; plane], vec![0.0; plane], vec![0.0; plane]];
    let mut forward_band = |band: Band| {
        let [pm, px, py] = &mut planes;
        forward_planes(black_box(fx.emit.view()), &fx.params, pm, px, py, band)
    };
    group.bench_function("full", |b| b.iter(|| black_box(forward_band(None))));
    for w in [2usize, 4, 8, 16] {
        let band = Some(diagonal_bounds(n, m, w));
        group.bench_with_input(BenchmarkId::new("banded", w), &w, |b, _| {
            b.iter(|| black_box(forward_band(band)))
        });
    }
    // The backward planes must start zeroed; only the in-band cells are
    // written, so clearing once up front keeps every iteration exact.
    let mut back = [vec![0.0; plane], vec![0.0; plane], vec![0.0; plane]];
    let band = Some(diagonal_bounds(n, m, 4));
    group.bench_function("banded_backward_w4", |b| {
        b.iter(|| {
            let [pm, px, py] = &mut back;
            black_box(backward_planes(
                black_box(fx.emit.view()),
                &fx.params,
                pm,
                px,
                py,
                band,
            ))
        })
    });
    group.finish();
}

/// The materialized-tables marginal pass vs the fused streaming scratch
/// path — the headline ablation for the scratch-arena refactor.
fn bench_marginal_fused_vs_materialized(c: &mut Criterion) {
    let mut group = c.benchmark_group("phmm_marginal_62bp");
    let fx = random_pair(62, 5);
    group.bench_function("materialized", |b| {
        b.iter(|| {
            let post =
                PosteriorAlignment::from_emissions(black_box(fx.emit.view()), &fx.params, None);
            black_box(post.column_posteriors(&fx.pwm))
        })
    });
    let mut scratch = PhmmScratch::new();
    group.bench_function("fused_scratch", |b| {
        b.iter(|| {
            black_box(scratch.posterior_columns(
                black_box(&fx.pwm),
                black_box(&fx.window),
                &fx.params,
                None,
            ))
        })
    });
    let mut banded_scratch = PhmmScratch::new();
    group.bench_function("fused_scratch_banded_w4", |b| {
        b.iter(|| {
            black_box(banded_scratch.posterior_columns(
                black_box(&fx.pwm),
                black_box(&fx.window),
                &fx.params,
                Some(4),
            ))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_forward_by_length,
    bench_forward_backward_pair,
    bench_banded_vs_full,
    bench_marginal_fused_vs_materialized
);
criterion_main!(benches);
