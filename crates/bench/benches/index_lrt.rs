//! Criterion microbenches for the flat k-mer seed index (build + query) and
//! the LRT SNP-statistic throughput. On the 200 kbp reference ⌈log₄ n⌉ = 9,
//! so the build group's k = 8 gets a direct 4^8 + 1 directory (p = k), while
//! k = 10 and 12 share a 4^9 + 1 directory and binary-search within a bucket.

use bench::WorkloadSpec;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use genome::index::{IndexConfig, KmerIndex};
use gnumap_stats::lrt::{diploid_lrt, monoploid_lrt, BaseCounts};
use std::hint::black_box;

fn bench_index_build(c: &mut Criterion) {
    let w = WorkloadSpec {
        genome_len: 200_000,
        snp_count: 1,
        coverage: 0.1,
        seed: 5,
    }
    .build();
    let mut group = c.benchmark_group("kmer_index_build_200kb");
    group.sample_size(20);
    for k in [8usize, 10, 12] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| {
                black_box(
                    KmerIndex::build(
                        &w.reference,
                        IndexConfig {
                            k,
                            ..IndexConfig::default()
                        },
                    )
                    .unwrap()
                    .distinct_kmers(),
                )
            })
        });
    }
    group.finish();
}

fn bench_index_query(c: &mut Criterion) {
    let w = WorkloadSpec {
        genome_len: 200_000,
        snp_count: 1,
        coverage: 1.0,
        seed: 6,
    }
    .build();
    let index = KmerIndex::build(&w.reference, IndexConfig::default()).unwrap();
    let reads = &w.reads[..500.min(w.reads.len())];
    c.bench_function("kmer_index_seed_hits_500_reads", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for read in reads {
                hits += index.seed_hits(&read.seq).count();
            }
            black_box(hits)
        })
    });
}

fn bench_lrt(c: &mut Criterion) {
    // A realistic spread of per-position evidence vectors.
    let vectors: Vec<BaseCounts> = (0..1000)
        .map(|i| {
            let n = 5.0 + (i % 30) as f64;
            let major = n * 0.8;
            let rest = (n - major) / 4.0;
            let mut z = [rest; 5];
            z[i % 4] = major;
            BaseCounts::new(z)
        })
        .collect();
    c.bench_function("lrt_monoploid_1000_sites", |b| {
        b.iter(|| {
            let sig = vectors
                .iter()
                .filter(|z| monoploid_lrt(z).is_some_and(|o| o.significant(0.05)))
                .count();
            black_box(sig)
        })
    });
    c.bench_function("lrt_diploid_1000_sites", |b| {
        b.iter(|| {
            let sig = vectors
                .iter()
                .filter(|z| diploid_lrt(z).is_some_and(|o| o.significant(0.05)))
                .count();
            black_box(sig)
        })
    });
}

criterion_group!(index_lrt, bench_index_build, bench_index_query, bench_lrt);
criterion_main!(index_lrt);
