//! Property tests: the fused streaming marginal pass of
//! [`pairhmm::PhmmScratch`] must be **bit-identical** (`f64::to_bits`) to
//! the materialized forward/backward implementation — on randomized PWMs,
//! window lengths 1..=64, banded and unbanded, with and without scratch
//! reuse — and the banded DP must collapse to the full DP bitwise when the
//! band covers every cell. The lockstep scoring pass
//! [`pairhmm::PhmmScratch::forward_totals`] (emission profiles + lane-
//! interleaved genome codes, rolling rows) must return, in every live lane,
//! the bits of the plane forward's total on that lane's inputs, and the
//! profile it reads must equal the blended emission cell for cell.
//!
//! The early-abandon bound must be admissible: on quality-derived reads
//! (Phred 0–93, runs of `N`), `q = 1` and transition sums at the edge of
//! what [`PhmmParams::validate`] accepts, every row's bound is at least the
//! final f64 total, and a chunk that is not abandoned returns the bits it
//! returns with the stop disabled.

use genome::alphabet::{Base, BASES};
use genome::read::SequencedRead;
use genome::seq::DnaSeq;
use pairhmm::bound::{fill_suffix_bounds, LaneTotals, RowBound, StopRule};
use pairhmm::kernel::{diagonal_bounds, forward_planes, row_range, Lanes, LANES};
use pairhmm::marginal::{ColumnPosterior, PosteriorAlignment};
use pairhmm::params::PhmmParams;
use pairhmm::pwm::{base_code, ProfileRow, Pwm};
use pairhmm::PhmmScratch;
use proptest::prelude::*;

fn params_strategy() -> impl Strategy<Value = PhmmParams> {
    (0.001f64..0.2, 0.1f64..0.9, 0.001f64..0.2)
        .prop_map(|(open, close, mismatch)| PhmmParams::with_gap_rates(open, close, mismatch))
}

/// Random normalised PWM of `n` rows.
fn pwm_strategy(n: usize) -> impl Strategy<Value = Pwm> {
    proptest::collection::vec(proptest::collection::vec(0.01f64..1.0, 4), n).prop_map(|rows| {
        let rows: Vec<[f64; 4]> = rows
            .into_iter()
            .map(|r| {
                let sum: f64 = r.iter().sum();
                [r[0] / sum, r[1] / sum, r[2] / sum, r[3] / sum]
            })
            .collect();
        Pwm::from_rows(rows)
    })
}

/// Random genome window of `m` columns with ~5% unknown (`None`) bases.
fn window_strategy(m: usize) -> impl Strategy<Value = Vec<Option<Base>>> {
    proptest::collection::vec(0..80usize, m).prop_map(|draws| {
        draws
            .into_iter()
            .map(|d| if d < 4 { None } else { Some(BASES[d % 4]) })
            .collect()
    })
}

type Case = (Pwm, Vec<Option<Base>>, PhmmParams);

/// Read lengths 1..=24 against window lengths 1..=64 — covers skinny,
/// square and wide tables, including the degenerate 1×1.
fn case_strategy() -> impl Strategy<Value = Case> {
    (1..=24usize, 1..=64usize)
        .prop_flat_map(|(n, m)| (pwm_strategy(n), window_strategy(m), params_strategy()))
}

/// Two random PWMs of one read length, [`LANES`] windows of one length,
/// and which of the two PWMs each lane aligns.
type LaneCase = (Pwm, Pwm, Vec<Vec<Option<Base>>>, Vec<usize>, PhmmParams);

fn lane_case_strategy() -> impl Strategy<Value = LaneCase> {
    (1..=24usize, 1..=64usize).prop_flat_map(|(n, m)| {
        (
            pwm_strategy(n),
            pwm_strategy(n),
            proptest::collection::vec(window_strategy(m), LANES),
            proptest::collection::vec(0..2usize, LANES),
            params_strategy(),
        )
    })
}

/// Total of [`forward_planes`] over `pwm`'s full emission table.
fn plane_forward(
    pwm: &Pwm,
    window: &[Option<Base>],
    params: &PhmmParams,
    band: Option<usize>,
) -> f64 {
    let (n, m) = (pwm.len(), window.len());
    let emit = pwm.emission_table(window, params);
    let plane = (n + 1) * (m + 1);
    let (mut fm, mut fx, mut fy) = (vec![0.0; plane], vec![0.0; plane], vec![0.0; plane]);
    forward_planes(
        emit.view(),
        params,
        &mut fm,
        &mut fx,
        &mut fy,
        band.map(|w| diagonal_bounds(n, m, w)),
    )
}

/// The totals of a chunk that ran to the last row.
fn exact(totals: LaneTotals) -> Lanes {
    match totals {
        LaneTotals::Exact(totals) => totals,
        LaneTotals::Abandoned(bounds) => panic!("chunk abandoned with bounds {bounds:?}"),
    }
}

/// A read of `n` bases with Phred qualities 0–93: about one base in eight
/// is `N`, plus one run of `N`s.
fn sequenced_read_strategy(n: usize) -> impl Strategy<Value = SequencedRead> {
    (
        proptest::collection::vec((0..40usize, 0..=93u8), n),
        0..n,
        0..=n,
    )
        .prop_map(move |(draws, run_at, run_len)| {
            let seq: DnaSeq = draws
                .iter()
                .enumerate()
                .map(|(i, &(d, _))| {
                    let in_run = (run_at..run_at + run_len / 4).contains(&i);
                    (d >= 5 && !in_run).then(|| BASES[d % 4])
                })
                .collect();
            let quals = draws.iter().map(|&(_, q)| q).collect();
            SequencedRead::new("r", seq, quals).unwrap()
        })
}

/// [`sequenced_read_strategy`]'s read as a PWM.
fn read_strategy(n: usize) -> impl Strategy<Value = Pwm> {
    sequenced_read_strategy(n).prop_map(|read| Pwm::from_read(&read))
}

/// Valid parameters for the bound: random gap rates with `q` random, ¼ or
/// 1, half of them with both transition sums pushed to the top of
/// [`PhmmParams::validate`]'s tolerance.
fn bound_params_strategy() -> impl Strategy<Value = PhmmParams> {
    (params_strategy(), 0..3usize, 0.0f64..=1.0, 0..2usize).prop_map(
        |(mut params, q_kind, q, at_edge)| {
            params.q = [q, 0.25, 1.0][q_kind];
            if at_edge == 1 {
                // Just inside the tolerance once the sums are rounded.
                let over = pairhmm::params::TRANSITION_SUM_TOLERANCE * (1.0 - 1e-6);
                params.t_mm = 1.0 - 2.0 * params.t_mg + over;
                params.t_gg = 1.0 - params.t_gm + over;
            }
            params.validate().expect("edge parameters stay valid");
            params
        },
    )
}

/// A read, [`LANES`] windows, the parameters and the band for the bound
/// tests: reads of 1..=70 bases, windows 0..=4 bases longer, or of any
/// length 1..=80.
type BoundCase = (Pwm, Vec<Vec<Option<Base>>>, PhmmParams, Option<usize>);

fn bound_case_strategy() -> impl Strategy<Value = BoundCase> {
    (1..=70usize, 0..=4usize, 1..=80usize, 0..2usize, 0..=9usize).prop_flat_map(
        |(n, pad, any_m, padded, w)| {
            let m = if padded == 1 { n + pad } else { any_m };
            (
                read_strategy(n),
                proptest::collection::vec(window_strategy(m), LANES),
                bound_params_strategy(),
                Just((w <= 8).then_some(w)),
            )
        },
    )
}

/// A chunk for the lane posterior: a read; per lane its strand (1 for
/// reverse) and draws
/// for a window; how many lanes are live (2..=[`LANES`], the rest repeat
/// the last live lane); the parameters; and the band. Reads have 1..=70
/// bases; windows are 0..=4 bases longer, or of any length 1..=80.
type PosteriorLaneCase = (
    SequencedRead,
    Vec<(usize, Vec<usize>)>,
    usize,
    PhmmParams,
    Option<usize>,
);

fn posterior_lane_case_strategy() -> impl Strategy<Value = PosteriorLaneCase> {
    (1..=70usize, 0..=4usize, 1..=80usize, 0..2usize, 0..=9usize).prop_flat_map(
        |(n, pad, any_m, padded, w)| {
            let m = if padded == 1 { n + pad } else { any_m };
            (
                sequenced_read_strategy(n),
                proptest::collection::vec(
                    (0..2usize, proptest::collection::vec(0..100usize, m)),
                    LANES,
                ),
                2..=LANES,
                edge_params_strategy(),
                Just((w <= 8).then_some(w)),
            )
        },
    )
}

/// Random gap rates with `q` random, ¼ or 1, and with both transition sums
/// left as they are or pushed to 1 − 10⁻⁹ or 1 + 10⁻⁹.
fn edge_params_strategy() -> impl Strategy<Value = PhmmParams> {
    (params_strategy(), 0..3usize, 0.0f64..=1.0, 0..3usize).prop_map(
        |(mut params, q_kind, q, edge)| {
            params.q = [q, 0.25, 1.0][q_kind];
            if edge > 0 {
                let delta = if edge == 1 { -1e-9 } else { 1e-9 };
                params.t_mm = 1.0 - 2.0 * params.t_mg + delta;
                params.t_gg = 1.0 - params.t_gm + delta;
            }
            params
        },
    )
}

/// A window of `draws.len()` columns that mostly copies `read`: column `j`
/// is the read's base `j` for draws below 85 (while the read lasts), `N` for
/// draws below 90, and otherwise a random base.
fn window_from(read: &DnaSeq, draws: &[usize]) -> Vec<Option<Base>> {
    draws
        .iter()
        .enumerate()
        .map(|(j, &d)| {
            if j < read.len() && d < 85 {
                read.get(j)
            } else if d < 90 {
                None
            } else {
                Some(BASES[d % 4])
            }
        })
        .collect()
}

/// Run [`PhmmScratch::posterior_columns_lanes`] on one chunk and compare
/// every lane's total and columns, bit for bit, with
/// [`PhmmScratch::posterior_columns_profiled`] on that lane alone.
fn check_lanes_bitident(
    pwms: [&Pwm; LANES],
    windows: [&[Option<Base>]; LANES],
    params: &PhmmParams,
    band: Option<usize>,
    scratch: &mut PhmmScratch,
) -> Result<Lanes, TestCaseError> {
    let profiles: Vec<Vec<ProfileRow>> = pwms
        .iter()
        .map(|pwm| {
            let mut profile = Vec::new();
            pwm.fill_profile(params, &mut profile);
            profile
        })
        .collect();
    let lane_profiles: [&[ProfileRow]; LANES] = std::array::from_fn(|l| &profiles[l][..]);
    let codes: Vec<[u8; LANES]> = (0..windows[0].len())
        .map(|j| std::array::from_fn(|l| base_code(windows[l][j])))
        .collect();
    let totals = scratch.posterior_columns_lanes(pwms, lane_profiles, &codes, params, band);
    let lane_cols: Vec<Vec<ColumnPosterior>> = (0..LANES)
        .map(|l| scratch.lane_columns(l).collect())
        .collect();

    let mut single = PhmmScratch::new();
    for (l, (total, cols)) in totals.iter().zip(&lane_cols).enumerate() {
        let lane_codes: Vec<u8> = windows[l].iter().map(|&y| base_code(y)).collect();
        let reference =
            single.posterior_columns_profiled(pwms[l], &profiles[l], &lane_codes, params, band);
        prop_assert_eq!(
            total.to_bits(),
            reference.to_bits(),
            "lane {}: total {:e} vs single-lane {:e}",
            l,
            total,
            reference
        );
        prop_assert_eq!(cols.len(), single.columns().len());
        for (j, (a, b)) in cols.iter().zip(single.columns()).enumerate() {
            for k in 0..5 {
                prop_assert_eq!(
                    a.probs[k].to_bits(),
                    b.probs[k].to_bits(),
                    "lane {} column {} symbol {}: lanes {:e} vs single-lane {:e}",
                    l,
                    j,
                    k,
                    a.probs[k],
                    b.probs[k]
                );
            }
        }
    }
    Ok(totals)
}

/// Compare the fused pass against the materialized one, bit for bit.
fn check_bitident(
    pwm: &Pwm,
    window: &[Option<Base>],
    params: &PhmmParams,
    band: Option<usize>,
    scratch: &mut PhmmScratch,
) -> TestCaseResult {
    let emit = pwm.emission_table(window, params);
    let post = PosteriorAlignment::from_emissions(emit.view(), params, band);
    let fused_total = scratch.posterior_columns(pwm, window, params, band);
    prop_assert_eq!(
        fused_total.to_bits(),
        post.total().to_bits(),
        "total diverged: fused {} vs materialized {}",
        fused_total,
        post.total()
    );
    let cols = post.column_posteriors(pwm);
    prop_assert_eq!(cols.len(), scratch.columns().len());
    for (j, (a, b)) in cols.iter().zip(scratch.columns()).enumerate() {
        for k in 0..5 {
            prop_assert_eq!(
                a.probs[k].to_bits(),
                b.probs[k].to_bits(),
                "column {} symbol {}: materialized {} vs fused {}",
                j,
                k,
                a.probs[k],
                b.probs[k]
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    #[test]
    fn fused_marginals_are_bit_identical_unbanded(case in case_strategy()) {
        let (pwm, window, params) = case;
        let mut scratch = PhmmScratch::new();
        check_bitident(&pwm, &window, &params, None, &mut scratch)?;
    }

    #[test]
    fn fused_marginals_are_bit_identical_banded(
        case in case_strategy(),
        w in 0..=8usize,
    ) {
        let (pwm, window, params) = case;
        let mut scratch = PhmmScratch::new();
        check_bitident(&pwm, &window, &params, Some(w), &mut scratch)?;
    }

    #[test]
    fn full_width_band_collapses_to_unbanded_bitwise(case in case_strategy()) {
        // When the half-width covers the whole table the banded DP must be
        // the full DP — not merely close, the same bits.
        let (pwm, window, params) = case;
        let w = pwm.len().max(window.len());
        let emit = pwm.emission_table(&window, &params);
        let full = PosteriorAlignment::from_emissions(emit.view(), &params, None);
        let banded = PosteriorAlignment::from_emissions(emit.view(), &params, Some(w));
        prop_assert_eq!(banded.total().to_bits(), full.total().to_bits());
        let fc = full.column_posteriors(&pwm);
        let bc = banded.column_posteriors(&pwm);
        for (a, b) in fc.iter().zip(&bc) {
            for k in 0..5 {
                prop_assert_eq!(a.probs[k].to_bits(), b.probs[k].to_bits());
            }
        }
    }

    #[test]
    fn forward_totals_lanes_match_plane_forward_bitwise(
        case in lane_case_strategy(),
        live in 1..=LANES,
        w in 0..=9usize,
    ) {
        // Lockstep rolling rows over profile lookups vs retained planes
        // over each lane's own emission table: same cells, same order,
        // same bits, whatever the other lanes hold. Half-widths 0..=8, and
        // 9 stands for the full table. Lanes from `live` on are padding
        // that repeats the last live lane, as the mapping engine pads a
        // short last chunk.
        let band = (w <= 8).then_some(w);
        let (pwm_a, pwm_b, windows, which, params) = case;
        let pwms = [pwm_a, pwm_b];
        let profiles = pwms.each_ref().map(|pwm| {
            let mut profile = Vec::new();
            pwm.fill_profile(&params, &mut profile);
            profile
        });
        let lane = |l: usize| l.min(live - 1);
        let lane_profiles: [&[ProfileRow]; LANES] =
            std::array::from_fn(|l| &profiles[which[lane(l)]][..]);
        let codes: Vec<[u8; LANES]> = (0..windows[0].len())
            .map(|j| std::array::from_fn(|l| base_code(windows[lane(l)][j])))
            .collect();

        let mut scratch = PhmmScratch::new();
        // Stale rows from an unbanded pass must not leak into this one.
        scratch.forward_totals(lane_profiles, &codes, &params, None, None);
        let totals = exact(scratch.forward_totals(lane_profiles, &codes, &params, band, None));
        for (l, total) in totals.iter().enumerate().take(live) {
            let pwm = &pwms[which[l]];
            let reference = plane_forward(pwm, &windows[l], &params, band);
            prop_assert_eq!(
                total.to_bits(),
                reference.to_bits(),
                "lane {} of {}: forward_totals {} vs forward_planes {}",
                l,
                live,
                total,
                reference
            );
            // The posterior pass recomputes the same forward.
            let lane_codes: Vec<u8> = windows[l].iter().map(|&y| base_code(y)).collect();
            let posterior = scratch.posterior_columns_profiled(
                pwm,
                &profiles[which[l]],
                &lane_codes,
                &params,
                band,
            );
            prop_assert_eq!(posterior.to_bits(), reference.to_bits());
        }
        for total in &totals[live..] {
            prop_assert_eq!(total.to_bits(), totals[live - 1].to_bits());
        }
    }

    #[test]
    fn every_row_bound_covers_the_final_total(case in bound_case_strategy()) {
        // The bound from row i of the plane forward (the same cells a lane
        // holds) must cover the f64 total, at every row.
        let (pwm, windows, params, band) = case;
        let (n, m) = (pwm.len(), windows[0].len());
        let mut profile = Vec::new();
        pwm.fill_profile(&params, &mut profile);
        let mut suffix = Vec::new();
        fill_suffix_bounds(&profile, params.q, &mut suffix);
        let slack = RowBound::new(n, m);
        let diag = band.map(|w| diagonal_bounds(n, m, w));
        for window in &windows {
            let emit = pwm.emission_table(window, &params);
            let plane = (n + 1) * (m + 1);
            let (mut fm, mut fx, mut fy) = (vec![0.0; plane], vec![0.0; plane], vec![0.0; plane]);
            let total = forward_planes(emit.view(), &params, &mut fm, &mut fx, &mut fy, diag);
            for (i, &suffix) in suffix.iter().enumerate().skip(1) {
                let (j_min, j_max) = row_range(diag, i, m);
                let row = i * (m + 1);
                let mass: f64 = (row + j_min..=row + j_max)
                    .map(|c| fm[c] + fx[c] + fy[c])
                    .sum();
                let bound = slack.of(mass, suffix);
                prop_assert!(
                    bound >= total,
                    "row {} of {}x{}: bound {:e} < total {:e}",
                    i, n, m, bound, total
                );
            }
        }
    }

    #[test]
    fn stopped_chunks_hold_their_bounds_and_others_their_bits(
        case in bound_case_strategy(),
        scale in -40i32..=4,
    ) {
        // A stop rule at some multiple of the lanes' best total: an
        // abandoned chunk's bounds cover the full totals and are below the
        // rule; a chunk that runs to the end has the unstopped bits.
        let (pwm, windows, params, band) = case;
        let mut profile = Vec::new();
        pwm.fill_profile(&params, &mut profile);
        let mut suffix = Vec::new();
        fill_suffix_bounds(&profile, params.q, &mut suffix);
        let codes: Vec<[u8; LANES]> = (0..windows[0].len())
            .map(|j| std::array::from_fn(|l| base_code(windows[l][j])))
            .collect();
        let mut scratch = PhmmScratch::new();
        let profiles = [&profile[..]; LANES];
        let full = exact(scratch.forward_totals(profiles, &codes, &params, band, None));
        let best = full.iter().fold(0.0f64, |a, &t| a.max(t));
        for below in [best * 10f64.powi(scale), f64::INFINITY] {
            let stop = StopRule { suffix: [&suffix[..]; LANES], below };
            match scratch.forward_totals(profiles, &codes, &params, band, Some(stop)) {
                LaneTotals::Exact(totals) => {
                    prop_assert_eq!(totals.map(f64::to_bits), full.map(f64::to_bits));
                }
                LaneTotals::Abandoned(bounds) => {
                    for (b, t) in bounds.iter().zip(full) {
                        prop_assert!(*b >= t && *b < below, "bound {:e}, total {:e}", b, t);
                    }
                }
            }
        }
    }

    #[test]
    fn posterior_lanes_match_single_lane_bitwise(case in posterior_lane_case_strategy()) {
        // Four survivors of one read in lockstep, mixing both strands, a
        // short chunk padded with its last live lane, against the
        // single-lane posterior of each lane alone. A first chunk over the
        // full table leaves stale planes and rows behind.
        let (read, lanes, live, params, band) = case;
        let oriented = [read.clone(), read.reverse_complement()];
        let pwms = oriented.each_ref().map(Pwm::from_read);
        let lane = |l: usize| &lanes[l.min(live - 1)];
        let windows: Vec<Vec<Option<Base>>> = (0..LANES)
            .map(|l| {
                let (reverse, draws) = lane(l);
                window_from(&oriented[*reverse].seq, draws)
            })
            .collect();
        let lane_pwms: [&Pwm; LANES] =
            std::array::from_fn(|l| &pwms[lane(l).0]);
        let lane_windows: [&[Option<Base>]; LANES] = std::array::from_fn(|l| &windows[l][..]);
        let mut scratch = PhmmScratch::new();
        check_lanes_bitident(lane_pwms, lane_windows, &params, None, &mut scratch)?;
        let totals = check_lanes_bitident(lane_pwms, lane_windows, &params, band, &mut scratch)?;
        for total in &totals[live..] {
            prop_assert_eq!(total.to_bits(), totals[live - 1].to_bits());
        }
    }

    #[test]
    fn profile_entries_equal_blended_emission(
        pwm in (1..=24usize).prop_flat_map(pwm_strategy),
        params in params_strategy(),
    ) {
        let mut profile = Vec::new();
        pwm.fill_profile(&params, &mut profile);
        prop_assert_eq!(profile.len(), pwm.len());
        for (i, row) in profile.iter().enumerate() {
            for y in BASES.iter().map(|&b| Some(b)).chain([None]) {
                prop_assert_eq!(
                    row[usize::from(base_code(y))].to_bits(),
                    pwm.blended_emission(i, y, &params).to_bits(),
                    "row {} symbol {:?}",
                    i,
                    y
                );
            }
        }
    }

}

/// Scratch reuse across a stream of differently-sized cases must not
/// perturb a single bit: stale plane/roll-buffer contents from earlier
/// (larger) alignments are invisible to later ones.
#[test]
fn reused_scratch_is_bit_identical_across_random_case_stream() {
    use rand::{Rng, SeedableRng};
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xf0_5ed);
    let mut scratch = PhmmScratch::new();
    for case in 0..300 {
        let n = rng.random_range(1..25usize);
        let m = rng.random_range(1..65usize);
        let rows: Vec<[f64; 4]> = (0..n)
            .map(|_| {
                let mut row = [0.0f64; 4];
                for v in row.iter_mut() {
                    *v = (1 + rng.random_range(0..50u32)) as f64;
                }
                let sum: f64 = row.iter().sum();
                for v in row.iter_mut() {
                    *v /= sum;
                }
                row
            })
            .collect();
        let pwm = Pwm::from_rows(rows);
        let window: Vec<Option<Base>> = (0..m)
            .map(|_| {
                let d = rng.random_range(0..80usize);
                if d < 4 {
                    None
                } else {
                    Some(BASES[d % 4])
                }
            })
            .collect();
        let params = if case % 3 == 0 {
            PhmmParams::with_gap_rates(0.05, 0.4, 0.04)
        } else {
            PhmmParams::default()
        };
        let band = match case % 4 {
            0 => None,
            r => Some(r),
        };

        let emit = pwm.emission_table(&window, &params);
        let post = PosteriorAlignment::from_emissions(emit.view(), &params, band);
        let fused_total = scratch.posterior_columns(&pwm, &window, &params, band);
        assert_eq!(
            fused_total.to_bits(),
            post.total().to_bits(),
            "case {case}: total diverged under scratch reuse"
        );
        let cols = post.column_posteriors(&pwm);
        assert_eq!(cols.len(), scratch.columns().len());
        for (j, (a, b)) in cols.iter().zip(scratch.columns()).enumerate() {
            for k in 0..5 {
                assert_eq!(
                    a.probs[k].to_bits(),
                    b.probs[k].to_bits(),
                    "case {case} column {j} symbol {k} diverged under reuse"
                );
            }
        }
    }
}

/// A 600 bp Phred-0 read underflows every lane's forward to 0, even
/// against its own bases: the lane posterior returns zero totals and
/// all-zero columns, as the single-lane pass does. At Phred 40 the read
/// keeps a positive total against its own bases but underflows against
/// random ones, and a chunk mixing the two zeroes only the lanes that
/// underflowed.
#[test]
fn underflowed_lanes_have_zero_totals_and_columns() {
    use rand::{Rng, SeedableRng};
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(600);
    let seq: DnaSeq = (0..600)
        .map(|_| Some(BASES[rng.random_range(0..4usize)]))
        .collect();
    let read = SequencedRead::with_uniform_quality("phred0", seq.clone(), 0);
    let pwm = Pwm::from_read(&read);
    let own: Vec<Option<Base>> = seq.iter().collect();
    let shifted: Vec<Option<Base>> = own[1..].iter().copied().chain([None]).collect();
    let params = PhmmParams::default();
    let mut scratch = PhmmScratch::new();
    for band in [Some(4), None] {
        let totals = check_lanes_bitident(
            [&pwm; LANES],
            [&own[..], &shifted[..], &own[..], &own[..]],
            &params,
            band,
            &mut scratch,
        )
        .unwrap();
        assert_eq!(totals, [0.0; LANES], "band {band:?}");
        for l in 0..LANES {
            assert!(scratch
                .lane_columns(l)
                .all(|c| c.probs.iter().all(|p| p.to_bits() == 0)));
        }
    }

    let pwm = Pwm::from_read(&SequencedRead::with_uniform_quality("phred40", seq, 40));
    let random: Vec<Option<Base>> = (0..600)
        .map(|_| Some(BASES[rng.random_range(0..4usize)]))
        .collect();
    for band in [Some(4), None] {
        let totals = check_lanes_bitident(
            [&pwm; LANES],
            [&own[..], &random[..], &shifted[..], &random[..]],
            &params,
            band,
            &mut scratch,
        )
        .unwrap();
        assert!(
            totals[0] > 0.0 && totals[2] > 0.0,
            "band {band:?}: {totals:?}"
        );
        assert_eq!([totals[1], totals[3]], [0.0; 2], "band {band:?}");
    }
}
