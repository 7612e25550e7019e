//! Flat, vectorization-friendly DP kernels shared by the full and banded
//! forward/backward passes.
//!
//! The recursions are restructured into per-row sweeps (see DESIGN.md §5c):
//!
//! * **Forward, sweep 1** — `f_M(i, ·)` and `f_GX(i, ·)` depend only on row
//!   `i−1`, so the whole row is a branch-free elementwise loop over equal
//!   length slices that LLVM autovectorizes.
//! * **Forward, sweep 2** — `f_GY(i, j)` carries a serial dependency on
//!   `f_GY(i, j−1)` within the row; it runs as a separate scalar sweep
//!   reading the `f_M` values sweep 1 just produced.
//! * **Backward, sweep 1** — `b_GY(i, j)` depends on `b_GY(i, j+1)`; a
//!   serial descending-`j` sweep computes it first.
//! * **Backward, sweep 2** — `b_M(i, ·)` and `b_GX(i, ·)` then read only
//!   row `i+1` and the already-finished `b_GY` row: vectorizable.
//!
//! Every per-cell arithmetic expression is kept literally identical to the
//! original interleaved loops, so the restructured kernels are
//! **bit-identical** to the historical implementation — the conformance
//! harness (`gnumap verify`) depends on this.
//!
//! Banding is expressed as per-row column bounds from the diagonal band
//! `j − i ∈ [lo, hi]`. The kernels write zero *sentinels* one cell left and
//! right of each row's band instead of clearing whole planes, so scratch
//! buffers can be reused across alignments without `O(N·M)` memsets: every
//! cell a later row reads is either freshly computed or an explicit zero.
//!
//! The mapping hot path builds no emission table: `p*(i, j)` is looked up
//! in the read's emission profile by the window's genome code, only for
//! in-band cells. The posterior pass fills only the in-band cells of its
//! table with `gather_row` (cells outside the band are never read) and
//! runs `forward_row` over them. The lane forward `forward_row_lanes`
//! does the lookup inside its sweep, for [`LANES`] candidates at once; it
//! serves both the scoring forward over rolling rows and the four-lane
//! posterior's forward over retained planes.
//!
//! **Lockstep lanes.** Within one alignment the `f_GY` carry is a serial
//! chain of dependent multiply–adds, so a single band-4 row leaves the FP
//! units mostly idle. `forward_row_lanes` runs [`LANES`] independent
//! alignments side by side instead — the inter-task parallelism of
//! GPU Pair-HMM kernels — with each DP cell an `[f64; LANES]` and lane
//! `l` holding candidate `l`. Every lane operation is an elementwise
//! `zip` over the lane arrays, which LLVM turns into packed vector ops, so
//! the lanes' carries overlap instead of queueing. A lane evaluates
//! exactly the per-cell expressions of `forward_row` on its own
//! operands, and no operation ever combines two lanes, so each lane's
//! values have the bits a scalar pass on that candidate would produce.
//! The four-lane posterior (`PhmmScratch::posterior_columns_lanes`)
//! extends the layout to the backward and the marginals: the `b_GY` carry,
//! `b_M` and `b_GX` of a row run as one descending sweep of whole-lane
//! `zip` operations, with the diagonal emission looked up inline, and each
//! cell is folded into a per-column `[f64; LANES]` accumulator per symbol.

use crate::emission::Emission;
use crate::params::PhmmParams;
use crate::pwm::{ProfileRow, N_CODE};

/// Diagonal band `lo <= j - i <= hi`; `None` = full table.
pub type Band = Option<(isize, isize)>;

/// Inclusive diagonal bounds for a read of length `n`, window of length
/// `m`, and band half-width `w`: cell `(i, j)` is inside iff
/// `lo <= j - i <= hi` (`Δ = M − N` absorbs the length difference).
pub fn diagonal_bounds(n: usize, m: usize, w: usize) -> (isize, isize) {
    let delta = m as isize - n as isize;
    (delta.min(0) - w as isize, delta.max(0) + w as isize)
}

/// Clamped column range `[j_min, j_max]` of the band in row `i` (1-based).
/// The bounds from [`diagonal_bounds`] always give a non-empty range for
/// `1 <= i <= n`.
#[inline]
pub fn row_range(band: Band, i: usize, m: usize) -> (usize, usize) {
    match band {
        None => (1, m),
        Some((lo, hi)) => {
            let j_min = (i as isize + lo).max(1) as usize;
            let j_max = ((i as isize + hi).min(m as isize)) as usize;
            debug_assert!(1 <= j_min && j_min <= j_max && j_max <= m);
            (j_min, j_max)
        }
    }
}

/// Profile index of genome code `c`. Codes come from
/// [`crate::pwm::base_code`]; the clamp only lets the compiler drop the
/// bounds check of the [`ProfileRow`] lookup.
#[inline]
pub(crate) fn code_index(c: u8) -> usize {
    debug_assert!(c <= N_CODE, "invalid genome code {c}");
    usize::from(c.min(N_CODE))
}

/// Gather emissions `out[j] = prow[codes[j]]` for one read row: `codes` and
/// `out` are the same in-band column span of the genome-code window and of
/// the emission row.
#[inline]
pub(crate) fn gather_row(prow: &ProfileRow, codes: &[u8], out: &mut [f64]) {
    debug_assert_eq!(codes.len(), out.len());
    for (e, &c) in out.iter_mut().zip(codes) {
        *e = prow[code_index(c)];
    }
}

/// One-time shape validation for a kernel call over `(n+1) × (m+1)`
/// planes. All per-cell asserts live here, outside the hot loops.
#[inline]
fn validate_planes(emit: Emission<'_>, planes: [&[f64]; 3]) -> (usize, usize, usize) {
    let n = emit.n();
    let m = emit.m();
    assert!(n >= 1, "read must be non-empty");
    assert!(m >= 1, "window must be non-empty");
    let stride = m + 1;
    let plane = (n + 1) * stride;
    for p in planes {
        assert!(p.len() >= plane, "DP plane too small for {n}x{m}");
    }
    (n, m, stride)
}

/// Compute one forward row `i` from row `i−1`, two-sweep. `mp`/`xp`/`yp`
/// are row `i−1`; `mc`/`xc`/`yc` are row `i` (each of length `m + 1`);
/// `erow` holds the in-band emissions `p*(i, j)` for `j = j_min ..=
/// j_max`. Writes zero sentinels one cell left and right of the band so
/// stale buffers need no pre-clearing.
#[inline]
#[allow(clippy::too_many_arguments)]
pub(crate) fn forward_row(
    params: &PhmmParams,
    erow: &[f64],
    mp: &[f64],
    xp: &[f64],
    yp: &[f64],
    mc: &mut [f64],
    xc: &mut [f64],
    yc: &mut [f64],
    j_min: usize,
    j_max: usize,
    m: usize,
) {
    let &PhmmParams {
        t_mm,
        t_mg,
        t_gm,
        t_gg,
        q,
        ..
    } = params;

    // Zero sentinels bounding the band in the (possibly stale) row.
    for row in [&mut *mc, &mut *xc, &mut *yc] {
        row[j_min - 1] = 0.0;
        if j_max < m {
            row[j_max + 1] = 0.0;
        }
    }

    // Sweep 1 (vectorizable): M and G_X read row i-1 only.
    //   f_M(i,j)  = p*(i,j)·[T_MM·f_M(i−1,j−1) + T_GM·(f_GX + f_GY)(i−1,j−1)]
    //   f_GX(i,j) = q·[T_MG·f_M(i−1,j) + T_GG·f_GX(i−1,j)]
    let it = mc[j_min..=j_max]
        .iter_mut()
        .zip(xc[j_min..=j_max].iter_mut())
        .zip(erow)
        .zip(&mp[j_min - 1..j_max])
        .zip(&xp[j_min - 1..j_max])
        .zip(&yp[j_min - 1..j_max])
        .zip(&mp[j_min..=j_max])
        .zip(&xp[j_min..=j_max]);
    for (((((((mv, xv), &e), &mpd), &xpd), &ypd), &mps), &xps) in it {
        *mv = e * (t_mm * mpd + t_gm * (xpd + ypd));
        *xv = q * (t_mg * mps + t_gg * xps);
    }

    // Sweep 2 (serial carry): G_Y within row i.
    //   f_GY(i,j) = q·[T_MG·f_M(i,j−1) + T_GG·f_GY(i,j−1)]
    let mut carry = yc[j_min - 1];
    for (yv, &mcl) in yc[j_min..=j_max].iter_mut().zip(&mc[j_min - 1..j_max]) {
        carry = q * (t_mg * mcl + t_gg * carry);
        *yv = carry;
    }
}

/// Candidates `forward_row_lanes` scores in lockstep, one per lane.
pub const LANES: usize = 4;

/// One DP cell of [`LANES`] independent alignments, lane `l` holding
/// candidate `l`'s value.
pub type Lanes = [f64; LANES];

/// Compute forward row `i` of [`LANES`] independent alignments from row
/// `i−1`, in one fused sweep. `prev` and `cur` are the `[f_M, f_GX, f_GY]`
/// rows `i−1` and `i` (each of length `m + 1`); `prows` holds each lane's
/// profile row `i` and `codes` each lane's genome codes for columns `j_min
/// ..= j_max`. Per lane, every cell is the expression of `forward_row`
/// on the same operands, so each lane's values carry its bits: the sweep
/// only runs `f_GY(i, j)` in the same pass as `f_M(i, j)` and `f_GX(i, j)`,
/// reading `f_M(i, j−1)` from the cell just computed. The lanes have no
/// data dependencies on each other, so their `f_GY` carries — serial in
/// `j` within a lane — overlap in the FP pipeline instead of waiting on
/// each other. Always inlined: a call per row would cost the scoring
/// forward, whose rows are only about nine cells wide, a measurable share
/// of its time.
#[inline(always)]
pub(crate) fn forward_row_lanes(
    params: &PhmmParams,
    prows: [&ProfileRow; LANES],
    codes: &[[u8; LANES]],
    prev: [&[Lanes]; 3],
    cur: [&mut [Lanes]; 3],
    (j_min, j_max): (usize, usize),
    m: usize,
) {
    let &PhmmParams {
        t_mm,
        t_mg,
        t_gm,
        t_gg,
        q,
        ..
    } = params;
    let [mp, xp, yp] = prev;
    let [mc, xc, yc] = cur;
    debug_assert_eq!(codes.len(), j_max + 1 - j_min);

    // Zero sentinels bounding the band in the (possibly stale) row.
    for row in [&mut *mc, &mut *xc, &mut *yc] {
        row[j_min - 1] = [0.0; LANES];
        if j_max < m {
            row[j_max + 1] = [0.0; LANES];
        }
    }

    // f_M(i, j−1) and f_GY(i, j−1), starting from the left sentinels.
    let mut m_left = [0.0; LANES];
    let mut carry = [0.0; LANES];
    let it = mc[j_min..=j_max]
        .iter_mut()
        .zip(xc[j_min..=j_max].iter_mut())
        .zip(yc[j_min..=j_max].iter_mut())
        .zip(codes)
        .zip(&mp[j_min - 1..j_max])
        .zip(&xp[j_min - 1..j_max])
        .zip(&yp[j_min - 1..j_max])
        .zip(&mp[j_min..=j_max])
        .zip(&xp[j_min..=j_max]);
    for ((((((((mv, xv), yv), code), mpd), xpd), ypd), mps), xps) in it {
        // p*(i, j) per lane, looked up by that lane's genome code.
        let mut e = [0.0; LANES];
        for ((e, prow), &c) in e.iter_mut().zip(prows).zip(code) {
            *e = prow[code_index(c)];
        }
        //   f_M(i,j)  = p*(i,j)·[T_MM·f_M(i−1,j−1) + T_GM·(f_GX + f_GY)(i−1,j−1)]
        let mut f_m = [0.0; LANES];
        for ((((v, e), mpd), xpd), ypd) in f_m.iter_mut().zip(e).zip(mpd).zip(xpd).zip(ypd) {
            *v = e * (t_mm * mpd + t_gm * (xpd + ypd));
        }
        //   f_GX(i,j) = q·[T_MG·f_M(i−1,j) + T_GG·f_GX(i−1,j)]
        let mut f_x = [0.0; LANES];
        for ((v, mps), xps) in f_x.iter_mut().zip(mps).zip(xps) {
            *v = q * (t_mg * mps + t_gg * xps);
        }
        //   f_GY(i,j) = q·[T_MG·f_M(i,j−1) + T_GG·f_GY(i,j−1)]
        for (c, mcl) in carry.iter_mut().zip(m_left) {
            *c = q * (t_mg * mcl + t_gg * *c);
        }
        // Whole-cell stores, and f_M(i, j) carried in registers: reading
        // it back from the row would stall on store forwarding.
        *mv = f_m;
        *xv = f_x;
        *yv = carry;
        m_left = f_m;
    }
}

/// Forward pass into flat `(n+1) × (m+1)` row-major planes (row stride
/// `m + 1`). Returns the total likelihood. The planes may hold stale data
/// from a previous alignment: every cell the recursion reads is freshly
/// written or an explicit zero sentinel, so no pre-clearing is needed.
pub fn forward_planes(
    emit: Emission<'_>,
    params: &PhmmParams,
    fm: &mut [f64],
    fx: &mut [f64],
    fy: &mut [f64],
    band: Band,
) -> f64 {
    let (n, m, stride) = validate_planes(emit, [fm, fx, fy]);

    // Border row 0: zero over the range row 1 reads, with f_M(0,0) = 1.
    let (_, hi0) = row_range(band, 1, m);
    for p in [&mut *fm, &mut *fx, &mut *fy] {
        p[..=hi0].fill(0.0);
    }
    fm[0] = 1.0;

    for i in 1..=n {
        let (j_min, j_max) = row_range(band, i, m);
        let base = (i - 1) * stride;
        let (mp, mc) = fm[base..base + 2 * stride].split_at_mut(stride);
        let (xp, xc) = fx[base..base + 2 * stride].split_at_mut(stride);
        let (yp, yc) = fy[base..base + 2 * stride].split_at_mut(stride);
        forward_row(
            params,
            &emit.row(i - 1)[j_min - 1..j_max],
            mp,
            xp,
            yp,
            mc,
            xc,
            yc,
            j_min,
            j_max,
            m,
        );
    }

    let end = n * stride + m;
    fm[end] + fx[end] + fy[end]
}

/// Backward pass into flat `(n+1) × (m+1)` planes. The planes must be
/// zero-filled on entry (unlike [`forward_planes`], the full-table
/// backward is only used on freshly allocated tables; the scratch-arena
/// hot path streams the backward pass through rolling rows instead — see
/// [`crate::scratch`]). Returns the backward total
/// `p*(1,1) · T_MM · b_M(1,1)`.
pub fn backward_planes(
    emit: Emission<'_>,
    params: &PhmmParams,
    bm: &mut [f64],
    bx: &mut [f64],
    by: &mut [f64],
    band: Band,
) -> f64 {
    let (n, m, stride) = validate_planes(emit, [bm, bx, by]);
    let &PhmmParams {
        t_mm,
        t_mg,
        t_gm,
        t_gg,
        q,
        ..
    } = params;

    // Terminal row n: b(N, M) = 1 in all three states; diag emissions are
    // out of range (p* = 0), so the row reduces to gap-extension carries.
    {
        let row = n * stride;
        bm[row + m] = 1.0;
        bx[row + m] = 1.0;
        by[row + m] = 1.0;
        let (j_min, _) = row_range(band, n, m);
        let mut carry = 1.0; // b_GY(n, m)
        for j in (j_min..m).rev() {
            // b_GY(n,j) = q·T_GG·b_GY(n,j+1);  b_M(n,j) = q·T_MG·b_GY(n,j+1)
            bm[row + j] = q * t_mg * carry;
            carry *= q * t_gg;
            by[row + j] = carry;
            // b_GX(n,j) feeds only from row n+1 (zero): stays 0.
        }
    }

    for i in (1..n).rev() {
        let (j_min, j_max) = row_range(band, i, m);
        let base = i * stride;
        let (cur, next) = bm[base..base + 2 * stride].split_at_mut(stride);
        let (bm_cur, bm_next) = (cur, &*next);
        let (cur, next) = bx[base..base + 2 * stride].split_at_mut(stride);
        let (bx_cur, bx_next) = (cur, &*next);
        let by_cur = &mut by[base..base + stride];
        let erow = emit.row(i); // diag for cell (i, j) = p*(i+1, j+1)

        // Sweep 1 (serial, descending): G_Y carries right-to-left.
        //   b_GY(i,j) = p*(i+1,j+1)·T_GM·b_M(i+1,j+1) + q·T_GG·b_GY(i,j+1)
        let mut carry = 0.0; // b_GY(i, j_max+1) is out of band / table: 0
        for j in (j_min..=j_max).rev() {
            let (diag, bm_diag) = if j < m {
                (erow[j], bm_next[j + 1])
            } else {
                (0.0, 0.0)
            };
            carry = diag * t_gm * bm_diag + q * t_gg * carry;
            by_cur[j] = carry;
        }

        // Sweep 2 (vectorizable): M and G_X read row i+1 and the finished
        // G_Y row.
        //   b_M(i,j)  = p*·T_MM·b_M(i+1,j+1) + q·T_MG·[b_GX(i+1,j) + b_GY(i,j+1)]
        //   b_GX(i,j) = p*·T_GM·b_M(i+1,j+1) + q·T_GG·b_GX(i+1,j)
        if j_max == m {
            // Column m reads past the table on the diagonal (p* = 0).
            bm_cur[m] = q * t_mg * (bx_next[m] + 0.0);
            bx_cur[m] = q * t_gg * bx_next[m];
        }
        let hi = j_max.min(m - 1);
        if j_min <= hi {
            let it = bm_cur[j_min..=hi]
                .iter_mut()
                .zip(bx_cur[j_min..=hi].iter_mut())
                .zip(&erow[j_min..=hi])
                .zip(&bm_next[j_min + 1..=hi + 1])
                .zip(&bx_next[j_min..=hi])
                .zip(&by_cur[j_min + 1..=hi + 1]);
            for (((((mv, xv), &diag), &bmd), &bxn), &byr) in it {
                *mv = diag * t_mm * bmd + q * t_mg * (bxn + byr);
                *xv = diag * t_gm * bmd + q * t_gg * bxn;
            }
        }
    }

    emit.at(0, 0) * t_mm * bm[stride + 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emission::EmissionTable;
    use crate::pwm::Pwm;
    use genome::alphabet::Base;
    use genome::read::SequencedRead;

    fn emit_for(read_s: &str, genome_s: &str, params: &PhmmParams) -> EmissionTable {
        let r = SequencedRead::with_uniform_quality("r", read_s.parse().unwrap(), 30);
        let w: Vec<Option<Base>> = genome_s
            .bytes()
            .map(|c| Base::try_from_ascii(c).unwrap())
            .collect();
        Pwm::from_read(&r).emission_table(&w, params)
    }

    /// Forward and backward over fresh planes with half-width `w` (`None`
    /// = full table): the two totals and the forward `f_M` plane.
    fn run(emit: &EmissionTable, params: &PhmmParams, w: Option<usize>) -> (f64, f64, Vec<f64>) {
        let (n, m) = (emit.n(), emit.m());
        let band = w.map(|w| diagonal_bounds(n, m, w));
        let plane = (n + 1) * (m + 1);
        let mut p: [Vec<f64>; 6] = std::array::from_fn(|_| vec![0.0; plane]);
        let [fm, fx, fy, bm, bx, by] = &mut p;
        let f = forward_planes(emit.view(), params, fm, fx, fy, band);
        let b = backward_planes(emit.view(), params, bm, bx, by, band);
        let [fm, ..] = p;
        (f, b, fm)
    }

    #[test]
    fn banded_total_is_a_monotone_lower_bound_reaching_the_full_total() {
        let params = PhmmParams::with_gap_rates(0.05, 0.5, 0.03);
        let emit = emit_for("ACGTACGTACGTACGT", "ACGTACGGACGTACGT", &params);
        let (full, _, _) = run(&emit, &params, None);
        let mut last = 0.0;
        for w in [0usize, 1, 2, 4, 8, 16] {
            let (b, _, _) = run(&emit, &params, Some(w));
            assert!(
                b <= full * (1.0 + 1e-12),
                "band {w}: {b} exceeds full {full}"
            );
            assert!(b >= last * (1.0 - 1e-12), "band {w} not monotone");
            last = b;
        }
        assert!((last - full).abs() <= 1e-12 * full);
    }

    #[test]
    fn narrow_band_keeps_the_mass_of_a_clean_diagonal() {
        let params = PhmmParams::default();
        let emit = emit_for("ACGTACGTAC", "ACGTACGTAC", &params);
        let (full, _, _) = run(&emit, &params, None);
        let (banded, _, _) = run(&emit, &params, Some(1));
        assert!(banded / full > 0.999, "ratio {}", banded / full);
    }

    #[test]
    fn banded_forward_and_backward_totals_agree() {
        let params = PhmmParams::with_gap_rates(0.04, 0.6, 0.02);
        let emit = emit_for("ACGGTACTAC", "ACGTACGTACAC", &params);
        for w in [1usize, 2, 4, 32] {
            let (f, b, _) = run(&emit, &params, Some(w));
            assert!(
                (f - b).abs() <= 1e-12 * f.max(1e-300),
                "band {w}: fwd {f} vs bwd {b}"
            );
        }
    }

    #[test]
    fn zero_width_band_reaches_the_terminal_cell_of_a_longer_window() {
        // Δ = M − N absorbs the length difference, so even w = 0 connects
        // (0, 0) to (N, M).
        let params = PhmmParams::with_gap_rates(0.05, 0.5, 0.03);
        let emit = emit_for("ACGT", "ACGTACGT", &params);
        let (f, b, _) = run(&emit, &params, Some(0));
        assert!(f > 0.0 && b > 0.0);
    }

    #[test]
    fn full_width_band_matches_unbanded_cell_for_cell() {
        // A band covering the whole rectangle must be the *same* program:
        // every cell identical to the last bit, not merely close.
        let params = PhmmParams::with_gap_rates(0.05, 0.5, 0.03);
        let emit = emit_for("ACGGTACTAC", "ACGTACGTACAC", &params);
        let (full, full_b, full_m) = run(&emit, &params, None);
        let (banded, banded_b, banded_m) = run(&emit, &params, Some(64));
        assert_eq!(full.to_bits(), banded.to_bits());
        assert_eq!(full_b.to_bits(), banded_b.to_bits());
        for (c, (a, b)) in full_m.iter().zip(&banded_m).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "cell {c}");
        }
    }

    #[test]
    fn diagonal_bounds_cover_terminal_cell() {
        for (n, m, w) in [(5usize, 5usize, 0usize), (4, 8, 0), (8, 4, 2), (62, 62, 4)] {
            let (lo, hi) = diagonal_bounds(n, m, w);
            let d = m as isize - n as isize;
            assert!(lo <= 0 && hi >= 0, "band must include the origin diagonal");
            assert!(lo <= d && d <= hi, "band must include the terminal cell");
            for i in 1..=n {
                let (j_min, j_max) = row_range(Some((lo, hi)), i, m);
                assert!(1 <= j_min && j_min <= j_max && j_max <= m, "row {i}");
            }
        }
    }

    #[test]
    fn full_row_range_is_whole_row() {
        assert_eq!(row_range(None, 3, 7), (1, 7));
    }
}
