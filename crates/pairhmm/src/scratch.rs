//! Per-thread scratch arena for the alignment hot path.
//!
//! [`PhmmScratch`] owns every buffer one posterior alignment needs — an
//! `N × M` emission buffer, the three retained forward planes, six rolling
//! backward rows and the per-column `z`-vector accumulator — plus their
//! lane-interleaved counterparts: the rolling rows of the scoring forward
//! and the planes, rolling backward rows and column accumulators of the
//! four-lane posterior. Buffers grow monotonically and are reused across a
//! thread's whole read batch, so after the first few alignments warm them
//! up the steady-state loop performs **zero heap allocations per read ×
//! window pair**.
//!
//! The mapping hot path handles a read's candidates in two steps, both fed
//! by the read's emission profile ([`crate::pwm::ProfileRow`] per read row)
//! and windows of genome codes ([`crate::pwm::base_code`]):
//!
//! * [`PhmmScratch::forward_totals`] — the forward totals alone of
//!   [`LANES`] candidates at once, in lockstep: two rolling rows per state
//!   whose cells are `[f64; LANES]`, one lane per candidate, each lane with
//!   its own profile and its own window (`codes[j][lane]`). Each row's
//!   in-band emissions are looked up as the row is computed. No planes, no
//!   emission table. Every candidate gets this; the total is all the
//!   posterior weight needs. With a [`StopRule`] the chunk may stop early
//!   once a bound ([`crate::bound`]) proves every lane's total negligible.
//! * [`PhmmScratch::posterior_columns_lanes`] — only for candidates that
//!   survive the weight cut, [`LANES`] survivors at once, in lockstep,
//!   each lane with its own PWM and profile, so the survivors may come
//!   from different reads of one length: the forward into retained planes of lane cells, then the
//!   streaming backward fused with the marginals, one `[f64; LANES]`
//!   accumulator per column symbol. Lane `l`'s columns are read back with
//!   [`PhmmScratch::lane_columns`]. A survivor that would be alone in
//!   its chunk runs the single-lane
//!   [`PhmmScratch::posterior_columns_profiled`] instead: the in-band
//!   emission cells, the forward into retained planes, then the same
//!   fused backward. The single-lane pass is the bit reference of the
//!   lanes.
//!
//! The forwards evaluate the same per-cell expressions
//! (`kernel::forward_row_lanes` per lane, `kernel::forward_row`) on the
//! same emission values in the same order, and the lanes never mix, so a
//! lane's total and the posterior pass's total agree bit for bit. The lane
//! backward likewise evaluates, per lane, the single-lane backward's cell
//! expressions and adds each column's terms in its order; where the
//! single-lane fold skips a match term whose weight is not positive, the
//! lane fold adds `+0`, which changes no sum (DESIGN.md §5c, "Lockstep
//! posterior").
//!
//! The fused pass never materialises the backward tables: it streams two
//! rolling backward rows (`i+1` and `i`) from the bottom of the DP upward,
//! and folds each freshly computed row directly into the column posteriors
//! against the retained forward planes. Per-cell arithmetic and per-column
//! summation order are exactly those of the materialised implementation
//! (backward row `i` combined with forward row `i`, for `i = N` down to
//! `1`), so the result is bit-identical — property-tested via `f64::to_bits`
//! in `tests/fused_bitident.rs`, which also pins every lane of the four-lane
//! posterior to the single-lane pass.

use crate::bound::{LaneTotals, RowBound, StopRule, CHECK_EVERY};
use crate::emission::Emission;
use crate::kernel::{self, Band, Lanes, LANES};
use crate::marginal::{ColumnPosterior, NUM_SYMBOLS};
use crate::params::PhmmParams;
use crate::pwm::{base_code, ProfileRow, Pwm};
use genome::alphabet::Base;

/// Grow-only reusable buffers for one thread's Pair-HMM alignments.
#[derive(Debug, Default)]
pub struct PhmmScratch {
    /// Flat `N × M` emission table `p*(i, j)`; the profile path writes
    /// only its in-band cells.
    emit: Vec<f64>,
    /// Retained forward planes, `(N+1) × (M+1)` row-major.
    fm: Vec<f64>,
    fx: Vec<f64>,
    fy: Vec<f64>,
    /// Rolling backward rows, length `M + 2`; index `M + 1` is a permanent
    /// zero sentinel standing in for the out-of-table column `M + 1`.
    bm_cur: Vec<f64>,
    bm_next: Vec<f64>,
    bx_cur: Vec<f64>,
    bx_next: Vec<f64>,
    by_cur: Vec<f64>,
    by_next: Vec<f64>,
    /// Column posterior accumulator, length `M` after a call.
    cols: Vec<ColumnPosterior>,
    /// Rolling lane rows: the forward rows of
    /// [`forward_totals`](Self::forward_totals), `2 × (M+1)` lane cells per
    /// state, and (`lm`, `lx`) the `b_M` and `b_GX` backward rows of
    /// [`posterior_columns_lanes`](Self::posterior_columns_lanes), `2 ×
    /// (M+2)` cells with a zero sentinel at `M + 1` in each row.
    lm: Vec<Lanes>,
    lx: Vec<Lanes>,
    ly: Vec<Lanes>,
    /// Retained lane forward planes of
    /// [`posterior_columns_lanes`](Self::posterior_columns_lanes),
    /// `(N+1) × (M+1)` lane cells row-major.
    lfm: Vec<Lanes>,
    lfx: Vec<Lanes>,
    lfy: Vec<Lanes>,
    /// Lane column accumulators of
    /// [`posterior_columns_lanes`](Self::posterior_columns_lanes), one per
    /// window column: symbols A, C, G, T, deletion, each across the lanes.
    lane_cols: Vec<[Lanes; NUM_SYMBOLS]>,
    /// Profile and genome codes built by the `Option<Base>` entry point
    /// [`posterior_columns`](Self::posterior_columns).
    profile: Vec<ProfileRow>,
    codes: Vec<u8>,
}

/// Grow `v` to at least `len` without ever shrinking (keeps capacity hot
/// across differently sized windows).
#[inline]
fn ensure<T: Copy + Default>(v: &mut Vec<T>, len: usize) {
    if v.len() < len {
        v.resize(len, T::default());
    }
}

impl PhmmScratch {
    /// An empty arena; buffers grow on first use.
    pub fn new() -> PhmmScratch {
        PhmmScratch::default()
    }

    /// The column posteriors computed by the last
    /// [`posterior_columns`](Self::posterior_columns) call (length = that
    /// call's window length).
    #[inline]
    pub fn columns(&self) -> &[ColumnPosterior] {
        &self.cols
    }

    /// Forward totals of [`LANES`] candidates of one read at once, in
    /// lockstep: lane `l` aligns `profiles[l]` (one row per read position,
    /// see [`Pwm::fill_profile`]) against the genome codes `codes[j][l]`
    /// ([`base_code`]). All lanes share the read length `n` (the profiles'
    /// length), the window length `m` (`codes.len()`) and the band; each
    /// lane has its own profile, so a chunk may mix both orientations of a
    /// read. Runs `kernel::forward_row_lanes` over two rolling rows per
    /// state of `[f64; LANES]` cells, looking up only each row's in-band
    /// emissions, so it keeps no planes and builds no emission table. Lane
    /// `l`'s result has the same bits as the total of
    /// [`posterior_columns_profiled`] and of [`kernel::forward_planes`] on
    /// lane `l`'s inputs.
    ///
    /// With a [`StopRule`], every [`CHECK_EVERY`] rows before the last the
    /// pass bounds each lane's total from its current row
    /// ([`RowBound`]), and returns [`LaneTotals::Abandoned`] with those
    /// bounds as soon as all of them are below `stop.below`. Otherwise,
    /// and always with `stop = None`, it runs to the last row and returns
    /// [`LaneTotals::Exact`]; the check reads the rows but never writes
    /// them, so the exact totals have the same bits either way.
    ///
    /// [`posterior_columns_profiled`]: Self::posterior_columns_profiled
    pub fn forward_totals(
        &mut self,
        profiles: [&[ProfileRow]; LANES],
        codes: &[[u8; LANES]],
        params: &PhmmParams,
        band: Option<usize>,
        stop: Option<StopRule<'_>>,
    ) -> LaneTotals {
        let n = profiles[0].len();
        let m = codes.len();
        assert!(n >= 1, "read must be non-empty");
        assert!(m >= 1, "window must be non-empty");
        assert!(
            profiles.iter().all(|p| p.len() == n),
            "lanes must share one read length"
        );
        let band: Band = band.map(|w| kernel::diagonal_bounds(n, m, w));
        let stride = m + 1;
        for p in [&mut self.lm, &mut self.lx, &mut self.ly] {
            ensure(p, 2 * stride);
        }

        // Border row 0: zero over the range row 1 reads, with f_M(0,0) = 1
        // — as in `kernel::forward_planes`.
        let (_, hi0) = kernel::row_range(band, 1, m);
        for p in [&mut self.lm, &mut self.lx, &mut self.ly] {
            p[..=hi0].fill([0.0; LANES]);
        }
        self.lm[0] = [1.0; LANES];
        let slack = RowBound::new(n, m);

        for i in 1..=n {
            let (j_min, j_max) = kernel::row_range(band, i, m);
            let (mp, mc) = rolling(&mut self.lm, stride, i);
            let (xp, xc) = rolling(&mut self.lx, stride, i);
            let (yp, yc) = rolling(&mut self.ly, stride, i);
            kernel::forward_row_lanes(
                params,
                profiles.map(|p| &p[i - 1]),
                &codes[j_min - 1..j_max],
                [mp, xp, yp],
                [mc, xc, yc],
                (j_min, j_max),
                m,
            );
            if let Some(rule) = stop.filter(|_| i % CHECK_EVERY == 0 && i < n) {
                // Row i's mass per lane, over the band (cells outside it
                // are zero).
                let row = (i % 2) * stride;
                let cells = row + j_min..=row + j_max;
                let mut bounds = [0.0; LANES];
                for ((mv, xv), yv) in self.lm[cells.clone()]
                    .iter()
                    .zip(&self.lx[cells.clone()])
                    .zip(&self.ly[cells])
                {
                    for (((b, mv), xv), yv) in bounds.iter_mut().zip(mv).zip(xv).zip(yv) {
                        *b += mv + xv + yv;
                    }
                }
                for (b, suffix) in bounds.iter_mut().zip(rule.suffix) {
                    *b = slack.of(*b, suffix[i]);
                }
                if bounds.iter().all(|&b| b < rule.below) {
                    return LaneTotals::Abandoned(bounds);
                }
            }
        }
        // Per lane (f_M + f_GX) + f_GY at (n, m), summed in the order of
        // `kernel::forward_planes`.
        let end = (n % 2) * stride + m;
        let mut totals = self.lm[end];
        for ((t, x), y) in totals.iter_mut().zip(self.lx[end]).zip(self.ly[end]) {
            *t = *t + x + y;
        }
        LaneTotals::Exact(totals)
    }

    /// Full fused posterior alignment of one read (PWM) against one
    /// window: [`posterior_columns_profiled`] with the profile and genome
    /// codes built here from `pwm` and `window`. Returns the total
    /// likelihood; the per-column evidence vectors are available from
    /// [`columns`](Self::columns) afterwards (all-zero when the total is
    /// zero, matching `PosteriorAlignment::column_posteriors`).
    ///
    /// `band` is the optional diagonal half-width: `Some(w)` restricts
    /// both passes to the band of [`kernel::diagonal_bounds`], exactly
    /// like [`PosteriorAlignment::from_emissions`] with the same `band`.
    ///
    /// [`PosteriorAlignment::from_emissions`]: crate::PosteriorAlignment::from_emissions
    ///
    /// [`posterior_columns_profiled`]: Self::posterior_columns_profiled
    pub fn posterior_columns(
        &mut self,
        pwm: &Pwm,
        window: &[Option<Base>],
        params: &PhmmParams,
        band: Option<usize>,
    ) -> f64 {
        let mut profile = std::mem::take(&mut self.profile);
        let mut codes = std::mem::take(&mut self.codes);
        pwm.fill_profile(params, &mut profile);
        codes.clear();
        codes.extend(window.iter().map(|&y| base_code(y)));
        let total = self.posterior_columns_profiled(pwm, &profile, &codes, params, band);
        self.profile = profile;
        self.codes = codes;
        total
    }

    /// Full fused posterior alignment from a read's emission profile and a
    /// window of genome codes (one lane's inputs of
    /// [`forward_totals`](Self::forward_totals)): in-band emission gather →
    /// forward into retained planes → streaming backward fused with
    /// `z`-vector accumulation. `pwm` supplies the read rows the `z`
    /// vectors are weighted by; `profile` must be its
    /// [`Pwm::fill_profile`]. Returns the total likelihood, bit-identical
    /// to that lane's total from [`forward_totals`](Self::forward_totals).
    pub fn posterior_columns_profiled(
        &mut self,
        pwm: &Pwm,
        profile: &[ProfileRow],
        codes: &[u8],
        params: &PhmmParams,
        band: Option<usize>,
    ) -> f64 {
        let n = pwm.len();
        let m = codes.len();
        assert!(n >= 1, "read must be non-empty");
        assert!(m >= 1, "window must be non-empty");
        assert_eq!(profile.len(), n, "profile must have one row per read base");

        let band: Band = band.map(|w| kernel::diagonal_bounds(n, m, w));
        // Only the cells forward row i+1 reads are gathered into emission
        // row i. The backward pass reads row i over [j_min(i), min(j_max(i),
        // m−1)], a subset of that span, so no unwritten cell is ever read.
        ensure(&mut self.emit, n * m);
        for (i, (prow, erow)) in profile
            .iter()
            .zip(self.emit[..n * m].chunks_exact_mut(m))
            .enumerate()
        {
            let (j_min, j_max) = kernel::row_range(band, i + 1, m);
            kernel::gather_row(prow, &codes[j_min - 1..j_max], &mut erow[j_min - 1..j_max]);
        }

        let stride = m + 1;
        let plane = (n + 1) * stride;
        ensure(&mut self.fm, plane);
        ensure(&mut self.fx, plane);
        ensure(&mut self.fy, plane);

        let emit = Emission::new(&self.emit[..n * m], n, m);
        let total =
            kernel::forward_planes(emit, params, &mut self.fm, &mut self.fx, &mut self.fy, band);

        self.cols.clear();
        self.cols.resize(m, ColumnPosterior::default());
        if total == 0.0 {
            return total;
        }

        // Rolling rows carry one extra slot: index m+1 is a permanent zero
        // standing in for reads of the out-of-table column m+1, so the
        // vectorised sweep needs no per-cell bounds gating.
        let roll = m + 2;
        ensure(&mut self.bm_cur, roll);
        ensure(&mut self.bm_next, roll);
        ensure(&mut self.bx_cur, roll);
        ensure(&mut self.bx_next, roll);
        ensure(&mut self.by_cur, roll);
        ensure(&mut self.by_next, roll);
        for r in [
            &mut self.bm_cur,
            &mut self.bm_next,
            &mut self.bx_cur,
            &mut self.bx_next,
            &mut self.by_cur,
            &mut self.by_next,
        ] {
            r[m + 1] = 0.0;
        }

        let &PhmmParams {
            t_mm,
            t_mg,
            t_gm,
            t_gg,
            q,
            ..
        } = params;

        // --- Row N (terminal row): p*(N+1, ·) = 0 and row N+1 is the zero
        // border, so the recursions collapse to pure gap-extension chains
        // seeded by b(N, M) = 1:
        //   b_GY(N, j) = q·T_GG·b_GY(N, j+1)
        //   b_M(N, j)  = q·T_MG·b_GY(N, j+1)
        //   b_GX(N, j) = 0                       (for j < M)
        {
            let (j_min, j_max) = kernel::row_range(band, n, m);
            debug_assert_eq!(j_max, m, "terminal row always reaches column M");
            for r in [&mut self.bm_cur, &mut self.bx_cur, &mut self.by_cur] {
                r[j_min - 1] = 0.0;
            }
            self.bm_cur[m] = 1.0;
            self.bx_cur[m] = 1.0;
            self.by_cur[m] = 1.0;
            let mut carry = 1.0; // b_GY(N, j+1), starting from b_GY(N, M)
            for j in (j_min..m).rev() {
                self.bm_cur[j] = q * t_mg * carry;
                carry *= q * t_gg;
                self.by_cur[j] = carry;
                self.bx_cur[j] = 0.0;
            }
            accumulate_row(
                &mut self.cols,
                pwm.row(n - 1),
                &self.fm[n * stride..],
                &self.fy[n * stride..],
                &self.bm_cur,
                &self.by_cur,
                total,
                j_min,
                j_max,
            );
        }

        // --- Rows N-1 down to 1: swap so `next` holds row i+1, compute
        // row i into `cur` in two sweeps, then fold it into the columns.
        for i in (1..n).rev() {
            std::mem::swap(&mut self.bm_cur, &mut self.bm_next);
            std::mem::swap(&mut self.bx_cur, &mut self.bx_next);
            std::mem::swap(&mut self.by_cur, &mut self.by_next);

            let (j_min, j_max) = kernel::row_range(band, i, m);
            // Zero sentinels one cell beyond the band: everything row i-1
            // (or this row's own j+1 reads) touches outside the freshly
            // computed span is an out-of-band zero.
            for r in [&mut self.bm_cur, &mut self.bx_cur, &mut self.by_cur] {
                r[j_min - 1] = 0.0;
                r[j_max + 1] = 0.0;
            }

            // p*(i+1, j+1) lives in 0-based emission row i.
            let erow = emit.row(i);

            // Sweep 1 (serial carry, descending j): G_Y depends on its own
            // row's j+1 cell.
            //   b_GY(i,j) = p*(i+1,j+1)·T_GM·b_M(i+1,j+1) + q·T_GG·b_GY(i,j+1)
            {
                let mut carry = 0.0; // b_GY(i, j_max+1): out of band/table
                for j in (j_min..=j_max).rev() {
                    let (diag, bm_diag) = if j < m {
                        (erow[j], self.bm_next[j + 1])
                    } else {
                        (0.0, 0.0)
                    };
                    carry = diag * t_gm * bm_diag + q * t_gg * carry;
                    self.by_cur[j] = carry;
                }
            }

            // Sweep 2 (vectorizable, ascending j): M and G_X read only row
            // i+1 plus the already-final G_Y row.
            //   b_M(i,j)  = p*·T_MM·b_M(i+1,j+1) + q·T_MG·[b_GX(i+1,j) + b_GY(i,j+1)]
            //   b_GX(i,j) = p*·T_GM·b_M(i+1,j+1) + q·T_GG·b_GX(i+1,j)
            if j_max == m {
                // Column M: the diagonal term is zero (p*(i+1, M+1) = 0)
                // and b_GY(i, M+1) = 0, exact under IEEE for +0 operands.
                self.bm_cur[m] = q * t_mg * self.bx_next[m];
                self.bx_cur[m] = q * t_gg * self.bx_next[m];
            }
            let hi = j_max.min(m - 1);
            if j_min <= hi {
                let it = self.bm_cur[j_min..=hi]
                    .iter_mut()
                    .zip(self.bx_cur[j_min..=hi].iter_mut())
                    .zip(&erow[j_min..=hi])
                    .zip(&self.bm_next[j_min + 1..=hi + 1])
                    .zip(&self.bx_next[j_min..=hi])
                    .zip(&self.by_cur[j_min + 1..=hi + 1]);
                for (((((mv, xv), &diag), &bmd), &bxn), &byr) in it {
                    *mv = diag * t_mm * bmd + q * t_mg * (bxn + byr);
                    *xv = diag * t_gm * bmd + q * t_gg * bxn;
                }
            }

            accumulate_row(
                &mut self.cols,
                pwm.row(i - 1),
                &self.fm[i * stride..],
                &self.fy[i * stride..],
                &self.bm_cur,
                &self.by_cur,
                total,
                j_min,
                j_max,
            );
        }

        total
    }

    /// [`posterior_columns_profiled`] for [`LANES`] candidates of one read
    /// length at once, one per lane, possibly from different reads: lane
    /// `l` aligns `pwms[l]` (with its profile `profiles[l]`) against the
    /// genome codes `codes[j][l]`, as in
    /// [`forward_totals`](Self::forward_totals). Returns each lane's total;
    /// lane `l`'s columns are read back through
    /// [`lane_columns`](Self::lane_columns). Every total and every column
    /// value has the bits [`posterior_columns_profiled`] gives on lane `l`'s
    /// inputs alone; a lane whose total is 0 gets all-zero columns, as
    /// there.
    ///
    /// The forward runs `kernel::forward_row_lanes` into retained planes of
    /// `[f64; LANES]` cells, with each row's in-band emissions looked up
    /// from the profiles. The backward streams two rolling rows of lane
    /// cells for `b_M` and `b_GX` from row `N` up, and each cell is folded
    /// into its column's lane accumulator as soon as it is computed. Within
    /// a lane every cell is the expression of the single-lane pass on the
    /// same operands, and each column sums the same terms in the same row
    /// order. The single-lane pass skips a match term whose weight `p_M`
    /// is not positive; here the term is replaced by `+0`, which leaves
    /// every sum unchanged because each starts at `+0` and only
    /// non-negative terms are added (DESIGN.md §5c, "Lockstep posterior").
    ///
    /// [`posterior_columns_profiled`]: Self::posterior_columns_profiled
    pub fn posterior_columns_lanes(
        &mut self,
        pwms: [&Pwm; LANES],
        profiles: [&[ProfileRow]; LANES],
        codes: &[[u8; LANES]],
        params: &PhmmParams,
        band: Option<usize>,
    ) -> Lanes {
        let n = profiles[0].len();
        let m = codes.len();
        assert!(n >= 1, "read must be non-empty");
        assert!(m >= 1, "window must be non-empty");
        assert!(
            pwms.iter()
                .zip(profiles)
                .all(|(pwm, p)| pwm.len() == n && p.len() == n),
            "lanes must share one read length, with one profile row per base"
        );
        let band: Band = band.map(|w| kernel::diagonal_bounds(n, m, w));

        // --- Forward into retained lane planes, as `kernel::forward_planes`.
        let stride = m + 1;
        let plane = (n + 1) * stride;
        for p in [&mut self.lfm, &mut self.lfx, &mut self.lfy] {
            ensure(p, plane);
        }
        let (_, hi0) = kernel::row_range(band, 1, m);
        for p in [&mut self.lfm, &mut self.lfx, &mut self.lfy] {
            p[..=hi0].fill([0.0; LANES]);
        }
        self.lfm[0] = [1.0; LANES];
        for i in 1..=n {
            let (j_min, j_max) = kernel::row_range(band, i, m);
            let base = (i - 1) * stride;
            let (mp, mc) = self.lfm[base..base + 2 * stride].split_at_mut(stride);
            let (xp, xc) = self.lfx[base..base + 2 * stride].split_at_mut(stride);
            let (yp, yc) = self.lfy[base..base + 2 * stride].split_at_mut(stride);
            kernel::forward_row_lanes(
                params,
                profiles.map(|p| &p[i - 1]),
                &codes[j_min - 1..j_max],
                [mp, xp, yp],
                [mc, xc, yc],
                (j_min, j_max),
                m,
            );
        }
        let end = n * stride + m;
        let mut totals = self.lfm[end];
        for ((t, x), y) in totals.iter_mut().zip(self.lfx[end]).zip(self.lfy[end]) {
            *t = *t + x + y;
        }

        self.lane_cols.clear();
        self.lane_cols.resize(m, [[0.0; LANES]; NUM_SYMBOLS]);
        if totals.iter().all(|&t| t == 0.0) {
            return totals;
        }
        self.backward_marginal_lanes(pwms, profiles, codes, params, band, totals);
        // Zero-total lanes divided by 0 in the fold; their columns are all
        // zero, as in the single-lane pass.
        for (l, _) in totals.iter().enumerate().filter(|(_, &t)| t == 0.0) {
            for col in &mut self.lane_cols {
                for symbol in col.iter_mut() {
                    symbol[l] = 0.0;
                }
            }
        }
        totals
    }

    /// The streaming backward of
    /// [`posterior_columns_lanes`](Self::posterior_columns_lanes), fused
    /// with the marginals: rows `N` down to 1, each cell folded into
    /// `lane_cols` against the retained forward planes.
    fn backward_marginal_lanes(
        &mut self,
        pwms: [&Pwm; LANES],
        profiles: [&[ProfileRow]; LANES],
        codes: &[[u8; LANES]],
        params: &PhmmParams,
        band: Band,
        totals: Lanes,
    ) {
        let n = profiles[0].len();
        let m = codes.len();
        let stride = m + 1;
        let &PhmmParams {
            t_mm,
            t_mg,
            t_gm,
            t_gg,
            q,
            ..
        } = params;

        // Two rolling rows of b_M and b_GX, `roll` cells each; cell m+1 of
        // both rows is a permanent zero for reads past column m. b_GY is
        // never read by the row above, so it lives only in the sweep carry.
        let roll = m + 2;
        ensure(&mut self.lm, 2 * roll);
        ensure(&mut self.lx, 2 * roll);
        for r in [&mut self.lm, &mut self.lx] {
            r[m + 1] = [0.0; LANES];
            r[roll + m + 1] = [0.0; LANES];
        }

        // --- Row N: the gap-extension chains seeded by b(N, M) = 1, alike
        // in every lane (see `posterior_columns_profiled`).
        {
            let (j_min, j_max) = kernel::row_range(band, n, m);
            let (_, bm) = rolling(&mut self.lm, roll, n);
            let (_, bx) = rolling(&mut self.lx, roll, n);
            bm[j_min - 1] = [0.0; LANES];
            bx[j_min - 1] = [0.0; LANES];
            let (fm_row, fy_row) = (&self.lfm[n * stride..], &self.lfy[n * stride..]);
            let r = pwm_rows(pwms, n - 1);
            let mut carry = 1.0; // b_GY(N, j+1), starting from b_GY(N, M)
            for j in (j_min..=j_max).rev() {
                let (m_cell, y_cell) = if j == m {
                    bx[m] = [1.0; LANES];
                    (1.0, 1.0)
                } else {
                    let m_cell = q * t_mg * carry;
                    carry *= q * t_gg;
                    bx[j] = [0.0; LANES];
                    (m_cell, carry)
                };
                bm[j] = [m_cell; LANES];
                fold_cell(
                    &mut self.lane_cols[j - 1],
                    &r,
                    [fm_row[j], fy_row[j]],
                    [[m_cell; LANES], [y_cell; LANES]],
                    &totals,
                );
            }
        }

        // --- Rows N-1 down to 1: row i is written to slot i mod 2 of the
        // rolling rows, and row i+1 is read from the other slot.
        for i in (1..n).rev() {
            let (j_min, j_max) = kernel::row_range(band, i, m);
            let (bm_next, bm) = rolling(&mut self.lm, roll, i);
            let (bx_next, bx) = rolling(&mut self.lx, roll, i);
            // Zero sentinels one cell beyond the band, as in the single-lane
            // pass.
            for r in [&mut *bm, &mut *bx] {
                r[j_min - 1] = [0.0; LANES];
                r[j_max + 1] = [0.0; LANES];
            }
            let (fm_row, fy_row) = (&self.lfm[i * stride..], &self.lfy[i * stride..]);
            let r = pwm_rows(pwms, i - 1);
            // p*(i+1, j+1) is profile row i at genome code j (0-based).
            let prows = profiles.map(|p| &p[i]);

            // b_GY(i, j+1), carried right to left; 0 past the band or table.
            let mut carry = [0.0; LANES];
            if j_max == m {
                // Column M: the diagonal term is zero (p*(i+1, M+1) = 0) and
                // b_GY(i, M+1) = 0, so b_GY(i, M) = +0 and
                //   b_M(i,M)  = q·T_MG·b_GX(i+1,M)
                //   b_GX(i,M) = q·T_GG·b_GX(i+1,M)
                let (mut m_cell, mut x_cell) = ([0.0; LANES], [0.0; LANES]);
                for ((mv, xv), bxn) in m_cell.iter_mut().zip(&mut x_cell).zip(bx_next[m]) {
                    *mv = q * t_mg * bxn;
                    *xv = q * t_gg * bxn;
                }
                bm[m] = m_cell;
                bx[m] = x_cell;
                fold_cell(
                    &mut self.lane_cols[m - 1],
                    &r,
                    [fm_row[m], fy_row[m]],
                    [m_cell, carry],
                    &totals,
                );
            }
            // Columns hi down to j_min in one descending sweep; per column,
            // b_M and b_GX (reading the carry, still b_GY(i, j+1)), then the
            // carry moves to b_GY(i, j), then the cell is folded into
            // column j.
            let hi = j_max.min(m - 1);
            if j_min > hi {
                continue;
            }
            let cells = j_min..=hi;
            let it = bm[cells.clone()]
                .iter_mut()
                .zip(&mut bx[cells.clone()])
                .zip(&codes[cells.clone()])
                .zip(&bm_next[j_min + 1..=hi + 1])
                .zip(&bx_next[cells.clone()])
                .zip(&fm_row[cells.clone()])
                .zip(&fy_row[cells])
                .zip(&mut self.lane_cols[j_min - 1..hi])
                .rev();
            for (((((((bm_cell, bx_cell), code), bmd), bxn), &fm), &fy), col) in it {
                let mut diag = [0.0; LANES];
                for ((e, prow), &c) in diag.iter_mut().zip(prows).zip(code) {
                    *e = prow[kernel::code_index(c)];
                }
                //   b_M(i,j)  = p*·T_MM·b_M(i+1,j+1) + q·T_MG·[b_GX(i+1,j) + b_GY(i,j+1)]
                //   b_GX(i,j) = p*·T_GM·b_M(i+1,j+1) + q·T_GG·b_GX(i+1,j)
                //   b_GY(i,j) = p*·T_GM·b_M(i+1,j+1) + q·T_GG·b_GY(i,j+1)
                let (mut m_cell, mut x_cell) = ([0.0; LANES], [0.0; LANES]);
                let it = m_cell
                    .iter_mut()
                    .zip(&mut x_cell)
                    .zip(&mut carry)
                    .zip(diag)
                    .zip(bmd)
                    .zip(bxn);
                for (((((mv, xv), y), diag), bmd), bxn) in it {
                    let gap_open = diag * t_gm * bmd;
                    *mv = diag * t_mm * bmd + q * t_mg * (bxn + *y);
                    *xv = gap_open + q * t_gg * bxn;
                    *y = gap_open + q * t_gg * *y;
                }
                *bm_cell = m_cell;
                *bx_cell = x_cell;
                fold_cell(col, &r, [fm, fy], [m_cell, carry], &totals);
            }
        }
    }

    /// Lane `lane`'s columns from the last
    /// [`posterior_columns_lanes`](Self::posterior_columns_lanes) call, one
    /// per window column.
    pub fn lane_columns(&self, lane: usize) -> impl ExactSizeIterator<Item = ColumnPosterior> + '_ {
        assert!(lane < LANES, "lane {lane} out of range");
        self.lane_cols.iter().map(move |col| {
            let mut probs = [0.0; NUM_SYMBOLS];
            for (p, symbol) in probs.iter_mut().zip(col) {
                *p = symbol[lane];
            }
            ColumnPosterior { probs }
        })
    }
}

/// Rows `i − 1` (read) and `i` (written) of a two-row rolling buffer:
/// row `i` lives in slot `i mod 2`. The read slot also holds row `i + 1`,
/// which is what a backward sweep reads.
#[inline]
fn rolling<T>(buf: &mut [T], stride: usize, i: usize) -> (&[T], &mut [T]) {
    let (even, odd) = buf[..2 * stride].split_at_mut(stride);
    if i % 2 == 1 {
        (even, odd)
    } else {
        (odd, even)
    }
}

/// Fold backward row `i` (rolling rows `bm`, `by`) against forward row `i`
/// into the column accumulators, restricted to the band: out-of-band cells
/// contribute exactly zero in the materialised implementation (`p_M = +0`
/// is skipped by the guard, `p_D = +0` is an IEEE no-op addend), so
/// skipping them is bit-identical.
#[allow(clippy::too_many_arguments)]
#[inline]
fn accumulate_row(
    cols: &mut [ColumnPosterior],
    r: &[f64; 4],
    fm_row: &[f64],
    fy_row: &[f64],
    bm: &[f64],
    by: &[f64],
    total: f64,
    j_min: usize,
    j_max: usize,
) {
    for j in j_min..=j_max {
        let col = &mut cols[j - 1];
        let pm = fm_row[j] * bm[j] / total;
        if pm > 0.0 {
            for (p, rk) in col.probs.iter_mut().zip(r) {
                *p += pm * rk;
            }
        }
        let pd = fy_row[j] * by[j] / total;
        col.probs[4] += pd;
    }
}

/// Read row `i` of each lane's PWM, transposed: `rows[k][l]` is lane `l`'s
/// weight of base `k`.
#[inline]
fn pwm_rows(pwms: [&Pwm; LANES], i: usize) -> [Lanes; 4] {
    let mut rows = [[0.0; LANES]; 4];
    for (l, pwm) in pwms.iter().enumerate() {
        for (row, &w) in rows.iter_mut().zip(pwm.row(i)) {
            row[l] = w;
        }
    }
    rows
}

/// Fold one backward cell of every lane into its column accumulators, as
/// [`accumulate_row`] does per lane: `fwd` holds `[f_M, f_GY]` and `bwd`
/// `[b_M, b_GY]` at the cell, and `r` the transposed PWM row. A lane whose
/// match weight is not positive adds `+0` where `accumulate_row` skips the
/// term; the sums start at `+0` and every term is non-negative, so the
/// bits are the same.
#[inline(always)]
fn fold_cell(
    col: &mut [Lanes; NUM_SYMBOLS],
    r: &[Lanes; 4],
    [fm, fy]: [Lanes; 2],
    [bm, by]: [Lanes; 2],
    totals: &Lanes,
) {
    let mut pm = [0.0; LANES];
    let mut pd = [0.0; LANES];
    for ((((pm, pd), (fm, bm)), (fy, by)), total) in pm
        .iter_mut()
        .zip(&mut pd)
        .zip(fm.iter().zip(bm))
        .zip(fy.iter().zip(by))
        .zip(totals)
    {
        *pm = fm * bm / total;
        *pd = fy * by / total;
    }
    let (bases, deletion) = col.split_at_mut(4);
    for (acc, rk) in bases.iter_mut().zip(r) {
        for ((p, &pm), rk) in acc.iter_mut().zip(&pm).zip(rk) {
            *p += if pm > 0.0 { pm * rk } else { 0.0 };
        }
    }
    for (p, pd) in deletion[0].iter_mut().zip(pd) {
        *p += pd;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genome::read::SequencedRead;

    fn window(s: &str) -> Vec<Option<Base>> {
        s.bytes()
            .map(|c| Base::try_from_ascii(c).unwrap())
            .collect()
    }

    #[test]
    fn fused_matches_materialized_small() {
        let params = PhmmParams::default();
        let read = SequencedRead::with_uniform_quality("r", "ACGTACGT".parse().unwrap(), 30);
        let pwm = Pwm::from_read(&read);
        let win = window("ACGAACGT");
        let mut scratch = PhmmScratch::new();
        let total = scratch.posterior_columns(&pwm, &win, &params, None);

        let post = crate::marginal::PosteriorAlignment::compute(&pwm, &win, &params);
        assert_eq!(total.to_bits(), post.total().to_bits());
        let reference = post.column_posteriors(&pwm);
        assert_eq!(scratch.columns().len(), reference.len());
        for (a, b) in scratch.columns().iter().zip(&reference) {
            for (x, y) in a.probs.iter().zip(&b.probs) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn scratch_reuse_is_stable_across_shapes() {
        // Reusing the arena across different window/read shapes must not
        // leak stale state into later answers.
        let params = PhmmParams::default();
        let mut scratch = PhmmScratch::new();
        let cases = [
            ("ACGTACGTACGT", "ACGTACGAACGT"),
            ("ACG", "ACGT"),
            ("TTTTTTTT", "TTTTTTT"),
            ("ACGTACGTACGT", "ACGTACGAACGT"),
        ];
        let mut firsts = Vec::new();
        for (r, w) in cases {
            let read = SequencedRead::with_uniform_quality("r", r.parse().unwrap(), 25);
            let pwm = Pwm::from_read(&read);
            let win = window(w);
            let total = scratch.posterior_columns(&pwm, &win, &params, Some(3));
            assert!(total > 0.0);
            assert_eq!(scratch.columns().len(), win.len());
            firsts.push((total, scratch.columns().to_vec()));
        }
        // First and last case are identical inputs: identical bits out.
        assert_eq!(firsts[0].0.to_bits(), firsts[3].0.to_bits());
        for (a, b) in firsts[0].1.iter().zip(&firsts[3].1) {
            for (x, y) in a.probs.iter().zip(&b.probs) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn zero_total_yields_zero_columns() {
        let params = PhmmParams::default();
        // All-zero emissions via a window of length < read with zero
        // match probability is awkward to build from bases; instead use a
        // PWM vs window pair that cannot align: impossible without zero
        // emissions, so check the columns on the degenerate 1x1 mismatch
        // still sum to 1 and the API contract (len == m) holds.
        let read = SequencedRead::with_uniform_quality("r", "A".parse().unwrap(), 40);
        let pwm = Pwm::from_read(&read);
        let win = window("T");
        let mut scratch = PhmmScratch::new();
        let total = scratch.posterior_columns(&pwm, &win, &params, None);
        assert!(total > 0.0);
        assert_eq!(scratch.columns().len(), 1);
        assert!((scratch.columns()[0].mass() - 1.0).abs() < 1e-10);
    }
}
