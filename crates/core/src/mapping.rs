//! The probabilistic mapping engine (paper Figure 1, steps A–B).
//!
//! For each read: seed candidate placements through the k-mer index (both
//! strands), run the quality-extended Pair-HMM against a padded genome
//! window at each placement, and convert the per-window total likelihoods
//! into **posterior weights** across all of the read's candidate locations
//! (the normalised posterior probability scoring of GNUMAP \[7\]). A read
//! that maps equally well to two repeat copies contributes half its
//! evidence to each — exactly the multi-mapping behaviour the paper argues
//! makes SNP calls unbiased in repeat regions.
//!
//! A read is mapped in three phases. **Score:** every candidate on both
//! strands gets only its Pair-HMM forward total, computed from the read's
//! emission profile (built once per orientation) and a byte-code genome
//! window. Both strands' candidates are pooled and scored four at a time
//! by one lockstep forward ([`PhmmScratch::forward_totals`]), each lane
//! with its own strand's profile and window; a short last chunk repeats
//! its last candidate in the spare lanes and discards their totals. A
//! lane's total has the bits the candidate would get scored on its own,
//! so the chunking is invisible in the results. In
//! [`MappingEngine::map_read_with`] the candidates are scored best-voted
//! first (votes are the seed hits on a candidate's diagonal), and a chunk
//! stops early once every lane's likelihood bound is below
//! [`ABANDON_RATIO`] of the best total so far and provably below the
//! `min_weight` cut. A per-read certificate then proves that the abandoned
//! candidates cannot change the bits of the grand total; when it cannot,
//! they are rescored in full (DESIGN.md §5e). **Prune:** the totals are
//! normalised into posterior weights and candidates below `min_weight` are
//! dropped, and the survivors are queued with their read. **Posterior:**
//! only the survivors get the forward planes, the backward pass and their
//! per-column evidence, and they get it per *batch*: the queued survivors
//! of every read of a batch are grouped by read length and run four at a
//! time in lockstep lanes ([`PhmmScratch::posterior_columns_lanes`]),
//! whichever reads they come from; only a survivor left alone at the end
//! of its length group runs on its own. Each lane's columns have the bits
//! of the single-lane pass, and the columns are handed out in read order,
//! then candidate order, so batching changes no result and no deposit
//! order. [`MappingEngine::map_read_with`] is the batch of one read. A
//! weight depends on forward totals alone, and the posterior recomputes
//! the same forward bit for bit, so this equals running the full
//! forward–backward on every candidate — at a fraction of the cost when,
//! as is typical, most candidates are pruned.
//!
//! A read's PWM and emission profile rows, in both orientations, are looked
//! up per base in the engine's [`QualityTable`] rather than computed.

use genome::alphabet::Base;
use genome::index::{IndexConfig, KmerIndex};
use genome::read::SequencedRead;
use genome::seq::DnaSeq;
use pairhmm::bound::{fill_suffix_bounds, LaneTotals, StopRule};
use pairhmm::kernel::LANES;
use pairhmm::marginal::ColumnPosterior;
use pairhmm::params::PhmmParams;
use pairhmm::pwm::{base_code, ProfileRow, Pwm, QualityTable, N_CODE};
use pairhmm::scratch::PhmmScratch;

/// Scoring stops on a candidate once its likelihood is provably below this
/// fraction of the best total its read has so far: 2⁻⁶⁴, 2⁻¹⁰ of the
/// half-ulp (at least 2⁻⁵⁴ of the value) that decides how an f64 sum
/// rounds. Such terms change the bits of a read's grand total only near a
/// rounding tie, which the certificate in [`MappingEngine::map_read_with`]
/// catches.
pub const ABANDON_RATIO: f64 = f64::EPSILON / 4096.0;

/// Configuration of the mapping engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MappingConfig {
    /// k-mer index parameters (paper default k = 10).
    pub index: IndexConfig,
    /// Pair-HMM transition/emission parameters.
    pub phmm: PhmmParams,
    /// Banded-DP half width; `None` runs the full quadratic DP.
    pub band: Option<usize>,
    /// Genome bases added on each side of a candidate placement window,
    /// giving the alignment room for small indels. The model's boundary
    /// conditions force alignments to *begin* with `x_1 : y_1` matched
    /// (paper initialisation), so a left pad shifts the read into the pad
    /// — windows are therefore padded on the right only when `window_pad
    /// > 0`, and candidates too close to the genome start for a full
    /// > window are dropped so every candidate is scored over the same
    /// > window length (posterior weights must be comparable across
    /// > locations). The default of 0 matches the substitution-dominated
    /// > short-read regime; raise it to give indels room.
    pub window_pad: usize,
    /// Candidate locations with posterior weight below this are dropped
    /// (and the rest renormalised).
    pub min_weight: f64,
    /// Hard cap on candidate placements evaluated per read *orientation*:
    /// a read scores at most `max_candidates` placements on the forward
    /// strand and as many again on the reverse strand. Zero scores none.
    pub max_candidates: usize,
}

impl Default for MappingConfig {
    fn default() -> Self {
        MappingConfig {
            index: IndexConfig::default(),
            phmm: PhmmParams::default(),
            band: Some(4),
            window_pad: 0,
            min_weight: 1e-4,
            max_candidates: 64,
        }
    }
}

/// Reusable per-thread scratch for the whole mapping hot path.
///
/// One instance is meant to live as long as a worker thread's read batch:
/// the Pair-HMM rows and planes, the per-read PWM and profile rows, the
/// reverse complement, the genome-code windows, the candidate lists and
/// the column arena are all grow-only, so after the first few batches the
/// engine performs **zero heap allocations per read**. Results of
/// [`MappingEngine::map_read_with`] / [`MappingEngine::map_read_raw_with`]
/// (and of each lockstep batch of [`crate::pipeline::BatchCounts::map_batch`])
/// are left inside the scratch and read back through
/// [`AlignScratch::alignments`].
#[derive(Default)]
pub struct AlignScratch {
    /// Pair-HMM row/plane arena (see [`PhmmScratch`]).
    phmm: PhmmScratch,
    /// Reverse complement of the current read's bases, which seeding needs.
    rc: DnaSeq,
    /// PWM and emission profile rows of each read of the current batch, by
    /// the read's slot in the batch.
    rows: Vec<ReadRows>,
    /// Reads queued in the current batch so far.
    batch_reads: usize,
    /// Genome window as profile codes, refilled per survivor that gets its
    /// posterior on its own.
    codes: Vec<u8>,
    /// Suffix products of the current read's profiles
    /// ([`fill_suffix_bounds`]), which bound a candidate's total from a
    /// partial forward.
    suffix: [Vec<f64>; 2],
    /// [`LANES`] genome windows interleaved by column, refilled per chunk
    /// of candidates scored, or given their posteriors, together.
    lane_codes: Vec<[u8; LANES]>,
    /// The set of candidate starts seen for one oriented read.
    start_set: StartSet,
    /// Sorted, deduplicated candidate starts for one oriented read, each
    /// with its seed votes (the seed hits on its diagonal).
    starts: Vec<(usize, u32)>,
    /// Bucket offsets of the counting sort that orders candidates by votes.
    vote_buckets: Vec<u32>,
    /// Indices into `cands` in the order they are scored; indices into
    /// `queue` in the order the posterior runs them.
    order: Vec<u32>,
    /// Column arena: every queued alignment's columns, in queue order.
    cols: Vec<ColumnPosterior>,
    /// The current read's candidates while they are scored and pruned.
    cands: Vec<CandMeta>,
    /// The batch's scored candidates held for a weight cut made elsewhere
    /// ([`MappingEngine::score_held`]), in read order, then candidate order.
    held: Vec<CandMeta>,
    /// The batch's alignments, in read order, then candidate order.
    queue: Vec<CandMeta>,
    /// Candidates the most recent read scored with the forward pass.
    scored: usize,
    /// Candidates of the most recent read whose forward stopped early.
    abandoned: usize,
    /// Whether the most recent read rescored its abandoned candidates.
    fallbacks: usize,
    /// Whether every candidate of the most recent read underflowed.
    underflowed: usize,
    /// Whether the most recent read had no candidate to score.
    no_candidates: usize,
    /// Lane slots of the most recent batch's four-lane posterior chunks.
    posterior_lanes: usize,
}

/// One read's PWMs and emission profiles: forward orientation, reverse
/// complement.
#[derive(Default)]
struct ReadRows {
    pwms: [Pwm; 2],
    profiles: [Vec<ProfileRow>; 2],
}

/// One candidate inside an [`AlignScratch`].
#[derive(Clone, Copy)]
struct CandMeta {
    /// The read's slot in its batch.
    read: u32,
    /// Genome position of the window's first column, which is also the
    /// placement the seeds proposed for read base 1.
    window_start: usize,
    /// Seed hits on the candidate's diagonal.
    votes: u32,
    /// Forward total likelihood from the scoring phase; an upper bound on
    /// it while `abandoned`.
    likelihood: f64,
    /// Whether scoring stopped before the last row.
    abandoned: bool,
    /// Raw likelihood after `map_read_raw_with`; posterior weight after
    /// `map_read_with`.
    score: f64,
    reverse: bool,
    col_off: usize,
    col_len: usize,
}

impl CandMeta {
    /// A scored candidate of the read in slot `read` at placement `start`,
    /// with no columns yet.
    fn new(read: u32, reverse: bool, start: usize, votes: u32, likelihood: f64) -> CandMeta {
        CandMeta {
            read,
            window_start: start,
            votes,
            likelihood,
            abandoned: false,
            score: likelihood,
            reverse,
            col_off: 0,
            col_len: 0,
        }
    }

    /// The candidate's slice of the column arena.
    fn columns<'a>(&self, cols: &'a mut [ColumnPosterior]) -> &'a mut [ColumnPosterior] {
        &mut cols[self.col_off..self.col_off + self.col_len]
    }

    /// Check that the posterior pass's forward `total` has the bits of the
    /// scoring pass's.
    fn check_total(&self, total: f64) {
        debug_assert_eq!(
            total.to_bits(),
            self.likelihood.to_bits(),
            "posterior forward diverged from the scoring pass"
        );
    }
}

/// Borrowed view of one alignment stored in an [`AlignScratch`].
#[derive(Debug, Clone, Copy)]
pub struct AlignmentView<'a> {
    /// Index of the alignment's read within its batch (0 after
    /// [`MappingEngine::map_read_with`]).
    pub read: usize,
    /// Genome position of the window's first column.
    pub window_start: usize,
    /// Raw Pair-HMM likelihood (after
    /// [`MappingEngine::map_read_raw_with`]) or normalised posterior
    /// weight (after [`MappingEngine::map_read_with`]).
    pub score: f64,
    /// Reverse-strand flag.
    pub reverse: bool,
    /// Per-column evidence vectors, unweighted.
    pub columns: &'a [ColumnPosterior],
}

impl AlignScratch {
    /// Fresh, empty scratch. Buffers grow to the working-set size over the
    /// first few reads and are then reused.
    pub fn new() -> AlignScratch {
        AlignScratch::default()
    }

    /// Iterate the alignments of the most recent batch — after
    /// `map_read_with` / `map_read_raw_with`, that read's — in read order,
    /// then candidate order.
    pub fn alignments(&self) -> impl Iterator<Item = AlignmentView<'_>> + '_ {
        self.queue.iter().map(move |c| AlignmentView {
            read: c.read as usize,
            window_start: c.window_start,
            score: c.score,
            reverse: c.reverse,
            columns: &self.cols[c.col_off..c.col_off + c.col_len],
        })
    }

    /// Candidate placements the most recent read had scored by the
    /// Pair-HMM forward pass, on both strands — before any weight cut, and
    /// including candidates whose likelihood underflowed to zero.
    pub fn scored(&self) -> usize {
        self.scored
    }

    /// Candidates of the most recent read whose forward stopped early
    /// because their likelihood bound proved them negligible (rescored in
    /// full when the read fell back). Zero after every entry point but
    /// [`MappingEngine::map_read_with`].
    pub fn abandoned(&self) -> usize {
        self.abandoned
    }

    /// 1 when the most recent read could not certify its grand total with
    /// candidates abandoned and rescored them in full, else 0.
    pub fn fallbacks(&self) -> usize {
        self.fallbacks
    }

    /// 1 when the most recent read scored at least one candidate but its
    /// grand total was 0 — every forward total underflowed, as for a long
    /// read of very low quality — so it came back unmapped, else 0. Set
    /// only by [`MappingEngine::map_read_with`].
    pub fn underflowed(&self) -> usize {
        self.underflowed
    }

    /// 1 when the most recent read had no candidate placement to score on
    /// either strand (no seed hit that fits the genome), else 0.
    pub fn no_candidates(&self) -> usize {
        self.no_candidates
    }

    /// Lane slots the most recent batch's posterior phase ran through
    /// four-lane chunks, padding included: [`LANES`] per chunk of two to
    /// four survivors, nothing for a survivor run on its own. Every
    /// alignment held got one posterior pass, so this is at most twice
    /// [`Self::len`].
    pub fn posterior_lanes(&self) -> usize {
        self.posterior_lanes
    }

    /// Number of alignments currently held.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the most recent mapping produced no alignments.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Start a batch: drop the previous batch's reads, held candidates and
    /// alignments.
    pub(crate) fn begin_batch(&mut self) {
        self.batch_reads = 0;
        self.held.clear();
        self.begin_piece();
    }

    /// Start the next posterior piece of the current batch: drop the
    /// alignments, keep the batch's reads and held candidates.
    pub(crate) fn begin_piece(&mut self) {
        self.queue.clear();
        self.cols.clear();
        self.posterior_lanes = 0;
    }

    /// Queue the held candidates of the batch's read in slot `read` that
    /// `weights` keeps, each with its weight as its score, for
    /// [`MappingEngine::posterior_batch`]. Returns the number queued.
    pub(crate) fn queue_held(&mut self, read: usize, weights: &PosteriorWeights) -> usize {
        let first = self.held.partition_point(|c| (c.read as usize) < read);
        let queued = self.queue.len();
        for c in self.held[first..]
            .iter()
            .take_while(|c| c.read as usize == read)
        {
            if let Some(weight) = weights.weight(c.likelihood) {
                self.queue.push(CandMeta {
                    score: weight,
                    ..*c
                });
            }
        }
        self.queue.len() - queued
    }
}

/// Why a read with no positive grand total came back unmapped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Unmapped {
    /// The read had no candidate placement to score.
    NoCandidates,
    /// Every candidate's forward total underflowed to 0.
    Underflowed,
}

/// The posterior-weight step of one read, which every driver shares: a
/// candidate's weight follows from its own forward total, the read's grand
/// total and the sum of the kept weights.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PosteriorWeights {
    grand_total: f64,
    kept_sum: f64,
    kept: usize,
    min_weight: f64,
}

impl PosteriorWeights {
    /// The weights of a read whose candidates' forward totals are `totals`,
    /// in evaluation order (forward placements ascending, then reverse).
    /// The grand total is summed in that order; when it is not positive,
    /// the read is unmapped, for the returned reason. A candidate is kept
    /// when its total is positive and its weight, total ÷ grand total, is
    /// at least `min_weight`. Kept weights are renormalised by their sum,
    /// taken in the same order. Zero totals leave the bits of both sums
    /// unchanged, so they may be listed or left out.
    pub(crate) fn new(
        totals: impl Iterator<Item = f64> + Clone,
        min_weight: f64,
    ) -> Result<PosteriorWeights, Unmapped> {
        let grand_total: f64 = totals.clone().sum();
        if grand_total <= 0.0 {
            return Err(match totals.clone().next() {
                None => Unmapped::NoCandidates,
                Some(_) => Unmapped::Underflowed,
            });
        }
        let mut weights = PosteriorWeights {
            grand_total,
            kept_sum: 0.0,
            kept: 0,
            min_weight,
        };
        for total in totals {
            if let Some(weight) = weights.cut(total) {
                weights.kept += 1;
                weights.kept_sum += weight;
            }
        }
        Ok(weights)
    }

    /// Candidates kept.
    pub(crate) fn kept(&self) -> usize {
        self.kept
    }

    /// The weight before renormalisation of a candidate whose forward total
    /// is `total`, or `None` when it is cut.
    fn cut(&self, total: f64) -> Option<f64> {
        let weight = total / self.grand_total;
        (total > 0.0 && weight >= self.min_weight).then_some(weight)
    }

    /// The weight of a candidate whose forward total is `total`, or `None`
    /// when it is cut.
    pub(crate) fn weight(&self, total: f64) -> Option<f64> {
        let weight = self.cut(total)?;
        Some(if self.kept_sum > 0.0 {
            weight / self.kept_sum
        } else {
            weight
        })
    }
}

/// The set of candidate starts of one oriented read, for the dedupe in
/// [`MappingEngine::candidates_into`]: open addressing with linear probing
/// over a power-of-two table of slots, each holding a start and its entry
/// in the candidate list. Slots carry the stamp of the read that wrote
/// them, so starting a read clears nothing.
#[derive(Default)]
struct StartSet {
    slots: Vec<StartSlot>,
    /// `64 − log2(slots.len())`: the multiplicative hash keeps the top bits.
    shift: u32,
    stamp: u32,
}

#[derive(Clone, Copy, Default)]
struct StartSlot {
    stamp: u32,
    entry: u32,
    start: usize,
}

impl StartSet {
    /// Slots of a fresh table; it doubles when half full.
    const INITIAL_SLOTS: usize = 256;

    /// Start an empty set.
    fn begin(&mut self) {
        if self.slots.is_empty() {
            self.resize(Self::INITIAL_SLOTS);
        }
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.resize(self.slots.len());
        }
    }

    /// Clear every slot into a table of `len` (a power of two).
    fn resize(&mut self, len: usize) {
        self.slots.clear();
        self.slots.resize(len, StartSlot::default());
        self.shift = 64 - len.trailing_zeros();
        self.stamp = 1;
    }

    /// The entry recorded for `start`; when there is none, records `entry`
    /// for it and returns `None`.
    #[inline]
    fn find_or_insert(&mut self, start: usize, entry: u32) -> Option<u32> {
        let mask = self.slots.len() - 1;
        let mut i = ((start as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize;
        loop {
            let slot = &mut self.slots[i];
            if slot.stamp != self.stamp {
                *slot = StartSlot {
                    stamp: self.stamp,
                    entry,
                    start,
                };
                return None;
            }
            if slot.start == start {
                return Some(slot.entry);
            }
            i = (i + 1) & mask;
        }
    }

    /// Keep the load at most one half once `starts` holds every start
    /// recorded: double the table and re-record them when it is above.
    #[inline]
    fn reserve(&mut self, starts: &[(usize, u32)]) {
        if 2 * starts.len() > self.slots.len() {
            self.resize(2 * self.slots.len());
            for (entry, &(start, _)) in starts.iter().enumerate() {
                self.find_or_insert(start, entry as u32);
            }
        }
    }
}

/// Fill `order` with `0..votes.len()` sorted by descending votes, ties in
/// ascending index order — the permutation of `sort_by_key(|&k|
/// (Reverse(votes[k]), k))` — by one stable counting sort over the vote
/// values, `buckets` holding the bucket offsets.
fn order_by_votes(
    votes: impl Iterator<Item = u32> + Clone,
    buckets: &mut Vec<u32>,
    order: &mut Vec<u32>,
) {
    let max = votes.clone().max().unwrap_or(0) as usize;
    // Bucket `max − v` holds the candidates with `v` votes; its count goes
    // in slot `max − v + 1`, so the prefix sums leave each bucket's start
    // in slot `max − v`.
    buckets.clear();
    buckets.resize(max + 2, 0);
    for v in votes.clone() {
        buckets[max - v as usize + 1] += 1;
    }
    for b in 1..buckets.len() {
        buckets[b] += buckets[b - 1];
    }
    order.clear();
    order.resize(buckets[max + 1] as usize, 0);
    for (k, v) in votes.enumerate() {
        let next = &mut buckets[max - v as usize];
        order[*next as usize] = k as u32;
        *next += 1;
    }
}

/// One weighted alignment of a read to a genome window.
#[derive(Debug, Clone)]
pub struct ReadAlignment {
    /// Genome position of the window's first column.
    pub window_start: usize,
    /// Posterior weight of this location among the read's candidates
    /// (weights over a read's alignments sum to 1).
    pub weight: f64,
    /// Whether the read aligned on the reverse strand.
    pub reverse: bool,
    /// Per-column evidence vectors (each summing to 1), *unweighted*;
    /// multiply by `weight` when depositing into an accumulator.
    pub columns: Vec<ColumnPosterior>,
}

/// The engine: genome + index + config.
pub struct MappingEngine<'g> {
    genome: &'g DnaSeq,
    index: KmerIndex,
    config: MappingConfig,
    /// PWM and profile rows of every (base, Phred) pair under
    /// `config.phmm`.
    table: QualityTable,
    /// Fraction of a read's best total below which a candidate may be
    /// abandoned; zero disables abandoning.
    abandon_ratio: f64,
}

/// The `abandon_ratio` of an engine with `config`: [`ABANDON_RATIO`], or
/// less when `min_weight` is smaller, so that every abandoned candidate
/// provably fails the `min_weight` cut. Zero, which abandons nothing, for
/// `min_weight = 0` and for parameters the likelihood bound does not hold
/// for.
fn abandon_ratio(config: &MappingConfig) -> f64 {
    // The cut divides and compares in f64; 1 − 2⁻⁵¹ absorbs the rounding
    // of that division and of this product.
    let cut = config.min_weight * (1.0 - 2.0 * f64::EPSILON);
    if config.phmm.validate().is_ok() && cut > 0.0 {
        ABANDON_RATIO.min(cut)
    } else {
        0.0
    }
}

/// Whether the abandoned candidates of a read provably leave the bits of
/// its grand total unchanged: the total summed in candidate order, as full
/// scoring sums it. Each term is `(likelihood, abandoned)`, where an
/// abandoned likelihood is an upper bound on the candidate's total. Sums
/// once with abandoned terms at 0 and once at their bounds: round-to-nearest
/// addition is monotone in every term, so the full-scoring sum lies between
/// the two, and equal sums pin it.
fn total_certified(terms: impl Iterator<Item = (f64, bool)> + Clone) -> bool {
    let low: f64 = terms
        .clone()
        .map(|(t, abandoned)| if abandoned { 0.0 } else { t })
        .sum();
    let high: f64 = terms.map(|(t, _)| t).sum();
    low == high
}

impl<'g> MappingEngine<'g> {
    /// Build the index over `genome` and wrap it with the configuration.
    ///
    /// Panics when [`IndexConfig::validate`] rejects `config.index` for
    /// this genome; drivers reach here only after `RunContext::validate`
    /// has returned that rejection as a typed error.
    pub fn new(genome: &'g DnaSeq, config: MappingConfig) -> MappingEngine<'g> {
        let index = KmerIndex::build(genome, config.index).expect("valid index config");
        MappingEngine::with_index(genome, index, config)
    }

    /// Construct around an index built beforehand: the server builds its
    /// index up front, so that an index configuration the genome cannot
    /// take is an error at startup, and moves it into its one engine.
    pub fn with_index(
        genome: &'g DnaSeq,
        index: KmerIndex,
        config: MappingConfig,
    ) -> MappingEngine<'g> {
        MappingEngine {
            genome,
            index,
            config,
            table: QualityTable::new(&config.phmm),
            abandon_ratio: abandon_ratio(&config),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &MappingConfig {
        &self.config
    }

    /// Borrow the seed index.
    pub fn index(&self) -> &KmerIndex {
        &self.index
    }

    /// Genome length.
    pub fn genome_len(&self) -> usize {
        self.genome.len()
    }

    /// Candidate placement starts for one oriented read sequence:
    /// deduplicated diagonals from the seed hits, collected into `starts`
    /// in increasing genome order, each with its votes — the seed hits on
    /// its diagonal before the `max_candidates` cut-off. The loop stops at
    /// the first hit after `max_candidates` distinct starts. Distinct
    /// starts go into `starts` in the order they are first hit, found
    /// again through the open-addressed `set`, and are sorted once at the
    /// end; each start is distinct, so the unstable sort is exact.
    fn candidates_into(&self, seq: &DnaSeq, set: &mut StartSet, starts: &mut Vec<(usize, u32)>) {
        starts.clear();
        set.begin();
        for (qoff, gpos) in self.index.seed_hits(seq) {
            if starts.len() >= self.config.max_candidates {
                break;
            }
            let gpos = gpos as usize;
            if gpos < qoff {
                continue;
            }
            let start = gpos - qoff;
            if start + seq.len() <= self.genome.len() {
                match set.find_or_insert(start, starts.len() as u32) {
                    Some(entry) => starts[entry as usize].1 += 1,
                    None => {
                        starts.push((start, 1));
                        set.reserve(starts);
                    }
                }
            }
        }
        starts.sort_unstable_by_key(|&(start, _)| start);
    }

    /// Refill `codes` with the genome window of `len` bases at `start`,
    /// as profile codes. Positions past the genome end become `N`, so
    /// every candidate is scored over the same window length `N +
    /// window_pad` and likelihoods stay comparable across a read's
    /// candidate locations — a requirement for unbiased posterior weights.
    fn fill_window(&self, start: usize, len: usize, codes: &mut Vec<u8>) {
        codes.clear();
        codes.extend(self.window_bases(start, len).iter().map(|&y| base_code(y)));
        codes.resize(len, N_CODE);
    }

    /// [`Self::fill_window`] for [`LANES`] windows at once, lane `l` of
    /// `codes[j]` holding column `j` of the window at `starts[l]`.
    fn fill_lanes(&self, starts: [usize; LANES], len: usize, codes: &mut Vec<[u8; LANES]>) {
        codes.clear();
        codes.resize(len, [N_CODE; LANES]);
        for (lane, start) in starts.into_iter().enumerate() {
            for (cell, &y) in codes.iter_mut().zip(self.window_bases(start, len)) {
                cell[lane] = base_code(y);
            }
        }
    }

    /// The genome bases of the window of `len` at `start`, cut short at
    /// the genome end.
    fn window_bases(&self, start: usize, len: usize) -> &[Option<Base>] {
        let bases = self.genome.as_slice();
        let end = (start + len).min(bases.len());
        &bases[start.min(end)..end]
    }

    /// Banded-DP half width of a window (the band widens with the pad).
    fn band(&self) -> Option<usize> {
        self.config.band.map(|w| w + self.config.window_pad)
    }

    /// Queue `read` as the next read of the batch in `scratch`: reset the
    /// per-read counts and look up both orientations' PWM and emission
    /// profile rows in the engine's [`QualityTable`]. Returns the read's
    /// slot in the batch.
    fn prepare(&self, read: &SequencedRead, scratch: &mut AlignScratch) -> u32 {
        scratch.scored = 0;
        scratch.abandoned = 0;
        scratch.fallbacks = 0;
        scratch.underflowed = 0;
        scratch.no_candidates = 0;
        let slot = scratch.batch_reads;
        scratch.batch_reads += 1;
        if scratch.rows.len() == slot {
            scratch.rows.push(ReadRows::default());
        }
        let ReadRows { pwms, profiles } = &mut scratch.rows[slot];
        for (o, (pwm, profile)) in pwms.iter_mut().zip(profiles).enumerate() {
            self.table.fill(read, o == 1, pwm, profile);
        }
        slot as u32
    }

    /// Phase 1 — score — for a driver whose weight cut needs totals this
    /// engine does not see: the genome-split driver, each of whose shards
    /// holds part of a read's candidates. Prepares `read` as the next read
    /// of the batch in `scratch`, gives every candidate placement on both
    /// strands its Pair-HMM forward total, and holds the candidates whose
    /// placement start `keep` accepts, after the batch's earlier reads,
    /// for [`AlignScratch::queue_held`]. Nothing is abandoned: abandoning
    /// needs the read's best total, which a shard does not see. Returns
    /// this read's held candidates as `(reverse, placement start, total)`
    /// in evaluation order (forward placements ascending, then reverse),
    /// zero totals included.
    pub(crate) fn score_held<'s>(
        &self,
        read: &SequencedRead,
        scratch: &'s mut AlignScratch,
        keep: impl Fn(usize) -> bool,
    ) -> impl Iterator<Item = (bool, usize, f64)> + 's {
        self.score(read, scratch, false);
        let first = scratch.held.len();
        let held = scratch.cands.drain(..).filter(|c| keep(c.window_start));
        scratch.held.extend(held);
        scratch.held[first..]
            .iter()
            .map(|c| (c.reverse, c.window_start, c.likelihood))
    }

    /// Prepare `read` as the next read of the batch and score its
    /// candidates into `scratch.cands`, in evaluation order, optionally
    /// abandoning candidates.
    ///
    /// Both strands' candidates are pooled and scored [`LANES`] at a time
    /// by [`PhmmScratch::forward_totals`] (rolling rows, no planes, no
    /// columns), each lane with its own strand's profile. A short last
    /// chunk repeats its last candidate in the spare lanes, whose totals
    /// are discarded. Each lane's total has the bits a candidate scored
    /// on its own would get, so chunking changes no result. With
    /// `abandon`, candidates are scored best-voted first, and a chunk
    /// stops once every lane's bound is below `abandon_ratio` × the best
    /// total scored so far; its candidates keep their bounds and are
    /// marked abandoned.
    fn score(&self, read: &SequencedRead, scratch: &mut AlignScratch, abandon: bool) {
        let slot = self.prepare(read, scratch);
        read.seq.reverse_complement_into(&mut scratch.rc);
        let AlignScratch {
            rc,
            rows,
            suffix,
            start_set,
            starts,
            vote_buckets,
            order,
            cands,
            ..
        } = scratch;
        cands.clear();
        for (reverse, seq) in [(false, &read.seq), (true, &*rc)] {
            self.candidates_into(seq, start_set, starts);
            cands.extend(
                starts
                    .iter()
                    .map(|&(start, votes)| CandMeta::new(slot, reverse, start, votes, 0.0)),
            );
        }
        scratch.scored = cands.len();
        scratch.no_candidates = usize::from(cands.is_empty());
        if abandon {
            // Best-voted first, ties in evaluation order.
            order_by_votes(cands.iter().map(|c| c.votes), vote_buckets, order);
            for (profile, suffix) in rows[slot as usize].profiles.iter().zip(suffix) {
                fill_suffix_bounds(profile, self.config.phmm.q, suffix);
            }
        } else {
            order.clear();
            order.extend(0..cands.len() as u32);
        }
        self.score_order(scratch, abandon);
    }

    /// Score the candidates `scratch.order` lists, [`LANES`] at a time in
    /// that order, writing each total into its candidate. With `abandon`,
    /// every chunk after the first may stop early (see [`Self::score`]).
    fn score_order(&self, scratch: &mut AlignScratch, abandon: bool) {
        let band = self.band();
        let AlignScratch {
            phmm,
            rows,
            batch_reads,
            suffix,
            lane_codes,
            order,
            cands,
            abandoned,
            ..
        } = scratch;
        // The read prepared last is the one being scored.
        let ReadRows { pwms, profiles } = &rows[*batch_reads - 1];
        let len = pwms[0].len() + self.config.window_pad;
        let mut best = 0.0f64;
        for chunk in order.chunks(LANES) {
            // Lanes past a short chunk's end repeat its last candidate.
            let lanes: [usize; LANES] =
                std::array::from_fn(|l| chunk[l.min(chunk.len() - 1)] as usize);
            self.fill_lanes(lanes.map(|k| cands[k].window_start), len, lane_codes);
            let strands = lanes.map(|k| usize::from(cands[k].reverse));
            let stop = (abandon && best > 0.0).then(|| StopRule {
                suffix: strands.map(|o| &suffix[o][..]),
                below: best * self.abandon_ratio,
            });
            let lane_profiles = strands.map(|o| &profiles[o][..]);
            let (totals, stopped) =
                match phmm.forward_totals(lane_profiles, lane_codes, &self.config.phmm, band, stop)
                {
                    LaneTotals::Exact(totals) => (totals, false),
                    LaneTotals::Abandoned(bounds) => (bounds, true),
                };
            for (&k, total) in chunk.iter().zip(totals) {
                let c = &mut cands[k as usize];
                c.likelihood = total;
                c.score = total;
                c.abandoned = stopped;
                if !stopped {
                    best = best.max(total);
                }
            }
            *abandoned += chunk.len() * usize::from(stopped);
        }
    }

    /// Phase 3 — posterior, for the whole batch. Forward planes, backward
    /// and marginal for every alignment queued in `scratch`, each writing
    /// its columns into the arena at the alignment's place in queue order.
    /// The forward is recomputed; its total must carry the same bits as
    /// the phase-1 score.
    ///
    /// The alignments are grouped by read length (in queue order within a
    /// group) and run [`LANES`] at a time through
    /// [`PhmmScratch::posterior_columns_lanes`], each lane with its own
    /// read's and strand's PWM and profile and its own window — the lanes
    /// of a chunk may come from different reads. A group's short last
    /// chunk of two or three repeats its last alignment in the spare lanes
    /// and discards their columns. A last chunk of one runs the
    /// single-lane [`PhmmScratch::posterior_columns_profiled`] instead:
    /// padding it to four lanes would cost about twice as much. Every
    /// lane's columns have the bits of the single-lane pass, so the
    /// grouping changes no result.
    pub(crate) fn posterior_batch(&self, scratch: &mut AlignScratch) {
        let band = self.band();
        let AlignScratch {
            phmm,
            rows,
            codes,
            lane_codes,
            order,
            cols,
            queue,
            posterior_lanes,
            ..
        } = scratch;
        let mut len = 0;
        for c in queue.iter_mut() {
            c.col_off = len;
            c.col_len = rows[c.read as usize].pwms[0].len() + self.config.window_pad;
            len += c.col_len;
        }
        cols.clear();
        cols.resize(len, ColumnPosterior::default());
        order.clear();
        order.extend(0..queue.len() as u32);
        order.sort_unstable_by_key(|&k| (queue[k as usize].col_len, k));
        let same_len = |&a: &u32, &b: &u32| queue[a as usize].col_len == queue[b as usize].col_len;
        for group in order.chunk_by(same_len) {
            for chunk in group.chunks(LANES) {
                if let [k] = *chunk {
                    let c = &queue[k as usize];
                    let o = usize::from(c.reverse);
                    let ReadRows { pwms, profiles } = &rows[c.read as usize];
                    self.fill_window(c.window_start, c.col_len, codes);
                    let total = phmm.posterior_columns_profiled(
                        &pwms[o],
                        &profiles[o],
                        codes,
                        &self.config.phmm,
                        band,
                    );
                    c.check_total(total);
                    c.columns(cols).copy_from_slice(phmm.columns());
                    continue;
                }
                // Lanes past a short chunk's end repeat its last alignment.
                let lanes: [&CandMeta; LANES] =
                    std::array::from_fn(|l| &queue[chunk[l.min(chunk.len() - 1)] as usize]);
                self.fill_lanes(lanes.map(|c| c.window_start), lanes[0].col_len, lane_codes);
                let sources = lanes.map(|c| (&rows[c.read as usize], usize::from(c.reverse)));
                let totals = phmm.posterior_columns_lanes(
                    sources.map(|(r, o)| &r.pwms[o]),
                    sources.map(|(r, o)| &r.profiles[o][..]),
                    lane_codes,
                    &self.config.phmm,
                    band,
                );
                *posterior_lanes += LANES;
                for (lane, (c, total)) in lanes.iter().zip(totals).take(chunk.len()).enumerate() {
                    c.check_total(total);
                    for (dst, src) in c.columns(cols).iter_mut().zip(phmm.lane_columns(lane)) {
                        *dst = src;
                    }
                }
            }
        }
    }

    /// Map one read into `scratch`, leaving **unnormalised** candidate
    /// alignments: every candidate with a positive total likelihood, in
    /// evaluation order, each with its raw Pair-HMM total in
    /// [`AlignmentView::score`] and its columns.
    pub fn map_read_raw_with(&self, read: &SequencedRead, scratch: &mut AlignScratch) {
        scratch.begin_batch();
        self.score(read, scratch, false);
        scratch.cands.retain(|c| c.likelihood > 0.0);
        scratch.queue.append(&mut scratch.cands);
        self.posterior_batch(scratch);
    }

    /// Map one read into `scratch`: all candidate placements on both
    /// strands, posterior-normalised ([`AlignmentView::score`] holds the
    /// weight). The scratch is left empty for unmappable reads. This is
    /// the batch of one read: its candidates are scored and pruned, then
    /// the survivors get their columns, as in each lockstep batch of
    /// [`crate::pipeline::BatchCounts::map_batch`].
    pub fn map_read_with(&self, read: &SequencedRead, scratch: &mut AlignScratch) {
        scratch.begin_batch();
        self.queue_read(read, scratch);
        self.posterior_batch(scratch);
    }

    /// The per-read half of mapping: score `read`'s candidates, normalise
    /// their totals into posterior weights and prune them by `min_weight`
    /// ([`PosteriorWeights`]), and queue the survivors in `scratch`'s
    /// batch, for [`Self::posterior_batch`] to give them their columns.
    /// Returns the number of survivors queued.
    ///
    /// Every candidate is scored with a forward total; weights depend on
    /// forward totals alone, so giving only the survivors their columns is
    /// bit-identical to giving every candidate its columns first. Scoring
    /// runs best-voted candidates first and abandons those whose
    /// likelihood bound falls below [`ABANDON_RATIO`] of the best total so
    /// far (and provably below the `min_weight` cut). Before pruning, a
    /// certificate checks that the abandoned candidates cannot change the
    /// bits of the grand total (`total_certified`); if it fails, they are
    /// rescored in full. Either way the survivors and their weights are
    /// those of full scoring, bit for bit.
    pub(crate) fn queue_read(&self, read: &SequencedRead, scratch: &mut AlignScratch) -> usize {
        self.score(read, scratch, self.abandon_ratio > 0.0);
        let terms = scratch.cands.iter().map(|c| (c.likelihood, c.abandoned));
        if scratch.abandoned > 0 && !total_certified(terms) {
            self.rescore_abandoned(scratch);
        }
        // Abandoned candidates fail the `min_weight` cut: their totals are
        // under `abandon_ratio` of one term of the grand total.
        let cands = &mut scratch.cands;
        cands.retain(|c| !c.abandoned);
        let totals = cands.iter().map(|c| c.likelihood);
        let weights = match PosteriorWeights::new(totals, self.config.min_weight) {
            Ok(weights) => weights,
            Err(reason) => {
                scratch.underflowed = usize::from(reason == Unmapped::Underflowed);
                cands.clear();
                return 0;
            }
        };
        // `retain_mut` keeps evaluation order, which the weights assume.
        cands.retain_mut(|c| match weights.weight(c.likelihood) {
            Some(weight) => {
                c.score = weight;
                true
            }
            None => false,
        });
        let survivors = cands.len();
        scratch.queue.append(cands);
        survivors
    }

    /// The fallback of [`Self::queue_read`]: score the candidates
    /// [`Self::score`] abandoned to the last row, in evaluation order, and
    /// count the read as a fallback.
    fn rescore_abandoned(&self, scratch: &mut AlignScratch) {
        let AlignScratch { order, cands, .. } = &mut *scratch;
        order.clear();
        for (k, c) in cands.iter().enumerate() {
            if c.abandoned {
                order.push(k as u32);
            }
        }
        self.score_order(scratch, false);
        scratch.fallbacks = 1;
    }

    /// Convenience wrapper around [`MappingEngine::map_read_with`] that
    /// allocates owned `ReadAlignment`s with a throwaway scratch. Returns
    /// an empty vector for unmappable reads.
    pub fn map_read(&self, read: &SequencedRead) -> Vec<ReadAlignment> {
        let mut scratch = AlignScratch::new();
        self.map_read_with(read, &mut scratch);
        scratch
            .alignments()
            .map(|v| ReadAlignment {
                window_start: v.window_start,
                weight: v.score,
                reverse: v.reverse,
                columns: v.columns.to_vec(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn genome(s: &str) -> DnaSeq {
        s.parse().unwrap()
    }

    fn cfg(k: usize) -> MappingConfig {
        MappingConfig {
            index: IndexConfig {
                k,
                ..IndexConfig::default()
            },
            ..MappingConfig::default()
        }
    }

    fn read_from(g: &DnaSeq, start: usize, end: usize, q: u8) -> SequencedRead {
        SequencedRead::with_uniform_quality("r", g.window(start, end), q)
    }

    #[test]
    fn unique_read_gets_weight_one() {
        let g = genome("TTGACCAGTTCAGGCATTGCAAGCTTGGCATCCATGGACC");
        let engine = MappingEngine::new(&g, cfg(8));
        let read = read_from(&g, 10, 34, 35);
        let alns = engine.map_read(&read);
        assert_eq!(alns.len(), 1);
        let a = &alns[0];
        assert!((a.weight - 1.0).abs() < 1e-9);
        assert!(!a.reverse);
        // With no left pad the window starts at the placement itself.
        assert_eq!(a.window_start, 10);
        // Columns over the placement report the genome bases.
        for (j, col) in a.columns.iter().enumerate() {
            let gpos = a.window_start + j;
            if (10..34).contains(&gpos) {
                let expect = g.get(gpos).unwrap().index();
                let argmax = (0..5)
                    .max_by(|&x, &y| col.probs[x].total_cmp(&col.probs[y]))
                    .unwrap();
                assert_eq!(argmax, expect, "column {j}");
            }
        }
    }

    #[test]
    fn reverse_strand_read_maps() {
        let g = genome("TTGACCAGTTCAGGCATTGCAAGCTTGGCATCCATGGACC");
        let engine = MappingEngine::new(&g, cfg(8));
        let read =
            SequencedRead::with_uniform_quality("r", g.window(5, 30).reverse_complement(), 35);
        let alns = engine.map_read(&read);
        assert_eq!(alns.len(), 1);
        assert!(alns[0].reverse);
        assert_eq!(alns[0].window_start, 5);
    }

    #[test]
    fn repeat_read_splits_weight_evenly() {
        // Two identical copies: posterior weight ≈ ½ each — the defining
        // behaviour of probabilistic mapping (paper Section V-B).
        let unit = "ACGGTTCAGGCATTGCAAGCTTGGC";
        let g = genome(&format!("{unit}TTATTATTAT{unit}"));
        let engine = MappingEngine::new(&g, cfg(8));
        let read = SequencedRead::with_uniform_quality("r", genome(unit), 35);
        let alns = engine.map_read(&read);
        assert_eq!(alns.len(), 2, "both copies found");
        for a in &alns {
            assert!(
                (a.weight - 0.5).abs() < 1e-6,
                "even split expected, got {}",
                a.weight
            );
        }
    }

    #[test]
    fn mismatched_copy_gets_less_weight() {
        // Copy 2 differs from the read at one high-quality base: its
        // posterior weight must be much smaller but non-zero.
        let unit1 = "ACGGTTCAGGCATTGCAAGCTTGGC";
        let unit2 = "ACGGTTCAGGCTTTGCAAGCTTGGC"; // A→T at offset 11
        let g = genome(&format!("{unit1}TTATTATTAT{unit2}"));
        let engine = MappingEngine::new(&g, cfg(8));
        let read = SequencedRead::with_uniform_quality("r", genome(unit1), 30);
        let mut alns = engine.map_read(&read);
        alns.sort_by(|a, b| b.weight.total_cmp(&a.weight));
        assert_eq!(alns.len(), 2);
        assert!(
            alns[0].weight > 0.9,
            "exact copy dominates: {}",
            alns[0].weight
        );
        assert!(alns[1].weight > 0.0 && alns[1].weight < 0.1);
        assert_eq!(alns[0].window_start, 0);
    }

    #[test]
    fn unmappable_read_returns_empty() {
        let g = genome("TTGACCAGTTCAGGCATTGCAAGCTTGGCATCCA");
        let engine = MappingEngine::new(&g, cfg(8));
        let read = SequencedRead::with_uniform_quality("r", genome("GGGGGGGGGGGGGGGGGGGG"), 35);
        assert!(engine.map_read(&read).is_empty());
    }

    #[test]
    fn weights_always_sum_to_one() {
        let unit = "ACGGTTCAGGCATTGCAAGCTTGGC";
        let g = genome(&format!("{unit}TT{unit}AATT{unit}GG"));
        let engine = MappingEngine::new(&g, cfg(6));
        let read = SequencedRead::with_uniform_quality("r", genome(unit), 25);
        let alns = engine.map_read(&read);
        assert!(alns.len() >= 3);
        let sum: f64 = alns.iter().map(|a| a.weight).sum();
        assert!((sum - 1.0).abs() < 1e-9, "weights sum to {sum}");
    }

    #[test]
    fn banded_and_full_agree_on_clean_reads() {
        let g = genome("TTGACCAGTTCAGGCATTGCAAGCTTGGCATCCATGGACC");
        let full = MappingEngine::new(
            &g,
            MappingConfig {
                band: None,
                ..cfg(8)
            },
        );
        let banded = MappingEngine::new(&g, cfg(8));
        let read = read_from(&g, 4, 36, 35);
        let a = full.map_read(&read);
        let b = banded.map_read(&read);
        assert_eq!(a.len(), b.len());
        assert!((a[0].weight - b[0].weight).abs() < 1e-9);
        for (ca, cb) in a[0].columns.iter().zip(&b[0].columns) {
            for k in 0..5 {
                assert!(
                    (ca.probs[k] - cb.probs[k]).abs() < 1e-6,
                    "banded column posterior diverged"
                );
            }
        }
    }

    /// Scored candidates per strand for `read` under `max_candidates`.
    fn scored_per_strand(g: &DnaSeq, read: &SequencedRead, max_candidates: usize) -> [usize; 2] {
        let engine = MappingEngine::new(
            g,
            MappingConfig {
                max_candidates,
                ..cfg(8)
            },
        );
        let mut scratch = AlignScratch::new();
        let mut per_strand = [0; 2];
        for (reverse, _, _) in engine.score_held(read, &mut scratch, |_| true) {
            per_strand[usize::from(reverse)] += 1;
        }
        assert_eq!(per_strand[0] + per_strand[1], scratch.scored());
        per_strand
    }

    #[test]
    fn candidate_cap_applies_per_strand_and_zero_scores_nothing() {
        // Copies on both strands seed candidates on both strands of the
        // read; the cap bounds each strand separately.
        let unit = "ACGGTTCAGGCATTGCAAGCTTGGC";
        let rc: DnaSeq = genome(unit).reverse_complement();
        let g = genome(&format!("{unit}TT{unit}AATT{rc}GG{rc}CA"));
        let read = SequencedRead::with_uniform_quality("r", genome(unit), 25);
        let all = scored_per_strand(&g, &read, 64);
        assert!(
            all.iter().all(|&c| c >= 2),
            "fixture seeds both strands: {all:?}"
        );
        for cap in [0, 1, 2] {
            assert_eq!(scored_per_strand(&g, &read, cap), all.map(|c| c.min(cap)));
        }
        let capped_at_zero = MappingEngine::new(
            &g,
            MappingConfig {
                max_candidates: 0,
                ..cfg(8)
            },
        );
        assert!(capped_at_zero.map_read(&read).is_empty());
    }

    /// The sorted-insert dedupe `candidates_into` replaced, kept as its
    /// oracle: a binary search per hit, an insert per new start.
    fn candidates_oracle(engine: &MappingEngine<'_>, seq: &DnaSeq) -> Vec<(usize, u32)> {
        let mut starts: Vec<(usize, u32)> = Vec::new();
        for (qoff, gpos) in engine.index.seed_hits(seq) {
            if starts.len() >= engine.config.max_candidates {
                break;
            }
            let gpos = gpos as usize;
            if gpos < qoff {
                continue;
            }
            let start = gpos - qoff;
            if start + seq.len() <= engine.genome.len() {
                match starts.binary_search_by_key(&start, |&(s, _)| s) {
                    Ok(pos) => starts[pos].1 += 1,
                    Err(pos) => starts.insert(pos, (start, 1)),
                }
            }
        }
        starts
    }

    /// `candidates_into` on `seq`, with a set and list reused across calls.
    fn candidates(
        engine: &MappingEngine<'_>,
        seq: &DnaSeq,
        set: &mut StartSet,
        starts: &mut Vec<(usize, u32)>,
    ) -> Vec<(usize, u32)> {
        engine.candidates_into(seq, set, starts);
        starts.clone()
    }

    #[test]
    fn candidate_dedupe_matches_the_sorted_insert_oracle() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(29);
        // A unit repeated with a few substitutions per copy: reads from it
        // seed many starts, most of them hit several times.
        let unit: Vec<Base> = (0..70)
            .map(|_| Base::from_index(rng.random_range(0..4)))
            .collect();
        let mut bases: Vec<Base> = (0..400)
            .map(|_| Base::from_index(rng.random_range(0..4)))
            .collect();
        for copy in 0..160 {
            let mut unit = unit.clone();
            unit[(copy * 13) % 70] = unit[(copy * 13) % 70].transition();
            bases.extend(unit);
            bases.extend((0..copy % 7).map(|_| Base::from_index(rng.random_range(0..4))));
        }
        let g = DnaSeq::from_bases(bases);
        let (mut set, mut starts) = (StartSet::default(), Vec::new());
        for max_candidates in [0, 1, 2, 3, 5, 64, 1000] {
            let engine = MappingEngine::new(
                &g,
                MappingConfig {
                    max_candidates,
                    ..cfg(8)
                },
            );
            for start in (0..g.len() - 62).step_by(97) {
                let read = g.window(start, start + 62);
                for seq in [read.clone(), read.reverse_complement()] {
                    assert_eq!(
                        candidates(&engine, &seq, &mut set, &mut starts),
                        candidates_oracle(&engine, &seq),
                        "cap {max_candidates}, read at {start}"
                    );
                }
            }
        }
        // Reads with over 128 distinct starts grow the table past its
        // first size.
        assert!(set.slots.len() > StartSet::INITIAL_SLOTS);
    }

    #[test]
    fn candidate_cap_stops_at_the_first_hit_after_the_cap() {
        // Read k-mers at offsets 0..=4 hit two copies, offset 0 first, so
        // the hits run (0, a), (0, b), (1, a + 1), (1, b + 1), ...: two
        // distinct starts, then only duplicates of them.
        let unit = "ACGGTTCAGGCATTGCAAGCTTGGC";
        let g = genome(&format!("{unit}TTATTATTAT{unit}"));
        let read = genome(unit);
        let (mut set, mut starts) = (StartSet::default(), Vec::new());
        for (cap, want) in [
            (0, vec![]),
            (1, vec![(0, 1)]),
            // The distinct starts equal the cap: the duplicate hit after
            // them stops the loop before it votes.
            (2, vec![(0, 1), (35, 1)]),
            (3, vec![(0, 18), (35, 18)]),
        ] {
            let engine = MappingEngine::new(
                &g,
                MappingConfig {
                    max_candidates: cap,
                    ..cfg(8)
                },
            );
            let got = candidates(&engine, &read, &mut set, &mut starts);
            assert_eq!(got, candidates_oracle(&engine, &read), "cap {cap}");
            assert_eq!(got, want, "cap {cap}");
        }
    }

    #[test]
    fn vote_order_is_the_sorted_permutation() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(41);
        let (mut buckets, mut order) = (Vec::new(), Vec::new());
        for case in 0..500 {
            let n = rng.random_range(0..80);
            // Few distinct values force ties; some cases spread wide.
            let top = if case % 3 == 0 { 4 } else { 60 };
            let votes: Vec<u32> = (0..n).map(|_| rng.random_range(0..top)).collect();
            let mut want: Vec<u32> = (0..n as u32).collect();
            want.sort_unstable_by_key(|&k| (std::cmp::Reverse(votes[k as usize]), k));
            order_by_votes(votes.iter().copied(), &mut buckets, &mut order);
            assert_eq!(order, want, "votes {votes:?}");
        }
    }

    #[test]
    fn certificate_falls_back_at_a_rounding_tie() {
        // 1 + 2⁻⁵² has an odd last bit, so adding half its ulp ties and
        // rounds to even, up: a bound of 2⁻⁵³ could move the sum.
        let odd = 1.0 + f64::EPSILON;
        let half_ulp = f64::EPSILON / 2.0;
        assert!(!total_certified(
            [(odd, false), (half_ulp, true)].into_iter()
        ));
        assert!(!total_certified(
            [(half_ulp, true), (odd, false)].into_iter()
        ));
        // From 1, whose last bit is even, the same tie rounds down.
        let even = [(1.0, false), (half_ulp, true), (0.5, false)];
        assert!(total_certified(even.into_iter()));
        // Just below the tie the sum cannot move, whatever the last bit.
        let below = half_ulp * (1.0 - f64::EPSILON);
        assert!(total_certified([(odd, false), (below, true)].into_iter()));
        // Without abandoned terms there is nothing to certify.
        let plain = [(0.25, false), (odd, false), (0.0, false)];
        assert!(total_certified(plain.into_iter()));
    }

    #[test]
    fn rescoring_abandoned_candidates_restores_full_totals() {
        // 30 copies of one unit, each with 0–3 substitutions, in a random
        // background: reads from the copies seed many hopeless candidates.
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let mut random = |len: usize| -> Vec<Base> {
            (0..len)
                .map(|_| Base::from_index(rng.random_range(0..4)))
                .collect()
        };
        let unit = random(80);
        let mut bases = random(300);
        for copy in 0..30 {
            let mut unit = unit.clone();
            for s in 0..copy % 4 {
                unit[(copy * 7 + s * 19) % 80] = unit[(copy * 7 + s * 19) % 80].transition();
            }
            bases.extend(unit);
            bases.extend(random(copy % 9));
        }
        let g = DnaSeq::from_bases(bases);
        let engine = MappingEngine::new(&g, cfg(8));
        let (mut pruned, mut full) = (AlignScratch::new(), AlignScratch::new());
        let mut abandoned = 0;
        for start in (300..g.len() - 62).step_by(37) {
            let read = read_from(&g, start, start + 62, 30);
            pruned.begin_batch();
            engine.score(&read, &mut pruned, true);
            abandoned += pruned.abandoned();
            engine.rescore_abandoned(&mut pruned);
            assert_eq!(pruned.fallbacks(), 1);
            full.begin_batch();
            engine.score(&read, &mut full, false);
            let bits = |s: &AlignScratch| -> Vec<_> {
                s.cands
                    .iter()
                    .map(|c| {
                        (
                            c.window_start,
                            c.reverse,
                            c.abandoned,
                            c.likelihood.to_bits(),
                        )
                    })
                    .collect()
            };
            assert_eq!(bits(&pruned), bits(&full), "read at {start}");
        }
        assert!(abandoned > 0, "the fixture must abandon candidates");
    }

    #[test]
    fn abandoning_is_off_for_zero_min_weight_and_invalid_params() {
        assert_eq!(abandon_ratio(&MappingConfig::default()), ABANDON_RATIO);
        let zero = MappingConfig {
            min_weight: 0.0,
            ..MappingConfig::default()
        };
        assert_eq!(abandon_ratio(&zero), 0.0);
        let mut invalid = MappingConfig::default();
        invalid.phmm.q = 1.5;
        assert_eq!(abandon_ratio(&invalid), 0.0);
        // A cut finer than 2⁻⁶⁴ lowers the ratio below it.
        let fine = MappingConfig {
            min_weight: 1e-30,
            ..MappingConfig::default()
        };
        assert!(abandon_ratio(&fine) < 1e-30);
    }

    #[test]
    fn column_mass_is_one_per_covered_position() {
        let g = genome("TTGACCAGTTCAGGCATTGCAAGCTTGGCATCCA");
        let engine = MappingEngine::new(&g, cfg(8));
        let read = read_from(&g, 6, 30, 30);
        let alns = engine.map_read(&read);
        for col in &alns[0].columns {
            assert!((col.mass() - 1.0).abs() < 1e-9);
        }
    }
}
