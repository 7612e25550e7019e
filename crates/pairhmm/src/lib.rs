//! Quality-extended Pair Hidden Markov Model — the paper's core contribution.
//!
//! A three-state (M, G_X, G_Y) Pair-HMM aligns a sequencing read `x` to a
//! candidate genome window `y`. Unlike a Needleman–Wunsch aligner that
//! commits to one best path, the forward–backward algorithm marginalises
//! over *all* alignments, producing for every `(i, j)` the posterior
//! probability that read base `x_i` aligns to genome base `y_j` (or to a
//! gap). Those posteriors, weighted by the read's quality-derived
//! position-weight matrix, become the per-genome-position base-probability
//! vectors `z` that drive SNP calling.
//!
//! Module map:
//!
//! * [`params`]   — transition/emission parameterisation (`T_MM`, `T_MG`,
//!   `T_GM`, `T_GG`, match emission matrix `p_ab`, gap emission `q`).
//! * [`pwm`]      — position-weight matrix built from read qualities
//!   (`r_ik` in the paper), the blended emission `p*(i, j)`, and the
//!   per-read emission profile ([`pwm::ProfileRow`]: `p*` of one read row
//!   against A, C, G, T and `N`) the production kernels look emissions up
//!   in, by a window of genome byte codes ([`pwm::base_code`]).
//! * [`emission`] — flat row-major emission storage ([`EmissionTable`] /
//!   borrowed [`Emission`] view) consumed by the plane kernels. Full tables
//!   built with [`Pwm::fill_emission`] now serve only oracles, tests and
//!   benchmark replays; the mapping path fills only in-band cells from the
//!   profile.
//! * [`kernel`]   — the flat-plane, vectorization-structured forward and
//!   backward recursions (full-table and banded via one `Band` parameter),
//!   and the lockstep forward row that scores [`kernel::LANES`] candidates
//!   at once, one per vector lane.
//! * [`scratch`]  — [`PhmmScratch`], the per-thread reusable arena
//!   (zero steady-state allocations) with the production entry points:
//!   `forward_totals`, the rolling-row forward every candidate gets, four
//!   candidates of a read per call in lockstep lanes; and, only for
//!   candidates that survive the posterior weight cut, forward planes plus
//!   the fused backward+marginal streaming pass — four survivors per call
//!   in lanes, from any reads of one length (`posterior_columns_lanes`),
//!   or one
//!   (`posterior_columns_profiled`, the bit reference of the lanes). A
//!   lane's total has the bits of the single-lane posterior's total for
//!   that candidate, and a lane's columns those of its columns.
//! * [`bound`]    — the admissible bound on a forward total from a partial
//!   forward that lets `forward_totals` stop hopeless candidates early.
//! * [`matrix`]   — dense `f64` DP matrices.
//! * [`mod@forward`] / [`mod@backward`] / [`marginal`] — the materialized
//!   reference: full forward and backward tables of Section VI Step 2 and
//!   the posterior cell probabilities and per-column `z` vectors built
//!   from them. Tests, benchmarks and the conformance oracles check the
//!   scratch arena against it.
//! * [`bruteforce`] — exhaustive alignment enumeration (test oracle).
//!
//! ### Fidelity notes
//!
//! The paper's printed forward recursion for the match state reads
//! `T_MG·f_GX(i−1, j) + T_MG·f_GY(i, j−1)`; entering M at `(i, j)` must
//! consume both `x_i` and `y_j` from predecessors at `(i−1, j−1)` and pay a
//! gap-to-match transition, so we implement the (cited) Durbin et al. form
//! `T_GM·[f_GX(i−1, j−1) + f_GY(i−1, j−1)]`, which is also the unique form
//! consistent with the paper's own backward recursion. Likewise, the `z`
//! normalisation falls out exactly: for a fixed genome column `j`, every
//! alignment consumes `y_j` in exactly one M or G_Y state, so the match and
//! deletion marginals of a column already sum to one.

pub mod backward;
pub mod bound;
pub mod bruteforce;
pub mod emission;
pub mod forward;
pub mod kernel;
pub mod marginal;
pub mod matrix;
pub mod params;
pub mod pwm;
pub mod scratch;

pub use backward::backward;
pub use emission::{Emission, EmissionTable};
pub use forward::forward;
pub use marginal::{ColumnPosterior, PosteriorAlignment};
pub use matrix::Matrix;
pub use params::PhmmParams;
pub use pwm::Pwm;
pub use scratch::PhmmScratch;
