//! Position-weight matrices and the blended emission `p*(i, j)`.
//!
//! Paper, Section VI Step 2: "the probability from each nucleotide obtained
//! from base quality scores is used to create a position-weight matrix for
//! each read", and the match emission becomes
//!
//! ```text
//! p*(i, j) = r_iA·p_{A,yj} + r_iC·p_{C,yj} + r_iG·p_{G,yj} + r_iT·p_{T,yj}
//! ```
//!
//! i.e. the read base is integrated out against its quality-derived
//! distribution. A genome `N` is treated as a uniformly uncertain base.
//!
//! `p*(i, j)` depends only on the read row `i` and the genome symbol `y_j`,
//! so the production path never builds the `N × M` table: it computes one
//! [`ProfileRow`] per read row, the blends against A, C, G, T and `N`
//! ([`Pwm::fill_profile`]), once per read orientation, and the kernels look
//! up `profile[i][code(y_j)]` from a window of [`base_code`]s. The table
//! builders ([`Pwm::fill_emission`], [`Pwm::emission_table`]) remain for
//! oracles, tests and benchmarks, and agree with the profile bit for bit.
//!
//! A PWM row and its profile row depend only on the read base and its
//! Phred score, so the mapping engine builds them once, for every (base
//! code, Phred) pair, in a [`QualityTable`], and fills a read's rows by
//! lookup ([`QualityTable::fill`]) instead of one `powf` per base.

use crate::emission::EmissionTable;
use crate::params::PhmmParams;
use genome::alphabet::Base;
use genome::quality::base_probs;
use genome::read::SequencedRead;

/// One read row's blended emissions, indexed by [`base_code`]: `p*` against
/// A, C, G, T, then `0.25` against `N`.
pub type ProfileRow = [f64; 5];

/// Profile index of a genome `N` (an unknown base).
pub const N_CODE: u8 = 4;

/// Profile index of genome symbol `y`: [`Base::index`] for A/C/G/T,
/// [`N_CODE`] for `N`.
#[inline]
pub fn base_code(y: Option<Base>) -> u8 {
    y.map_or(N_CODE, |b| b.index() as u8)
}

/// A read's position-weight matrix: one probability row `r_i` per read
/// position, each summing to 1 over A, C, G, T.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Pwm {
    rows: Vec<[f64; 4]>,
}

impl Pwm {
    /// Build from a read's called bases and Phred qualities.
    pub fn from_read(read: &SequencedRead) -> Pwm {
        Pwm {
            rows: read.base_prob_rows(),
        }
    }

    /// Build directly from probability rows. Panics when a row is not a
    /// probability distribution (within 1e-6).
    pub fn from_rows(rows: Vec<[f64; 4]>) -> Pwm {
        for (i, r) in rows.iter().enumerate() {
            let s: f64 = r.iter().sum();
            assert!(
                (s - 1.0).abs() < 1e-6 && r.iter().all(|&p| p >= 0.0),
                "row {i} is not a probability distribution: {r:?}"
            );
        }
        Pwm { rows }
    }

    /// A PWM for a perfectly certain sequence (each row a point mass).
    pub fn certain(bases: &[Base]) -> Pwm {
        Pwm {
            rows: bases
                .iter()
                .map(|b| {
                    let mut r = [0.0; 4];
                    r[b.index()] = 1.0;
                    r
                })
                .collect(),
        }
    }

    /// Read length.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True for an empty PWM.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The probability row for read position `i` (0-based).
    #[inline]
    pub fn row(&self, i: usize) -> &[f64; 4] {
        &self.rows[i]
    }

    /// The blended match emission `p*(i, j)` for 0-based read position `i`
    /// against genome base `y` (`None` = `N`, treated as uniform).
    #[inline]
    pub fn blended_emission(&self, i: usize, y: Option<Base>, params: &PhmmParams) -> f64 {
        let r = &self.rows[i];
        match y {
            Some(y) => {
                let yi = y.index();
                let mut acc = 0.0;
                for (k, &rk) in r.iter().enumerate() {
                    acc += rk * params.emission(k, yi);
                }
                acc
            }
            // Against an unknown genome base every read base is equally
            // compatible; each emission row sums to 1, so the blend is 1/4.
            None => 0.25,
        }
    }

    /// The emission profile of read row `r`: the blend against each
    /// concrete genome base, summed over `k` in the same ascending order as
    /// [`blended_emission`](Self::blended_emission) (so the values are
    /// bit-identical), then `0.25` for `N`: every emission row sums to 1, so
    /// against an unknown genome base the blend is 1/4.
    #[inline]
    fn profile_row(r: &[f64; 4], params: &PhmmParams) -> ProfileRow {
        let mut out = [0.25f64; 5];
        for (yi, b) in out[..4].iter_mut().enumerate() {
            let mut acc = 0.0;
            for (k, &rk) in r.iter().enumerate() {
                acc += rk * params.emission(k, yi);
            }
            *b = acc;
        }
        out
    }

    /// Fill `out` with one [`ProfileRow`] per read position — everything
    /// the kernels need to look up `p*(i, j)` as
    /// `out[i][base_code(y_j)]`. Clears and refills `out`; allocation-free
    /// once its capacity suffices.
    pub fn fill_profile(&self, params: &PhmmParams, out: &mut Vec<ProfileRow>) {
        out.clear();
        out.extend(self.rows.iter().map(|r| Self::profile_row(r, params)));
    }

    /// Fill a caller-owned flat buffer with `p*(i, j)` for all read
    /// positions against a genome window (row-major, stride = window
    /// length). Clears and refills `out`; when `out`'s capacity already
    /// suffices this performs no allocation. Each cell is the row's
    /// [`ProfileRow`] entry for the window symbol, so the table agrees
    /// with the profile lookup bit for bit. Oracles, tests and benchmarks
    /// use it; the production kernels read the profile directly.
    pub fn fill_emission(&self, window: &[Option<Base>], params: &PhmmParams, out: &mut Vec<f64>) {
        out.clear();
        out.reserve(self.len() * window.len());
        for r in &self.rows {
            let blend = Self::profile_row(r, params);
            out.extend(window.iter().map(|&y| blend[usize::from(base_code(y))]));
        }
    }

    /// Precompute `p*(i, j)` for all read positions against a genome
    /// window as an owned flat table.
    pub fn emission_table(&self, window: &[Option<Base>], params: &PhmmParams) -> EmissionTable {
        let mut data = Vec::new();
        self.fill_emission(window, params, &mut data);
        EmissionTable::from_flat(data, self.len(), window.len())
    }
}

/// Phred scores a [`QualityTable`] covers: every `u8`.
const PHREDS: usize = 256;

/// The PWM row and emission profile row of every read base a read can
/// hold, keyed by (base code, Phred): entry `(c, q)` holds
/// [`base_probs`] of base code `c` ([`N_CODE`] for `N`) at Phred `q`, and
/// that row's [`ProfileRow`] under the table's parameters — the bits
/// [`Pwm::from_read`] and [`Pwm::fill_profile`] compute. 5 × 256 entries
/// of nine `f64`s, about 92 KB.
#[derive(Debug, Clone)]
pub struct QualityTable {
    rows: Vec<[f64; 4]>,
    profiles: Vec<ProfileRow>,
}

impl QualityTable {
    /// Compute every entry under `params`.
    pub fn new(params: &PhmmParams) -> QualityTable {
        let rows: Vec<[f64; 4]> = (0..=N_CODE)
            .flat_map(|code| {
                let base = (code < N_CODE).then(|| Base::from_index(usize::from(code)));
                (0..PHREDS).map(move |q| base_probs(base, q as u8))
            })
            .collect();
        let profiles = rows.iter().map(|r| Pwm::profile_row(r, params)).collect();
        QualityTable { rows, profiles }
    }

    /// Index of the entry of profile code `code` at Phred `q`.
    #[inline]
    fn key(code: u8, q: u8) -> usize {
        usize::from(code) * PHREDS + usize::from(q)
    }

    /// Refill `pwm` and `profile` with `read`'s rows — or, with
    /// `reverse`, its reverse complement's — bit for bit those of
    /// [`Pwm::from_read`] and [`Pwm::fill_profile`]. Allocation-free once
    /// both have the capacity.
    pub fn fill(
        &self,
        read: &SequencedRead,
        reverse: bool,
        pwm: &mut Pwm,
        profile: &mut Vec<ProfileRow>,
    ) {
        pwm.rows.clear();
        profile.clear();
        let mut push = |code: u8, q: u8| {
            let key = Self::key(code, q);
            pwm.rows.push(self.rows[key]);
            profile.push(self.profiles[key]);
        };
        let bases = read.seq.as_slice().iter().zip(&read.quals);
        if reverse {
            for (&b, &q) in bases.rev() {
                push(base_code(b.map(Base::complement)), q);
            }
        } else {
            for (&b, &q) in bases {
                push(base_code(b), q);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quality_table_has_the_bits_of_the_computed_rows() {
        let params = PhmmParams::default();
        let table = QualityTable::new(&params);
        let bits = |rows: &[f64]| rows.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let symbols = [
            Some(Base::A),
            Some(Base::C),
            Some(Base::G),
            Some(Base::T),
            None,
        ];
        for (code, &y) in symbols.iter().enumerate() {
            assert_eq!(base_code(y), code as u8);
            for q in 0..=u8::MAX {
                let row = base_probs(y, q);
                let mut profile = Vec::new();
                Pwm { rows: vec![row] }.fill_profile(&params, &mut profile);
                let key = QualityTable::key(code as u8, q);
                assert_eq!(bits(&table.rows[key]), bits(&row), "({code}, {q})");
                assert_eq!(
                    bits(&table.profiles[key]),
                    bits(&profile[0]),
                    "({code}, {q})"
                );
            }
        }
        // Every (base, Phred) pair in one read, filled in both orientations.
        let seq: genome::seq::DnaSeq = "ACGTN".repeat(256).parse().unwrap();
        let quals = (0..seq.len()).map(|i| (i / 5) as u8).collect();
        let read = SequencedRead::new("all", seq, quals).unwrap();
        for (reverse, oriented) in [(false, read.clone()), (true, read.reverse_complement())] {
            let (mut pwm, mut profile) = (Pwm::default(), Vec::new());
            table.fill(&read, reverse, &mut pwm, &mut profile);
            let want = Pwm::from_read(&oriented);
            let mut want_profile = Vec::new();
            want.fill_profile(&params, &mut want_profile);
            assert_eq!(
                bits(pwm.rows.as_flattened()),
                bits(want.rows.as_flattened())
            );
            assert_eq!(
                bits(profile.as_flattened()),
                bits(want_profile.as_flattened())
            );
        }
    }

    #[test]
    fn certain_pwm_reduces_to_plain_emission() {
        let p = PhmmParams::default();
        let pwm = Pwm::certain(&[Base::A, Base::G]);
        assert!((pwm.blended_emission(0, Some(Base::A), &p) - p.emission(0, 0)).abs() < 1e-15);
        assert!((pwm.blended_emission(1, Some(Base::T), &p) - p.emission(2, 3)).abs() < 1e-15);
    }

    #[test]
    fn from_read_uses_qualities() {
        let p = PhmmParams::default();
        let read = SequencedRead::new("r", "A".parse().unwrap(), vec![10]).unwrap();
        let pwm = Pwm::from_read(&read);
        // r = (0.9, 0.0333.., 0.0333.., 0.0333..)
        let expected = 0.9 * p.emission(0, 0) + (0.1 / 3.0) * p.emission(1, 0) * 3.0;
        assert!((pwm.blended_emission(0, Some(Base::A), &p) - expected).abs() < 1e-12);
    }

    #[test]
    fn low_quality_blurs_the_emission() {
        let p = PhmmParams::default();
        let hi = SequencedRead::new("hi", "A".parse().unwrap(), vec![40]).unwrap();
        let lo = SequencedRead::new("lo", "A".parse().unwrap(), vec![3]).unwrap();
        let e_hi = Pwm::from_read(&hi).blended_emission(0, Some(Base::A), &p);
        let e_lo = Pwm::from_read(&lo).blended_emission(0, Some(Base::A), &p);
        assert!(e_hi > e_lo, "high quality should match more confidently");
        // And against the *wrong* base the ordering flips.
        let w_hi = Pwm::from_read(&hi).blended_emission(0, Some(Base::C), &p);
        let w_lo = Pwm::from_read(&lo).blended_emission(0, Some(Base::C), &p);
        assert!(w_lo > w_hi);
    }

    #[test]
    fn genome_n_is_uniform() {
        let p = PhmmParams::default();
        let pwm = Pwm::certain(&[Base::C]);
        assert_eq!(pwm.blended_emission(0, None, &p), 0.25);
    }

    #[test]
    fn emission_table_shape() {
        let p = PhmmParams::default();
        let pwm = Pwm::certain(&[Base::A, Base::C, Base::G]);
        let window = [Some(Base::A), None, Some(Base::T), Some(Base::G)];
        let t = pwm.emission_table(&window, &p);
        assert_eq!(t.n(), 3);
        assert_eq!(t.m(), 4);
        assert_eq!(t.at(1, 1), 0.25);
        // Read position 2 is a certain G, window position 3 is G: match.
        assert!((t.at(2, 3) - p.emission(2, 2)).abs() < 1e-15);
        // Read position 2 (G) vs window position 2 (T): mismatch.
        assert!((t.at(2, 2) - p.emission(2, 3)).abs() < 1e-15);
    }

    #[test]
    fn fill_emission_matches_blended_emission() {
        let p = PhmmParams::default();
        let read = SequencedRead::new("r", "ACGT".parse().unwrap(), vec![38, 12, 25, 7]).unwrap();
        let pwm = Pwm::from_read(&read);
        let window = [
            Some(Base::T),
            None,
            Some(Base::A),
            Some(Base::G),
            Some(Base::C),
        ];
        let t = pwm.emission_table(&window, &p);
        for i in 0..pwm.len() {
            for (j, &y) in window.iter().enumerate() {
                assert_eq!(
                    t.at(i, j).to_bits(),
                    pwm.blended_emission(i, y, &p).to_bits(),
                    "cell ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn profile_codes_cover_every_symbol() {
        assert_eq!(base_code(None), N_CODE);
        for b in genome::alphabet::BASES {
            assert_eq!(usize::from(base_code(Some(b))), b.index());
        }
    }

    #[test]
    #[should_panic]
    fn from_rows_rejects_non_distribution() {
        let _ = Pwm::from_rows(vec![[0.5, 0.5, 0.5, 0.0]]);
    }

    #[test]
    fn n_read_base_blends_uniformly() {
        let p = PhmmParams::default();
        let read = SequencedRead::new("r", "N".parse().unwrap(), vec![0]).unwrap();
        let pwm = Pwm::from_read(&read);
        // Uniform read row against any genome base: 0.25·(1−μ) + 0.75·(μ/3)·… = 0.25.
        assert!((pwm.blended_emission(0, Some(Base::G), &p) - 0.25).abs() < 1e-12);
    }
}
