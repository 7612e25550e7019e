//! The paper's two MPI decompositions, on the `mpisim` runtime.
//!
//! * [`read_split`] — the paper's first MPI decomposition: every rank
//!   holds the full genome + index + accumulator, reads are partitioned,
//!   accumulators are gathered at rank 0 at the end ("each machine will
//!   process the entire genome, then map a different portion of the
//!   reads");
//! * [`genome_split`] — the paper's second MPI decomposition: the genome
//!   (index + accumulator) is sharded, every read is scored on every
//!   shard, and per-read normalising constants travel by allreduce ("the
//!   genome is split into equal segments ... communication between
//!   machines determines \[the\] additional locations and calculates the
//!   final score"). Lower memory per rank, more communication — the
//!   Figure 4 trade-off.
//!
//! Each decomposition has one entry function taking an
//! [`crate::observe::Observer`]. The serial pipeline lives in
//! [`crate::pipeline`]. The shared-memory driver — the streaming batch
//! pipeline with backpressure, paged evidence and
//! checkpoint/resume — lives in the `exec` crate, which builds on the
//! call-wire helpers defined here and [`crate::report::StreamStats`].

pub mod genome_split;
pub mod read_split;

use crate::snpcall::SnpCall;
use genome::alphabet::Base;

/// Flat encoding of SNP calls for rank-to-rank shipping: each call is
/// `CALL_STRIDE` f64 values.
const CALL_STRIDE: usize = 11;

/// A call wire whose length is not a multiple of `CALL_STRIDE` —
/// truncated or corrupted in transit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallWireError {
    /// Length of the rejected wire.
    pub len: usize,
}

impl std::fmt::Display for CallWireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "corrupt call wire: length {} is not a multiple of {CALL_STRIDE}",
            self.len
        )
    }
}

impl std::error::Error for CallWireError {}

/// Why an MPI decomposition could not run or finish.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriverError {
    /// Zero ranks were asked for; a decomposition needs at least one.
    NoRanks,
    /// A rank-to-rank call wire failed to decode.
    Wire(CallWireError),
}

impl std::fmt::Display for DriverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriverError::NoRanks => f.write_str("a decomposition needs at least one rank, got 0"),
            DriverError::Wire(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DriverError {}

impl From<CallWireError> for DriverError {
    fn from(e: CallWireError) -> Self {
        DriverError::Wire(e)
    }
}

/// Encode calls into a flat `Vec<f64>` wire form.
pub fn encode_calls(calls: &[SnpCall]) -> Vec<f64> {
    let mut out = Vec::with_capacity(calls.len() * CALL_STRIDE);
    for c in calls {
        out.push(c.pos as f64);
        out.push(c.reference.index() as f64);
        out.push(c.allele.index() as f64);
        out.push(c.second_allele.map_or(-1.0, |b| b.index() as f64));
        out.push(c.statistic);
        out.push(c.p_adjusted);
        out.extend_from_slice(&c.counts);
    }
    out
}

/// Decode the wire form produced by [`encode_calls`]. Rejects wires
/// whose length is not a whole number of calls rather than silently
/// dropping a tail or panicking inside a driver.
pub fn decode_calls(wire: &[f64]) -> Result<Vec<SnpCall>, CallWireError> {
    if !wire.len().is_multiple_of(CALL_STRIDE) {
        return Err(CallWireError { len: wire.len() });
    }
    Ok(wire
        .chunks_exact(CALL_STRIDE)
        .map(|c| {
            let mut counts = [0.0; 5];
            counts.copy_from_slice(&c[6..11]);
            SnpCall {
                pos: c[0] as usize,
                reference: Base::from_index(c[1] as usize),
                allele: Base::from_index(c[2] as usize),
                second_allele: (c[3] >= 0.0).then(|| Base::from_index(c[3] as usize)),
                statistic: c[4],
                p_adjusted: c[5],
                counts,
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_wire_round_trip() {
        let calls = vec![
            SnpCall {
                pos: 1234,
                reference: Base::A,
                allele: Base::G,
                second_allele: None,
                statistic: 42.5,
                p_adjusted: 1e-9,
                counts: [0.5, 0.0, 11.0, 0.25, 0.0],
            },
            SnpCall {
                pos: 99,
                reference: Base::T,
                allele: Base::C,
                second_allele: Some(Base::T),
                statistic: 8.0,
                p_adjusted: 0.02,
                counts: [0.0, 6.0, 0.0, 5.5, 0.1],
            },
        ];
        let wire = encode_calls(&calls);
        assert_eq!(wire.len(), 2 * CALL_STRIDE);
        assert_eq!(decode_calls(&wire).unwrap(), calls);
    }

    #[test]
    fn empty_wire() {
        assert!(decode_calls(&encode_calls(&[])).unwrap().is_empty());
    }

    #[test]
    fn zero_ranks_is_an_error() {
        use crate::accum::NormAccumulator;
        let (reference, _, reads) = crate::pipeline::tests::fixture(2_000, 1, 2.0, 5);
        let (cfg, quiet) = (Default::default(), crate::observe::Observer::disabled());
        let split = |ranks| {
            read_split::run_read_split::<NormAccumulator>(&reference, &reads, &cfg, ranks, &quiet)
        };
        assert_eq!(split(0).unwrap_err(), DriverError::NoRanks);
        assert!(split(1).is_ok());
        let genome =
            genome_split::run_genome_split::<NormAccumulator>(&reference, &reads, &cfg, 0, &quiet);
        assert_eq!(genome.unwrap_err(), DriverError::NoRanks);
        assert!(DriverError::NoRanks
            .to_string()
            .contains("at least one rank"));
    }

    #[test]
    fn corrupt_wire_is_an_error() {
        let err = decode_calls(&[1.0, 2.0]).unwrap_err();
        assert_eq!(err, CallWireError { len: 2 });
        assert!(err.to_string().contains("length 2"));
    }
}
