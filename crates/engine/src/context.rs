//! The run context: everything a driver needs besides the reads.

use crate::error::EngineError;
use exec::{CheckpointPolicy, StreamConfig};
use genome::seq::DnaSeq;
use gnumap_core::observe::Observer;
use gnumap_core::GnumapConfig;

/// One run's complete configuration, shared by every driver.
///
/// A context borrows the reference genome and bundles the pipeline
/// configuration (including the accumulator layout), the deterministic
/// seed that produced the workload, the parallelism budget, the streaming
/// shape, and the [`Observer`] that receives structured events. Fields a
/// driver does not use are simply ignored: the serial driver reads only
/// `config` and `observer`, the MPI drivers interpret `threads` as their
/// rank count, and the streaming driver consumes the whole batch shape.
pub struct RunContext<'r> {
    /// The reference genome every driver maps against.
    pub reference: &'r DnaSeq,
    /// Mapping, calling and accumulator-layout parameters.
    pub config: GnumapConfig,
    /// Seed that generated the workload. Drivers are deterministic given
    /// their inputs; the seed travels here so traces and reports can
    /// identify the workload they came from.
    pub seed: u64,
    /// Parallelism budget: MPI ranks or stream/server workers, depending
    /// on the driver.
    pub threads: usize,
    /// Reads per micro-batch (stream and server drivers).
    pub batch_size: usize,
    /// Reads per source chunk / client submit (stream and server drivers).
    pub chunk_size: usize,
    /// Bounded channel capacity in chunks (stream driver).
    pub channel_capacity: usize,
    /// Micro-batches per worker per scheduling window (stream driver).
    pub batches_per_worker: usize,
    /// Periodic checkpointing (stream driver only).
    pub checkpoint: Option<CheckpointPolicy>,
    /// Kill hook for tests (stream driver only).
    pub abort_after_batches: Option<usize>,
    /// Structured-event receiver; `Observer::disabled()` costs nothing.
    pub observer: Observer,
}

impl<'r> RunContext<'r> {
    /// A context with the library defaults (mirrors
    /// [`StreamConfig::default`] for the streaming shape).
    pub fn new(reference: &'r DnaSeq) -> Self {
        let sc = StreamConfig::default();
        RunContext {
            reference,
            config: GnumapConfig::default(),
            seed: 0,
            threads: 1,
            batch_size: sc.batch_size,
            chunk_size: sc.chunk_size,
            channel_capacity: sc.channel_capacity,
            batches_per_worker: sc.batches_per_worker,
            checkpoint: None,
            abort_after_batches: None,
            observer: Observer::disabled(),
        }
    }

    /// The streaming-engine shape this context describes.
    pub fn stream_config(&self) -> StreamConfig {
        StreamConfig {
            workers: self.threads,
            batch_size: self.batch_size,
            chunk_size: self.chunk_size,
            channel_capacity: self.channel_capacity,
            batches_per_worker: self.batches_per_worker,
            checkpoint: self.checkpoint.clone(),
            abort_after_batches: self.abort_after_batches,
        }
    }

    /// Reject out-of-range fields before handing them to a driver, as a
    /// typed error. The checks are [`StreamConfig::validate`]'s, run on
    /// [`RunContext::stream_config`] (the threads budget is its
    /// `workers`), [`IndexConfig::validate`]'s for the seed index over
    /// the reference, `PhmmParams::validate`'s for the Pair-HMM (whose
    /// likelihood bound early abandoning relies on), and a `min_weight`
    /// that is a number in `[0, 1]`.
    ///
    /// [`IndexConfig::validate`]: genome::index::IndexConfig::validate
    pub fn validate(&self) -> Result<(), EngineError> {
        let invalid = EngineError::InvalidContext;
        self.stream_config()
            .validate()
            .map_err(|e| invalid(e.to_string()))?;
        let mapping = &self.config.mapping;
        mapping
            .index
            .validate(self.reference.len())
            .map_err(|e| invalid(e.to_string()))?;
        mapping
            .phmm
            .validate()
            .map_err(|e| invalid(format!("Pair-HMM parameters: {e}")))?;
        if !(0.0..=1.0).contains(&mapping.min_weight) {
            return Err(invalid(format!(
                "min_weight = {} is not in [0, 1]",
                mapping.min_weight
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_mirror_stream_config() {
        let reference: DnaSeq = "ACGTACGT".parse().unwrap();
        let ctx = RunContext::new(&reference);
        let sc = StreamConfig::default();
        assert_eq!(ctx.stream_config(), sc);
        assert_eq!(ctx.threads, 1);
        assert!(ctx.validate().is_ok());
    }

    #[test]
    fn zero_fields_are_rejected() {
        let reference: DnaSeq = "ACGT".parse().unwrap();
        let mut ctx = RunContext::new(&reference);
        ctx.batch_size = 0;
        let err = ctx.validate().unwrap_err();
        assert!(err.to_string().contains("batch_size"), "{err}");
    }

    /// The error for a context whose index config was edited by `f`.
    fn index_error(f: fn(&mut genome::index::IndexConfig)) -> String {
        let reference: DnaSeq = "ACGTACGT".parse().unwrap();
        let mut ctx = RunContext::new(&reference);
        f(&mut ctx.config.mapping.index);
        match ctx.validate() {
            Err(EngineError::InvalidContext(msg)) => msg,
            other => panic!("expected InvalidContext, got {other:?}"),
        }
    }

    #[test]
    fn zero_k_is_rejected() {
        assert!(index_error(|c| c.k = 0).contains("k-mer length 0"));
    }

    #[test]
    fn k_above_32_is_rejected() {
        assert!(index_error(|c| c.k = 33).contains("k-mer length 33"));
    }

    #[test]
    fn zero_stride_is_rejected() {
        assert!(index_error(|c| c.stride = 0).contains("stride"));
    }

    #[test]
    fn zero_max_occurrences_is_rejected() {
        assert!(index_error(|c| c.max_occurrences = 0).contains("max_occurrences"));
    }

    /// The error for a context whose mapping config was edited by `f`.
    fn mapping_error(f: fn(&mut gnumap_core::mapping::MappingConfig)) -> String {
        let reference: DnaSeq = "ACGTACGT".parse().unwrap();
        let mut ctx = RunContext::new(&reference);
        f(&mut ctx.config.mapping);
        match ctx.validate() {
            Err(EngineError::InvalidContext(msg)) => msg,
            other => panic!("expected InvalidContext, got {other:?}"),
        }
    }

    #[test]
    fn invalid_phmm_params_are_rejected() {
        let msg = mapping_error(|c| c.phmm.t_gg = 0.9);
        assert!(msg.contains("gap-state transitions"), "{msg}");
    }

    #[test]
    fn nan_min_weight_is_rejected() {
        assert!(mapping_error(|c| c.min_weight = f64::NAN).contains("min_weight = NaN"));
    }

    #[test]
    fn negative_min_weight_is_rejected() {
        assert!(mapping_error(|c| c.min_weight = -0.5).contains("min_weight = -0.5"));
    }

    #[test]
    fn min_weight_above_one_is_rejected() {
        assert!(mapping_error(|c| c.min_weight = 1.5).contains("min_weight = 1.5"));
    }

    #[test]
    fn min_weight_bounds_are_accepted() {
        let reference: DnaSeq = "ACGTACGT".parse().unwrap();
        let mut ctx = RunContext::new(&reference);
        for w in [0.0, 1.0] {
            ctx.config.mapping.min_weight = w;
            assert!(ctx.validate().is_ok(), "min_weight = {w}");
        }
    }
}
