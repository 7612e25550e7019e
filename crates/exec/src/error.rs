//! Error type for the streaming engine.

use std::fmt;

/// Anything that can stop a streaming run.
#[derive(Debug)]
pub enum ExecError {
    /// Filesystem failure (checkpoint I/O, FASTQ reading).
    Io(std::io::Error),
    /// The read source produced malformed input.
    Source(String),
    /// A checkpoint file failed validation.
    Checkpoint(String),
    /// A [`crate::StreamConfig`] field is out of range.
    InvalidConfig(String),
    /// The run was killed by [`crate::StreamConfig::abort_after_batches`]
    /// after dispatching this many batches (test hook for kill/resume).
    Aborted {
        /// Stream cursor (reads fully processed) at the last barrier.
        cursor: usize,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Io(e) => write!(f, "i/o error: {e}"),
            ExecError::Source(msg) => write!(f, "read source: {msg}"),
            ExecError::Checkpoint(msg) => write!(f, "checkpoint: {msg}"),
            ExecError::InvalidConfig(msg) => write!(f, "invalid stream config: {msg}"),
            ExecError::Aborted { cursor } => {
                write!(f, "run aborted by kill hook at stream cursor {cursor}")
            }
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ExecError {
    fn from(e: std::io::Error) -> Self {
        ExecError::Io(e)
    }
}
