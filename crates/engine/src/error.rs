//! Typed errors for driver resolution and execution.

use gnumap_core::accum::AccumulatorMode;
use gnumap_core::driver::DriverError;

/// Anything that can go wrong resolving a driver from the registry or
/// running one against a read source.
#[derive(Debug)]
pub enum EngineError {
    /// The requested driver name matched neither a registered name nor an
    /// alias. Carries the closest known name (edit distance) when one is
    /// plausibly a typo, plus the full list of valid names.
    UnknownDriver {
        /// What the caller asked for.
        name: String,
        /// Closest registered name, if within typo distance.
        suggestion: Option<String>,
        /// Every registered (primary) driver name.
        known: Vec<&'static str>,
    },
    /// The driver cannot run the requested accumulator layout (for
    /// example, the stream driver and the server deposit into shared paged
    /// evidence, which takes the NORM and FIXED layouts only).
    UnsupportedAccumulator {
        /// The driver that rejected the mode.
        driver: &'static str,
        /// The rejected mode.
        mode: AccumulatorMode,
        /// Modes the driver accepts.
        supported: &'static [AccumulatorMode],
    },
    /// A [`crate::RunContext`] field is out of range for the driver.
    InvalidContext(String),
    /// An MPI decomposition failed (zero ranks, or a rank-to-rank call
    /// wire that failed to decode).
    Driver(DriverError),
    /// The streaming engine failed (source I/O, checkpoint, abort hook).
    Exec(exec::ExecError),
    /// The loopback server round trip failed.
    Server(String),
    /// The call sink rejected the calls.
    Sink(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::UnknownDriver {
                name,
                suggestion,
                known,
            } => {
                write!(f, "unknown value {name:?}; expected {}", known.join(" | "))?;
                if let Some(s) = suggestion {
                    write!(f, " (did you mean {s:?}?)")?;
                }
                Ok(())
            }
            EngineError::UnsupportedAccumulator {
                driver,
                mode,
                supported,
            } => {
                let list: Vec<&str> = supported.iter().map(|m| m.name()).collect();
                write!(
                    f,
                    "driver {driver:?} cannot run accumulator {mode}; supported: {}",
                    list.join(" | ")
                )
            }
            EngineError::InvalidContext(msg) => write!(f, "invalid run context: {msg}"),
            EngineError::Driver(e) => write!(f, "{e}"),
            EngineError::Exec(e) => write!(f, "{e}"),
            EngineError::Server(msg) => write!(f, "server: {msg}"),
            EngineError::Sink(msg) => write!(f, "sink: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<DriverError> for EngineError {
    fn from(e: DriverError) -> Self {
        EngineError::Driver(e)
    }
}

impl From<exec::ExecError> for EngineError {
    fn from(e: exec::ExecError) -> Self {
        EngineError::Exec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_driver_message_lists_names_and_suggestion() {
        let err = EngineError::UnknownDriver {
            name: "sreial".into(),
            suggestion: Some("serial".into()),
            known: vec!["serial", "stream"],
        };
        let msg = err.to_string();
        assert!(msg.contains("unknown value \"sreial\""), "{msg}");
        assert!(msg.contains("serial | stream"), "{msg}");
        assert!(msg.contains("did you mean \"serial\"?"), "{msg}");
    }

    #[test]
    fn unsupported_accumulator_names_the_alternatives() {
        let err = EngineError::UnsupportedAccumulator {
            driver: "stream",
            mode: AccumulatorMode::CharDisc,
            supported: &[AccumulatorMode::Norm, AccumulatorMode::Fixed],
        };
        let msg = err.to_string();
        assert!(msg.contains("stream"), "{msg}");
        assert!(msg.contains("CHARDISC"), "{msg}");
        assert!(msg.contains("supported: NORM | FIXED"), "{msg}");
    }
}
