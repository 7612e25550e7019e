//! Structured run observability: a lightweight event layer every driver
//! threads through mapping, PHMM scoring, accumulation, and calling.
//!
//! The design goal is *zero cost when disabled*: an [`Observer`] is a
//! single `Option<Arc<dyn EventSink>>`, and [`Observer::emit`] takes a
//! closure so no event is ever constructed (and nothing allocates) unless
//! a sink is attached. The hot read loop's only instrumentation is a few
//! integer adds per read ([`crate::pipeline::BatchCounts`]), which always
//! run. Run start/end events come from [`RunTimer`] alone. With a sink
//! attached, drivers emit
//! a small vocabulary of [`Event`]s — per-stage wall/CPU timings,
//! reads-per-batch, candidate counts, deposit volumes — which the CLI can
//! spool to a JSON-lines trace file (`--trace-json`), the server folds
//! into its `Stats` frame, and the streaming engine stamps onto
//! checkpoint records.
//!
//! Events serialize to flat one-line JSON objects via [`Event::to_json_line`]
//! and parse back via [`Event::parse_json_line`]; the codec is hand-rolled
//! (std-only) and round-trips every event bit-exactly (f64 fields use
//! Rust's shortest round-trip formatting; non-finite values are sanitised
//! to `0.0` so the output is always valid JSON).

use crate::accum::AccumulatorMode;
use crate::report::RunReport;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Pipeline stages, in execution order (paper Figure 1 plus the parallel
/// reduction step).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Building the k-mer index over the reference.
    Index,
    /// Mapping reads and depositing Pair-HMM evidence (the hot loop).
    Map,
    /// Merging partial accumulators (parallel drivers only).
    Reduce,
    /// The per-position likelihood-ratio test.
    Call,
}

impl Stage {
    /// Stable lowercase wire name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Index => "index",
            Stage::Map => "map",
            Stage::Reduce => "reduce",
            Stage::Call => "call",
        }
    }

    fn from_name(s: &str) -> Option<Stage> {
        Some(match s {
            "index" => Stage::Index,
            "map" => Stage::Map,
            "reduce" => Stage::Reduce,
            "call" => Stage::Call,
            _ => return None,
        })
    }
}

/// One structured observation from a run.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A driver began a run.
    RunStart {
        /// Registry name of the driver.
        driver: String,
        /// Accumulator mode name (`NORM`, `FIXED`, ...).
        accumulator: String,
    },
    /// A stage began.
    StageStart {
        /// Which stage.
        stage: Stage,
    },
    /// A stage finished.
    StageEnd {
        /// Which stage.
        stage: Stage,
        /// Wall-clock seconds spent in the stage.
        wall_secs: f64,
        /// Thread CPU seconds spent in the stage (0 when the platform
        /// clock is unavailable).
        cpu_secs: f64,
    },
    /// A worker finished one batch of reads.
    Batch {
        /// Worker (thread / rank) index.
        worker: u64,
        /// Reads in the batch.
        reads: u64,
        /// Reads that produced at least one alignment.
        mapped: u64,
        /// Candidate placements scored by the Pair-HMM forward pass, before
        /// the `min_weight` cut.
        candidates: u64,
        /// Posterior columns deposited into the accumulator.
        deposited_columns: u64,
        /// Of `candidates`, those whose forward stopped early because their
        /// likelihood bound proved them negligible. Traces written before
        /// the field existed parse it as 0.
        abandoned: u64,
        /// Reads that rescored their abandoned candidates in full because
        /// the grand total could not be certified (0 in older traces).
        fallbacks: u64,
        /// Unmapped reads that scored candidates but whose every forward
        /// total underflowed to 0 (0 in older traces).
        underflowed: u64,
        /// Posterior passes run: candidates that survived the weight cut
        /// and got their columns (0 in older traces).
        survivors: u64,
        /// Lane slots of the four-lane posterior chunks those passes ran
        /// in, padding included; a survivor run on its own adds none. A
        /// multiple of 4 and at most twice `survivors` (0 in older traces).
        posterior_lanes: u64,
        /// Unmapped reads that had no candidate placement to score at all
        /// (0 in older traces). With `mapped` and `underflowed` it accounts
        /// for every read of the batch.
        no_candidates: u64,
    },
    /// The streaming engine wrote a checkpoint.
    Checkpoint {
        /// Read cursor (number of reads consumed from the source).
        cursor: u64,
        /// Reads mapped so far.
        reads_mapped: u64,
    },
    /// The run finished.
    RunEnd {
        /// Total reads processed.
        reads_processed: u64,
        /// Total reads mapped.
        reads_mapped: u64,
        /// SNP calls produced.
        calls: u64,
        /// Heap bytes of the run's evidence (the report's
        /// `accumulator_bytes`); 0 in traces written before it was added.
        accumulator_bytes: u64,
        /// End-to-end wall seconds.
        wall_secs: f64,
    },
}

/// Write a JSON string literal (with escaping) into `out`.
fn put_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Write an f64 as a JSON number: shortest round-trip form, with
/// non-finite values sanitised to `0` (JSON has no NaN/Inf).
fn put_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v:?}");
    } else {
        out.push('0');
    }
}

impl Event {
    /// The event's discriminant as it appears in the `event` JSON field.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::RunStart { .. } => "run_start",
            Event::StageStart { .. } => "stage_start",
            Event::StageEnd { .. } => "stage_end",
            Event::Batch { .. } => "batch",
            Event::Checkpoint { .. } => "checkpoint",
            Event::RunEnd { .. } => "run_end",
        }
    }

    /// Serialize to one flat JSON object (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut s = String::with_capacity(96);
        s.push_str("{\"event\":\"");
        s.push_str(self.kind());
        s.push('"');
        match self {
            Event::RunStart {
                driver,
                accumulator,
            } => {
                s.push_str(",\"driver\":");
                put_str(&mut s, driver);
                s.push_str(",\"accumulator\":");
                put_str(&mut s, accumulator);
            }
            Event::StageStart { stage } => {
                let _ = write!(s, ",\"stage\":\"{}\"", stage.name());
            }
            Event::StageEnd {
                stage,
                wall_secs,
                cpu_secs,
            } => {
                let _ = write!(s, ",\"stage\":\"{}\"", stage.name());
                s.push_str(",\"wall_secs\":");
                put_f64(&mut s, *wall_secs);
                s.push_str(",\"cpu_secs\":");
                put_f64(&mut s, *cpu_secs);
            }
            Event::Batch {
                worker,
                reads,
                mapped,
                candidates,
                deposited_columns,
                abandoned,
                fallbacks,
                underflowed,
                survivors,
                posterior_lanes,
                no_candidates,
            } => {
                let _ = write!(
                    s,
                    ",\"worker\":{worker},\"reads\":{reads},\"mapped\":{mapped},\
                     \"candidates\":{candidates},\"deposited_columns\":{deposited_columns},\
                     \"abandoned\":{abandoned},\"fallbacks\":{fallbacks},\
                     \"underflowed\":{underflowed},\"survivors\":{survivors},\
                     \"posterior_lanes\":{posterior_lanes},\"no_candidates\":{no_candidates}"
                );
            }
            Event::Checkpoint {
                cursor,
                reads_mapped,
            } => {
                let _ = write!(s, ",\"cursor\":{cursor},\"reads_mapped\":{reads_mapped}");
            }
            Event::RunEnd {
                reads_processed,
                reads_mapped,
                calls,
                accumulator_bytes,
                wall_secs,
            } => {
                let _ = write!(
                    s,
                    ",\"reads_processed\":{reads_processed},\"reads_mapped\":{reads_mapped},\
                     \"calls\":{calls},\"accumulator_bytes\":{accumulator_bytes}"
                );
                s.push_str(",\"wall_secs\":");
                put_f64(&mut s, *wall_secs);
            }
        }
        s.push('}');
        s
    }

    /// Parse one line produced by [`Event::to_json_line`].
    pub fn parse_json_line(line: &str) -> Result<Event, TraceParseError> {
        let fields = parse_flat_object(line)?;
        let get = |key: &str| -> Result<&JsonValue, TraceParseError> {
            fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| TraceParseError::new(format!("missing field `{key}`")))
        };
        let get_str = |key: &str| -> Result<String, TraceParseError> {
            match get(key)? {
                JsonValue::Str(s) => Ok(s.clone()),
                _ => Err(TraceParseError::new(format!("field `{key}` not a string"))),
            }
        };
        let get_num = |key: &str| -> Result<f64, TraceParseError> {
            match get(key)? {
                JsonValue::Num(v) => Ok(*v),
                _ => Err(TraceParseError::new(format!("field `{key}` not a number"))),
            }
        };
        let get_u64 = |key: &str| -> Result<u64, TraceParseError> {
            let v = get_num(key)?;
            if v < 0.0 || v.fract() != 0.0 || v > u64::MAX as f64 {
                return Err(TraceParseError::new(format!(
                    "field `{key}` not a non-negative integer: {v}"
                )));
            }
            Ok(v as u64)
        };
        // A counter added after the format shipped: absent means 0.
        let get_u64_or_0 = |key: &str| -> Result<u64, TraceParseError> {
            if fields.iter().any(|(k, _)| k == key) {
                get_u64(key)
            } else {
                Ok(0)
            }
        };
        let get_stage = |key: &str| -> Result<Stage, TraceParseError> {
            let name = get_str(key)?;
            Stage::from_name(&name)
                .ok_or_else(|| TraceParseError::new(format!("unknown stage `{name}`")))
        };

        let kind = get_str("event")?;
        Ok(match kind.as_str() {
            "run_start" => Event::RunStart {
                driver: get_str("driver")?,
                accumulator: get_str("accumulator")?,
            },
            "stage_start" => Event::StageStart {
                stage: get_stage("stage")?,
            },
            "stage_end" => Event::StageEnd {
                stage: get_stage("stage")?,
                wall_secs: get_num("wall_secs")?,
                cpu_secs: get_num("cpu_secs")?,
            },
            "batch" => Event::Batch {
                worker: get_u64("worker")?,
                reads: get_u64("reads")?,
                mapped: get_u64("mapped")?,
                candidates: get_u64("candidates")?,
                deposited_columns: get_u64("deposited_columns")?,
                abandoned: get_u64_or_0("abandoned")?,
                fallbacks: get_u64_or_0("fallbacks")?,
                underflowed: get_u64_or_0("underflowed")?,
                survivors: get_u64_or_0("survivors")?,
                posterior_lanes: get_u64_or_0("posterior_lanes")?,
                no_candidates: get_u64_or_0("no_candidates")?,
            },
            "checkpoint" => Event::Checkpoint {
                cursor: get_u64("cursor")?,
                reads_mapped: get_u64("reads_mapped")?,
            },
            "run_end" => Event::RunEnd {
                reads_processed: get_u64("reads_processed")?,
                reads_mapped: get_u64("reads_mapped")?,
                calls: get_u64("calls")?,
                accumulator_bytes: get_u64_or_0("accumulator_bytes")?,
                wall_secs: get_num("wall_secs")?,
            },
            other => {
                return Err(TraceParseError::new(format!("unknown event `{other}`")));
            }
        })
    }
}

/// Error from [`Event::parse_json_line`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    message: String,
}

impl TraceParseError {
    fn new(message: impl Into<String>) -> TraceParseError {
        TraceParseError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for TraceParseError {}

/// A parsed flat-JSON value: only strings and numbers appear in traces.
enum JsonValue {
    Str(String),
    Num(f64),
}

/// Parse a single-level JSON object of string/number fields. This is not
/// a general JSON parser — it accepts exactly the flat shape
/// [`Event::to_json_line`] produces (plus arbitrary whitespace).
fn parse_flat_object(line: &str) -> Result<Vec<(String, JsonValue)>, TraceParseError> {
    let mut chars = line.trim().chars().peekable();
    let mut fields = Vec::new();
    let expect = |chars: &mut std::iter::Peekable<std::str::Chars>,
                  want: char|
     -> Result<(), TraceParseError> {
        match chars.next() {
            Some(c) if c == want => Ok(()),
            got => Err(TraceParseError::new(format!(
                "expected `{want}`, got {got:?}"
            ))),
        }
    };
    let skip_ws = |chars: &mut std::iter::Peekable<std::str::Chars>| {
        while matches!(chars.peek(), Some(c) if c.is_whitespace()) {
            chars.next();
        }
    };
    let parse_string =
        |chars: &mut std::iter::Peekable<std::str::Chars>| -> Result<String, TraceParseError> {
            expect(chars, '"')?;
            let mut s = String::new();
            loop {
                match chars.next() {
                    None => return Err(TraceParseError::new("unterminated string")),
                    Some('"') => return Ok(s),
                    Some('\\') => match chars.next() {
                        Some('"') => s.push('"'),
                        Some('\\') => s.push('\\'),
                        Some('n') => s.push('\n'),
                        Some('r') => s.push('\r'),
                        Some('t') => s.push('\t'),
                        Some('u') => {
                            let mut code = 0u32;
                            for _ in 0..4 {
                                let d = chars
                                    .next()
                                    .and_then(|c| c.to_digit(16))
                                    .ok_or_else(|| TraceParseError::new("bad \\u escape"))?;
                                code = code * 16 + d;
                            }
                            s.push(
                                char::from_u32(code)
                                    .ok_or_else(|| TraceParseError::new("bad \\u codepoint"))?,
                            );
                        }
                        other => {
                            return Err(TraceParseError::new(format!("bad escape {other:?}")));
                        }
                    },
                    Some(c) => s.push(c),
                }
            }
        };

    skip_ws(&mut chars);
    expect(&mut chars, '{')?;
    skip_ws(&mut chars);
    if chars.peek() == Some(&'}') {
        chars.next();
    } else {
        loop {
            skip_ws(&mut chars);
            let key = parse_string(&mut chars)?;
            skip_ws(&mut chars);
            expect(&mut chars, ':')?;
            skip_ws(&mut chars);
            let value = if chars.peek() == Some(&'"') {
                JsonValue::Str(parse_string(&mut chars)?)
            } else {
                let mut num = String::new();
                while matches!(
                    chars.peek(),
                    Some(c) if c.is_ascii_digit()
                        || matches!(c, '-' | '+' | '.' | 'e' | 'E')
                ) {
                    num.push(chars.next().unwrap());
                }
                JsonValue::Num(
                    num.parse::<f64>()
                        .map_err(|e| TraceParseError::new(format!("bad number `{num}`: {e}")))?,
                )
            };
            fields.push((key, value));
            skip_ws(&mut chars);
            match chars.next() {
                Some(',') => continue,
                Some('}') => break,
                got => {
                    return Err(TraceParseError::new(format!(
                        "expected `,` or `}}`, got {got:?}"
                    )));
                }
            }
        }
    }
    skip_ws(&mut chars);
    if let Some(c) = chars.next() {
        return Err(TraceParseError::new(format!("trailing input at `{c}`")));
    }
    Ok(fields)
}

/// Where events go when observation is enabled.
pub trait EventSink: Send + Sync {
    /// Record one event. Called from multiple threads; implementations
    /// must be internally synchronised.
    fn record(&self, event: Event);
}

/// Handle every driver threads through its pipeline. Cloning is cheap
/// (one `Option<Arc>`); the default is disabled.
#[derive(Clone, Default)]
pub struct Observer {
    sink: Option<Arc<dyn EventSink>>,
}

impl Observer {
    /// An observer that drops everything at zero cost.
    pub fn disabled() -> Observer {
        Observer { sink: None }
    }

    /// An observer recording into `sink`.
    pub fn new(sink: Arc<dyn EventSink>) -> Observer {
        Observer { sink: Some(sink) }
    }

    /// Whether a sink is attached.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Emit an event. The closure only runs when a sink is attached, so
    /// the disabled path constructs nothing and allocates nothing.
    #[inline]
    pub fn emit(&self, build: impl FnOnce() -> Event) {
        if let Some(sink) = &self.sink {
            sink.record(build());
        }
    }
}

impl std::fmt::Debug for Observer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Observer")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

/// In-memory sink for tests and for folding counters into other frames.
#[derive(Default)]
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// Snapshot of everything recorded so far.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().expect("memory sink poisoned").clone()
    }

    /// Drain all recorded events.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut *self.events.lock().expect("memory sink poisoned"))
    }
}

impl EventSink for MemorySink {
    fn record(&self, event: Event) {
        self.events
            .lock()
            .expect("memory sink poisoned")
            .push(event);
    }
}

/// Sink that spools events as JSON lines to any writer (the `--trace-json`
/// backend).
pub struct JsonLinesSink<W: std::io::Write + Send> {
    writer: Mutex<W>,
}

impl<W: std::io::Write + Send> JsonLinesSink<W> {
    /// Wrap a writer.
    pub fn new(writer: W) -> JsonLinesSink<W> {
        JsonLinesSink {
            writer: Mutex::new(writer),
        }
    }

    /// Flush the underlying writer.
    pub fn flush(&self) -> std::io::Result<()> {
        self.writer.lock().expect("trace sink poisoned").flush()
    }

    /// Unwrap the sink and hand back the underlying writer.
    pub fn into_writer(self) -> W {
        self.writer.into_inner().expect("trace sink poisoned")
    }
}

impl<W: std::io::Write + Send> EventSink for JsonLinesSink<W> {
    fn record(&self, event: Event) {
        let mut line = event.to_json_line();
        line.push('\n');
        let mut w = self.writer.lock().expect("trace sink poisoned");
        // A full disk mid-trace must not take the run down with it.
        let _ = w.write_all(line.as_bytes());
    }
}

/// Run bracket emitting [`Event::RunStart`] and [`Event::RunEnd`]: every
/// driver goes through it, so the run events and the report's wall time
/// come from one place and one clock reading.
pub struct RunTimer {
    start: Instant,
}

impl RunTimer {
    /// Emit `RunStart` for `driver` and start the run clock.
    pub fn start(observer: &Observer, driver: &str, accumulator: AccumulatorMode) -> RunTimer {
        observer.emit(|| Event::RunStart {
            driver: driver.into(),
            accumulator: accumulator.name().into(),
        });
        RunTimer {
            start: Instant::now(),
        }
    }

    /// Stamp the run's wall time onto `report` and emit the matching
    /// `RunEnd` carrying the report's counts.
    pub fn finish(self, observer: &Observer, mut report: RunReport) -> RunReport {
        report.elapsed_secs = self.start.elapsed().as_secs_f64();
        observer.emit(|| Event::RunEnd {
            reads_processed: report.reads_processed as u64,
            reads_mapped: report.reads_mapped as u64,
            calls: report.calls.len() as u64,
            accumulator_bytes: report.accumulator_bytes as u64,
            wall_secs: report.elapsed_secs,
        });
        report
    }
}

/// Scope timer emitting paired [`Event::StageStart`]/[`Event::StageEnd`].
pub struct StageTimer {
    stage: Stage,
    wall: Instant,
    cpu_start: Option<f64>,
}

impl StageTimer {
    /// Emit `StageStart` and start the clocks. The CPU clock lives in
    /// procfs and reading it allocates, so it is only consulted when a
    /// sink is attached — a disabled observer's timer touches nothing
    /// but the (allocation-free) monotonic clock.
    pub fn start(observer: &Observer, stage: Stage) -> StageTimer {
        observer.emit(|| Event::StageStart { stage });
        StageTimer {
            stage,
            wall: Instant::now(),
            cpu_start: if observer.is_enabled() {
                mpisim::thread_cpu_seconds()
            } else {
                None
            },
        }
    }

    /// Emit the matching `StageEnd` with elapsed wall/CPU seconds.
    pub fn finish(self, observer: &Observer) {
        observer.emit(|| Event::StageEnd {
            stage: self.stage,
            wall_secs: self.wall.elapsed().as_secs_f64(),
            cpu_secs: match (self.cpu_start, mpisim::thread_cpu_seconds()) {
                (Some(a), Some(b)) => (b - a).max(0.0),
                _ => 0.0,
            },
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::RunStart {
                driver: "serial".into(),
                accumulator: "FIXED".into(),
            },
            Event::StageStart { stage: Stage::Map },
            Event::StageEnd {
                stage: Stage::Map,
                wall_secs: 0.125,
                cpu_secs: 0.0625,
            },
            Event::Batch {
                worker: 3,
                reads: 256,
                mapped: 250,
                candidates: 612,
                deposited_columns: 15_000,
                abandoned: 580,
                fallbacks: 1,
                underflowed: 2,
                survivors: 260,
                posterior_lanes: 16,
                no_candidates: 4,
            },
            Event::Checkpoint {
                cursor: 1024,
                reads_mapped: 1000,
            },
            Event::RunEnd {
                reads_processed: 2048,
                reads_mapped: 2000,
                calls: 7,
                accumulator_bytes: 80_080,
                wall_secs: 1.5,
            },
        ]
    }

    #[test]
    fn events_round_trip_through_json_lines() {
        for event in sample_events() {
            let line = event.to_json_line();
            let back = Event::parse_json_line(&line).expect(&line);
            assert_eq!(back, event, "line: {line}");
        }
    }

    #[test]
    fn batch_lines_without_outcome_counters_parse_as_zero() {
        let line = r#"{"event":"batch","worker":1,"reads":4,"mapped":3,"candidates":9,"deposited_columns":180}"#;
        assert_eq!(
            Event::parse_json_line(line).unwrap(),
            Event::Batch {
                worker: 1,
                reads: 4,
                mapped: 3,
                candidates: 9,
                deposited_columns: 180,
                abandoned: 0,
                fallbacks: 0,
                underflowed: 0,
                survivors: 0,
                posterior_lanes: 0,
                no_candidates: 0,
            }
        );
        let bad = line.replace("180}", r#"180,"abandoned":-1}"#);
        assert!(Event::parse_json_line(&bad).is_err());
    }

    #[test]
    fn run_end_lines_without_accumulator_bytes_parse_as_zero() {
        let line =
            r#"{"event":"run_end","reads_processed":4,"reads_mapped":3,"calls":1,"wall_secs":0.5}"#;
        assert_eq!(
            Event::parse_json_line(line).unwrap(),
            Event::RunEnd {
                reads_processed: 4,
                reads_mapped: 3,
                calls: 1,
                accumulator_bytes: 0,
                wall_secs: 0.5,
            }
        );
    }

    #[test]
    fn json_escaping_round_trips() {
        let event = Event::RunStart {
            driver: "we\"ird\\name\nwith\tcontrol\u{1}".into(),
            accumulator: "NORM".into(),
        };
        let line = event.to_json_line();
        assert_eq!(Event::parse_json_line(&line).unwrap(), event);
    }

    #[test]
    fn non_finite_floats_serialize_as_valid_json() {
        let event = Event::StageEnd {
            stage: Stage::Call,
            wall_secs: f64::NAN,
            cpu_secs: f64::INFINITY,
        };
        let line = event.to_json_line();
        let back = Event::parse_json_line(&line).unwrap();
        assert_eq!(
            back,
            Event::StageEnd {
                stage: Stage::Call,
                wall_secs: 0.0,
                cpu_secs: 0.0,
            }
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "",
            "{",
            "{}",
            "not json",
            r#"{"event":"mystery"}"#,
            r#"{"event":"batch","worker":-1,"reads":0,"mapped":0,"candidates":0,"deposited_columns":0}"#,
            r#"{"event":"run_start","driver":"x"}"#,
            r#"{"event":"stage_start","stage":"warp"}"#,
            r#"{"event":"run_end","reads_processed":1,"reads_mapped":1,"calls":0,"wall_secs":0.1} trailing"#,
        ] {
            assert!(Event::parse_json_line(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn disabled_observer_never_runs_the_closure() {
        let obs = Observer::disabled();
        assert!(!obs.is_enabled());
        obs.emit(|| panic!("closure must not run when disabled"));
    }

    #[test]
    fn memory_sink_records_in_order() {
        let sink = Arc::new(MemorySink::new());
        let obs = Observer::new(sink.clone());
        assert!(obs.is_enabled());
        for e in sample_events() {
            obs.emit(|| e.clone());
        }
        assert_eq!(sink.events(), sample_events());
        assert_eq!(sink.take().len(), 6);
        assert!(sink.events().is_empty());
    }

    #[test]
    fn json_lines_sink_writes_parseable_lines() {
        let sink = JsonLinesSink::new(Vec::new());
        for e in sample_events() {
            sink.record(e);
        }
        let bytes = sink.into_writer();
        let text = String::from_utf8(bytes).unwrap();
        let parsed: Vec<Event> = text
            .lines()
            .map(|l| Event::parse_json_line(l).unwrap())
            .collect();
        assert_eq!(parsed, sample_events());
    }

    #[test]
    fn stage_timer_emits_paired_events() {
        let sink = Arc::new(MemorySink::new());
        let obs = Observer::new(sink.clone());
        let t = StageTimer::start(&obs, Stage::Index);
        t.finish(&obs);
        let events = sink.take();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[0],
            Event::StageStart {
                stage: Stage::Index
            }
        );
        match &events[1] {
            Event::StageEnd {
                stage: Stage::Index,
                wall_secs,
                cpu_secs,
            } => {
                assert!(*wall_secs >= 0.0 && *cpu_secs >= 0.0);
            }
            other => panic!("expected StageEnd, got {other:?}"),
        }
    }
}
