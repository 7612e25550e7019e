//! `gnumap verify` (conformance harness) and `gnumap trace-check`
//! (validate a `--trace-json` event log).

use crate::core::observe::Event;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};

use super::Args;

pub(super) fn cmd_verify(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let fast = args.flag("fast");
    args.reject_unknown()?;
    let report = conformance::run_verify(fast, out).map_err(|e| format!("verify: {e}"))?;
    if report.passed() {
        Ok(())
    } else {
        Err(format!(
            "verification failed: {} failing check(s)",
            report.failure_count()
        ))
    }
}

/// Parse a JSON-lines trace written via `--trace-json`, validate every
/// line, and summarise event kinds. Errors on an empty trace, one without
/// the run_start/run_end bracket, a batch that abandoned more candidates
/// than it scored or fell back on more reads than it had, and a batch
/// whose posterior lanes are not whole four-lane chunks of at least two
/// survivors each.
pub(super) fn cmd_trace_check(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let trace_path = args.require("trace")?;
    args.reject_unknown()?;

    let file = std::fs::File::open(&trace_path).map_err(|e| format!("{trace_path}: {e}"))?;
    let mut kinds: BTreeMap<String, usize> = BTreeMap::new();
    let mut total = 0usize;
    for (lineno, line) in BufReader::new(file).lines().enumerate() {
        let line = line.map_err(|e| format!("{trace_path}: {e}"))?;
        if line.is_empty() {
            continue;
        }
        let event = Event::parse_json_line(&line)
            .map_err(|e| format!("{trace_path}:{}: {e}", lineno + 1))?;
        if let Event::Batch {
            reads,
            mapped,
            candidates,
            abandoned,
            fallbacks,
            underflowed,
            survivors,
            posterior_lanes,
            no_candidates,
            ..
        } = event
        {
            if abandoned > candidates || fallbacks > reads {
                return Err(format!(
                    "{trace_path}:{}: batch abandoned {abandoned} of {candidates} \
                     candidates and fell back on {fallbacks} of {reads} reads",
                    lineno + 1
                ));
            }
            if underflowed > reads.saturating_sub(mapped) {
                return Err(format!(
                    "{trace_path}:{}: batch counts {underflowed} underflowed reads but \
                     only {} of its {reads} reads are unmapped",
                    lineno + 1,
                    reads.saturating_sub(mapped)
                ));
            }
            // Every read mapped, underflowed or had no candidate: a read
            // with a positive total keeps its best candidate, whose weight
            // of at least 1 / candidates is above the configured cut
            // (`min_weight` 1e-4, at most 2 × 64 candidates).
            if mapped + no_candidates + underflowed != reads {
                return Err(format!(
                    "{trace_path}:{}: batch of {reads} reads counts {mapped} mapped, \
                     {no_candidates} without candidates and {underflowed} underflowed",
                    lineno + 1
                ));
            }
            // A four-lane chunk holds 2 to 4 survivors.
            if posterior_lanes % 4 != 0 || posterior_lanes > survivors.saturating_mul(2) {
                return Err(format!(
                    "{trace_path}:{}: batch ran {survivors} survivors in {posterior_lanes} \
                     posterior lanes, not whole chunks of four lanes for two to four \
                     survivors each",
                    lineno + 1
                ));
            }
        }
        *kinds.entry(event.kind().to_string()).or_insert(0) += 1;
        total += 1;
    }
    if total == 0 {
        return Err(format!("{trace_path}: empty trace"));
    }
    for bracket in ["run_start", "run_end"] {
        if !kinds.contains_key(bracket) {
            return Err(format!("{trace_path}: no {bracket} event"));
        }
    }
    let summary = kinds
        .iter()
        .map(|(k, n)| format!("{k} {n}"))
        .collect::<Vec<_>>()
        .join(", ");
    writeln!(out, "{total} event(s): {summary}").map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::super::{run, test_argv};
    use crate::cli::run_to_string;

    #[test]
    fn verify_rejects_unknown_options_before_running() {
        let mut buf = Vec::new();
        let err = run(&test_argv(&["verify", "--bogus"]), &mut buf).unwrap_err();
        assert!(err.contains("--bogus"));
        assert!(buf.is_empty(), "no tier should have started");
    }

    #[test]
    fn trace_check_rejects_garbage_and_empty_traces() {
        let dir = std::env::temp_dir().join(format!("gnumap-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        let empty = dir.join("empty.jsonl");
        std::fs::write(&empty, "").unwrap();
        let err = run_to_string(&["trace-check", "--trace", empty.to_str().unwrap()]).unwrap_err();
        assert!(err.contains("empty trace"), "{err}");

        let garbage = dir.join("garbage.jsonl");
        std::fs::write(&garbage, "not json\n").unwrap();
        let err =
            run_to_string(&["trace-check", "--trace", garbage.to_str().unwrap()]).unwrap_err();
        assert!(err.contains("garbage.jsonl:1"), "{err}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_check_accepts_run_ends_with_and_without_accumulator_bytes() {
        let dir = std::env::temp_dir().join(format!("gnumap-run-end-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let run_start = r#"{"event":"run_start","driver":"serial","accumulator":"FIXED"}"#;
        let old =
            r#"{"event":"run_end","reads_processed":0,"reads_mapped":0,"calls":0,"wall_secs":0.1}"#;
        let new = old.replace(r#","wall"#, r#","accumulator_bytes":80080,"wall"#);
        for (name, run_end) in [("old.jsonl", old), ("new.jsonl", new.as_str())] {
            let path = dir.join(name);
            std::fs::write(&path, format!("{run_start}\n{run_end}\n")).unwrap();
            let out = run_to_string(&["trace-check", "--trace", path.to_str().unwrap()]);
            assert_eq!(
                out.unwrap(),
                "2 event(s): run_end 1, run_start 1\n",
                "{name}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_check_rejects_impossible_abandon_counts() {
        let dir = std::env::temp_dir().join(format!("gnumap-abandon-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let run_start = r#"{"event":"run_start","driver":"serial","accumulator":"NORM"}"#;
        let run_end =
            r#"{"event":"run_end","reads_processed":4,"reads_mapped":4,"calls":0,"wall_secs":0.1}"#;
        let check = |name: &str, abandoned: u64, fallbacks: u64| {
            let batch = format!(
                r#"{{"event":"batch","worker":0,"reads":4,"mapped":4,"candidates":9,"deposited_columns":248,"abandoned":{abandoned},"fallbacks":{fallbacks}}}"#
            );
            let path = dir.join(name);
            std::fs::write(&path, format!("{run_start}\n{batch}\n{run_end}\n")).unwrap();
            run_to_string(&["trace-check", "--trace", path.to_str().unwrap()])
        };
        assert!(check("ok.jsonl", 9, 4).is_ok());
        let err = check("abandoned.jsonl", 10, 0).unwrap_err();
        assert!(err.contains("abandoned.jsonl:2"), "{err}");
        assert!(check("fallbacks.jsonl", 0, 5).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_check_rejects_more_underflowed_than_unmapped_reads() {
        let dir = std::env::temp_dir().join(format!("gnumap-underflow-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let run_start = r#"{"event":"run_start","driver":"serial","accumulator":"NORM"}"#;
        let run_end =
            r#"{"event":"run_end","reads_processed":4,"reads_mapped":3,"calls":0,"wall_secs":0.1}"#;
        let check = |name: &str, underflowed: u64| {
            let batch = format!(
                r#"{{"event":"batch","worker":0,"reads":4,"mapped":3,"candidates":9,"deposited_columns":186,"underflowed":{underflowed}}}"#
            );
            let path = dir.join(name);
            std::fs::write(&path, format!("{run_start}\n{batch}\n{run_end}\n")).unwrap();
            run_to_string(&["trace-check", "--trace", path.to_str().unwrap()])
        };
        assert!(check("ok.jsonl", 1).is_ok());
        let err = check("underflowed.jsonl", 2).unwrap_err();
        assert!(err.contains("underflowed.jsonl:2"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_check_rejects_reads_not_accounted_for() {
        let dir = std::env::temp_dir().join(format!("gnumap-outcomes-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let run_start = r#"{"event":"run_start","driver":"serial","accumulator":"NORM"}"#;
        let run_end =
            r#"{"event":"run_end","reads_processed":6,"reads_mapped":3,"calls":0,"wall_secs":0.1}"#;
        let check = |name: &str, no_candidates: u64| {
            let batch = format!(
                r#"{{"event":"batch","worker":0,"reads":6,"mapped":3,"candidates":9,"deposited_columns":186,"underflowed":1,"no_candidates":{no_candidates}}}"#
            );
            let path = dir.join(name);
            std::fs::write(&path, format!("{run_start}\n{batch}\n{run_end}\n")).unwrap();
            run_to_string(&["trace-check", "--trace", path.to_str().unwrap()])
        };
        assert!(check("ok.jsonl", 2).is_ok());
        let err = check("missing.jsonl", 1).unwrap_err();
        assert!(err.contains("missing.jsonl:2"), "{err}");
        assert!(err.contains("1 without candidates"), "{err}");
        assert!(check("extra.jsonl", 3).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_check_rejects_impossible_posterior_lanes() {
        let dir = std::env::temp_dir().join(format!("gnumap-lanes-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let run_start = r#"{"event":"run_start","driver":"serial","accumulator":"NORM"}"#;
        let run_end =
            r#"{"event":"run_end","reads_processed":4,"reads_mapped":4,"calls":0,"wall_secs":0.1}"#;
        let check = |name: &str, survivors: u64, lanes: u64| {
            let batch = format!(
                r#"{{"event":"batch","worker":0,"reads":4,"mapped":4,"candidates":9,"deposited_columns":434,"survivors":{survivors},"posterior_lanes":{lanes}}}"#
            );
            let path = dir.join(name);
            std::fs::write(
                &path,
                format!(
                    "{run_start}
{batch}
{run_end}
"
                ),
            )
            .unwrap();
            run_to_string(&["trace-check", "--trace", path.to_str().unwrap()])
        };
        // Two reads with two survivors each, three lone survivors.
        assert!(check("ok.jsonl", 7, 8).is_ok());
        assert!(check("lone.jsonl", 4, 0).is_ok());
        let err = check("partial.jsonl", 7, 6).unwrap_err();
        assert!(err.contains("partial.jsonl:2"), "{err}");
        assert!(check("padded.jsonl", 3, 8).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
