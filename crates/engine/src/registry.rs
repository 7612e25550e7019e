//! The driver registry: the single source of truth for driver names.
//!
//! Every consumer — the CLI, the conformance matrix, the benchmark
//! binaries — resolves drivers through [`DriverRegistry::get`], so a new
//! execution mode registered here is immediately selectable everywhere,
//! and an unknown name fails the same way everywhere (with a typo
//! suggestion when one is close enough).

use crate::contract::Driver;
use crate::drivers::{
    GenomeSplitDriver, ReadSplitDriver, SerialDriver, ServerDriver, StreamDriver,
};
use crate::error::EngineError;

/// An ordered collection of drivers, resolvable by name or alias.
pub struct DriverRegistry {
    drivers: Vec<Box<dyn Driver>>,
}

impl DriverRegistry {
    /// An empty registry (tests compose their own).
    pub fn new() -> Self {
        DriverRegistry {
            drivers: Vec::new(),
        }
    }

    /// The standard five execution modes, in documentation order.
    pub fn standard() -> Self {
        let mut r = DriverRegistry::new();
        r.register(Box::new(SerialDriver));
        r.register(Box::new(ReadSplitDriver));
        r.register(Box::new(GenomeSplitDriver));
        r.register(Box::new(StreamDriver));
        r.register(Box::new(ServerDriver));
        r
    }

    /// Add a driver. Panics on a name or alias collision — a collision is
    /// a programming error, and the registry is built at startup.
    pub fn register(&mut self, driver: Box<dyn Driver>) {
        for existing in &self.drivers {
            let clash = existing.name() == driver.name()
                || existing.aliases().contains(&driver.name())
                || driver.aliases().contains(&existing.name())
                || driver
                    .aliases()
                    .iter()
                    .any(|a| existing.aliases().contains(a));
            assert!(
                !clash,
                "driver name/alias collision between {:?} and {:?}",
                existing.name(),
                driver.name()
            );
        }
        self.drivers.push(driver);
    }

    /// Every registered driver, in registration order.
    pub fn all(&self) -> impl Iterator<Item = &dyn Driver> {
        self.drivers.iter().map(|d| d.as_ref())
    }

    /// Primary names, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.drivers.iter().map(|d| d.name()).collect()
    }

    /// Resolve `name` against primary names, then aliases. Unknown names
    /// return [`EngineError::UnknownDriver`] carrying the closest
    /// registered name when the edit distance suggests a typo.
    pub fn get(&self, name: &str) -> Result<&dyn Driver, EngineError> {
        if let Some(d) = self.drivers.iter().find(|d| d.name() == name) {
            return Ok(d.as_ref());
        }
        if let Some(d) = self.drivers.iter().find(|d| d.aliases().contains(&name)) {
            return Ok(d.as_ref());
        }
        Err(EngineError::UnknownDriver {
            name: name.to_string(),
            suggestion: self.suggest(name),
            known: self.names(),
        })
    }

    /// Closest primary name or alias within typo distance, mapped back to
    /// the primary name.
    fn suggest(&self, name: &str) -> Option<String> {
        let mut best: Option<(usize, &'static str)> = None;
        for d in &self.drivers {
            for candidate in std::iter::once(d.name()).chain(d.aliases().iter().copied()) {
                let dist = levenshtein(name, candidate);
                if best.is_none_or(|(b, _)| dist < b) {
                    best = Some((dist, d.name()));
                }
            }
        }
        // "sream" → "stream" should hit; "warp" → nothing should not.
        // Accept at most 2 edits, and never more than half the input.
        match best {
            Some((dist, primary)) if dist <= 2 && 2 * dist <= name.len() => {
                Some(primary.to_string())
            }
            _ => None,
        }
    }

    /// A GitHub-flavoured markdown table of every driver and its
    /// capabilities — the README's driver table is generated from (and
    /// tested against) this.
    pub fn driver_table(&self) -> String {
        let mut out = String::from(
            "| Driver | Aliases | Accumulators | Parallel | Streaming | \
             Checkpointing |\n\
             |---|---|---|---|---|---|\n",
        );
        let yn = |b: bool| if b { "yes" } else { "no" };
        for d in self.all() {
            let caps = d.capabilities();
            let aliases = if d.aliases().is_empty() {
                "—".to_string()
            } else {
                d.aliases()
                    .iter()
                    .map(|a| format!("`{a}`"))
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            let accs = caps
                .accumulators
                .iter()
                .map(|m| m.name())
                .collect::<Vec<_>>()
                .join(", ");
            out.push_str(&format!(
                "| `{}` | {} | {} | {} | {} | {} |\n",
                d.name(),
                aliases,
                accs,
                yn(caps.parallel),
                yn(caps.streaming),
                yn(caps.checkpointing),
            ));
        }
        out
    }
}

impl Default for DriverRegistry {
    fn default() -> Self {
        DriverRegistry::standard()
    }
}

/// Classic two-row dynamic-programming edit distance.
fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_registry_has_the_five_modes() {
        let r = DriverRegistry::standard();
        assert_eq!(
            r.names(),
            vec!["serial", "read-split", "genome-split", "stream", "server"]
        );
    }

    #[test]
    fn aliases_resolve_to_the_primary_driver() {
        let r = DriverRegistry::standard();
        // The shared-memory names select the stream driver: a thread
        // pool over one bit-exact accumulator.
        for alias in ["rayon", "threads", "shared"] {
            assert_eq!(r.get(alias).unwrap().name(), "stream", "{alias}");
        }
        assert_eq!(r.get("mpi-genome").unwrap().name(), "genome-split");
        assert_eq!(r.get("loopback").unwrap().name(), "server");
    }

    #[test]
    fn typos_get_a_suggestion_and_nonsense_does_not() {
        let r = DriverRegistry::standard();
        let err = r.get("sream").map(|d| d.name()).unwrap_err();
        match &err {
            EngineError::UnknownDriver {
                suggestion, known, ..
            } => {
                assert_eq!(suggestion.as_deref(), Some("stream"));
                assert_eq!(known.len(), 5);
            }
            other => panic!("unexpected error: {other:?}"),
        }
        assert!(err.to_string().contains("unknown value"), "{err}");
        assert!(
            err.to_string().contains("did you mean \"stream\"?"),
            "{err}"
        );

        match r.get("warp").map(|d| d.name()).unwrap_err() {
            EngineError::UnknownDriver { suggestion, .. } => assert_eq!(suggestion, None),
            other => panic!("unexpected error: {other:?}"),
        }
    }

    #[test]
    fn levenshtein_basics() {
        assert_eq!(levenshtein("", ""), 0);
        assert_eq!(levenshtein("abc", "abc"), 0);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("sream", "stream"), 1);
    }

    #[test]
    fn driver_table_is_well_formed_markdown() {
        let r = DriverRegistry::standard();
        let table = r.driver_table();
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 2 + 5, "header + separator + one row each");
        for line in &lines {
            assert_eq!(line.matches('|').count(), 7, "7 pipes per row: {line}");
        }
        assert!(table.contains("| `serial` |"));
        assert!(table.contains("| `genome-split` | `mpi-genome` |"));
    }

    #[test]
    fn duplicate_registration_panics() {
        let result = std::panic::catch_unwind(|| {
            let mut r = DriverRegistry::standard();
            r.register(Box::new(SerialDriver));
        });
        assert!(result.is_err());
    }
}
