//! Framing robustness: decoding is total (never panics, never hangs) and
//! encoding round-trips bit-identically.

use genome::alphabet::Base;
use genome::read::SequencedRead;
use genome::seq::DnaSeq;
use gnumap_core::snpcall::{Cutoff, SnpCall};
use gnumap_stats::lrt::Ploidy;
use proptest::prelude::*;
use server::metrics::StatsSnapshot;
use server::protocol::{
    read_request, read_response, CallResult, ErrorKind, Incoming, ProtocolError, Request, Response,
    SessionConfig,
};
use std::io::Cursor;

fn session_config() -> impl Strategy<Value = SessionConfig> {
    (0u8..2, 0u8..2, 0u64..1000, 0u64..100).prop_map(|(p, c, v, m)| SessionConfig {
        ploidy: if p == 0 {
            Ploidy::Monoploid
        } else {
            Ploidy::Diploid
        },
        cutoff: if c == 0 {
            Cutoff::PValue(v as f64 / 1000.0)
        } else {
            Cutoff::Fdr(v as f64 / 1000.0)
        },
        min_total: m as f64 / 10.0,
    })
}

fn reads() -> impl Strategy<Value = Vec<SequencedRead>> {
    proptest::collection::vec(
        (proptest::collection::vec(0u8..5, 1..40), 2u8..60).prop_map(|(codes, q)| {
            let seq: DnaSeq = codes
                .into_iter()
                .map(|c| (c < 4).then(|| Base::from_index(c as usize)))
                .collect();
            SequencedRead::with_uniform_quality("read/1", seq, q)
        }),
        0..8,
    )
}

fn requests() -> impl Strategy<Value = Request> {
    (0u8..6, session_config(), reads(), 0u64..u64::MAX).prop_map(|(tag, cfg, reads, n)| match tag {
        0 => Request::OpenSession(cfg),
        1 => Request::SubmitReads { session: n, reads },
        2 => Request::Finalize {
            session: n,
            deadline_ms: (n % u64::from(u32::MAX)) as u32,
        },
        3 => Request::Ping { nonce: n },
        4 => Request::Stats,
        _ => Request::Shutdown,
    })
}

fn calls() -> impl Strategy<Value = Vec<SnpCall>> {
    proptest::collection::vec(
        (0u64..100_000, 0u8..4, 0u8..4, 0u64..1_000_000).prop_map(|(pos, r, a, stat)| SnpCall {
            pos: pos as usize,
            reference: Base::from_index(r as usize),
            allele: Base::from_index(a as usize),
            second_allele: (stat % 3 == 0).then(|| Base::from_index(((a + 1) % 4) as usize)),
            statistic: stat as f64 / 7.0,
            p_adjusted: 1.0 / (1.0 + stat as f64),
            counts: [stat as f64, 0.5, 0.0, 2.0, 0.25],
        }),
        0..5,
    )
}

fn responses() -> impl Strategy<Value = Response> {
    (
        0u8..7,
        0u64..u64::MAX,
        calls(),
        proptest::collection::vec(0u64..u64::MAX, 4),
    )
        .prop_map(|(tag, n, calls, extra)| match tag {
            0 => Response::SessionOpened { session: n },
            1 => Response::ReadsAccepted {
                session: n,
                accepted: (n % 1000) as u32,
            },
            2 => Response::SnpCalls(CallResult {
                session: n,
                digest: extra[0],
                reads_processed: extra[1],
                reads_mapped: extra[2],
                calls,
            }),
            3 => Response::Pong { nonce: n },
            4 => Response::StatsReport(StatsSnapshot {
                sessions_open: extra[0],
                reads_accepted: extra[1],
                batches_dispatched: extra[2],
                p99_service_micros: extra[3],
                mean_batch_occupancy: (n % 100) as f64 / 3.0,
                worker_cpu_secs: (n % 7) as f64,
                evidence_bytes: n,
                evidence_bytes_peak: n.saturating_add(extra[0] % 4096),
                ..StatsSnapshot::default()
            }),
            5 => Response::ShuttingDown,
            _ => Response::Error {
                kind: ErrorKind::Busy,
                message: format!("busy #{n}"),
            },
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// encode → decode is the identity on every request frame.
    #[test]
    fn request_round_trip(req in requests()) {
        let bytes = req.encode();
        match read_request(&mut Cursor::new(&bytes), None) {
            Ok(Incoming::Frame(got)) => prop_assert_eq!(got, req),
            other => prop_assert!(false, "decode failed: {:?}", other),
        }
    }

    /// encode → decode is the identity on every response frame.
    #[test]
    fn response_round_trip(resp in responses()) {
        let bytes = resp.encode();
        match read_response(&mut Cursor::new(&bytes), None) {
            Ok(Incoming::Frame(got)) => prop_assert_eq!(got, resp),
            other => prop_assert!(false, "decode failed: {:?}", other),
        }
    }

    /// Arbitrary byte soup never panics or hangs the decoder — every
    /// stream yields frames until a typed error or clean EOF.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255u8, 0..2048)) {
        let mut cursor = Cursor::new(&bytes[..]);
        for _ in 0..64 {
            match read_request(&mut cursor, None) {
                Ok(Incoming::Frame(_)) => continue,
                Ok(Incoming::Eof) | Ok(Incoming::Idle) => break,
                Err(_) => break, // typed error, fine
            }
        }
        let mut cursor = Cursor::new(&bytes[..]);
        for _ in 0..64 {
            match read_response(&mut cursor, None) {
                Ok(Incoming::Frame(_)) => continue,
                Ok(Incoming::Eof) | Ok(Incoming::Idle) => break,
                Err(_) => break,
            }
        }
    }

    /// A truncation of any valid frame yields a typed error (or clean
    /// EOF at the zero cut), never a panic or a bogus frame.
    #[test]
    fn truncations_yield_typed_errors(req in requests(), keep_permille in 0u32..1000) {
        let bytes = req.encode();
        let cut = (bytes.len() * keep_permille as usize) / 1000;
        prop_assume!(cut < bytes.len());
        match read_request(&mut Cursor::new(&bytes[..cut]), None) {
            Ok(Incoming::Eof) => prop_assert_eq!(cut, 0),
            Err(ProtocolError::Truncated(_)) => {}
            other => prop_assert!(false, "cut {} gave {:?}", cut, other),
        }
    }

    /// Flipping the tag byte of a valid frame can never be mistaken for
    /// the original frame.
    #[test]
    fn tag_corruption_is_detected(req in requests(), new_tag in 0x07u8..0x81) {
        let mut bytes = req.encode();
        bytes[4] = new_tag; // tag byte sits right after the length prefix
        if let Ok(Incoming::Frame(got)) = read_request(&mut Cursor::new(&bytes), None) {
            prop_assert!(got != req, "corrupted tag decoded as the original");
        }
    }
}
