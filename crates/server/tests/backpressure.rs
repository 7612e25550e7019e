//! Overload behaviour: bounded queues shed with typed `Busy`, slow
//! workers surface `Timeout` on finalize, a stalled client cannot wedge
//! the batcher, buffered reads never wait on an empty ingress queue — and
//! the server stays correct and live throughout.

use genome::read::SequencedRead;
use genome::seq::DnaSeq;
use gnumap_core::accum::FixedAccumulator;
use gnumap_core::config::GnumapConfig;
use gnumap_core::observe::Observer;
use gnumap_core::pipeline::run_serial;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use server::protocol::Request;
use server::{start, Client, ClientError, ErrorKind, ServerConfig, SessionConfig};
use simulate::reads::{simulate_reads, ReadSimConfig, ReadSource};
use simulate::{generate_genome, GenomeConfig};
use std::io::Write;
use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

fn fixture(genome_len: usize, coverage: f64, seed: u64) -> (DnaSeq, Vec<SequencedRead>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let reference = generate_genome(
        &GenomeConfig {
            length: genome_len,
            repeat_families: 0,
            ..GenomeConfig::default()
        },
        &mut rng,
    );
    let sim = simulate_reads(
        &ReadSource::Monoploid(&reference),
        ReadSimConfig {
            coverage,
            ..ReadSimConfig::default()
        }
        .read_count(genome_len),
        &ReadSimConfig {
            coverage,
            ..ReadSimConfig::default()
        },
        &mut rng,
    );
    let reads: Vec<_> = sim.into_iter().map(|r| r.read).collect();
    (reference, reads)
}

/// With a tiny ingress queue, a short admission timeout, and slowed
/// workers, submits get shed with typed `Busy`; the server stays live
/// (ping works), accepts retries, and the finalized session is still
/// bit-identical to a serial run over exactly the accepted reads.
#[test]
fn full_ingress_sheds_busy_and_recovers() {
    let (reference, reads) = fixture(2_000, 8.0, 11);
    let config = GnumapConfig::default();
    let handle = start(
        reference.clone(),
        config,
        ServerConfig {
            workers: 1,
            batch_size: 4,
            ingress_capacity: 1,
            submit_timeout: Duration::from_millis(30),
            worker_delay: Some(Duration::from_millis(80)),
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("server starts");

    let mut client = Client::connect(handle.addr()).expect("connect");
    let session = client.open_session(SessionConfig::default()).expect("open");

    let mut accepted: Vec<SequencedRead> = Vec::new();
    let mut busy_seen = 0usize;
    for chunk in reads.chunks(4).take(12) {
        loop {
            match client.submit_reads(session, chunk) {
                Ok(n) => {
                    assert_eq!(n as usize, chunk.len());
                    accepted.extend_from_slice(chunk);
                    break;
                }
                Err(err) if err.is_kind(ErrorKind::Busy) => {
                    busy_seen += 1;
                    // The server must stay live under overload.
                    client.ping(busy_seen as u64).expect("ping during overload");
                    thread::sleep(Duration::from_millis(40));
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
    }
    assert!(
        busy_seen > 0,
        "a 1-chunk ingress queue with slowed workers must shed at least once"
    );
    let stats = client.stats().expect("stats");
    assert_eq!(stats.busy_rejections as usize, busy_seen);

    let result = client.finalize(session, 60_000).expect("finalize");
    let serial =
        run_serial::<FixedAccumulator>(&reference, &accepted, &config, &Observer::disabled());
    assert_eq!(
        Some(result.digest),
        serial.accumulator_digest,
        "shedding must never corrupt accepted evidence"
    );

    handle.shutdown();
    handle.join();
}

/// A finalize whose deadline is shorter than the worker backlog gets a
/// typed `Timeout`; the session survives, and a retried finalize after
/// the drain returns the full, correct result.
#[test]
fn slow_worker_triggers_finalize_timeout_then_retry_succeeds() {
    let (reference, reads) = fixture(2_000, 6.0, 29);
    let config = GnumapConfig::default();
    let handle = start(
        reference.clone(),
        config,
        ServerConfig {
            workers: 1,
            batch_size: 2,
            worker_delay: Some(Duration::from_millis(150)),
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("server starts");

    let mut client = Client::connect(handle.addr()).expect("connect");
    let session = client.open_session(SessionConfig::default()).expect("open");
    let take = 12.min(reads.len());
    client
        .submit_reads(session, &reads[..take])
        .expect("submit");

    // 6 batches × 150 ms of injected delay cannot drain in 10 ms.
    match client.finalize(session, 10) {
        Err(err) if err.is_kind(ErrorKind::Timeout) => {}
        other => panic!("expected Timeout, got {other:?}"),
    }
    assert_eq!(client.stats().expect("stats").timeouts, 1);

    // Retry with a generous deadline: the session is closed but intact.
    let result = client.finalize(session, 60_000).expect("retried finalize");
    let serial =
        run_serial::<FixedAccumulator>(&reference, &reads[..take], &config, &Observer::disabled());
    assert_eq!(Some(result.digest), serial.accumulator_digest);
    assert_eq!(result.reads_processed as usize, take);

    // After a successful finalize the session is gone.
    match client.finalize(session, 1000) {
        Err(err) if err.is_kind(ErrorKind::UnknownSession) => {}
        other => panic!("expected UnknownSession, got {other:?}"),
    }

    handle.shutdown();
    handle.join();
}

/// A client that opens a frame and then stalls forever only wedges its
/// own connection: other clients keep full service, and the stalled
/// connection is eventually dropped by the frame-stall cap.
#[test]
fn stalled_client_does_not_wedge_the_batcher() {
    let (reference, reads) = fixture(2_000, 5.0, 43);
    let config = GnumapConfig::default();
    let handle = start(
        reference.clone(),
        config,
        ServerConfig {
            frame_stall: Duration::from_millis(500),
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("server starts");
    let addr = handle.addr();

    // The staller: send half of a valid SubmitReads frame, then nothing.
    let frame = Request::SubmitReads {
        session: 1,
        reads: reads[..4].to_vec(),
    }
    .encode();
    let mut staller = TcpStream::connect(addr).expect("staller connects");
    staller
        .write_all(&frame[..frame.len() / 2])
        .expect("partial write");
    staller.flush().expect("flush");

    // Meanwhile a healthy client gets complete service.
    let mut client = Client::connect(addr).expect("connect");
    let session = client.open_session(SessionConfig::default()).expect("open");
    let take = 10.min(reads.len());
    client
        .submit_reads(session, &reads[..take])
        .expect("submit");
    let result = client.finalize(session, 60_000).expect("finalize");
    let serial =
        run_serial::<FixedAccumulator>(&reference, &reads[..take], &config, &Observer::disabled());
    assert_eq!(Some(result.digest), serial.accumulator_digest);

    // The stalled connection gets reaped by the frame-stall cap, so
    // shutdown + join cannot hang on it.
    let deadline = Instant::now() + Duration::from_secs(10);
    drop(client);
    handle.shutdown();
    let joined = thread::spawn(move || handle.join());
    while !joined.is_finished() {
        assert!(
            Instant::now() < deadline,
            "join hung on the stalled connection"
        );
        thread::sleep(Duration::from_millis(50));
    }
    joined.join().expect("join thread");
    drop(staller);
}

/// Reads the batcher holds beyond one round of cuts (`workers ×
/// batch_size`) go out in the next round at once: with ingress empty, the
/// batcher must not wait for more input while it still buffers reads the
/// idle workers could map. Here each session's 3-read chunk takes three
/// one-read rounds, so waiting out the 50 ms input timeout before each
/// leftover round would hold every session back by at least 100 ms.
#[test]
fn leftover_reads_dispatch_without_waiting_for_input() {
    let (reference, reads) = fixture(1_500, 3.0, 7);
    let handle = start(
        reference,
        GnumapConfig::default(),
        ServerConfig {
            workers: 1,
            batch_size: 1,
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("server starts");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let sessions = 10;
    let started = Instant::now();
    for chunk in reads.chunks_exact(3).take(sessions) {
        let session = client.open_session(SessionConfig::default()).expect("open");
        assert_eq!(client.submit_reads(session, chunk).expect("submit"), 3);
        let result = client.finalize(session, 60_000).expect("finalize");
        assert_eq!(result.reads_processed, 3);
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(100) * sessions as u32 / 2,
        "{sessions} three-read sessions took {elapsed:?}: leftover reads waited for input"
    );
    handle.shutdown();
    handle.join();
}

/// Typed errors for bad session ids.
#[test]
fn unknown_session_is_typed() {
    let (reference, reads) = fixture(1_500, 3.0, 5);
    let handle = start(
        reference,
        GnumapConfig::default(),
        ServerConfig::default(),
        "127.0.0.1:0",
    )
    .expect("server starts");
    let mut client = Client::connect(handle.addr()).expect("connect");
    match client.submit_reads(777, &reads[..1]) {
        Err(ClientError::Server { kind, .. }) => assert_eq!(kind, ErrorKind::UnknownSession),
        other => panic!("expected UnknownSession, got {other:?}"),
    }
    match client.finalize(777, 100) {
        Err(ClientError::Server { kind, .. }) => assert_eq!(kind, ErrorKind::UnknownSession),
        other => panic!("expected UnknownSession, got {other:?}"),
    }
    handle.shutdown();
    handle.join();
}
