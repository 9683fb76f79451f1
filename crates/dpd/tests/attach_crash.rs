//! Live attach streams under daemon death: a client severed mid-stream
//! must hold a salvageable journal prefix equal to exactly the committed
//! epochs it received — the socket extension of the crash-prefix
//! property, judged by the same solo commit-offset oracle.

mod common;

use common::{solo_with_offsets, start_server};
use dp_core::{DoublePlayConfig, JournalReader};
use dp_dpd::proto::frame::{expect_hello, read_frame, send_hello, write_frame};
use dp_dpd::{
    Client, ClientError, Daemon, DaemonConfig, GuestRef, MemStore, Request, Response, ServerConfig,
    SessionId, SessionState, SubmitSpec,
};
use dp_os::SinkFaults;
use dp_support::wire::{from_bytes, to_bytes};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn counter_spec(name: &str, iters: i64, epoch_cycles: u64) -> SubmitSpec {
    SubmitSpec::new(
        name,
        GuestRef::AtomicCounter { workers: 2, iters },
        DoublePlayConfig::new(2).epoch_cycles(epoch_cycles),
    )
}

#[test]
fn attach_streams_the_whole_journal_live_and_matches_solo() {
    let daemon = Arc::new(Daemon::start(
        DaemonConfig::default(),
        Arc::new(MemStore::new()),
    ));
    let (path, _handle) = start_server(&daemon, "attach-live", ServerConfig::default());
    let mut client = Client::connect(&path).unwrap();
    let spec = counter_spec("live", 2_000, 700);
    let (solo, offsets) = solo_with_offsets(&spec.to_session_spec().unwrap());
    // Attach immediately, while the session is still recording: bytes
    // arrive epoch by epoch and the stream ends with the terminal report.
    let id = client.submit(&spec).unwrap();
    let mut streamed = Vec::new();
    let outcome = client.attach(id, &mut streamed).unwrap();
    assert_eq!(outcome.state, SessionState::Finalized);
    assert!(outcome.clean);
    assert_eq!(outcome.epochs as usize, offsets.len());
    assert_eq!(streamed, solo, "live-attached journal diverges from solo");
    client.shutdown().unwrap();
}

/// Attaches to `id` like [`Client::attach`], but appends every chunk to
/// `out` the moment it arrives, so a test can watch what the attacher
/// itself has received.
fn attach_shared(path: &Path, id: SessionId, out: &Mutex<Vec<u8>>) -> Result<(), ClientError> {
    let mut stream = UnixStream::connect(path).map_err(ClientError::Io)?;
    send_hello(&mut stream).map_err(ClientError::Io)?;
    expect_hello(&mut stream)?;
    write_frame(&mut stream, &to_bytes(&Request::Attach { id })).map_err(ClientError::Io)?;
    let mut buf = Vec::new();
    loop {
        read_frame(&mut stream, &mut buf)?;
        match from_bytes::<Response>(&buf).map_err(|e| ClientError::Protocol(e.to_string()))? {
            Response::AttachStart { .. } => {}
            Response::AttachChunk { bytes, .. } => out.lock().unwrap().extend_from_slice(&bytes.0),
            Response::AttachRestart => out.lock().unwrap().clear(),
            Response::AttachEnd { .. } => return Ok(()),
            other => return Err(ClientError::Protocol(format!("unexpected {other:?}"))),
        }
    }
}

#[test]
fn severed_attach_stream_salvages_to_exactly_the_committed_epochs() {
    let daemon = Arc::new(Daemon::start(
        DaemonConfig {
            runners: 1,
            verify_cores: 2,
            queue_capacity: 8,
            ..DaemonConfig::default()
        },
        Arc::new(MemStore::new()),
    ));
    let (path, handle) = start_server(&daemon, "attach-crash", ServerConfig::default());
    let mut client = Client::connect(&path).unwrap();
    // Long enough that the daemon dies mid-recording below.
    let spec = counter_spec("doomed", 60_000, 900);
    let (solo, offsets) = solo_with_offsets(&spec.to_session_spec().unwrap());
    let id = client.submit(&spec).unwrap();

    let received = Arc::new(Mutex::new(Vec::new()));
    let attacher = std::thread::spawn({
        let path = path.clone();
        let received = Arc::clone(&received);
        move || attach_shared(&path, id, &received)
    });

    // Wait until the *attacher* holds at least one committed epoch (what
    // the store holds says nothing about what reached the client), then
    // kill the server mid-stream (the daemon's accept loop and every
    // connection thread exit without sending AttachEnd).
    let deadline = Instant::now() + Duration::from_secs(60);
    while received.lock().unwrap().len() < offsets[0] as usize {
        assert!(
            Instant::now() < deadline,
            "attacher never received a committed epoch"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();

    let result = attacher.join().unwrap();
    let prefix = received.lock().unwrap().clone();
    match result {
        Err(ClientError::Frame(_)) | Err(ClientError::Io(_)) => {}
        other => panic!("stream should have been severed, got {other:?}"),
    }
    // The received prefix is a prefix of the deterministic solo bytes,
    // cut exactly at a commit boundary — salvage loses nothing.
    assert!(
        solo.starts_with(&prefix),
        "severed prefix diverges from solo bytes"
    );
    let expected = offsets
        .iter()
        .filter(|&&o| o as usize <= prefix.len())
        .count();
    assert!(expected >= 1, "stream severed before any epoch arrived");
    let salv = JournalReader::salvage(&prefix).expect("prefix must salvage");
    assert_eq!(
        salv.committed(),
        expected,
        "salvaged epochs != commit-offset oracle"
    );
    assert_eq!(
        salv.salvaged_bytes,
        prefix.len(),
        "attach chunks must end at salvage boundaries"
    );

    // The daemon object outlives its server; let the doomed session
    // finish so shutdown is clean.
    daemon.drain();
    match Arc::try_unwrap(daemon) {
        Ok(d) => d.shutdown(),
        Err(_) => panic!("a connection thread still holds the daemon"),
    }
}

#[test]
fn attach_follows_a_transient_sink_fault_through_the_retry() {
    let daemon = Arc::new(Daemon::start(
        DaemonConfig::default(),
        Arc::new(MemStore::new()),
    ));
    let (path, _handle) = start_server(&daemon, "attach-retry", ServerConfig::default());
    let mut client = Client::connect(&path).unwrap();
    // Attempt 0 dies when its sink reports a full device mid-journal;
    // the retry rewrites the journal in place. An attach that saw
    // attempt-0 bytes must restart and still deliver the final journal.
    let mut spec = counter_spec("retry", 2_000, 700);
    spec.restart_budget = 2;
    spec.transient_sink_faults = true;
    spec.sink_faults = SinkFaults {
        enospc_at: Some(2_000),
        ..SinkFaults::none()
    };
    let (solo, _) = solo_with_offsets(&spec.to_session_spec().unwrap());
    let id = client.submit(&spec).unwrap();
    let mut streamed = Vec::new();
    let outcome = client.attach(id, &mut streamed).unwrap();
    assert_eq!(outcome.state, SessionState::Finalized);
    assert!(outcome.clean);
    assert_eq!(
        streamed, solo,
        "post-retry attach must deliver the rewritten journal"
    );
    let report = client.status(id).unwrap();
    assert!(
        report.attempts >= 2,
        "sink fault should have cost attempt 0"
    );
    client.shutdown().unwrap();
}
