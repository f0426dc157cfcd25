//! End-to-end exercise of the experiment service over real TCP: submit
//! a plan, stream progress, verify provenance transitions
//! (computed → memory → store across server generations), deduplicate
//! duplicate specs, fail a panicking run without losing its worker,
//! and drain cleanly on shutdown.

use std::io::{BufRead, BufReader, Write};
use std::sync::Arc;
use std::time::Duration;

use piranha::harness::ResultStore;
use piranha::serve::json::Json;
use piranha::serve::{Client, DiskStore, RunSpec, Server, ServerConfig, MAX_LINE_BYTES};

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("piranha-serve-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Spawn a server on an ephemeral port; returns its address and the
/// thread to join after `shutdown`.
fn spawn_server(store: Option<Arc<dyn ResultStore>>) -> (String, std::thread::JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", store, ServerConfig { threads: 2 })
        .expect("bind an ephemeral port");
    let addr = server.local_addr().expect("bound socket").to_string();
    (addr, std::thread::spawn(move || server.run()))
}

fn plan() -> Vec<RunSpec> {
    vec![
        RunSpec::new("p1", "oltp", "tiny"),
        RunSpec::new("p2", "oltp", "tiny"),
        RunSpec::new("p4", "oltp", "tiny").with_chips(2),
    ]
}

#[test]
fn submit_watch_and_resubmit_over_tcp() {
    let (addr, handle) = spawn_server(None);
    let mut client = Client::connect(&addr).expect("connect");
    assert!(client.ping().expect("ping") >= 1, "worker pool is alive");

    // Cold submission: nothing cached, every entry computes.
    let ticket = client.submit(&plan()).expect("submit");
    assert_eq!((ticket.total, ticket.cached), (3, 0));
    let mut events = Vec::new();
    client
        .watch(ticket.job, |ev| {
            if let Some(kind) = ev.get("event").and_then(|v| v.as_str()) {
                events.push(kind.to_string());
            }
        })
        .expect("watch");
    assert_eq!(events.last().map(String::as_str), Some("job_done"));
    assert_eq!(
        events.iter().filter(|e| *e == "done").count(),
        3,
        "every entry must report done: {events:?}"
    );
    let status = client.status(ticket.job).expect("status");
    assert!(status.is_done());
    assert_eq!(status.done, 3);
    for row in &status.rows {
        assert_eq!(row.provenance.as_deref(), Some("computed"));
        assert!(row.fingerprint.is_some(), "done rows carry a fingerprint");
    }

    // Identical plan again: acknowledged fully cached, done at submit,
    // and every row now answered from memory.
    let again = client.submit(&plan()).expect("resubmit");
    assert_eq!((again.total, again.cached), (3, 3));
    let warm = client.status(again.job).expect("status");
    assert!(warm.is_done(), "a fully cached job completes at submit");
    for (row, cold_row) in warm.rows.iter().zip(&status.rows) {
        assert_eq!(row.provenance.as_deref(), Some("memory"));
        assert_eq!(
            row.fingerprint, cold_row.fingerprint,
            "cached answers must be bit-identical"
        );
    }

    // A plan with internal duplicates resolves each tuple once.
    let mut dup = plan();
    dup.extend(plan());
    let t = client.submit(&dup).expect("submit duplicates");
    assert_eq!((t.total, t.cached), (6, 6), "all dupes hit the cache");

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread drains");
}

#[test]
fn a_restarted_server_serves_from_its_store() {
    let dir = tmpdir("restart");

    // Generation one computes and persists.
    let store: Arc<dyn ResultStore> = Arc::new(DiskStore::open(&dir).unwrap());
    let (addr, handle) = spawn_server(Some(store));
    let mut client = Client::connect(&addr).expect("connect");
    let ticket = client.submit(&plan()).expect("submit");
    let done = client
        .wait(ticket.job, Duration::from_millis(5))
        .expect("wait");
    let cold_fps: Vec<Option<String>> = done.rows.iter().map(|r| r.fingerprint.clone()).collect();
    client.shutdown().expect("shutdown");
    handle.join().expect("generation one drains");
    assert_eq!(DiskStore::open(&dir).unwrap().len(), 3);

    // Generation two (fresh memory cache, same directory) serves every
    // entry from the store without recomputing.
    let store: Arc<dyn ResultStore> = Arc::new(DiskStore::open(&dir).unwrap());
    let (addr, handle) = spawn_server(Some(store));
    let mut client = Client::connect(&addr).expect("connect");
    let ticket = client.submit(&plan()).expect("submit");
    let done = client
        .wait(ticket.job, Duration::from_millis(5))
        .expect("wait");
    for (row, cold) in done.rows.iter().zip(&cold_fps) {
        assert_eq!(row.provenance.as_deref(), Some("store"));
        assert_eq!(&row.fingerprint, cold, "store replay is bit-identical");
    }
    let stats = client.stats().expect("stats");
    assert_eq!(
        stats.get("executed").and_then(|v| v.as_u64()),
        Some(0),
        "generation two must not simulate anything: {stats}"
    );
    assert_eq!(stats.get("store_hits").and_then(|v| v.as_u64()), Some(3));
    client.shutdown().expect("shutdown");
    handle.join().expect("generation two drains");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_submissions_are_rejected_not_fatal() {
    let (addr, handle) = spawn_server(None);
    let mut client = Client::connect(&addr).expect("connect");

    let err = client
        .submit(&[RunSpec::new("p9000", "oltp", "tiny")])
        .expect_err("unknown preset must be rejected");
    assert!(err.contains("p9000"), "error names the offender: {err}");
    let err = client
        .submit(&[RunSpec::new("p1", "oltp", "galactic")])
        .expect_err("unknown scale must be rejected");
    assert!(err.contains("galactic"), "error names the offender: {err}");
    let err = client
        .submit(&[RunSpec::new("p4", "oltp", "tiny").with_chips(5000)])
        .expect_err("a machine past MAX_NODES must be rejected");
    assert!(err.contains("chips"), "error names the field: {err}");
    let err = client
        .submit(&[RunSpec::new("p1", "oltp", "completion")])
        .expect_err("an unbounded run to completion never ends");
    assert!(
        err.contains("scale") && err.contains("oltp"),
        "error names the fields: {err}"
    );
    // Sizes the typed client cannot send: a malformed field must not
    // decode to its default.
    let mut raw = RawConn::open(&addr);
    for (field, bad) in [
        ("chips", r#""16""#),
        ("chips", "-3"),
        ("chips", "2.5"),
        ("chips", "0"),
        ("io_nodes", r#""1""#),
    ] {
        let reply = raw.ask(&format!(
            r#"{{"cmd":"submit","plan":[{{"preset":"p1","workload":"oltp","scale":"tiny","{field}":{bad}}}]}}"#
        ));
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
        let err = reply.get("error").and_then(Json::as_str).unwrap_or("");
        assert!(err.contains(field), "{field}={bad}: {err}");
    }
    client
        .submit(&[])
        .expect_err("an empty plan must be rejected");
    let err = client.status(999).expect_err("unknown job id");
    assert!(err.contains("999"), "error names the job: {err}");

    // The connection (and the server) survives every rejection.
    assert!(client.ping().is_ok());
    let ticket = client
        .submit(&[RunSpec::new("p1", "synth", "tiny")])
        .expect("a good plan still works");
    let done = client
        .wait(ticket.job, Duration::from_millis(5))
        .expect("wait");
    assert!(done.is_done());
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread drains");
}

/// A raw request/reply connection, for lines the typed client cannot
/// produce.
struct RawConn {
    conn: std::net::TcpStream,
    replies: BufReader<std::net::TcpStream>,
}

impl RawConn {
    fn open(addr: &str) -> RawConn {
        let conn = std::net::TcpStream::connect(addr).expect("connect");
        let replies = BufReader::new(conn.try_clone().expect("clone socket"));
        RawConn { conn, replies }
    }

    fn ask(&mut self, line: &str) -> Json {
        self.conn.write_all(line.as_bytes()).expect("send");
        self.conn.write_all(b"\n").expect("send");
        let mut reply = String::new();
        self.replies.read_line(&mut reply).expect("reply");
        Json::parse(&reply).expect("replies are JSON")
    }
}

/// A simulation that panics fails its own entry: the job ends `failed`
/// with the panic message, and the one worker survives to answer `ping`
/// and complete the next job. The spec is the P4x16 OLTP run that
/// deadlocks at the default seed (ROADMAP item 1), so the message is
/// the deadlock report.
#[test]
fn a_panicking_simulation_fails_its_job_not_the_server() {
    let server = Server::bind("127.0.0.1:0", None, ServerConfig { threads: 1 })
        .expect("bind an ephemeral port");
    let addr = server.local_addr().expect("bound socket").to_string();
    let handle = std::thread::spawn(move || server.run());
    let mut client = Client::connect(&addr).expect("connect");
    assert_eq!(client.ping().expect("ping"), 1, "a single worker");

    let ticket = client
        .submit(&[RunSpec::new("p4", "oltp", "quick").with_chips(16)])
        .expect("submit");
    let mut failure = None;
    client
        .watch(ticket.job, |ev| {
            if ev.get("event").and_then(Json::as_str) == Some("failed") {
                failure = ev.get("error").and_then(Json::as_str).map(str::to_string);
            }
        })
        .expect("watch ends although the entry failed");
    let error = failure.expect("a failed event");
    assert!(error.starts_with("event queues drained"), "{error}");
    assert!(
        error.contains("deadlock") && error.contains("node 13: home 1 TSRF"),
        "{error}"
    );
    let status = client.status(ticket.job).expect("status");
    assert_eq!(status.state, "failed");
    assert_eq!(status.rows[0].error.as_deref(), Some(error.as_str()));

    assert_eq!(client.ping().expect("ping"), 1, "the worker is still there");
    let ticket = client
        .submit(&[RunSpec::new("p1", "oltp", "tiny")])
        .expect("a good plan still works");
    let done = client
        .wait(ticket.job, Duration::from_millis(5))
        .expect("wait");
    assert!(done.is_done());
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread drains");
}

#[test]
fn a_nesting_bomb_is_rejected_and_the_server_keeps_serving() {
    let (addr, handle) = spawn_server(None);
    let mut raw = RawConn::open(&addr);
    let bomb = raw.ask(&"[".repeat(1 << 20));
    assert_eq!(bomb.get("ok").and_then(Json::as_bool), Some(false));
    let err = bomb.get("error").and_then(Json::as_str).unwrap_or("");
    assert!(err.contains("nesting"), "error names the cause: {err}");

    let pong = raw.ask(r#"{"cmd":"ping"}"#);
    assert_eq!(pong.get("pong").and_then(Json::as_bool), Some(true));
    Client::connect(&addr)
        .expect("connect")
        .shutdown()
        .expect("shutdown");
    handle.join().expect("server thread drains");
}

/// A client that never sends a newline gets an error once its line
/// passes `MAX_LINE_BYTES`, and its connection is closed; the server
/// keeps its memory bounded and answers the next client.
#[test]
fn an_overlong_request_line_is_rejected_and_the_server_keeps_serving() {
    let (addr, handle) = spawn_server(None);
    let conn = std::net::TcpStream::connect(&addr).expect("connect");
    let mut replies = BufReader::new(conn.try_clone().expect("clone socket"));
    // Write from a second thread while this one waits for the reply:
    // the server answers as soon as the cap is passed.
    let mut tx = conn.try_clone().expect("clone socket");
    let writer = std::thread::spawn(move || {
        let chunk = vec![b'x'; 1 << 20];
        for _ in 0..5 {
            if tx.write_all(&chunk).is_err() {
                return;
            }
        }
        let _ = tx.shutdown(std::net::Shutdown::Write);
    });
    let mut reply = String::new();
    replies.read_line(&mut reply).expect("reply");
    let v = Json::parse(&reply).expect("replies are JSON");
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        v.get("error").and_then(Json::as_str),
        Some(format!("request line exceeds {MAX_LINE_BYTES} bytes").as_str())
    );
    let mut rest = String::new();
    assert_eq!(
        replies.read_line(&mut rest).unwrap_or(0),
        0,
        "the connection is closed after the error"
    );
    writer.join().expect("writer thread");

    let mut client = Client::connect(&addr).expect("connect again");
    assert!(client.ping().expect("ping") >= 1, "server still answers");
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread drains");
}
