//! A worked example of the experiment service: submit a small plan of
//! runs, stream its progress, then resubmit the identical plan and show
//! the instant all-cached answer.
//!
//! By default the binary spawns an in-process server on an ephemeral
//! port (so the demo is self-contained and leaves nothing running);
//! point it at a long-running `piranha_serve` instead to exercise
//! cross-process reuse.
//!
//! Reads `--addr` (connect to an external `piranha_serve` instead of
//! spawning one in-process), and for the in-process server `--store`
//! (its persistent result store; an external server owns its own) and
//! `--parallel`; see [`piranha::observe::Flags`].
use std::time::Instant;

use piranha::observe::Flags;
use piranha::serve::{Client, JobStatus, RunSpec, Server, ServerConfig};

fn main() {
    let flags = Flags::from_env();
    // Without --addr=, run the whole service in this process, on the
    // store `Flags::from_env` installed.
    let (addr, local) = match flags.addr {
        Some(a) => (a, None),
        None => {
            let store = piranha::harness::default_store();
            let server = Server::bind("127.0.0.1:0", store, ServerConfig::default())
                .expect("bind an ephemeral port");
            let addr = server.local_addr().expect("bound socket has an address");
            println!("in-process server on {addr}");
            (addr.to_string(), Some(std::thread::spawn(|| server.run())))
        }
    };

    let mut client = Client::connect(&addr).unwrap_or_else(|e| {
        eprintln!("cannot connect to {addr}: {e}");
        std::process::exit(1);
    });
    let workers = client.ping().expect("ping");
    println!("connected to {addr} ({workers} workers)");

    // The demo plan: the paper's single-chip ladder plus a two-chip
    // machine, at the smallest scale so the cold pass stays snappy.
    let plan = vec![
        RunSpec::new("p1", "oltp", "tiny"),
        RunSpec::new("p4", "oltp", "tiny"),
        RunSpec::new("p8", "oltp", "tiny"),
        RunSpec::new("p4", "oltp", "tiny").with_chips(2),
        RunSpec::new("p8", "dss", "tiny"),
    ];

    let t0 = Instant::now();
    let ticket = client.submit(&plan).expect("submit");
    println!(
        "job {}: {} entries, {} answered from cache at submit",
        ticket.job, ticket.total, ticket.cached
    );
    client
        .watch(ticket.job, |ev| {
            if let Some(kind) = ev.get("event").and_then(|v| v.as_str()) {
                let label = ev.get("label").and_then(|v| v.as_str()).unwrap_or("");
                match kind {
                    "done" => {
                        let prov = ev.get("provenance").and_then(|v| v.as_str()).unwrap_or("?");
                        let ms = ev.get("wall_ms").and_then(|v| v.as_u64()).unwrap_or(0);
                        println!("  done    {label}  ({prov}, {ms} ms)");
                    }
                    "job_done" => {}
                    _ => println!("  {kind:<7} {label}"),
                }
            }
        })
        .expect("watch");
    let cold = t0.elapsed();
    let status = client.status(ticket.job).expect("status");
    print_table(&status);
    println!("cold pass: {:.2}s", cold.as_secs_f64());

    // The identical plan again: every entry must come straight out of
    // the in-memory cache, acknowledged as cached in the submit ack.
    let t1 = Instant::now();
    let again = client.submit(&plan).expect("resubmit");
    assert_eq!(
        again.cached, again.total,
        "a resubmitted plan must be fully cached"
    );
    let warm = client.status(again.job).expect("status");
    assert!(warm.is_done(), "a fully cached job completes at submit");
    println!(
        "job {}: {}/{} cached, answered in {:.1} ms",
        again.job,
        again.cached,
        again.total,
        t1.elapsed().as_secs_f64() * 1e3
    );

    if let Some(handle) = local {
        client.shutdown().expect("shutdown");
        handle.join().expect("server thread");
        println!("in-process server drained");
    }
}

fn print_table(status: &JobStatus) {
    println!("job {} — {}/{} done", status.job, status.done, status.total);
    for row in &status.rows {
        println!(
            "  {:<24} {:<8} {:<8} {:>6} ms  {}  {:.3} instrs/ns",
            row.label,
            row.state,
            row.provenance.as_deref().unwrap_or("-"),
            row.wall_ms.unwrap_or(0),
            row.fingerprint.as_deref().unwrap_or("-"),
            row.ipns.unwrap_or(0.0),
        );
    }
}
