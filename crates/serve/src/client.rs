//! A small synchronous client for the experiment service, used by the
//! `fig_queue` demo binary and the end-to-end tests.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::json::Json;
use crate::spec::RunSpec;

/// A connected client. One request/response at a time (the protocol is
/// line-oriented and synchronous).
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// The server's acknowledgement of a submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobTicket {
    /// Job id for `status`/`watch`/`wait`.
    pub job: u64,
    /// Entries in the job.
    pub total: u64,
    /// Entries answered instantly from the in-memory cache.
    pub cached: u64,
}

/// One entry row of a job status report.
#[derive(Debug, Clone)]
pub struct JobRow {
    /// The spec's human-readable label.
    pub label: String,
    /// `queued`, `running`, `done`, or `failed`.
    pub state: String,
    /// Why the simulation failed (failed rows only).
    pub error: Option<String>,
    /// `memory`, `store`, or `computed` (done rows only).
    pub provenance: Option<String>,
    /// Wall-clock cost of resolving the entry (done rows only).
    pub wall_ms: Option<u64>,
    /// Result fingerprint, 16 hex digits (done rows only).
    pub fingerprint: Option<String>,
    /// Aggregate throughput in instructions/ns (done rows only).
    pub ipns: Option<f64>,
}

/// A job's progress snapshot.
#[derive(Debug, Clone)]
pub struct JobStatus {
    /// The job id.
    pub job: u64,
    /// `queued`, `running`, `done`, or `failed` (every entry finished,
    /// at least one failed).
    pub state: String,
    /// Entries total.
    pub total: u64,
    /// Entries finished, failed ones included.
    pub done: u64,
    /// Per-entry rows.
    pub rows: Vec<JobRow>,
}

impl JobStatus {
    /// Whether every entry has completed successfully.
    pub fn is_done(&self) -> bool {
        self.state == "done"
    }
}

impl Client {
    /// Connect to a running server.
    ///
    /// # Errors
    ///
    /// Propagates the connection failure.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // The protocol is many small request/response lines; without
        // NODELAY, Nagle + delayed ACK turns each into a ~40 ms stall.
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// One request → one response line.
    fn request(&mut self, req: Json) -> Result<Json, String> {
        writeln!(self.writer, "{req}").map_err(|e| format!("send: {e}"))?;
        self.writer.flush().map_err(|e| format!("send: {e}"))?;
        self.read_line()
    }

    fn read_line(&mut self) -> Result<Json, String> {
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .map_err(|e| format!("recv: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".into());
        }
        let v = Json::parse(line.trim_end())?;
        if v.get("ok").and_then(Json::as_bool) == Some(false) {
            return Err(v
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("unspecified server error")
                .to_string());
        }
        Ok(v)
    }

    /// Liveness check; returns the server's worker-pool width.
    ///
    /// # Errors
    ///
    /// Reports transport failures or a malformed response.
    pub fn ping(&mut self) -> Result<u64, String> {
        let v = self.request(Json::obj(vec![("cmd".into(), Json::str("ping"))]))?;
        v.get("workers")
            .and_then(Json::as_u64)
            .ok_or_else(|| "malformed pong".into())
    }

    /// Submit a plan of run specs.
    ///
    /// # Errors
    ///
    /// Reports transport failures or a server-side rejection (unknown
    /// preset, empty plan, …).
    pub fn submit(&mut self, plan: &[RunSpec]) -> Result<JobTicket, String> {
        let v = self.request(Json::obj(vec![
            ("cmd".into(), Json::str("submit")),
            (
                "plan".into(),
                Json::arr(plan.iter().map(RunSpec::to_json).collect()),
            ),
        ]))?;
        Ok(JobTicket {
            job: v
                .get("job")
                .and_then(Json::as_u64)
                .ok_or("malformed submit ack")?,
            total: v.get("total").and_then(Json::as_u64).unwrap_or(0),
            cached: v.get("cached").and_then(Json::as_u64).unwrap_or(0),
        })
    }

    /// One status snapshot of a job.
    ///
    /// # Errors
    ///
    /// Reports transport failures or an unknown job id.
    pub fn status(&mut self, job: u64) -> Result<JobStatus, String> {
        let v = self.request(Json::obj(vec![
            ("cmd".into(), Json::str("status")),
            ("job".into(), Json::U64(job)),
        ]))?;
        let rows = v
            .get("rows")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .map(|r| JobRow {
                label: r
                    .get("label")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string(),
                state: r
                    .get("state")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string(),
                error: r.get("error").and_then(Json::as_str).map(str::to_string),
                provenance: r
                    .get("provenance")
                    .and_then(Json::as_str)
                    .map(str::to_string),
                wall_ms: r.get("wall_ms").and_then(Json::as_u64),
                fingerprint: r
                    .get("fingerprint")
                    .and_then(Json::as_str)
                    .map(str::to_string),
                ipns: r.get("ipns").and_then(Json::as_f64),
            })
            .collect();
        Ok(JobStatus {
            job,
            state: v
                .get("state")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
            total: v.get("total").and_then(Json::as_u64).unwrap_or(0),
            done: v.get("done").and_then(Json::as_u64).unwrap_or(0),
            rows,
        })
    }

    /// Poll `status` until every entry of the job is done or failed.
    ///
    /// # Errors
    ///
    /// Propagates the first `status` failure.
    pub fn wait(&mut self, job: u64, poll: Duration) -> Result<JobStatus, String> {
        loop {
            let s = self.status(job)?;
            if s.is_done() || s.state == "failed" {
                return Ok(s);
            }
            std::thread::sleep(poll);
        }
    }

    /// Stream a job's progress events, invoking `on_event` per line
    /// until the terminating `job_done` event (passed to the callback
    /// too). Blocks until every entry is done or failed.
    ///
    /// # Errors
    ///
    /// Reports transport failures or an unknown job id.
    pub fn watch(&mut self, job: u64, mut on_event: impl FnMut(&Json)) -> Result<(), String> {
        writeln!(
            self.writer,
            "{}",
            Json::obj(vec![
                ("cmd".into(), Json::str("watch")),
                ("job".into(), Json::U64(job)),
            ])
        )
        .map_err(|e| format!("send: {e}"))?;
        self.writer.flush().map_err(|e| format!("send: {e}"))?;
        loop {
            let v = self.read_line()?;
            let done = v.get("event").and_then(Json::as_str) == Some("job_done");
            on_event(&v);
            if done {
                return Ok(());
            }
        }
    }

    /// The server's aggregate counters, as raw JSON.
    ///
    /// # Errors
    ///
    /// Reports transport failures.
    pub fn stats(&mut self) -> Result<Json, String> {
        self.request(Json::obj(vec![("cmd".into(), Json::str("stats"))]))
    }

    /// Ask the server to stop accepting connections and drain.
    ///
    /// # Errors
    ///
    /// Reports transport failures.
    pub fn shutdown(&mut self) -> Result<(), String> {
        self.request(Json::obj(vec![("cmd".into(), Json::str("shutdown"))]))?;
        Ok(())
    }
}
