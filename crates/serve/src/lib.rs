//! Persistent result store and long-running experiment service over the
//! memoizing harness.
//!
//! The figure binaries built in earlier milestones rebuild the
//! harness's in-memory cache from scratch every process; this crate
//! makes simulation results **durable artifacts** keyed by the
//! harness's stable `cache_key`, the way mature simulator
//! infrastructures amortize expensive cycle-accurate runs across
//! exploration campaigns. Two layers:
//!
//! - **[`DiskStore`]** (`store`/`envelope` modules): a content-addressed
//!   on-disk cache of [`piranha_system::RunResult`]s in a versioned,
//!   fingerprint-verified JSON envelope, with atomic write-then-rename
//!   persistence and corruption-tolerant loads. It plugs into the
//!   harness through the [`piranha_harness::ResultStore`] trait (the
//!   harness sits *below* this crate in the dependency graph and only
//!   sees the trait), so `--store=<dir>` / `PIRANHA_STORE` makes every
//!   figure binary resumable across processes.
//! - **[`Server`]/[`Client`]** (`service`/`client` modules): a
//!   long-running TCP service (newline-delimited JSON; std only) that
//!   accepts [`RunSpec`] plan submissions, deduplicates against the
//!   in-memory cache and the store, shards uncached runs across a
//!   worker pool budgeted like `Harness::execute`, and streams per-job
//!   progress with cache-hit provenance.
//!
//! The [`json`] module is the JSON value type of the envelope, the wire
//! protocol and (via `piranha::observe`) the figure binaries' reports;
//! its module docs name the two writers that format their own text.

pub mod client;
pub mod envelope;
pub mod json;
pub mod service;
pub mod spec;
pub mod store;

pub use client::{Client, JobRow, JobStatus, JobTicket};
pub use envelope::{build_stamp, Envelope, SCHEMA_VERSION};
pub use service::{Server, ServerConfig, MAX_LINE_BYTES};
pub use spec::RunSpec;
pub use store::DiskStore;

use std::sync::Arc;

/// Open a [`DiskStore`] at `dir` and install it as the process-wide
/// default every subsequently built `Harness` picks up
/// ([`piranha_harness::set_default_store`]).
///
/// # Errors
///
/// Propagates the directory-creation failure.
pub fn install_store(dir: impl Into<std::path::PathBuf>) -> std::io::Result<Arc<DiskStore>> {
    let store = Arc::new(DiskStore::open(dir)?);
    piranha_harness::set_default_store(Some(store.clone()));
    Ok(store)
}
