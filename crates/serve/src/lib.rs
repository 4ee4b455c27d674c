//! Repair-as-a-service for the CPR reproduction.
//!
//! The paper's repair loop is *anytime* (§1: "the longer it is run, the
//! greater is the coverage of the input space") — which makes it a natural
//! long-running service. This crate turns [`cpr_core::RepairDriver`]'s
//! step/snapshot/resume state machine into exactly that:
//!
//! * [`protocol`] — a versioned JSON-lines protocol (`submit`, `status`,
//!   `cancel`, `pause`, `resume`, `inject`, `report`, `stats`,
//!   `shutdown`) with a dependency-free [`json`] value type underneath;
//!   errors can carry a machine-readable code ([`ServeError`]) for
//!   conditions clients should react to (`overloaded`,
//!   `request-too-large`);
//! * [`scheduler`] — a worker pool driving jobs step-wise: one FIFO run
//!   queue under the job table's lock, bounded admission, per-job
//!   iteration / wall-clock budgets and cooperative cancellation;
//! * [`store`] — a durable snapshot store (atomic write, one file per
//!   job); a canceled or paused job — or a whole server restart — resumes
//!   from its latest checkpoint *bit-identically*, the same guarantee the
//!   determinism suite proves for thread and worker counts;
//! * [`server`] / [`client`] — an epoll event-loop TCP server (edge-
//!   triggered readiness, eventfd wakeup, graceful drain; plus a stdio
//!   mode) and a small blocking client.
//!
//! The `cpr serve`, `cpr submit` and `cpr jobs` subcommands wrap these;
//! `bench_serve` measures the service against direct [`cpr_core::repair`]
//! calls and asserts report equality.
//!
//! Everything is std-only: no async runtime, no serde, no libc crate —
//! the epoll shim in `sys` declares the handful of C-library functions it
//! needs directly, keeping the repository's zero-dependency build. That
//! shim is the one `unsafe` island in the workspace (hence `deny` rather
//! than `forbid` at the crate root; every other module still refuses
//! `unsafe` outright).

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
mod conn;
mod event_loop;
pub mod json;
pub mod protocol;
pub mod scheduler;
pub mod server;
pub mod stats;
pub mod store;
mod sys;

pub use client::Client;
pub use event_loop::ServeOptions;
pub use json::Json;
pub use protocol::{
    report_fingerprint, report_to_json, JobSpec, Request, ServeError, ERR_OVERLOADED,
    ERR_REQUEST_TOO_LARGE, MAX_REQUEST_BYTES, PROTOCOL_VERSION,
};
pub use scheduler::{
    job_config, job_problem, JobState, JobStatus, Scheduler, SchedulerOptions,
    DEFAULT_MAX_QUEUED_JOBS,
};
pub use server::{serve_lines, serve_tcp, serve_tcp_with, ServerHandle};
pub use stats::{metrics_to_json, STATS_VERSION};
pub use store::SnapshotStore;
