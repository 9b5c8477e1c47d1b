//! `asr-server`: the serving subsystem — a multi-client server
//! multiplexing wire-protocol sessions onto one database.
//!
//! Two layers:
//!
//! * [`NetServer`] ([`session`]): per-session exactly-once execution of
//!   [`asr_net::Request`]s pulled off a [`asr_durable::Channel`].  Damaged
//!   frames are NACKed (CRC catches them), duplicate ids replay the cached
//!   response, and every request's page I/O rides back in the response —
//!   so at-least-once delivery over a chaotic link still executes each
//!   request exactly once.  [`NetServer::pump_sessions_parallel`] answers
//!   partition probes and scans from one pinned snapshot on a worker
//!   pool; everything else runs serially against the live database.
//! * [`TcpServer`]/[`TcpTransport`] ([`tcp`]): an optional real front
//!   door — the same frames over `std::net` TCP with a hand-rolled
//!   nonblocking poll loop (no extra dependencies).
//!
//! All serving metrics live under `server.*` in the host database's
//! tracer registry, so `\stats` and the Prometheus exposition pick them
//! up; notable transitions emit tracer events that land in the flight
//! recorder when one is attached.

mod exec;
pub mod session;
pub mod tcp;

pub use exec::ServerDb;
pub use session::{NetServer, PumpReport};
pub use tcp::{TcpServer, TcpTransport};
