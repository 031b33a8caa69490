//! # ffsm-serve — the multi-tenant mining server
//!
//! Everything below this crate treats mining as a library call: one process,
//! one graph, one caller.  This crate turns it into a *service* — many named
//! graphs, many concurrent clients, updates arriving while mines are running —
//! without changing a single mining result:
//!
//! * [`GraphRegistry`] — named [`DynamicGraph`](ffsm_dynamic::DynamicGraph)
//!   stores whose retained epoch snapshots act as an epoch-keyed
//!   `PreparedGraph` cache: built lazily on first mine, shared by every later
//!   session over the same epoch, invalidated by updates without disturbing
//!   in-flight readers of older epochs;
//! * [`SessionScheduler`] — a fixed mining pool with *bounded* admission
//!   (overflow is a typed [`Overloaded`](ffsm_core::FfsmError::Overloaded)
//!   rejection, not an unbounded queue), per-session
//!   [`CancelToken`](ffsm_graph::CancelToken) registration, and graceful
//!   drain;
//! * [`Server`] — the NDJSON-over-TCP front end (`std::net`, zero new
//!   dependencies): one flat JSON request per line in, a stream of event
//!   frames out, terminated by exactly one `done` frame per request;
//! * [`events`] — the shared NDJSON serializer: the same frame composers back
//!   `ffsm mine --stream` / `ffsm update --stream` on stdout and every server
//!   socket, so the two surfaces cannot drift apart.
//!
//! Streaming is pull-based end to end: a server session writes one frame per
//! [`PatternStream`](ffsm_miner::PatternStream) event, so a slow client slows
//! the miner (real backpressure) and a vanished client cancels it.
//!
//! ```no_run
//! use ffsm_serve::{Server, ServerConfig};
//! use ffsm_graph::generators;
//!
//! let server = Server::bind("127.0.0.1:7878", ServerConfig::default())?;
//! server.registry().register("demo", generators::gnm_random(100, 300, 4, 7))?;
//! let handle = server.handle(); // signal shutdown from elsewhere
//! server.run()?; // blocks until a graceful drain completes
//! # drop(handle);
//! # Ok::<(), ffsm_core::FfsmError>(())
//! ```
//!
//! The wire protocol is specified in `PROTOCOL.md` at the repository root; the
//! `ffsm serve` CLI subcommand is a thin wrapper over [`Server`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod events;
pub mod protocol;
mod registry;
mod scheduler;
mod server;

pub use registry::{GraphRegistry, GraphStats, GraphSummary};
pub use scheduler::{SchedulerStats, SessionScheduler};
pub use server::{Server, ServerConfig, ServerHandle};
