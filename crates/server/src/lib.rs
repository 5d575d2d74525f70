//! `shortcut-server`: a RESP-speaking network KV server over the
//! shortcut index, with **request batch aggregation**.
//!
//! The paper's batched entry points (`get_many`'s one-serving-word
//! reads, `insert_batch_shared`'s parallel per-shard writer lanes) want
//! batches — but network clients send one request at a time. This crate
//! closes that gap server-side: per-connection threads decode requests
//! into submission lanes, and a small executor pool drains each lane
//! into group batches, so concurrent clients' requests amortize into the
//! same batched index calls the benchmarks use. See [`batch`] for the
//! flow and the ordering argument.
//!
//! Wire protocol: a minimal hand-rolled RESP2 subset ([`protocol`]) —
//! `GET`/`MGET`/`SET`/`DEL`/`PING`/`INFO`/`SHUTDOWN`, keys and values as
//! decimal `u64` bulk strings. `redis-cli` and `nc` both work against it.
//!
//! Binaries: `shortcut-server` (the server) and `loadgen` (a
//! many-connection load generator printing a machine-parseable
//! QPS/p50/p99 line).

pub mod batch;
pub mod config;
pub mod conn;
pub mod protocol;
pub mod server;

pub use batch::{execute_batch, Lane, Op, ReplySlot, RunBuffers, ServerStats};
pub use config::{Engine, ServerConfig};
pub use protocol::{Decoder, ProtoError, RawCommand, Reply, Request};
pub use server::{Server, ServerCtx, ShutdownReport};
