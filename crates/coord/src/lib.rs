//! Distributed crawl coordination for the hidden-database crawler.
//!
//! The sharded crawl's determinism contract ([`hdc_core::ShardSpec`])
//! says a shard's charged query sequence, cost, and extracted bag depend
//! only on the spec and the database — any session, any machine, any
//! order. This crate turns that contract into a *fleet*: one
//! coordinator owns the shard plan and leases shards to workers; workers
//! crawl leased shards against the data service and report results back.
//! The fleet's merged bag and total charged cost are exactly a solo
//! sharded crawl's (the `fleet_equiv` differential suite pins this).
//!
//! # Pieces
//!
//! * [`LeaseRepository`] — the coordination contract: atomically lease a
//!   pending shard (lease id + deadline), renew by heartbeat, report
//!   completion. Expired leases are reclaimed, so a crashed worker's
//!   shard is salvaged by a peer. [`MemoryLeaseRepository`] is the
//!   canonical in-process implementation (and the coordinator's own
//!   state machine); [`WireLeaseRepository`] speaks the same contract
//!   over HTTP to a [`Coordinator`] mounted on the wire server.
//! * **Partial snapshots** — a heartbeat may carry a partial
//!   [`hdc_core::ShardSnapshot`] (`frontier = Some(c)`: the shard's
//!   first `c` root values are done). It is a delta: only the tuples
//!   found since the last accepted heartbeat travel, and the
//!   coordinator appends them to the partial it holds. When the lease
//!   expires, the salvaging peer resumes from the frontier
//!   ([`hdc_core::ShardSpec::resume_suffix`]) and replays only the
//!   un-checkpointed suffix instead of the whole shard.
//! * **Checkpoint persistence** — a [`Coordinator`] given a checkpoint
//!   file rewrites it after every accepted snapshot and restores from
//!   it on restart, so a restarted coordinator re-leases only the
//!   shards (and root suffixes) not yet banked.
//! * [`drive_worker`] — the worker loop (`hdc work --join URL`): lease,
//!   crawl with per-root heartbeats, merge any salvaged prefix, report,
//!   repeat until the plan drains.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coordinator;
pub mod lease;
pub mod wire;
pub mod worker;

pub use coordinator::{Coordinator, CoordinatorConfig, FleetOutcome, Restore};
pub use lease::{LeaseDecision, LeaseGrant, LeaseRepository, MemoryLeaseRepository};
pub use wire::WireLeaseRepository;
pub use worker::{drive_worker, merge_snapshot, WorkerConfig, WorkerReport};
