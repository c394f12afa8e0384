//! Live within-shard event streaming.
//!
//! A sharded crawl runs its per-shard sessions on worker threads, where
//! the caller's single `&mut dyn` [`CrawlObserver`] cannot follow. This
//! module closes that gap with an owned event type that *can* cross
//! threads: each worker session drives a [`ChannelObserver`] that clones
//! its events into a bounded [`std::sync::mpsc::sync_channel`], and the
//! crawl's own thread drains the channel into the real observer while
//! the workers run.
//!
//! Three properties the rest of the stack relies on:
//!
//! * **Inert** — the proxy only clones and enqueues; it always returns
//!   [`Flow::Continue`], so streaming can never change a shard's query
//!   sequence, cost, or bag. Observer-driven stops travel the other way,
//!   through the [`crate::CancelToken`] every shard session already
//!   watches.
//! * **Backpressure, not loss** — the channel is bounded and
//!   [`SyncSender::send`] blocks when it is full: a slow observer
//!   stalls producers instead of dropping events or buffering without
//!   bound.
//! * **Self-terminating** — every [`EventSink`] is dropped when its
//!   worker finishes, which disconnects the channel and ends the drain
//!   loop once the last worker is done; no sentinel messages, no timed
//!   polls.

use std::sync::mpsc::SyncSender;

use hdc_types::{Query, QueryOutcome, Tuple};

use crate::orchestrate::{CrawlObserver, Flow};
use crate::report::ProgressPoint;

/// Capacity of the in-shard event channel: enough slack that workers
/// rarely block on a prompt observer, small enough that a slow one
/// cannot hide unbounded memory growth behind the crawl.
pub const EVENT_CHANNEL_CAPACITY: usize = 256;

/// One within-shard crawl event, owned so it can cross threads. The
/// variants mirror the borrowing [`CrawlObserver`] callbacks
/// one-to-one, tagged with the plan index of the shard that produced
/// them (shards interleave arbitrarily across workers).
#[derive(Clone, Debug)]
pub enum SessionEvent {
    /// A query was charged and answered ([`CrawlObserver::on_query`]).
    Query {
        /// Plan index of the shard that issued the query.
        shard: usize,
        /// The charged query.
        query: Query,
        /// The server's answer.
        outcome: QueryOutcome,
    },
    /// Newly extracted tuples ([`CrawlObserver::on_tuples`]; never
    /// empty).
    Tuples {
        /// Plan index of the reporting shard.
        shard: usize,
        /// The newly extracted tuples.
        tuples: Vec<Tuple>,
    },
    /// The shard's own `(queries, tuples)` progress point changed
    /// ([`CrawlObserver::on_progress`]). Points are **shard-local**;
    /// the drain side aggregates them into crawl totals.
    Progress {
        /// Plan index of the progressing shard.
        shard: usize,
        /// The shard-local progress point.
        point: ProgressPoint,
    },
}

impl SessionEvent {
    /// Plan index of the shard that produced this event.
    pub fn shard(&self) -> usize {
        match self {
            SessionEvent::Query { shard, .. }
            | SessionEvent::Tuples { shard, .. }
            | SessionEvent::Progress { shard, .. } => *shard,
        }
    }
}

/// A cloneable handle streaming [`SessionEvent`]s from one shard's
/// session into the crawl's event channel. The sharded driver mints one
/// per shard ([`EventSink::for_shard`]) so events arrive tagged with
/// their plan index, and wraps it in a [`ChannelObserver`].
pub struct EventSink {
    tx: SyncSender<SessionEvent>,
    shard: usize,
}

impl EventSink {
    /// A sink feeding `tx`, tagging events with plan index `shard`.
    pub fn new(tx: SyncSender<SessionEvent>, shard: usize) -> Self {
        EventSink { tx, shard }
    }

    /// The same channel, re-tagged for another shard.
    pub fn for_shard(&self, shard: usize) -> Self {
        EventSink {
            tx: self.tx.clone(),
            shard,
        }
    }

    /// The plan index this sink tags events with.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Enqueues one event, blocking while the channel is full
    /// (backpressure). A disconnected channel — the drain side is gone —
    /// is ignored: the session keeps crawling, it just stops being
    /// watched. Stopping the *crawl* is the [`crate::CancelToken`]'s
    /// job, not the channel's.
    pub fn send(&self, event: SessionEvent) {
        let _ = self.tx.send(event);
    }
}

impl Clone for EventSink {
    fn clone(&self) -> Self {
        self.for_shard(self.shard)
    }
}

impl std::fmt::Debug for EventSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventSink").field("shard", &self.shard).finish()
    }
}

/// The session-side proxy: a [`CrawlObserver`] that clones every event
/// into its [`EventSink`]. A sharded crawl attaches one as each
/// worker's shard session's [`crate::SessionConfig::observer`].
///
/// Always returns [`Flow::Continue`]: the consumer cannot stop a crawl
/// through the channel (events only flow outward). The drain side
/// translates an observer's [`Flow::Stop`] into
/// [`crate::CancelToken::cancel`], which every shard session checks
/// before spending its next query.
#[derive(Debug)]
pub struct ChannelObserver {
    sink: EventSink,
}

impl ChannelObserver {
    /// A proxy feeding `sink`.
    pub fn new(sink: EventSink) -> Self {
        ChannelObserver { sink }
    }
}

impl CrawlObserver for ChannelObserver {
    fn on_query(&mut self, query: &Query, outcome: &QueryOutcome) -> Flow {
        self.sink.send(SessionEvent::Query {
            shard: self.sink.shard,
            query: query.clone(),
            outcome: outcome.clone(),
        });
        Flow::Continue
    }

    fn on_tuples(&mut self, tuples: &[Tuple]) -> Flow {
        self.sink.send(SessionEvent::Tuples {
            shard: self.sink.shard,
            tuples: tuples.to_vec(),
        });
        Flow::Continue
    }

    fn on_progress(&mut self, point: ProgressPoint) -> Flow {
        self.sink.send(SessionEvent::Progress {
            shard: self.sink.shard,
            point,
        });
        Flow::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::{sync_channel, Receiver};

    #[test]
    fn channel_observer_clones_events_and_never_stops() {
        let (tx, rx) = sync_channel(16);
        let mut proxy = ChannelObserver::new(EventSink::new(tx, 3));
        let q = Query::any(1);
        let out = QueryOutcome::resolved(Vec::new());
        assert_eq!(proxy.on_query(&q, &out), Flow::Continue);
        assert_eq!(
            proxy.on_progress(ProgressPoint {
                queries: 1,
                tuples: 0
            }),
            Flow::Continue
        );
        drop(proxy);
        let first = rx.recv().unwrap();
        assert_eq!(first.shard(), 3);
        assert!(matches!(first, SessionEvent::Query { .. }));
        assert!(matches!(
            rx.recv().unwrap(),
            SessionEvent::Progress { shard: 3, .. }
        ));
        assert!(rx.recv().is_err(), "sink dropped: channel disconnects");
    }

    #[test]
    fn sink_survives_a_dropped_receiver() {
        let (tx, rx) = bounded_pair();
        drop(rx);
        // A disconnected channel must not panic or block the session.
        EventSink::new(tx, 0).send(SessionEvent::Tuples {
            shard: 0,
            tuples: Vec::new(),
        });
    }

    fn bounded_pair() -> (SyncSender<SessionEvent>, Receiver<SessionEvent>) {
        sync_channel(1)
    }
}
