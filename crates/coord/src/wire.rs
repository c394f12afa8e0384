//! The worker-side wire client for the coordination protocol: a
//! [`LeaseRepository`] that speaks HTTP to a [`crate::Coordinator`]
//! mounted on `hdc serve --coordinate`.
//!
//! Every verb rides one keep-alive [`hdc_net::Client`] connection, the
//! same client the data plane uses. A failed verb is reported, never
//! re-sent: lease verbs are not idempotent.
//!
//! Heartbeat and completion snapshots are deltas (see
//! [`LeaseRepository`]), so the client remembers, per lease, the
//! frontier the coordinator last acknowledged and sends it as the
//! verb's `since`: the coordinator refuses a delta that does not start
//! where its held partial ends.

use std::collections::HashMap;
use std::io;
use std::time::Duration;

use hdc_core::{CrawlCheckpoint, CrawlRepository, ShardSnapshot};
use hdc_net::Client;

use crate::lease::{LeaseDecision, LeaseGrant, LeaseRepository};

/// Per-request socket timeout: a coordinator that stalls longer than
/// this counts as unreachable.
const WIRE_TIMEOUT: Duration = Duration::from_secs(30);

/// A [`LeaseRepository`] over HTTP. Construction fetches the plan from
/// `GET /plan`, so a connected client always knows every shard
/// signature and the lease TTL.
#[derive(Debug)]
pub struct WireLeaseRepository {
    client: Client,
    plan: Vec<String>,
    ttl_ms: u64,
    /// The frontier the coordinator holds for each lease this client
    /// was granted and still holds.
    acked: HashMap<u64, u64>,
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

impl WireLeaseRepository {
    /// Connects to a coordinator at `url` (`http://host:port`, scheme
    /// optional) and fetches its plan.
    pub fn connect(url: &str) -> io::Result<Self> {
        let mut client = WireLeaseRepository {
            client: Client::new(url, WIRE_TIMEOUT),
            plan: Vec::new(),
            ttl_ms: 0,
            acked: HashMap::new(),
        };
        let body = client.call("GET", "/plan", b"")?;
        let mut lines = body.lines();
        let header = lines.next().unwrap_or("");
        let fields: Vec<&str> = header.split_whitespace().collect();
        if fields.len() != 5 || fields[0] != "hdc-coord" || fields[1] != "v1" {
            return Err(invalid(format!(
                "not a coordinator (bad /plan header {header:?}) — is the server running with --coordinate?"
            )));
        }
        client.ttl_ms = fields[2]
            .parse()
            .map_err(|_| invalid(format!("bad ttl in {header:?}")))?;
        let total: usize = fields[3]
            .parse()
            .map_err(|_| invalid(format!("bad shard count in {header:?}")))?;
        client.plan = lines.map(str::to_string).collect();
        if client.plan.len() != total {
            return Err(invalid(format!(
                "plan advertised {total} shards but sent {}",
                client.plan.len()
            )));
        }
        Ok(client)
    }

    /// The lease TTL the coordinator advertises.
    pub fn ttl_ms(&self) -> u64 {
        self.ttl_ms
    }

    /// One request/response round trip. Non-2xx responses become
    /// errors carrying the server's message (so the `409 mismatch: …`
    /// plan hint reaches the operator verbatim).
    fn call(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<String> {
        let resp = self.client.request(method, path, body)?;
        let text = String::from_utf8_lossy(&resp.body).into_owned();
        if resp.status / 100 != 2 {
            return Err(invalid(format!(
                "coordinator answered {} on {path}: {}",
                resp.status,
                text.trim()
            )));
        }
        Ok(text)
    }

    /// A one-snapshot checkpoint payload carrying the full plan (the
    /// coordinator re-verifies the fingerprint on every message),
    /// written from the borrowed plan and snapshot.
    fn snapshot_payload(&self, snapshot: &ShardSnapshot) -> String {
        CrawlCheckpoint::json_for(&self.plan, std::slice::from_ref(snapshot))
    }
}

impl CrawlRepository for WireLeaseRepository {
    fn load(&mut self) -> io::Result<Option<CrawlCheckpoint>> {
        let body = self.call("GET", "/checkpoint", b"")?;
        Ok(Some(CrawlCheckpoint::from_json(&body)?))
    }

    fn store(&mut self, _checkpoint: &CrawlCheckpoint) -> io::Result<()> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "wire lease clients report work via complete(), not store()",
        ))
    }
}

impl LeaseRepository for WireLeaseRepository {
    fn plan(&mut self) -> io::Result<Vec<String>> {
        Ok(self.plan.clone())
    }

    fn lease(&mut self, worker: &str) -> io::Result<LeaseDecision> {
        let body = self.call("POST", "/lease", worker.as_bytes())?;
        let (head, rest) = match body.split_once('\n') {
            Some((h, r)) => (h, r.trim()),
            None => (body.trim(), ""),
        };
        let fields: Vec<&str> = head.split_whitespace().collect();
        match fields.first().copied() {
            Some("grant") if fields.len() == 4 => {
                let index: usize = fields[1]
                    .parse()
                    .map_err(|_| invalid(format!("bad grant index {head:?}")))?;
                let lease: u64 = fields[2]
                    .parse()
                    .map_err(|_| invalid(format!("bad grant lease {head:?}")))?;
                let ttl_ms: u64 = fields[3]
                    .parse()
                    .map_err(|_| invalid(format!("bad grant ttl {head:?}")))?;
                let signature = self
                    .plan
                    .get(index)
                    .cloned()
                    .ok_or_else(|| invalid(format!("grant index {index} beyond plan")))?;
                let partial = if rest.is_empty() {
                    None
                } else {
                    let cp = CrawlCheckpoint::from_json(rest)?;
                    cp.shards.into_iter().next()
                };
                let since = partial.as_ref().and_then(|p| p.frontier).unwrap_or(0);
                self.acked.insert(lease, since);
                Ok(LeaseDecision::Grant(Box::new(LeaseGrant {
                    index,
                    signature,
                    lease,
                    ttl_ms,
                    partial,
                })))
            }
            Some("wait") if fields.len() == 2 => {
                let retry_ms = fields[1]
                    .parse()
                    .map_err(|_| invalid(format!("bad wait {head:?}")))?;
                Ok(LeaseDecision::Wait { retry_ms })
            }
            Some("drained") => Ok(LeaseDecision::Drained),
            _ => Err(invalid(format!("unrecognized lease answer {head:?}"))),
        }
    }

    fn heartbeat(
        &mut self,
        index: usize,
        lease: u64,
        partial: Option<&ShardSnapshot>,
    ) -> io::Result<bool> {
        let since = self.acked.get(&lease).copied().unwrap_or(0);
        let mut body = format!("{index} {lease} {since}\n");
        if let Some(p) = partial {
            body.push_str(&self.snapshot_payload(p));
        }
        let answer = self.call("POST", "/heartbeat", body.as_bytes())?;
        match answer.trim() {
            "ok" => {
                if let Some(f) = partial.and_then(|p| p.frontier) {
                    self.acked.insert(lease, f);
                }
                Ok(true)
            }
            "lost" => {
                self.acked.remove(&lease);
                Ok(false)
            }
            other => Err(invalid(format!("unrecognized heartbeat answer {other:?}"))),
        }
    }

    fn complete(
        &mut self,
        index: usize,
        lease: u64,
        snapshot: ShardSnapshot,
    ) -> io::Result<Option<u64>> {
        let since = self.acked.remove(&lease).unwrap_or(0);
        let body = format!(
            "{index} {lease} {since}\n{}",
            self.snapshot_payload(&snapshot)
        );
        let answer = self.call("POST", "/complete", body.as_bytes())?;
        let answer = answer.trim();
        if answer == "lost" {
            return Ok(None);
        }
        match answer.strip_prefix("ok ").and_then(|n| n.parse().ok()) {
            Some(tuples) => Ok(Some(tuples)),
            None => Err(invalid(format!("unrecognized complete answer {answer:?}"))),
        }
    }
}
