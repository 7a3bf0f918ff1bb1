//! Request/response types for the join service, with the JSON codecs the
//! wire protocol uses.
//!
//! A [`JoinRequest`] either carries its relations inline (in-process
//! clients hand over `Arc`s; remote clients ship packed key/payload
//! columns, see [`skewjoin::common::codec`]) or asks the service to
//! generate a paper workload on the worker — the cheap way to drive load
//! tests over TCP without streaming megabytes of tuples.

use std::sync::Arc;
use std::time::Duration;

use skewjoin::common::codec::{self, CodecError};
use skewjoin::common::json::Json;
use skewjoin::common::{Key, Relation, Trace};
use skewjoin::planner::TargetDevice;
use skewjoin::{Algorithm, CpuAlgorithm, GpuAlgorithm, JoinConfig, ShardPartition};

use crate::protocol::PROTOCOL_VERSION;

/// Service-assigned request identifier, unique within one service instance.
pub type RequestId = u64;

/// Admission priority band. Higher bands always dequeue first; within a
/// band, clients are served round-robin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Priority {
    /// Latency-sensitive: dequeued before everything else.
    High,
    /// The default band.
    Normal,
    /// Bulk/batch work: runs only when the other bands are empty.
    Low,
}

impl Priority {
    /// All bands, in dequeue order.
    pub const ALL: [Priority; 3] = [Priority::High, Priority::Normal, Priority::Low];

    /// Band index in dequeue order (0 = first).
    pub fn index(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }

    /// Wire name.
    pub fn name(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }

    /// Parses a wire name.
    pub fn parse(s: &str) -> Option<Priority> {
        match s {
            "high" => Some(Priority::High),
            "normal" => Some(Priority::Normal),
            "low" => Some(Priority::Low),
            _ => None,
        }
    }
}

/// How the service picks the algorithm for a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgoChoice {
    /// Run exactly this algorithm.
    Fixed(Algorithm),
    /// Let the planner (through the service's plan cache) choose for the
    /// given target device.
    Auto(TargetDevice),
}

impl AlgoChoice {
    /// Parses the CLI/wire spelling: an algorithm name (`cbase`, `npj`,
    /// `csh`, `gbase`, `gsh`) or `auto` / `auto-gpu`.
    pub fn parse(s: &str) -> Option<AlgoChoice> {
        match s.to_ascii_lowercase().as_str() {
            "cbase" => Some(AlgoChoice::Fixed(Algorithm::Cpu(CpuAlgorithm::Cbase))),
            "npj" | "cbase-npj" => Some(AlgoChoice::Fixed(Algorithm::Cpu(CpuAlgorithm::CbaseNpj))),
            "csh" => Some(AlgoChoice::Fixed(Algorithm::Cpu(CpuAlgorithm::Csh))),
            "gbase" => Some(AlgoChoice::Fixed(Algorithm::Gpu(GpuAlgorithm::Gbase))),
            "gsh" => Some(AlgoChoice::Fixed(Algorithm::Gpu(GpuAlgorithm::Gsh))),
            "auto" | "plan" => Some(AlgoChoice::Auto(TargetDevice::Cpu)),
            "auto-gpu" | "plan-gpu" => Some(AlgoChoice::Auto(TargetDevice::Gpu)),
            _ => None,
        }
    }

    /// Wire name (inverse of [`AlgoChoice::parse`]).
    pub fn name(self) -> &'static str {
        match self {
            AlgoChoice::Fixed(Algorithm::Cpu(CpuAlgorithm::Cbase)) => "cbase",
            AlgoChoice::Fixed(Algorithm::Cpu(CpuAlgorithm::CbaseNpj)) => "cbase-npj",
            AlgoChoice::Fixed(Algorithm::Cpu(CpuAlgorithm::Csh)) => "csh",
            AlgoChoice::Fixed(Algorithm::Gpu(GpuAlgorithm::Gbase)) => "gbase",
            AlgoChoice::Fixed(Algorithm::Gpu(GpuAlgorithm::Gsh)) => "gsh",
            AlgoChoice::Auto(TargetDevice::Cpu) => "auto",
            AlgoChoice::Auto(TargetDevice::Gpu) => "auto-gpu",
        }
    }
}

/// The input relations of a request.
#[derive(Debug, Clone)]
pub enum RequestPayload {
    /// Caller-provided relations. In-process submissions share them by
    /// `Arc`; over the wire each ships as one packed key/payload column.
    Inline {
        /// Build side.
        r: Arc<Relation>,
        /// Probe side.
        s: Arc<Relation>,
    },
    /// The worker generates `WorkloadSpec::paper(tuples, zipf, seed)`.
    Generate {
        /// Tuples per relation.
        tuples: usize,
        /// Zipf skew factor.
        zipf: f64,
        /// Generator seed.
        seed: u64,
    },
}

impl RequestPayload {
    /// Build-side cardinality (used for admission-time cost estimates).
    pub fn r_tuples(&self) -> usize {
        match self {
            RequestPayload::Inline { r, .. } => r.len(),
            RequestPayload::Generate { tuples, .. } => *tuples,
        }
    }

    /// Probe-side cardinality.
    pub fn s_tuples(&self) -> usize {
        match self {
            RequestPayload::Inline { s, .. } => s.len(),
            RequestPayload::Generate { tuples, .. } => *tuples,
        }
    }
}

/// One join request, as submitted by a client.
#[derive(Debug, Clone)]
pub struct JoinRequest {
    /// Client identity for fairness accounting (free-form; remote clients
    /// default to their socket address).
    pub client: String,
    /// Algorithm choice (fixed or planner-driven).
    pub algo: AlgoChoice,
    /// Admission priority band.
    pub priority: Priority,
    /// Deadline measured from admission; the service cancels the request
    /// at the next phase boundary after it expires.
    pub deadline: Option<Duration>,
    /// The input relations.
    pub payload: RequestPayload,
    /// Execution configuration override. `None` uses the service default.
    /// Not carried over the wire (remote requests always run the service
    /// config).
    pub config: Option<JoinConfig>,
    /// For sharded (cluster) execution: the slice of the key space this
    /// node owns plus the hot keys exempt from ownership. Tuples outside
    /// the slice are rejected as coordinator misrouting. A restricted
    /// request always reports per-key counts and its trace.
    pub shard: Option<ShardPartition>,
    /// Ask for per-key result counts (and the execution trace) in the
    /// summary even without a shard restriction — what the distributed
    /// diffcheck uses to fetch single-node ground truth over the wire.
    pub want_key_counts: bool,
}

impl JoinRequest {
    /// A `Generate` request with default priority and no deadline.
    pub fn generate(client: &str, algo: AlgoChoice, tuples: usize, zipf: f64, seed: u64) -> Self {
        Self {
            client: client.to_string(),
            algo,
            priority: Priority::Normal,
            deadline: None,
            payload: RequestPayload::Generate { tuples, zipf, seed },
            config: None,
            shard: None,
            want_key_counts: false,
        }
    }

    /// An `Inline` request with default priority and no deadline.
    pub fn inline(client: &str, algo: AlgoChoice, r: Arc<Relation>, s: Arc<Relation>) -> Self {
        Self {
            client: client.to_string(),
            algo,
            priority: Priority::Normal,
            deadline: None,
            payload: RequestPayload::Inline { r, s },
            config: None,
            shard: None,
            want_key_counts: false,
        }
    }

    /// Serializes for the wire (the `config` override does not travel).
    pub fn to_json(&self) -> Json {
        self.wire_json("join")
    }

    /// [`JoinRequest::to_json`] under an explicit op name (`"join"` or
    /// `"shard_join"`).
    pub fn wire_json(&self, op: &str) -> Json {
        let payload = match &self.payload {
            RequestPayload::Generate { tuples, zipf, seed } => Json::obj(vec![(
                "generate",
                Json::obj(vec![
                    ("tuples", Json::from_u64(*tuples as u64)),
                    ("zipf", Json::num(*zipf)),
                    ("seed", Json::from_u64(*seed)),
                ]),
            )]),
            RequestPayload::Inline { r, s } => Json::obj(vec![(
                "inline",
                Json::obj(vec![
                    ("r", Json::str(codec::pack_tuples(r))),
                    ("s", Json::str(codec::pack_tuples(s))),
                ]),
            )]),
        };
        let mut fields = vec![
            ("op", Json::str(op)),
            ("client", Json::str(&self.client)),
            ("algo", Json::str(self.algo.name())),
            ("priority", Json::str(self.priority.name())),
            ("payload", payload),
        ];
        if let Some(d) = self.deadline {
            fields.push(("deadline_ms", Json::from_u64(d.as_millis() as u64)));
        }
        if let Some(shard) = &self.shard {
            fields.push((
                "shard",
                Json::obj(vec![
                    ("slot", Json::from_u64(shard.slot as u64)),
                    ("shards", Json::from_u64(shard.shards as u64)),
                    ("hot_keys", Json::str(codec::pack_keys(&shard.hot_keys))),
                ]),
            ));
        }
        if self.want_key_counts {
            fields.push(("want_key_counts", Json::Bool(true)));
        }
        Json::obj(fields)
    }

    /// Parses a wire request. Returns a human-readable error for malformed
    /// frames so the server can reply instead of dropping the connection.
    pub fn from_json(json: &Json, default_client: &str) -> Result<JoinRequest, String> {
        let algo_name = json
            .get("algo")
            .and_then(Json::as_str)
            .ok_or("missing \"algo\"")?;
        let algo = AlgoChoice::parse(algo_name)
            .ok_or_else(|| format!("unknown algorithm {algo_name:?}"))?;
        let priority = match json.get("priority").and_then(Json::as_str) {
            None => Priority::Normal,
            Some(p) => Priority::parse(p).ok_or_else(|| format!("unknown priority {p:?}"))?,
        };
        let client = json
            .get("client")
            .and_then(Json::as_str)
            .unwrap_or(default_client)
            .to_string();
        let deadline = json
            .get("deadline_ms")
            .and_then(Json::as_u64)
            .map(Duration::from_millis);
        let payload = json.get("payload").ok_or("missing \"payload\"")?;
        let payload = if let Some(generate) = payload.get("generate") {
            RequestPayload::Generate {
                tuples: generate
                    .get("tuples")
                    .and_then(Json::as_u64)
                    .ok_or("generate payload needs \"tuples\"")? as usize,
                zipf: generate
                    .get("zipf")
                    .and_then(Json::as_f64)
                    .ok_or("generate payload needs \"zipf\"")?,
                seed: generate.get("seed").and_then(Json::as_u64).unwrap_or(42),
            }
        } else if let Some(inline) = payload.get("inline") {
            let relation = |side: &str| {
                let column = inline
                    .get(side)
                    .ok_or_else(|| format!("inline payload needs {side:?}"))?;
                let tuples = packed(column, &format!("inline.{side}"), codec::unpack_tuples)?;
                Ok::<_, String>(Arc::new(Relation::from_tuples(tuples)))
            };
            RequestPayload::Inline {
                r: relation("r")?,
                s: relation("s")?,
            }
        } else {
            return Err("payload must be \"generate\" or \"inline\"".into());
        };
        let shard = match json.get("shard") {
            None => None,
            Some(shard) => {
                let slot = shard
                    .get("slot")
                    .and_then(Json::as_u64)
                    .ok_or("shard needs \"slot\"")? as usize;
                let shards = shard
                    .get("shards")
                    .and_then(Json::as_u64)
                    .ok_or("shard needs \"shards\"")? as usize;
                let hot_keys = match shard.get("hot_keys") {
                    None => Vec::new(),
                    Some(keys) => packed(keys, "shard.hot_keys", codec::unpack_keys)?,
                };
                Some(ShardPartition {
                    slot,
                    shards,
                    hot_keys,
                })
            }
        };
        let want_key_counts = json
            .get("want_key_counts")
            .and_then(Json::as_bool)
            .unwrap_or(false);
        Ok(JoinRequest {
            client,
            algo,
            priority,
            deadline,
            payload,
            config: None,
            shard,
            want_key_counts,
        })
    }
}

/// Decodes the packed column `field` with `unpack`. The v1 wire form, a
/// JSON array with one element per record, gets an error naming the
/// protocol version that replaced it.
fn packed<T>(
    json: &Json,
    field: &str,
    unpack: fn(&str) -> Result<Vec<T>, CodecError>,
) -> Result<Vec<T>, String> {
    match json {
        Json::Str(text) => unpack(text).map_err(|e| format!("{field}: {e}")),
        Json::Arr(_) => Err(format!(
            "{field}: the v1 array form is not accepted; protocol \
             v{PROTOCOL_VERSION} sends a base64 string of packed little-endian records"
        )),
        _ => Err(format!(
            "{field} must be a base64 string of packed little-endian records"
        )),
    }
}

/// What a completed join reports back — the stats trimmed to what a serving
/// client acts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinSummary {
    /// Algorithm that actually ran (after planning and any fallback).
    pub algorithm: String,
    /// Result tuples produced.
    pub result_count: u64,
    /// Order-independent checksum over the results.
    pub checksum: u64,
    /// Execution time (wall-clock for CPU, simulated for GPU) in
    /// nanoseconds.
    pub exec_nanos: u64,
    /// Time spent queued before a worker picked the request up, in
    /// nanoseconds.
    pub queue_nanos: u64,
    /// Degradation-ladder rungs taken, service-level decisions first (e.g.
    /// a governor-forced device clamp), then the executor's own records.
    pub degradations: Vec<String>,
    /// Whether the planner decision came from the plan cache.
    pub plan_cache_hit: bool,
    /// Per-key result counts, sorted by key — present when the request
    /// was sharded or asked for them (`want_key_counts`). The cluster
    /// coordinator merges these for the distributed diffcheck.
    pub key_counts: Option<Vec<(Key, u64)>>,
    /// The execution trace, carried alongside `key_counts` so a
    /// coordinator can merge per-shard phase counters into a
    /// cluster-level trace.
    pub trace: Option<Trace>,
}

/// Terminal outcome of a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The join ran; results are summarized.
    Completed(JoinSummary),
    /// Load shedding: the request was never admitted. Retry no sooner than
    /// `retry_after`.
    Rejected {
        /// Why admission refused it.
        reason: String,
        /// Backoff hint, scaled to current queue depth.
        retry_after: Duration,
    },
    /// Cancelled (explicitly, by deadline, or by shutdown) before or during
    /// execution; `phase` is the boundary that observed it.
    Cancelled {
        /// The phase boundary that observed the cancellation.
        phase: String,
    },
    /// Execution failed with a typed join error.
    Failed {
        /// Display form of the underlying [`skewjoin::common::JoinError`].
        error: String,
    },
}

impl Outcome {
    /// Wire tag for this outcome.
    pub fn tag(&self) -> &'static str {
        match self {
            Outcome::Completed(_) => "completed",
            Outcome::Rejected { .. } => "rejected",
            Outcome::Cancelled { .. } => "cancelled",
            Outcome::Failed { .. } => "failed",
        }
    }
}

/// The service's reply to one [`JoinRequest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinResponse {
    /// Service-assigned id of the request this answers.
    pub id: RequestId,
    /// Terminal outcome.
    pub outcome: Outcome,
}

impl JoinResponse {
    /// Serializes for the wire.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("id", Json::from_u64(self.id)),
            ("outcome", Json::str(self.outcome.tag())),
        ];
        match &self.outcome {
            Outcome::Completed(s) => {
                let mut summary = vec![
                    ("algorithm", Json::str(&s.algorithm)),
                    ("result_count", Json::from_u64(s.result_count)),
                    ("checksum", Json::str(format!("{:#018x}", s.checksum))),
                    ("exec_nanos", Json::from_u64(s.exec_nanos)),
                    ("queue_nanos", Json::from_u64(s.queue_nanos)),
                    (
                        "degradations",
                        Json::Arr(s.degradations.iter().map(Json::str).collect()),
                    ),
                    ("plan_cache_hit", Json::Bool(s.plan_cache_hit)),
                ];
                if let Some(counts) = &s.key_counts {
                    summary.push(("key_counts", Json::str(codec::pack_key_counts(counts))));
                }
                if let Some(trace) = &s.trace {
                    summary.push(("trace", trace.to_json()));
                }
                fields.push(("summary", Json::obj(summary)));
            }
            Outcome::Rejected {
                reason,
                retry_after,
            } => {
                fields.push(("reason", Json::str(reason)));
                fields.push((
                    "retry_after_ms",
                    Json::from_u64(retry_after.as_millis() as u64),
                ));
            }
            Outcome::Cancelled { phase } => fields.push(("phase", Json::str(phase))),
            Outcome::Failed { error } => fields.push(("error", Json::str(error))),
        }
        Json::obj(fields)
    }

    /// Parses a wire response.
    pub fn from_json(json: &Json) -> Result<JoinResponse, String> {
        let id = json
            .get("id")
            .and_then(Json::as_u64)
            .ok_or("missing \"id\"")?;
        let tag = json
            .get("outcome")
            .and_then(Json::as_str)
            .ok_or("missing \"outcome\"")?;
        let outcome = match tag {
            "completed" => {
                let s = json.get("summary").ok_or("completed without summary")?;
                Outcome::Completed(JoinSummary {
                    algorithm: s
                        .get("algorithm")
                        .and_then(Json::as_str)
                        .ok_or("summary needs algorithm")?
                        .to_string(),
                    result_count: s
                        .get("result_count")
                        .and_then(Json::as_u64)
                        .ok_or("summary needs result_count")?,
                    checksum: s
                        .get("checksum")
                        .and_then(Json::as_str)
                        .and_then(|hex| hex.strip_prefix("0x"))
                        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
                        .ok_or("summary needs a hex checksum")?,
                    exec_nanos: s.get("exec_nanos").and_then(Json::as_u64).unwrap_or(0),
                    queue_nanos: s.get("queue_nanos").and_then(Json::as_u64).unwrap_or(0),
                    degradations: s
                        .get("degradations")
                        .and_then(Json::as_array)
                        .map(|arr| {
                            arr.iter()
                                .filter_map(Json::as_str)
                                .map(str::to_string)
                                .collect()
                        })
                        .unwrap_or_default(),
                    plan_cache_hit: s
                        .get("plan_cache_hit")
                        .and_then(Json::as_bool)
                        .unwrap_or(false),
                    key_counts: match s.get("key_counts") {
                        None => None,
                        Some(counts) => Some(packed(
                            counts,
                            "summary.key_counts",
                            codec::unpack_key_counts,
                        )?),
                    },
                    trace: match s.get("trace") {
                        None => None,
                        Some(t) => {
                            Some(Trace::from_json(t).ok_or("summary trace failed to parse")?)
                        }
                    },
                })
            }
            "rejected" => Outcome::Rejected {
                reason: json
                    .get("reason")
                    .and_then(Json::as_str)
                    .unwrap_or("rejected")
                    .to_string(),
                retry_after: Duration::from_millis(
                    json.get("retry_after_ms")
                        .and_then(Json::as_u64)
                        .unwrap_or(0),
                ),
            },
            "cancelled" => Outcome::Cancelled {
                phase: json
                    .get("phase")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown")
                    .to_string(),
            },
            "failed" => Outcome::Failed {
                error: json
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown error")
                    .to_string(),
            },
            other => return Err(format!("unknown outcome tag {other:?}")),
        };
        Ok(JoinResponse { id, outcome })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skewjoin::common::Tuple;

    #[test]
    fn algo_choice_round_trips() {
        for name in [
            "cbase",
            "cbase-npj",
            "csh",
            "gbase",
            "gsh",
            "auto",
            "auto-gpu",
        ] {
            let a = AlgoChoice::parse(name).unwrap();
            assert_eq!(a.name(), name);
        }
        assert_eq!(AlgoChoice::parse("npj"), AlgoChoice::parse("cbase-npj"));
        assert!(AlgoChoice::parse("quantum").is_none());
    }

    #[test]
    fn generate_request_round_trips() {
        let mut req =
            JoinRequest::generate("tester", AlgoChoice::parse("csh").unwrap(), 4096, 0.9, 7);
        req.priority = Priority::High;
        req.deadline = Some(Duration::from_millis(250));
        let back = JoinRequest::from_json(&req.to_json(), "fallback").unwrap();
        assert_eq!(back.client, "tester");
        assert_eq!(back.algo, req.algo);
        assert_eq!(back.priority, Priority::High);
        assert_eq!(back.deadline, Some(Duration::from_millis(250)));
        match back.payload {
            RequestPayload::Generate { tuples, zipf, seed } => {
                assert_eq!((tuples, seed), (4096, 7));
                assert!((zipf - 0.9).abs() < 1e-9);
            }
            other => panic!("expected generate payload, got {other:?}"),
        }
    }

    #[test]
    fn inline_request_round_trips() {
        let r = Arc::new(Relation::from_keys(&[1, 2, 3]));
        let s = Arc::new(Relation::from_keys(&[2, 3, 3]));
        let req = JoinRequest::inline("c", AlgoChoice::parse("cbase").unwrap(), r.clone(), s);
        let back = JoinRequest::from_json(&req.to_json(), "c").unwrap();
        match back.payload {
            RequestPayload::Inline { r: br, s: bs } => {
                assert_eq!(br.tuples(), r.tuples());
                assert_eq!(bs.len(), 3);
            }
            other => panic!("expected inline payload, got {other:?}"),
        }
    }

    #[test]
    fn responses_round_trip() {
        let cases = [
            JoinResponse {
                id: 9,
                outcome: Outcome::Completed(JoinSummary {
                    algorithm: "CSH".into(),
                    result_count: 123,
                    checksum: 0xDEAD_BEEF_0000_0001,
                    exec_nanos: 42,
                    queue_nanos: 7,
                    degradations: vec!["GSH→CSH: oom".into()],
                    plan_cache_hit: true,
                    key_counts: None,
                    trace: None,
                }),
            },
            JoinResponse {
                id: 13,
                outcome: Outcome::Completed(JoinSummary {
                    algorithm: "Cbase".into(),
                    result_count: 6,
                    checksum: 0x0000_0000_0000_00FF,
                    exec_nanos: 1,
                    queue_nanos: 2,
                    degradations: vec![],
                    plan_cache_hit: false,
                    key_counts: Some(vec![(1, 2), (7, 4)]),
                    trace: Some({
                        let mut t = Trace::new();
                        t.set("shard", "slot", 1);
                        t.set("build", "tuples", 99);
                        t
                    }),
                }),
            },
            JoinResponse {
                id: 10,
                outcome: Outcome::Rejected {
                    reason: "queue full".into(),
                    retry_after: Duration::from_millis(15),
                },
            },
            JoinResponse {
                id: 11,
                outcome: Outcome::Cancelled {
                    phase: "partition".into(),
                },
            },
            JoinResponse {
                id: 12,
                outcome: Outcome::Failed {
                    error: "backend unavailable".into(),
                },
            },
        ];
        for resp in cases {
            let text = resp.to_json().to_string_pretty();
            let back = JoinResponse::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, resp);
        }
    }

    #[test]
    fn sharded_request_round_trips() {
        let mut req =
            JoinRequest::generate("coord", AlgoChoice::parse("csh").unwrap(), 1024, 1.2, 3);
        req.shard = Some(ShardPartition {
            slot: 2,
            shards: 4,
            hot_keys: vec![7, 42],
        });
        req.want_key_counts = true;
        let wire = req.wire_json("shard_join");
        assert_eq!(wire.get("op").and_then(Json::as_str), Some("shard_join"));
        let back = JoinRequest::from_json(&wire, "coord").unwrap();
        assert_eq!(back.shard, req.shard);
        assert!(back.want_key_counts);
        // Requests without shard fields stay unrestricted.
        let plain = JoinRequest::generate("c", AlgoChoice::parse("csh").unwrap(), 64, 0.0, 1);
        let back = JoinRequest::from_json(&plain.to_json(), "c").unwrap();
        assert!(back.shard.is_none());
        assert!(!back.want_key_counts);
    }

    #[test]
    fn malformed_requests_are_described_not_dropped() {
        let bad = Json::parse(r#"{"algo":"csh"}"#).unwrap();
        let err = JoinRequest::from_json(&bad, "x").unwrap_err();
        assert!(err.contains("payload"));
        let bad = Json::parse(r#"{"algo":"nope","payload":{"generate":{"tuples":1,"zipf":0.0}}}"#)
            .unwrap();
        assert!(JoinRequest::from_json(&bad, "x")
            .unwrap_err()
            .contains("nope"));
    }

    /// Sends `(r, s)` through the wire encoding (compact JSON text) and
    /// back.
    fn inline_round_trip(r: &Relation, s: &Relation) -> (Relation, Relation) {
        let req = JoinRequest::inline(
            "c",
            AlgoChoice::parse("csh").unwrap(),
            Arc::new(r.clone()),
            Arc::new(s.clone()),
        );
        let text = req.to_json().to_string();
        match JoinRequest::from_json(&Json::parse(&text).unwrap(), "c")
            .unwrap()
            .payload
        {
            RequestPayload::Inline { r, s } => ((*r).clone(), (*s).clone()),
            other => panic!("expected inline payload, got {other:?}"),
        }
    }

    #[test]
    fn packed_relations_round_trip_at_every_padding() {
        // 8-byte tuples: 0, 1, 2 and 3 of them leave 0, 2, 1 and 0 bytes
        // in the last base64 group.
        for n in 0..=3u32 {
            let r = Relation::from_tuples((0..n).map(|i| Tuple::new(i * 7, i)).collect());
            let s = Relation::from_tuples((0..n).map(|i| Tuple::new(i, !i)).collect());
            assert_eq!(inline_round_trip(&r, &s), (r, s), "{n} tuples");
        }
        let extremes = Relation::from_tuples(vec![
            Tuple::new(u32::MAX, u32::MAX),
            Tuple::new(0, u32::MAX),
            Tuple::new(u32::MAX, 0),
        ]);
        assert_eq!(
            inline_round_trip(&extremes, &extremes),
            (extremes.clone(), extremes)
        );
    }

    #[test]
    fn key_counts_above_2_pow_53_survive_exactly() {
        let counts = vec![(0, (1u64 << 53) + 1), (u32::MAX, u64::MAX), (5, 1)];
        let resp = JoinResponse {
            id: 1,
            outcome: Outcome::Completed(JoinSummary {
                algorithm: "CSH".into(),
                result_count: 3,
                checksum: 0,
                exec_nanos: 0,
                queue_nanos: 0,
                degradations: vec![],
                plan_cache_hit: false,
                key_counts: Some(counts.clone()),
                trace: None,
            }),
        };
        let text = resp.to_json().to_string();
        match JoinResponse::from_json(&Json::parse(&text).unwrap())
            .unwrap()
            .outcome
        {
            Outcome::Completed(s) => assert_eq!(s.key_counts, Some(counts)),
            other => panic!("expected completion, got {other:?}"),
        }
    }

    /// A request whose `inline.r` is `column`; `s` is a valid empty column.
    fn with_r_column(column: Json) -> Json {
        Json::obj(vec![
            ("algo", Json::str("csh")),
            (
                "payload",
                Json::obj(vec![(
                    "inline",
                    Json::obj(vec![("r", column), ("s", Json::str(""))]),
                )]),
            ),
        ])
    }

    /// A completed response whose `summary.key_counts` is `column`.
    fn with_key_counts(column: Json) -> Json {
        Json::obj(vec![
            ("id", Json::from_u64(1)),
            ("outcome", Json::str("completed")),
            (
                "summary",
                Json::obj(vec![
                    ("algorithm", Json::str("CSH")),
                    ("result_count", Json::from_u64(0)),
                    ("checksum", Json::str("0x0")),
                    ("key_counts", column),
                ]),
            ),
        ])
    }

    #[test]
    fn malformed_packed_columns_get_typed_errors() {
        let seven_bytes = codec::encode_base64(&[1; 7]);
        let eight_bytes = codec::encode_base64(&[1; 8]);
        let v1 = Json::Arr(vec![Json::Arr(vec![Json::from_u64(1), Json::from_u64(2)])]);
        let relation_cases = [
            (Json::str("AAAA!AAA"), "not base64"),
            (Json::str("AAAAAAA"), "not a multiple of 4"),
            (Json::str("AAAAAAB="), "padding"),
            (Json::str(&seven_bytes), "8-byte records"),
            (v1.clone(), "v2"),
            (Json::from_u64(3), "base64 string"),
        ];
        for (column, expected) in relation_cases {
            let err = JoinRequest::from_json(&with_r_column(column), "x").unwrap_err();
            assert!(err.starts_with("inline.r"), "{err}");
            assert!(err.contains(expected), "{err} lacks {expected:?}");
        }
        let count_cases = [
            (Json::str("AA?A"), "not base64"),
            (Json::str("AAAAA"), "not a multiple of 4"),
            (Json::str("AB=="), "padding"),
            (Json::str(&eight_bytes), "12-byte records"),
            (v1.clone(), "v2"),
        ];
        for (column, expected) in count_cases {
            let err = JoinResponse::from_json(&with_key_counts(column)).unwrap_err();
            assert!(err.starts_with("summary.key_counts"), "{err}");
            assert!(err.contains(expected), "{err} lacks {expected:?}");
        }
        let mut req = JoinRequest::generate("c", AlgoChoice::parse("csh").unwrap(), 8, 0.0, 1);
        req.shard = Some(ShardPartition {
            slot: 0,
            shards: 2,
            hot_keys: vec![],
        });
        let mut wire = req.wire_json("shard_join");
        let Json::Obj(fields) = &mut wire else {
            unreachable!("requests are objects")
        };
        for (name, value) in fields.iter_mut() {
            if name == "shard" {
                *value = Json::obj(vec![
                    ("slot", Json::from_u64(0)),
                    ("shards", Json::from_u64(2)),
                    ("hot_keys", v1.clone()),
                ]);
            }
        }
        let err = JoinRequest::from_json(&wire, "x").unwrap_err();
        assert!(
            err.starts_with("shard.hot_keys") && err.contains("v2"),
            "{err}"
        );
    }
}
