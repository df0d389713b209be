//! The planner daemon's request/response message types.
//!
//! Messages travel as JSON control frames over the shared length-prefix
//! codec ([`dt_simengine::frame`]) — the same framing the preprocessing
//! data plane uses, so there is exactly one wire implementation in the
//! workspace. Every request gets exactly one reply; server-side failures
//! are *typed* [`ServeError`] replies, never dropped connections or
//! panics.

use dt_simengine::frame::WireJson;
use dt_simengine::json::Json;

/// What the client wants planned, identifying the task the way the §7
/// experiments do: a model preset on a production-shaped cluster.
///
/// The tuple `(preset, nodes, global_batch, microbatch, seed)` is also
/// the warm-store fingerprint: two requests with equal specs share one
/// profile and one set of §4 cost tables on the server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecDesc {
    /// Model preset name: `mllm-9b`, `mllm-15b` or `mllm-72b`.
    pub preset: String,
    /// Cluster nodes (8 GPUs each, the §7.1 production shape).
    pub nodes: u32,
    /// Global batch size.
    pub global_batch: u32,
    /// Microbatch size `M`.
    pub microbatch: u32,
    /// Data-stream seed (profiling subset).
    pub seed: u64,
}

impl SpecDesc {
    /// The §7.2 ablation shape for a preset: 12 nodes, the preset's
    /// ablation batch size.
    pub fn ablation(preset: &str, global_batch: u32) -> SpecDesc {
        SpecDesc {
            preset: preset.to_string(),
            nodes: 12,
            global_batch,
            microbatch: 1,
            seed: 42,
        }
    }

    /// The warm-store fingerprint: every field that affects the profile
    /// and cost tables, nothing else. Replans (fewer GPUs, same spec) and
    /// repeats map to the same key — that is exactly the [`WarmStart`]
    /// cache-reuse rule.
    ///
    /// [`WarmStart`]: dt_orchestrator::WarmStart
    pub fn fingerprint(&self) -> String {
        format!(
            "{}/n{}/gb{}/m{}/s{}",
            self.preset, self.nodes, self.global_batch, self.microbatch, self.seed
        )
    }
}

/// Client → daemon requests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeRequest {
    /// Liveness probe; replies [`ServeReply::Pong`] without queueing.
    Ping,
    /// Admin: begin a graceful drain. The daemon acks with
    /// [`ServeReply::Bye`], stops admitting, finishes every in-flight
    /// request, and exits its threads.
    Shutdown,
    /// Run the §4 search for `spec` and return the best plan.
    Plan {
        /// The task.
        spec: SpecDesc,
        /// Per-request search budget: candidate shortlist size (`top_k`).
        /// Clamped to the server's configured maximum at admission.
        budget: u32,
        /// Per-request deadline in milliseconds (0 = server default). A
        /// request still queued when its deadline lapses is answered with
        /// [`ServeError::DeadlineExceeded`] instead of occupying a worker.
        deadline_ms: u64,
    },
    /// §4.3 degraded replan: the same spec on `remaining_gpus` survivors.
    /// Warm-starts from the plans previously chosen for this fingerprint.
    Replan {
        /// The original task.
        spec: SpecDesc,
        /// Surviving GPU budget.
        remaining_gpus: u32,
        /// Search budget, as in [`ServeRequest::Plan`].
        budget: u32,
        /// Deadline, as in [`ServeRequest::Plan`].
        deadline_ms: u64,
    },
    /// Plan, then simulate `iterations` training iterations under the
    /// chosen plan and report throughput.
    Simulate {
        /// The task.
        spec: SpecDesc,
        /// Iterations to simulate (admission-capped).
        iterations: u32,
        /// Deadline, as in [`ServeRequest::Plan`].
        deadline_ms: u64,
    },
}

impl ServeRequest {
    /// Request kind label for metrics.
    pub fn kind(&self) -> &'static str {
        match self {
            ServeRequest::Ping => "ping",
            ServeRequest::Shutdown => "shutdown",
            ServeRequest::Plan { .. } => "plan",
            ServeRequest::Replan { .. } => "replan",
            ServeRequest::Simulate { .. } => "simulate",
        }
    }

    /// Span names `[request, queue, exec]` for this request's kind
    /// (`"request plan"`, …), static so a traced request formats nothing.
    pub(crate) fn span_names(&self) -> [&'static str; 3] {
        match self {
            ServeRequest::Ping => ["request ping", "queue ping", "exec ping"],
            ServeRequest::Shutdown => ["request shutdown", "queue shutdown", "exec shutdown"],
            ServeRequest::Plan { .. } => ["request plan", "queue plan", "exec plan"],
            ServeRequest::Replan { .. } => ["request replan", "queue replan", "exec replan"],
            ServeRequest::Simulate { .. } => {
                ["request simulate", "queue simulate", "exec simulate"]
            }
        }
    }

    /// The request's deadline field (0 for ping/shutdown).
    pub fn deadline_ms(&self) -> u64 {
        match self {
            ServeRequest::Ping | ServeRequest::Shutdown => 0,
            ServeRequest::Plan { deadline_ms, .. }
            | ServeRequest::Replan { deadline_ms, .. }
            | ServeRequest::Simulate { deadline_ms, .. } => *deadline_ms,
        }
    }
}

/// One module's shape in a returned plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleSummary {
    /// Tensor-parallel size.
    pub tp: u32,
    /// Data-parallel size.
    pub dp: u32,
    /// Pipeline-parallel size.
    pub pp: u32,
    /// Total GPUs for the module.
    pub gpus: u32,
}

/// The daemon's answer to a plan/replan request.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanSummary {
    /// Encoder shape.
    pub encoder: ModuleSummary,
    /// Backbone shape.
    pub backbone: ModuleSummary,
    /// Generator shape.
    pub generator: ModuleSummary,
    /// GPUs used in total.
    pub total_gpus: u32,
    /// Predicted per-iteration seconds (Eq. 1 + Eq. 2 objective).
    pub predicted_iter_secs: f64,
    /// Whether the search carried an optimality certificate.
    pub proven_optimal: bool,
    /// Inner solves the bounds could not avoid.
    pub candidates_evaluated: u64,
    /// Memoized cost-table hits during this search.
    pub cache_hits: u64,
    /// `true` when the warm store already held this fingerprint's cost
    /// tables (the request skipped profiling + table building).
    pub warm: bool,
    /// Server-side search wall time, milliseconds.
    pub solve_ms: f64,
}

/// The daemon's answer to a simulate request.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSummary {
    /// The plan that was simulated.
    pub plan: PlanSummary,
    /// Simulated iterations.
    pub iterations: u32,
    /// Mean per-iteration seconds.
    pub mean_iter_secs: f64,
    /// Model FLOPs utilization.
    pub mfu: f64,
    /// Training throughput, samples per (simulated) second.
    pub samples_per_sec: f64,
}

/// Typed server-side failures. Every variant is a *reply*, sent over the
/// wire, so clients can distinguish retryable congestion
/// ([`ServeError::Overloaded`]) from permanent spec problems
/// ([`ServeError::BadRequest`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The bounded admission queue is full. Retryable with backoff.
    Overloaded {
        /// Configured queue capacity that was exhausted.
        queue_depth: u32,
    },
    /// The request spent its whole deadline in the queue.
    DeadlineExceeded {
        /// How long it waited before a worker picked it up.
        waited_ms: u64,
    },
    /// The request failed admission validation (unknown preset,
    /// over-budget cluster, zero batch, …). Not retryable.
    BadRequest {
        /// What was wrong.
        reason: String,
    },
    /// The frame was not a parseable request. The daemon replies and
    /// then closes the connection (framing may be desynchronized).
    Malformed {
        /// Parser diagnosis.
        reason: String,
    },
    /// The §4 search itself failed (infeasible spec); carries the
    /// planner's diagnosis. Not retryable.
    Plan {
        /// [`PlanError`](dt_orchestrator::PlanError) rendering.
        reason: String,
    },
    /// The daemon is draining and no longer admits work. Retryable
    /// against a replacement instance, not against this one.
    ShuttingDown,
}

impl ServeError {
    /// Whether a client should retry (with backoff) after this error.
    pub fn retryable(&self) -> bool {
        matches!(self, ServeError::Overloaded { .. })
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { queue_depth } => {
                write!(
                    f,
                    "overloaded: admission queue ({queue_depth} slots) is full"
                )
            }
            ServeError::DeadlineExceeded { waited_ms } => {
                write!(f, "deadline exceeded after {waited_ms} ms in queue")
            }
            ServeError::BadRequest { reason } => write!(f, "bad request: {reason}"),
            ServeError::Malformed { reason } => write!(f, "malformed frame: {reason}"),
            ServeError::Plan { reason } => write!(f, "planning failed: {reason}"),
            ServeError::ShuttingDown => write!(f, "daemon is shutting down"),
        }
    }
}

/// Daemon → client replies. Exactly one per request.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeReply {
    /// Liveness answer.
    Pong,
    /// Graceful-drain acknowledgement (the daemon is now draining).
    Bye,
    /// Plan/replan result.
    Plan(PlanSummary),
    /// Simulate result.
    Sim(SimSummary),
    /// Typed failure.
    Err(ServeError),
}

// ---------------------------------------------------------------------
// JSON codecs
// ---------------------------------------------------------------------

fn num_f64(v: f64) -> Json {
    Json::Num(v)
}

impl WireJson for SpecDesc {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("preset", Json::Str(self.preset.clone())),
            ("nodes", Json::num_u64(u64::from(self.nodes))),
            ("global_batch", Json::num_u64(u64::from(self.global_batch))),
            ("microbatch", Json::num_u64(u64::from(self.microbatch))),
            ("seed", Json::num_u64(self.seed)),
        ])
    }

    fn from_json(value: &Json) -> Result<Self, String> {
        let field = |k: &str| value.get(k).ok_or_else(|| format!("spec missing {k}"));
        Ok(SpecDesc {
            preset: field("preset")?.as_str().ok_or("bad preset")?.to_string(),
            nodes: field("nodes")?.as_u32().ok_or("bad nodes")?,
            global_batch: field("global_batch")?.as_u32().ok_or("bad global_batch")?,
            microbatch: field("microbatch")?.as_u32().ok_or("bad microbatch")?,
            seed: field("seed")?.as_u64().ok_or("bad seed")?,
        })
    }
}

impl WireJson for ServeRequest {
    fn to_json(&self) -> Json {
        match self {
            ServeRequest::Ping => Json::Str("Ping".into()),
            ServeRequest::Shutdown => Json::Str("Shutdown".into()),
            ServeRequest::Plan {
                spec,
                budget,
                deadline_ms,
            } => Json::obj(vec![(
                "Plan",
                Json::obj(vec![
                    ("spec", spec.to_json()),
                    ("budget", Json::num_u64(u64::from(*budget))),
                    ("deadline_ms", Json::num_u64(*deadline_ms)),
                ]),
            )]),
            ServeRequest::Replan {
                spec,
                remaining_gpus,
                budget,
                deadline_ms,
            } => Json::obj(vec![(
                "Replan",
                Json::obj(vec![
                    ("spec", spec.to_json()),
                    ("remaining_gpus", Json::num_u64(u64::from(*remaining_gpus))),
                    ("budget", Json::num_u64(u64::from(*budget))),
                    ("deadline_ms", Json::num_u64(*deadline_ms)),
                ]),
            )]),
            ServeRequest::Simulate {
                spec,
                iterations,
                deadline_ms,
            } => Json::obj(vec![(
                "Simulate",
                Json::obj(vec![
                    ("spec", spec.to_json()),
                    ("iterations", Json::num_u64(u64::from(*iterations))),
                    ("deadline_ms", Json::num_u64(*deadline_ms)),
                ]),
            )]),
        }
    }

    fn from_json(value: &Json) -> Result<Self, String> {
        if value.as_str() == Some("Ping") {
            return Ok(ServeRequest::Ping);
        }
        if value.as_str() == Some("Shutdown") {
            return Ok(ServeRequest::Shutdown);
        }
        if let Some(body) = value.get("Plan") {
            return Ok(ServeRequest::Plan {
                spec: SpecDesc::from_json(body.get("spec").ok_or("Plan missing spec")?)?,
                budget: body
                    .get("budget")
                    .and_then(Json::as_u32)
                    .ok_or("bad budget")?,
                deadline_ms: body
                    .get("deadline_ms")
                    .and_then(Json::as_u64)
                    .ok_or("bad deadline_ms")?,
            });
        }
        if let Some(body) = value.get("Replan") {
            return Ok(ServeRequest::Replan {
                spec: SpecDesc::from_json(body.get("spec").ok_or("Replan missing spec")?)?,
                remaining_gpus: body
                    .get("remaining_gpus")
                    .and_then(Json::as_u32)
                    .ok_or("bad remaining_gpus")?,
                budget: body
                    .get("budget")
                    .and_then(Json::as_u32)
                    .ok_or("bad budget")?,
                deadline_ms: body
                    .get("deadline_ms")
                    .and_then(Json::as_u64)
                    .ok_or("bad deadline_ms")?,
            });
        }
        if let Some(body) = value.get("Simulate") {
            return Ok(ServeRequest::Simulate {
                spec: SpecDesc::from_json(body.get("spec").ok_or("Simulate missing spec")?)?,
                iterations: body
                    .get("iterations")
                    .and_then(Json::as_u32)
                    .ok_or("bad iterations")?,
                deadline_ms: body
                    .get("deadline_ms")
                    .and_then(Json::as_u64)
                    .ok_or("bad deadline_ms")?,
            });
        }
        Err("unknown request variant".into())
    }
}

impl WireJson for ModuleSummary {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("tp", Json::num_u64(u64::from(self.tp))),
            ("dp", Json::num_u64(u64::from(self.dp))),
            ("pp", Json::num_u64(u64::from(self.pp))),
            ("gpus", Json::num_u64(u64::from(self.gpus))),
        ])
    }

    fn from_json(value: &Json) -> Result<Self, String> {
        let field = |k: &str| {
            value
                .get(k)
                .and_then(Json::as_u32)
                .ok_or(format!("bad {k}"))
        };
        Ok(ModuleSummary {
            tp: field("tp")?,
            dp: field("dp")?,
            pp: field("pp")?,
            gpus: field("gpus")?,
        })
    }
}

impl WireJson for PlanSummary {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("encoder", self.encoder.to_json()),
            ("backbone", self.backbone.to_json()),
            ("generator", self.generator.to_json()),
            ("total_gpus", Json::num_u64(u64::from(self.total_gpus))),
            ("predicted_iter_secs", num_f64(self.predicted_iter_secs)),
            ("proven_optimal", Json::Bool(self.proven_optimal)),
            (
                "candidates_evaluated",
                Json::num_u64(self.candidates_evaluated),
            ),
            ("cache_hits", Json::num_u64(self.cache_hits)),
            ("warm", Json::Bool(self.warm)),
            ("solve_ms", num_f64(self.solve_ms)),
        ])
    }

    fn from_json(value: &Json) -> Result<Self, String> {
        let field = |k: &str| value.get(k).ok_or_else(|| format!("plan missing {k}"));
        Ok(PlanSummary {
            encoder: ModuleSummary::from_json(field("encoder")?)?,
            backbone: ModuleSummary::from_json(field("backbone")?)?,
            generator: ModuleSummary::from_json(field("generator")?)?,
            total_gpus: field("total_gpus")?.as_u32().ok_or("bad total_gpus")?,
            predicted_iter_secs: field("predicted_iter_secs")?
                .as_f64()
                .ok_or("bad predicted_iter_secs")?,
            proven_optimal: field("proven_optimal")?
                .as_bool()
                .ok_or("bad proven_optimal")?,
            candidates_evaluated: field("candidates_evaluated")?
                .as_u64()
                .ok_or("bad candidates_evaluated")?,
            cache_hits: field("cache_hits")?.as_u64().ok_or("bad cache_hits")?,
            warm: field("warm")?.as_bool().ok_or("bad warm")?,
            solve_ms: field("solve_ms")?.as_f64().ok_or("bad solve_ms")?,
        })
    }
}

impl WireJson for SimSummary {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("plan", self.plan.to_json()),
            ("iterations", Json::num_u64(u64::from(self.iterations))),
            ("mean_iter_secs", num_f64(self.mean_iter_secs)),
            ("mfu", num_f64(self.mfu)),
            ("samples_per_sec", num_f64(self.samples_per_sec)),
        ])
    }

    fn from_json(value: &Json) -> Result<Self, String> {
        let field = |k: &str| value.get(k).ok_or_else(|| format!("sim missing {k}"));
        Ok(SimSummary {
            plan: PlanSummary::from_json(field("plan")?)?,
            iterations: field("iterations")?.as_u32().ok_or("bad iterations")?,
            mean_iter_secs: field("mean_iter_secs")?
                .as_f64()
                .ok_or("bad mean_iter_secs")?,
            mfu: field("mfu")?.as_f64().ok_or("bad mfu")?,
            samples_per_sec: field("samples_per_sec")?
                .as_f64()
                .ok_or("bad samples_per_sec")?,
        })
    }
}

impl WireJson for ServeError {
    fn to_json(&self) -> Json {
        match self {
            ServeError::Overloaded { queue_depth } => Json::obj(vec![(
                "Overloaded",
                Json::obj(vec![(
                    "queue_depth",
                    Json::num_u64(u64::from(*queue_depth)),
                )]),
            )]),
            ServeError::DeadlineExceeded { waited_ms } => Json::obj(vec![(
                "DeadlineExceeded",
                Json::obj(vec![("waited_ms", Json::num_u64(*waited_ms))]),
            )]),
            ServeError::BadRequest { reason } => Json::obj(vec![(
                "BadRequest",
                Json::obj(vec![("reason", Json::Str(reason.clone()))]),
            )]),
            ServeError::Malformed { reason } => Json::obj(vec![(
                "Malformed",
                Json::obj(vec![("reason", Json::Str(reason.clone()))]),
            )]),
            ServeError::Plan { reason } => Json::obj(vec![(
                "Plan",
                Json::obj(vec![("reason", Json::Str(reason.clone()))]),
            )]),
            ServeError::ShuttingDown => Json::Str("ShuttingDown".into()),
        }
    }

    fn from_json(value: &Json) -> Result<Self, String> {
        if value.as_str() == Some("ShuttingDown") {
            return Ok(ServeError::ShuttingDown);
        }
        let str_field = |body: &Json, k: &str| -> Result<String, String> {
            Ok(body
                .get(k)
                .and_then(Json::as_str)
                .ok_or(format!("bad {k}"))?
                .to_string())
        };
        if let Some(body) = value.get("Overloaded") {
            return Ok(ServeError::Overloaded {
                queue_depth: body
                    .get("queue_depth")
                    .and_then(Json::as_u32)
                    .ok_or("bad queue_depth")?,
            });
        }
        if let Some(body) = value.get("DeadlineExceeded") {
            return Ok(ServeError::DeadlineExceeded {
                waited_ms: body
                    .get("waited_ms")
                    .and_then(Json::as_u64)
                    .ok_or("bad waited_ms")?,
            });
        }
        if let Some(body) = value.get("BadRequest") {
            return Ok(ServeError::BadRequest {
                reason: str_field(body, "reason")?,
            });
        }
        if let Some(body) = value.get("Malformed") {
            return Ok(ServeError::Malformed {
                reason: str_field(body, "reason")?,
            });
        }
        if let Some(body) = value.get("Plan") {
            return Ok(ServeError::Plan {
                reason: str_field(body, "reason")?,
            });
        }
        Err("unknown error variant".into())
    }
}

impl WireJson for ServeReply {
    fn to_json(&self) -> Json {
        match self {
            ServeReply::Pong => Json::Str("Pong".into()),
            ServeReply::Bye => Json::Str("Bye".into()),
            ServeReply::Plan(p) => Json::obj(vec![("Plan", p.to_json())]),
            ServeReply::Sim(s) => Json::obj(vec![("Sim", s.to_json())]),
            ServeReply::Err(e) => Json::obj(vec![("Err", e.to_json())]),
        }
    }

    fn from_json(value: &Json) -> Result<Self, String> {
        if value.as_str() == Some("Pong") {
            return Ok(ServeReply::Pong);
        }
        if value.as_str() == Some("Bye") {
            return Ok(ServeReply::Bye);
        }
        if let Some(body) = value.get("Plan") {
            return Ok(ServeReply::Plan(PlanSummary::from_json(body)?));
        }
        if let Some(body) = value.get("Sim") {
            return Ok(ServeReply::Sim(SimSummary::from_json(body)?));
        }
        if let Some(body) = value.get("Err") {
            return Ok(ServeReply::Err(ServeError::from_json(body)?));
        }
        Err("unknown reply variant".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_simengine::frame::{read_json, write_json};
    use std::io::Cursor;

    fn spec() -> SpecDesc {
        SpecDesc::ablation("mllm-9b", 128)
    }

    #[test]
    fn span_names_spell_phase_and_kind() {
        let reqs = [
            ServeRequest::Ping,
            ServeRequest::Shutdown,
            ServeRequest::Plan {
                spec: spec(),
                budget: 1,
                deadline_ms: 0,
            },
            ServeRequest::Replan {
                spec: spec(),
                remaining_gpus: 64,
                budget: 1,
                deadline_ms: 0,
            },
            ServeRequest::Simulate {
                spec: spec(),
                iterations: 1,
                deadline_ms: 0,
            },
        ];
        for req in &reqs {
            let want = ["request", "queue", "exec"].map(|phase| format!("{phase} {}", req.kind()));
            assert_eq!(req.span_names(), want.each_ref().map(String::as_str));
        }
    }

    #[test]
    fn requests_round_trip() {
        let cases = vec![
            ServeRequest::Ping,
            ServeRequest::Shutdown,
            ServeRequest::Plan {
                spec: spec(),
                budget: 4,
                deadline_ms: 500,
            },
            ServeRequest::Replan {
                spec: spec(),
                remaining_gpus: 88,
                budget: 2,
                deadline_ms: 0,
            },
            ServeRequest::Simulate {
                spec: spec(),
                iterations: 2,
                deadline_ms: 1000,
            },
        ];
        for req in cases {
            let mut buf = Vec::new();
            write_json(&mut buf, &req).unwrap();
            let back: ServeRequest = read_json(&mut Cursor::new(buf)).unwrap();
            assert_eq!(back, req);
        }
    }

    #[test]
    fn spec_round_trips_every_seed() {
        for seed in [0, 1 << 53, 1 << 60, u64::MAX] {
            let spec = SpecDesc { seed, ..spec() };
            let back = SpecDesc::from_json(&Json::parse(&spec.to_json().to_string()).unwrap());
            assert_eq!(back, Ok(spec));
        }
    }

    #[test]
    fn replies_round_trip() {
        let m = ModuleSummary {
            tp: 2,
            dp: 4,
            pp: 1,
            gpus: 8,
        };
        let plan = PlanSummary {
            encoder: m.clone(),
            backbone: ModuleSummary {
                tp: 8,
                dp: 2,
                pp: 2,
                gpus: 32,
            },
            generator: m.clone(),
            total_gpus: 48,
            predicted_iter_secs: 12.5,
            proven_optimal: true,
            candidates_evaluated: 321,
            cache_hits: 1000,
            warm: true,
            solve_ms: 3.25,
        };
        let cases = vec![
            ServeReply::Pong,
            ServeReply::Bye,
            ServeReply::Plan(plan.clone()),
            ServeReply::Sim(SimSummary {
                plan,
                iterations: 2,
                mean_iter_secs: 13.0,
                mfu: 0.41,
                samples_per_sec: 9.8,
            }),
            ServeReply::Err(ServeError::Overloaded { queue_depth: 16 }),
            ServeReply::Err(ServeError::DeadlineExceeded { waited_ms: 77 }),
            ServeReply::Err(ServeError::BadRequest {
                reason: "nope".into(),
            }),
            ServeReply::Err(ServeError::Malformed {
                reason: "not json".into(),
            }),
            ServeReply::Err(ServeError::Plan {
                reason: "infeasible".into(),
            }),
            ServeReply::Err(ServeError::ShuttingDown),
        ];
        for reply in cases {
            let mut buf = Vec::new();
            write_json(&mut buf, &reply).unwrap();
            let back: ServeReply = read_json(&mut Cursor::new(buf)).unwrap();
            assert_eq!(back, reply);
        }
    }

    #[test]
    fn fingerprint_ignores_nothing_that_matters() {
        let a = spec();
        let mut b = spec();
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.global_batch += 1;
        assert_ne!(a.fingerprint(), b.fingerprint());
        let mut c = spec();
        c.seed = 7;
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn only_overload_is_retryable() {
        assert!(ServeError::Overloaded { queue_depth: 1 }.retryable());
        for e in [
            ServeError::DeadlineExceeded { waited_ms: 1 },
            ServeError::BadRequest {
                reason: String::new(),
            },
            ServeError::Malformed {
                reason: String::new(),
            },
            ServeError::Plan {
                reason: String::new(),
            },
            ServeError::ShuttingDown,
        ] {
            assert!(!e.retryable(), "{e} must not be retryable");
        }
    }
}
