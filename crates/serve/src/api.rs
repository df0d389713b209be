//! The planner daemon's request/response message types.
//!
//! Messages travel as JSON control frames over the shared length-prefix
//! codec ([`dt_simengine::frame`]) — the same framing the preprocessing
//! data plane uses, so there is exactly one wire implementation in the
//! workspace. Every request gets exactly one reply; server-side failures
//! are *typed* [`ServeError`] replies, never dropped connections or
//! panics.
//!
//! Each message's JSON codec is generated from its field list by
//! [`dt_simengine::wire_struct!`] or [`dt_simengine::wire_enum!`]: the
//! enums are externally tagged (`"Ping"`, `{"Plan":{…}}`), and a `u64`
//! past 2^53 travels as its decimal string.

use dt_simengine::{wire_enum, wire_struct};

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

wire_struct!(SpecDesc {
    preset,
    nodes,
    global_batch,
    microbatch,
    seed
});
wire_enum!(ServeRequest {
    Ping,
    Shutdown,
    Plan { spec, budget, deadline_ms },
    Replan { spec, remaining_gpus, budget, deadline_ms },
    Simulate { spec, iterations, deadline_ms },
});
wire_struct!(ModuleSummary { tp, dp, pp, gpus });
wire_struct!(PlanSummary {
    encoder,
    backbone,
    generator,
    total_gpus,
    predicted_iter_secs,
    proven_optimal,
    candidates_evaluated,
    cache_hits,
    warm,
    solve_ms,
});
wire_struct!(SimSummary {
    plan,
    iterations,
    mean_iter_secs,
    mfu,
    samples_per_sec
});
wire_enum!(ServeError {
    Overloaded { queue_depth },
    DeadlineExceeded { waited_ms },
    BadRequest { reason },
    Malformed { reason },
    Plan { reason },
    ShuttingDown,
});
wire_enum!(ServeReply {
    Pong,
    Bye,
    Plan(PlanSummary),
    Sim(SimSummary),
    Err(ServeError),
});

#[cfg(test)]
mod tests {
    use super::*;
    use dt_simengine::frame::{read_json, write_json};
    use dt_simengine::schema::WireJson;
    use dt_simengine::{DetRng, Json};
    use std::fmt::Debug;
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

    /// A `u64` of any magnitude, 2^53 and up included.
    fn any_u64(rng: &mut DetRng) -> u64 {
        rng.next_u64() >> rng.range_usize(0, 64)
    }

    fn any_u32(rng: &mut DetRng) -> u32 {
        any_u64(rng) as u32
    }

    /// A finite `f64` from random bits.
    fn any_f64(rng: &mut DetRng) -> f64 {
        loop {
            let x = f64::from_bits(rng.next_u64());
            if x.is_finite() {
                return x;
            }
        }
    }

    /// A string of quotes, escapes, control and non-ASCII characters.
    fn any_string(rng: &mut DetRng) -> String {
        let palette = [
            'a', '"', '\\', '\n', '\t', '\r', '\u{1}', '\u{7f}', 'é', '☃', '😀',
        ];
        (0..rng.range_usize(0, 12))
            .map(|_| *rng.pick(&palette))
            .collect()
    }

    fn any_spec(rng: &mut DetRng) -> SpecDesc {
        SpecDesc {
            preset: any_string(rng),
            nodes: any_u32(rng),
            global_batch: any_u32(rng),
            microbatch: any_u32(rng),
            seed: any_u64(rng),
        }
    }

    fn any_module(rng: &mut DetRng) -> ModuleSummary {
        ModuleSummary {
            tp: any_u32(rng),
            dp: any_u32(rng),
            pp: any_u32(rng),
            gpus: any_u32(rng),
        }
    }

    fn any_plan(rng: &mut DetRng) -> PlanSummary {
        PlanSummary {
            encoder: any_module(rng),
            backbone: any_module(rng),
            generator: any_module(rng),
            total_gpus: any_u32(rng),
            predicted_iter_secs: any_f64(rng),
            proven_optimal: rng.chance(0.5),
            candidates_evaluated: any_u64(rng),
            cache_hits: any_u64(rng),
            warm: rng.chance(0.5),
            solve_ms: any_f64(rng),
        }
    }

    fn any_request(rng: &mut DetRng) -> ServeRequest {
        match rng.range_usize(0, 5) {
            0 => ServeRequest::Ping,
            1 => ServeRequest::Shutdown,
            2 => ServeRequest::Plan {
                spec: any_spec(rng),
                budget: any_u32(rng),
                deadline_ms: any_u64(rng),
            },
            3 => ServeRequest::Replan {
                spec: any_spec(rng),
                remaining_gpus: any_u32(rng),
                budget: any_u32(rng),
                deadline_ms: any_u64(rng),
            },
            _ => ServeRequest::Simulate {
                spec: any_spec(rng),
                iterations: any_u32(rng),
                deadline_ms: any_u64(rng),
            },
        }
    }

    fn any_reply(rng: &mut DetRng) -> ServeReply {
        match rng.range_usize(0, 10) {
            0 => ServeReply::Pong,
            1 => ServeReply::Bye,
            2 => ServeReply::Plan(any_plan(rng)),
            3 => ServeReply::Sim(SimSummary {
                plan: any_plan(rng),
                iterations: any_u32(rng),
                mean_iter_secs: any_f64(rng),
                mfu: any_f64(rng),
                samples_per_sec: any_f64(rng),
            }),
            4 => ServeReply::Err(ServeError::Overloaded {
                queue_depth: any_u32(rng),
            }),
            5 => ServeReply::Err(ServeError::DeadlineExceeded {
                waited_ms: any_u64(rng),
            }),
            6 => ServeReply::Err(ServeError::BadRequest {
                reason: any_string(rng),
            }),
            7 => ServeReply::Err(ServeError::Malformed {
                reason: any_string(rng),
            }),
            8 => ServeReply::Err(ServeError::Plan {
                reason: any_string(rng),
            }),
            _ => ServeReply::Err(ServeError::ShuttingDown),
        }
    }

    fn round_trips<T: WireJson + PartialEq + Debug>(msg: T) {
        let text = msg.to_json().to_string();
        assert_eq!(
            T::from_json(&Json::parse(&text).unwrap()),
            Ok(msg),
            "{text}"
        );
    }

    #[test]
    fn seeded_messages_round_trip_through_text() {
        let mut rng = DetRng::new(0x5e7e);
        for _ in 0..2000 {
            round_trips(any_request(&mut rng));
            round_trips(any_reply(&mut rng));
        }
    }

    #[test]
    fn a_tagged_message_decodes_only_from_one_variant_key() {
        let plan = ServeReply::Plan(any_plan(&mut DetRng::new(1))).to_json();
        let sim = ServeReply::Sim(SimSummary {
            plan: any_plan(&mut DetRng::new(2)),
            iterations: 1,
            mean_iter_secs: 1.0,
            mfu: 0.5,
            samples_per_sec: 2.0,
        })
        .to_json();
        let both = |a: &Json, b: &Json| match (a, b) {
            (Json::Obj(a), Json::Obj(b)) => Json::Obj([a.clone(), b.clone()].concat()),
            _ => unreachable!("both are tagged objects"),
        };
        assert!(ServeReply::from_json(&both(&plan, &sim)).is_err());
        assert!(ServeReply::from_json(&both(&sim, &plan)).is_err());
        let simulate = ServeRequest::Simulate {
            spec: spec(),
            iterations: 1,
            deadline_ms: 0,
        }
        .to_json();
        let plan = ServeRequest::Plan {
            spec: spec(),
            budget: 1,
            deadline_ms: 0,
        }
        .to_json();
        assert!(ServeRequest::from_json(&both(&simulate, &plan)).is_err());
        assert!(ServeRequest::from_json(&Json::obj(vec![])).is_err());
    }
}
