//! # dt-check — deterministic property-check & differential-oracle harness
//!
//! The repo's algorithmic kernels (the 1F1B simulator, Algorithms 1/2,
//! the §4 planner, the wire protocol, telemetry snapshots) each have an
//! independent reference to be checked against: a closed form, a
//! brute-force optimum, a serial twin, a round-trip. This crate turns
//! those references into a registry of seeded properties and runs them
//! under a deterministic harness:
//!
//! - [`gen`] — seeded generators for domain inputs (LAION-skewed sample
//!   batches, log-normal microbatch sizes, pipeline shapes, planner
//!   problem specs, well-formed and hostile wire byte streams). Every
//!   generator draws from a caller-supplied [`dt_simengine::DetRng`], so
//!   a case is fully determined by `(seed, size)`.
//! - [`prop`] — the harness: [`Property`] (a named check), a seed-sweep
//!   runner, and a shrinker that minimizes any failure by size then seed
//!   and prints a one-line reproducer
//!   (`repro check --prop <name> --seed <s> --size <k>`).
//! - [`reference`](mod@reference) — the event simulator the 1F1B engine replaced.
//! - [`oracles`] — the registry of cross-crate checks, exposed to the
//!   CLI as `repro check [--seeds N] [--prop NAME]` and gated in
//!   `scripts/verify.sh`.
//!
//! The suite is replayable end to end: same seeds, same outcome, on any
//! machine — there is no wall-clock or OS randomness anywhere in a case.

pub mod gen;
pub mod oracles;
pub mod prop;
pub mod reference;

pub use oracles::registry;
pub use prop::{
    ensure, reproducer, run_case, run_property, run_suite, CheckFn, Failure, PropOutcome, Property,
    Shrunk, SuiteReport,
};
