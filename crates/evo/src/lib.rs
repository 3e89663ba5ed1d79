//! # ones-evo — the online evolutionary search (§3.2)
//!
//! The heart of ONES: a population of candidate schedules (genomes, one
//! `(job, local batch)` slot per GPU — Figure 1) evolved continuously
//! against live cluster state.
//!
//! * [`context`] — [`context::EvoContext`]: everything a generation needs
//!   (job telemetry, batch-size limits `R_j`, Beta progress predictions,
//!   the throughput model) plus shared helpers for batch assignment and
//!   SRUF utilisation estimates.
//! * [`scoring`] — Eq 8 candidate scores and Algorithm 1 probability
//!   sampling: one ρ-sample per job per iteration, shared by every
//!   candidate, smallest score wins.
//! * [`ops`] — the four evolution operations of §3.2.2: *refresh*
//!   (reconcile with live state, free finished GPUs, scale down
//!   over-limit jobs, place new arrivals, fill idle GPUs), *uniform
//!   crossover* (Figure 8), *uniform mutation* (Figure 9) and *reorder*
//!   (Figure 10).
//! * [`search`] — the generation loop of Figure 5: derive `G'_i` from
//!   `G_i`, select the top-K into `G_{i+1}`, surface the best candidate
//!   `S_*`.
//!
//! Candidate scoring inside a generation is embarrassingly parallel and
//! uses rayon when the population is large.
//!
//! Three exact accelerations ride along (see [`cache`] and the
//! determinism notes in [`search`]): a search-scoped [`ThroughputCache`]
//! memoising the pure `(job, placement shape, batches) → X_j` evaluations
//! across generations (with per-job invalidation on job events), delta
//! scoring — each candidate's [`scoring::ScoreCard`] is derived from its
//! parent's by re-resolving only the jobs the op touched — and parallel
//! candidate derivation on per-child forked RNG streams. Cache plus delta
//! scoring is the search's one scoring path, tested bit for bit against
//! the full rescore [`scoring::score_all`]; parallel derivation is a knob
//! that leaves `S_*` bit-identical. All show in [`EvoPerfCounters`].

pub mod cache;
pub mod context;
pub mod ops;
pub mod perfcounters;
pub mod scoring;
pub mod search;

pub use cache::ThroughputCache;
pub use context::EvoContext;
pub use perfcounters::EvoPerfCounters;
pub use scoring::{
    remaining_workloads, sample_rhos, score_schedule, RemainingWorkloads, ScoreCard,
};
pub use search::{EvoConfig, EvolutionarySearch};
