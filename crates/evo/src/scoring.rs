//! SRUF scoring (Eq 8) and Algorithm 1 probability sampling.
//!
//! The paper's objective is *smallest remaining utilisation first*: pick
//! the schedule minimising `Σ_j T_j(B_j) · c_j` (Eq 3) with
//! `T_j = Y_j / X_j` (Eq 5) and `Y_j = Y_processed (1/ρ_j − 1)` (Eq 7).
//! Algorithm 1 draws one ρ_j per job from its Beta prediction, scores every
//! candidate with that shared sample, and selects the smallest score.

//! ## Delta-scoring
//!
//! A child produced by one evolution operation differs from its parent
//! in only a few jobs, and Eq 8 is a per-job sum — so each candidate
//! carries a [`ScoreCard`]: its jobs' ρ-independent utilisation factors
//! `u_j = c_j / X_j` keyed by configuration signature. Deriving a child's
//! card copies the parent's entries for untouched jobs and recomputes
//! only the dirty set, and scoring a generation multiplies the cards by
//! one shared per-job remaining-workload table. Both paths sum terms in
//! ascending job order with identical arithmetic, so delta-scored totals
//! are bit-identical to a full rescore (guarded by proptests).

use crate::context::EvoContext;
use ones_schedcore::{DirtySet, JobRun, JobSignature, Schedule};
use ones_simcore::DetRng;
use ones_workload::JobId;
use std::collections::BTreeMap;

/// Lower clamp on sampled completion fractions: `1/ρ` has a divergent mean
/// when α clamps to 1, and a single astronomically small ρ would otherwise
/// dominate every score in the generation.
pub const MIN_RHO: f64 = 0.005;

/// Utilisation multiplier charged to a placed job whose modelled
/// throughput is zero (e.g. a degenerate placement the perf model cannot
/// serve). Such a job would never finish, so its candidate must lose to
/// any candidate that makes progress — but the penalty stays finite so
/// scores remain totally ordered and comparable.
pub const ZERO_THROUGHPUT_PENALTY: f64 = 1.0e9;

/// Draws one completion-fraction sample per job (Algorithm 1 lines 1–3).
#[must_use]
pub fn sample_rhos(ctx: &EvoContext<'_>, rng: &mut DetRng) -> BTreeMap<JobId, f64> {
    ctx.schedulable()
        .iter()
        .map(|j| {
            let rho = ctx.beta(j.id()).sample(rng).max(MIN_RHO);
            (j.id(), rho)
        })
        .collect()
}

/// Scores one candidate (Eq 8, lower is better):
/// `Σ_{j ∈ running(S)} (Y_processed_j · c_j / X_j) (1/ρ_j − 1)`.
///
/// Jobs absent from `rhos` (e.g. completed between sampling and scoring)
/// contribute nothing.
#[must_use]
pub fn score_schedule(
    ctx: &EvoContext<'_>,
    schedule: &Schedule,
    rhos: &BTreeMap<JobId, f64>,
) -> f64 {
    match ctx.cache {
        Some(cache) => {
            // Cached path: gather every job's configuration signature in
            // ONE pass over the slots, then resolve throughputs by hash
            // lookup. Without the single-pass gather each lookup would
            // recompute an O(gpus) signature and the cache could never
            // beat the model evaluation it replaces.
            let mut total = 0.0;
            for (job, sig) in schedule.job_signatures(ctx.gpus_per_node()) {
                let Some(&rho) = rhos.get(&job) else {
                    continue;
                };
                let x = cache.get_or_insert_with((job, sig.placement, sig.batches), || {
                    let profile = ctx.profile(job);
                    let batches = schedule.local_batches(job);
                    let placement = schedule.placement(job);
                    ctx.view.perf.throughput(&profile, &batches, &placement)
                });
                total += ctx.remaining_workload(job, rho) * utilisation_factor(sig.gpus, x);
            }
            total
        }
        None => {
            let mut total = 0.0;
            for (job, (_batch, gpus)) in schedule.running_jobs() {
                let Some(&rho) = rhos.get(&job) else {
                    continue;
                };
                let x = ctx.throughput_in(schedule, job);
                total += ctx.remaining_workload(job, rho) * utilisation_factor(gpus, x);
            }
            total
        }
    }
}

/// The ρ-independent part of one job's Eq 8 term: `c_j / X_j`, or the
/// [`ZERO_THROUGHPUT_PENALTY`] charge when the job makes no progress.
/// Every scoring path — full or delta — multiplies exactly this factor
/// by the remaining workload, which is what makes the two bit-identical.
#[must_use]
pub fn utilisation_factor(gpus: u32, x: f64) -> f64 {
    if x <= 0.0 {
        // A placed job that makes no progress pins its GPUs forever;
        // charge it as if each held GPU-sample cost PENALTY seconds
        // instead of silently dropping the term (which would *reward*
        // throughput-starving placements).
        f64::from(gpus) * ZERO_THROUGHPUT_PENALTY
    } else {
        f64::from(gpus) / x
    }
}

/// One job's entry in a [`ScoreCard`]: its configuration signatures (for
/// reuse checks) and the ρ-independent utilisation factor `u = c_j/X_j`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CardEntry {
    /// The placed job.
    pub job: JobId,
    /// Placement-shape hash (see [`ones_schedcore::JobSignature`]).
    pub placement: u64,
    /// Batch-sequence hash.
    pub batches: u64,
    /// GPUs held (`c_j`).
    pub gpus: u32,
    /// `c_j / X_j` (or the zero-throughput penalty charge).
    pub u: f64,
}

/// A candidate's per-job scoring breakdown, entries ascending by job id.
///
/// ρ-samples are redrawn every generation, so raw Eq 8 terms cannot be
/// reused — but `u_j = c_j/X_j` is ρ-independent and survives as long as
/// the job's configuration does. A card outlives its generation: the
/// search keeps each population member's card and derives children's
/// cards from their parents', recomputing only dirty jobs.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreCard {
    entries: Vec<CardEntry>,
}

/// The per-generation remaining-workload table `Y_j(ρ_j)`, ascending by
/// job id — computed once from the shared ρ-sample and multiplied into
/// every candidate's card.
#[derive(Debug, Clone, PartialEq)]
pub struct RemainingWorkloads {
    entries: Vec<(JobId, f64)>,
}

/// Evaluates `Y_j = remaining_workload(j, ρ_j)` for every sampled job,
/// in ascending job order (the iteration order of the ρ map).
#[must_use]
pub fn remaining_workloads(
    ctx: &EvoContext<'_>,
    rhos: &BTreeMap<JobId, f64>,
) -> RemainingWorkloads {
    RemainingWorkloads {
        entries: rhos
            .iter()
            .map(|(&job, &rho)| (job, ctx.remaining_workload(job, rho)))
            .collect(),
    }
}

impl ScoreCard {
    /// Builds a card from scratch: one model/cache resolution per placed
    /// job, via the same single-pass signature gather as
    /// [`score_schedule`].
    #[must_use]
    pub fn build(ctx: &EvoContext<'_>, schedule: &Schedule) -> ScoreCard {
        let entries = schedule
            .job_signatures(ctx.gpus_per_node())
            .into_iter()
            .map(|(job, sig)| {
                let x = resolve_throughput(ctx, schedule, job, &sig);
                CardEntry {
                    job,
                    placement: sig.placement,
                    batches: sig.batches,
                    gpus: sig.gpus,
                    u: utilisation_factor(sig.gpus, x),
                }
            })
            .collect();
        ScoreCard { entries }
    }

    /// Derives `child`'s card from its parent's: entries of jobs outside
    /// `dirty` are copied verbatim, dirty jobs are re-resolved against
    /// `child`. When `layout` is given (the child was reordered,
    /// [`Schedule::reordered_with_layout`]), every job's new placement
    /// shape comes from its contiguous block in `O(1)`; untouched jobs
    /// whose shape changed under packing keep their batch hash (reorder
    /// preserves batch sequences) and re-resolve only the throughput.
    ///
    /// `dirty` must contain every job whose configuration differs from
    /// the parent's (an over-approximation is safe); with `layout` it
    /// must also hold that `layout` covers exactly `child`'s placed jobs.
    #[must_use]
    pub fn derive(
        ctx: &EvoContext<'_>,
        child: &Schedule,
        parent: &ScoreCard,
        dirty: &DirtySet,
        layout: Option<&[JobRun]>,
    ) -> ScoreCard {
        let gpn = ctx.gpus_per_node();
        let mut entries: Vec<CardEntry> = match layout {
            Some(runs) => runs
                .iter()
                .map(|run| {
                    let placement = JobSignature::contiguous_shape_hash(run.start, run.len, gpn);
                    if !dirty.contains(&run.job) {
                        if let Some(pe) = parent.find(run.job) {
                            debug_assert_eq!(pe.gpus, run.len, "clean job changed size");
                            if pe.placement == placement {
                                return *pe;
                            }
                            // Packing changed the job's shape but not its
                            // batches: the batch hash carries over and only
                            // the throughput is re-resolved (usually a hit —
                            // some earlier candidate packed it the same way).
                            let sig = JobSignature {
                                placement,
                                batches: pe.batches,
                                gpus: pe.gpus,
                            };
                            let x = resolve_throughput_run(ctx, child, run, &sig);
                            return CardEntry {
                                job: run.job,
                                placement,
                                batches: pe.batches,
                                gpus: pe.gpus,
                                u: utilisation_factor(pe.gpus, x),
                            };
                        }
                    }
                    let batches = JobSignature::batches_hash(
                        child.slots()[run.start as usize..(run.start + run.len) as usize]
                            .iter()
                            .map(|s| s.expect("layout block is dense").local_batch),
                    );
                    let sig = JobSignature {
                        placement,
                        batches,
                        gpus: run.len,
                    };
                    let x = resolve_throughput_run(ctx, child, run, &sig);
                    CardEntry {
                        job: run.job,
                        placement,
                        batches,
                        gpus: run.len,
                        u: utilisation_factor(run.len, x),
                    }
                })
                .collect(),
            None => {
                // No reorder: untouched jobs keep identical slots, so
                // their parent entries transfer; dirty jobs re-walk the
                // child's slots individually.
                let mut out: Vec<CardEntry> = parent
                    .entries
                    .iter()
                    .filter(|e| !dirty.contains(&e.job))
                    .copied()
                    .collect();
                for &job in dirty {
                    if let Some(sig) = child.job_signature(job, gpn) {
                        let x = resolve_throughput(ctx, child, job, &sig);
                        out.push(CardEntry {
                            job,
                            placement: sig.placement,
                            batches: sig.batches,
                            gpus: sig.gpus,
                            u: utilisation_factor(sig.gpus, x),
                        });
                    }
                }
                out
            }
        };
        entries.sort_unstable_by_key(|e| e.job);
        ScoreCard { entries }
    }

    fn find(&self, job: JobId) -> Option<&CardEntry> {
        self.entries
            .binary_search_by_key(&job, |e| e.job)
            .ok()
            .map(|i| &self.entries[i])
    }

    /// Number of placed jobs on the card.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the card covers no jobs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The card's entries, ascending by job id.
    #[must_use]
    pub fn entries(&self) -> &[CardEntry] {
        &self.entries
    }

    /// Eq 8 total: `Σ_j Y_j · u_j` over jobs present in both the card and
    /// the workload table, in ascending job order — the same terms in the
    /// same order as [`score_schedule`], hence bit-identical.
    #[must_use]
    pub fn score(&self, remaining: &RemainingWorkloads) -> f64 {
        // Both sides are ascending by job id: lockstep merge.
        let mut total = 0.0;
        let mut ri = 0usize;
        let rem = &remaining.entries;
        for e in &self.entries {
            while ri < rem.len() && rem[ri].0 < e.job {
                ri += 1;
            }
            if ri < rem.len() && rem[ri].0 == e.job {
                total += rem[ri].1 * e.u;
            }
        }
        total
    }
}

/// Resolves one job's throughput for a known signature, via the cache
/// when installed (the same keys [`score_schedule`] uses).
fn resolve_throughput(
    ctx: &EvoContext<'_>,
    schedule: &Schedule,
    job: JobId,
    sig: &JobSignature,
) -> f64 {
    let compute = || {
        let profile = ctx.profile(job);
        let batches = schedule.local_batches(job);
        let placement = schedule.placement(job);
        ctx.view.perf.throughput(&profile, &batches, &placement)
    };
    match ctx.cache {
        Some(cache) => cache.get_or_insert_with((job, sig.placement, sig.batches), compute),
        None => compute(),
    }
}

/// [`resolve_throughput`] for a job known to occupy one contiguous block:
/// the miss path reads only the block's slots instead of re-walking the
/// whole schedule.
fn resolve_throughput_run(
    ctx: &EvoContext<'_>,
    child: &Schedule,
    run: &JobRun,
    sig: &JobSignature,
) -> f64 {
    let compute = || {
        let profile = ctx.profile(run.job);
        let batches: Vec<u32> = child.slots()[run.start as usize..(run.start + run.len) as usize]
            .iter()
            .map(|s| s.expect("layout block is dense").local_batch)
            .collect();
        let placement = ones_cluster::Placement::contiguous(run.start, run.len);
        ctx.view.perf.throughput(&profile, &batches, &placement)
    };
    match ctx.cache {
        Some(cache) => cache.get_or_insert_with((run.job, sig.placement, sig.batches), compute),
        None => compute(),
    }
}

/// Algorithm 1: scores every candidate against one shared ρ-sample and
/// returns the index of the best (smallest-score) candidate.
///
/// Ties break to the lowest index, so a deterministic candidate order
/// yields a deterministic selection. NaN scores never panic and never
/// win: [`argmin`] ranks them after every real score.
///
/// # Panics
/// Panics if `candidates` is empty.
#[must_use]
pub fn select_best(ctx: &EvoContext<'_>, candidates: &[Schedule], rng: &mut DetRng) -> usize {
    assert!(!candidates.is_empty(), "Algorithm 1 needs candidates");
    let rhos = sample_rhos(ctx, rng);
    let scores = score_all(ctx, candidates, &rhos);
    argmin(&scores).expect("non-empty candidates")
}

/// Index of the smallest score under [`f64::total_cmp`], first of equal
/// minima. `total_cmp` orders every NaN above (for the NaN bit patterns
/// produced by arithmetic) every finite value, so a NaN score loses to
/// any real score instead of poisoning the comparison.
#[must_use]
pub fn argmin(scores: &[f64]) -> Option<usize> {
    let mut best: Option<usize> = None;
    for (i, s) in scores.iter().enumerate() {
        match best {
            None => best = Some(i),
            Some(b) if s.total_cmp(&scores[b]) == std::cmp::Ordering::Less => best = Some(i),
            Some(_) => {}
        }
    }
    best
}

/// Scores all candidates with a shared ρ-sample by a full rescore, in
/// parallel for large pools: Algorithm 1's [`select_best`], and the
/// reference that a search's card scoring is tested against.
#[must_use]
pub fn score_all(
    ctx: &EvoContext<'_>,
    candidates: &[Schedule],
    rhos: &BTreeMap<JobId, f64>,
) -> Vec<f64> {
    use rayon::prelude::*;
    if candidates.len() >= 32 {
        candidates
            .par_iter()
            .map(|s| score_schedule(ctx, s, rhos))
            .collect()
    } else {
        candidates
            .iter()
            .map(|s| score_schedule(ctx, s, rhos))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::testutil::*;
    use ones_cluster::GpuId;

    #[test]
    fn empty_schedule_scores_zero() {
        let fx = Fixture::new(2);
        let view = fx.view();
        let c = ctx(&fx, &view);
        let mut rng = DetRng::seed(1);
        let rhos = sample_rhos(&c, &mut rng);
        assert_eq!(score_schedule(&c, &Schedule::empty(8), &rhos), 0.0);
    }

    #[test]
    fn rho_samples_cover_all_jobs_and_are_clamped() {
        let fx = Fixture::new(5);
        let view = fx.view();
        let c = ctx(&fx, &view);
        let mut rng = DetRng::seed(2);
        let rhos = sample_rhos(&c, &mut rng);
        assert_eq!(rhos.len(), 5);
        for &r in rhos.values() {
            assert!((MIN_RHO..1.0).contains(&r));
        }
    }

    #[test]
    fn nearly_done_job_scores_below_fresh_job() {
        // Same placement; the job predicted nearly complete has a far
        // smaller remaining utilisation (SRUF prefers it).
        let mut fx = Fixture::new(2);
        fx.start_job(0, 30);
        fx.start_job(1, 30);
        fx.betas
            .insert(ones_workload::JobId(0), ones_stats::Beta::new(30.0, 1.0)); // almost done
        fx.betas
            .insert(ones_workload::JobId(1), ones_stats::Beta::new(1.0, 30.0)); // barely started
        let view = fx.view();
        let c = ctx(&fx, &view);
        let mut rng = DetRng::seed(3);
        let rhos = sample_rhos(&c, &mut rng);

        let mut near = Schedule::empty(8);
        near.assign(GpuId(0), ones_workload::JobId(0), 256);
        let mut fresh = Schedule::empty(8);
        fresh.assign(GpuId(0), ones_workload::JobId(1), 256);

        assert!(
            score_schedule(&c, &near, &rhos) < score_schedule(&c, &fresh, &rhos),
            "SRUF must prefer the nearly-finished job"
        );
    }

    #[test]
    fn select_best_picks_lowest_score() {
        let mut fx = Fixture::new(2);
        fx.start_job(0, 30);
        fx.start_job(1, 30);
        fx.betas
            .insert(ones_workload::JobId(0), ones_stats::Beta::new(50.0, 1.0));
        fx.betas
            .insert(ones_workload::JobId(1), ones_stats::Beta::new(1.0, 50.0));
        let view = fx.view();
        let c = ctx(&fx, &view);

        let mut near = Schedule::empty(8);
        near.assign(GpuId(0), ones_workload::JobId(0), 256);
        let mut fresh = Schedule::empty(8);
        fresh.assign(GpuId(0), ones_workload::JobId(1), 256);

        // The near-complete-job schedule should win under almost any sample.
        let mut wins = 0;
        for seed in 0..20 {
            let mut rng = DetRng::seed(seed);
            if select_best(&c, &[fresh.clone(), near.clone()], &mut rng) == 1 {
                wins += 1;
            }
        }
        assert!(wins >= 16, "near-complete won only {wins}/20");
    }

    #[test]
    fn more_gpus_for_same_job_can_cost_more_utilisation() {
        // SRUF (vs SRPT) exists because T·c grows when extra GPUs give
        // sub-linear speedup. An 8-GPU (2-node) allocation must score worse
        // than 1 GPU for a communication-bound small job.
        let mut fx = Fixture::new(1);
        fx.start_job(0, 10);
        let view = fx.view();
        let c = ctx(&fx, &view);
        let mut rng = DetRng::seed(7);
        let rhos = sample_rhos(&c, &mut rng);

        let mut one = Schedule::empty(8);
        c.assign_evenly(&mut one, ones_workload::JobId(0), &[GpuId(0)]);
        let mut eight = Schedule::empty(8);
        c.assign_evenly(
            &mut eight,
            ones_workload::JobId(0),
            &(0..8).map(GpuId).collect::<Vec<_>>(),
        );
        let s1 = score_schedule(&c, &one, &rhos);
        let s8 = score_schedule(&c, &eight, &rhos);
        assert!(
            s8 > s1,
            "8 GPUs at fixed batch should waste utilisation: s1={s1}, s8={s8}"
        );
    }

    #[test]
    fn argmin_ranks_nan_last_and_breaks_ties_low() {
        assert_eq!(argmin(&[]), None);
        assert_eq!(argmin(&[f64::NAN]), Some(0));
        assert_eq!(argmin(&[f64::NAN, 1.0, 0.5]), Some(2));
        assert_eq!(argmin(&[f64::INFINITY, f64::NAN]), Some(0));
        // First of equal minima wins.
        assert_eq!(argmin(&[2.0, 1.0, 1.0, 3.0]), Some(1));
        assert_eq!(argmin(&[0.0, 0.0, 0.0]), Some(0));
    }

    #[test]
    fn identical_candidates_tie_to_lowest_index() {
        let mut fx = Fixture::new(2);
        fx.start_job(0, 10);
        let view = fx.view();
        let c = ctx(&fx, &view);
        let mut s = Schedule::empty(8);
        s.assign(GpuId(0), ones_workload::JobId(0), 256);
        let clones = vec![s.clone(), s.clone(), s.clone(), s];
        for seed in 0..10 {
            let mut rng = DetRng::seed(seed);
            assert_eq!(select_best(&c, &clones, &mut rng), 0);
        }
    }

    #[test]
    fn nan_throughput_candidate_loses_without_panicking() {
        // Regression: selection used to unwrap partial_cmp and panicked
        // the scheduler on any NaN score. Inject a NaN throughput via the
        // memo table (the perf model never returns NaN for legal input).
        let mut fx = Fixture::new(2);
        fx.start_job(0, 5);
        fx.start_job(1, 5);
        let view = fx.view();
        let cache = crate::cache::ThroughputCache::new();
        let c = ctx(&fx, &view).with_cache(&cache);

        let mut healthy = Schedule::empty(8);
        healthy.assign(GpuId(0), ones_workload::JobId(0), 256);
        let mut poisoned = Schedule::empty(8);
        poisoned.assign(GpuId(0), ones_workload::JobId(1), 256);
        let sig = poisoned
            .job_signature(ones_workload::JobId(1), c.gpus_per_node())
            .unwrap();
        cache.get_or_insert_with(
            (ones_workload::JobId(1), sig.placement, sig.batches),
            || f64::NAN,
        );

        for seed in 0..10 {
            let mut rng = DetRng::seed(seed);
            assert_eq!(
                select_best(&c, &[poisoned.clone(), healthy.clone()], &mut rng),
                1,
                "NaN-scored candidate must lose"
            );
        }
    }

    #[test]
    fn zero_throughput_candidates_lose() {
        // A placed job with zero modelled throughput used to contribute
        // nothing to its candidate's score, making GPU-wasting placements
        // look cheap. The penalty must make such candidates lose.
        let mut fx = Fixture::new(2);
        fx.start_job(0, 5);
        fx.start_job(1, 5);
        let view = fx.view();
        let cache = crate::cache::ThroughputCache::new();
        let c = ctx(&fx, &view).with_cache(&cache);

        let mut healthy = Schedule::empty(8);
        healthy.assign(GpuId(0), ones_workload::JobId(0), 256);
        let mut starved = Schedule::empty(8);
        starved.assign(GpuId(0), ones_workload::JobId(1), 256);
        let sig = starved
            .job_signature(ones_workload::JobId(1), c.gpus_per_node())
            .unwrap();
        cache.get_or_insert_with(
            (ones_workload::JobId(1), sig.placement, sig.batches),
            || 0.0,
        );

        let mut rng = DetRng::seed(4);
        let rhos = sample_rhos(&c, &mut rng);
        let s_healthy = score_schedule(&c, &healthy, &rhos);
        let s_starved = score_schedule(&c, &starved, &rhos);
        assert!(s_starved.is_finite(), "penalty must keep scores finite");
        assert!(
            s_starved > s_healthy * 1.0e6,
            "starved candidate must be crushed: {s_starved} vs {s_healthy}"
        );
        assert_eq!(argmin(&[s_starved, s_healthy]), Some(1));
    }

    #[test]
    fn score_all_matches_sequential() {
        let mut fx = Fixture::new(4);
        for i in 0..4 {
            fx.start_job(i, 5);
        }
        let view = fx.view();
        let c = ctx(&fx, &view);
        let mut rng = DetRng::seed(11);
        let rhos = sample_rhos(&c, &mut rng);
        // 40 candidates to exercise the parallel path.
        let mut candidates = Vec::new();
        for k in 0..40u32 {
            let mut s = Schedule::empty(8);
            s.assign(GpuId(k % 8), ones_workload::JobId(u64::from(k % 4)), 128);
            candidates.push(s);
        }
        let par = score_all(&c, &candidates, &rhos);
        let seq: Vec<f64> = candidates
            .iter()
            .map(|s| score_schedule(&c, s, &rhos))
            .collect();
        assert_eq!(par, seq);
    }
}
