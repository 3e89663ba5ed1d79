//! Micro-bench: one evolutionary generation — the ONES scheduler's hot
//! loop (§3.2 claims evolutionary search has "relatively fast iterative
//! speed"; this bench quantifies it).
//!
//! Sweeps cluster sizes 16/32/64 GPUs, then scale rows at 1 024 and
//! 10 240 GPUs, each with sequential (`delta`) and parallel
//! (`delta_parallel`) candidate derivation. Parallel derivation is exact:
//! before timing, each size runs both variants lockstep from the same
//! seed and asserts the per-generation best schedules are bit-identical.
//!
//! Each size then scores the warm population two ways: the full-rescore
//! oracle (`scoring::score_all` over the search's warm cache) and the
//! production path (`remaining_workloads` + `ScoreCard::score` over the
//! search's own cards). The two score vectors must be equal bit for bit;
//! the ratio of their timings, as a median over alternating batches, is
//! the scoring speedup.
//!
//! Reported per variant: per-generation latency, the scoring-phase share
//! from the search's own perf counters, the lifetime cache hit rate and
//! the warm (last-generation) hit rate — the cross-generation reuse
//! signal. Results are also written to `BENCH_evolution.json` (path
//! overridable via the `BENCH_JSON` environment variable).
//!
//! Knobs:
//! * `BENCH_SIZES=16,1024` — override the swept cluster sizes.
//! * `BENCH_MIN_SCORING_SPEEDUP=5.0` — fail (non-zero exit) unless the
//!   1 024-GPU card-vs-oracle scoring speedup meets the floor;
//!   `scripts/ci.sh` derives the floor from the committed baseline JSON.

use ones_bench::harness::{bench_with, fmt_ns, median_ratio, BenchOpts, Measurement};
use ones_cluster::ClusterSpec;
use ones_dlperf::{ConvergenceModel, DatasetKind, ModelKind, PerfModel};
use ones_evo::scoring::score_all;
use ones_evo::{remaining_workloads, sample_rhos, EvoConfig, EvoContext, EvolutionarySearch};
use ones_schedcore::{ClusterView, JobPhase, JobStatus, Schedule};
use ones_simcore::{DetRng, SimTime};
use ones_stats::Beta;
use ones_workload::{JobId, JobSpec};
use serde_json::Value;
use std::collections::BTreeMap;

struct Fixture {
    spec: ClusterSpec,
    perf: PerfModel,
    jobs: BTreeMap<JobId, JobStatus>,
    deployed: Schedule,
    limits: BTreeMap<JobId, u32>,
    betas: BTreeMap<JobId, Beta>,
}

fn fixture(gpus: u32, n_jobs: u64) -> Fixture {
    let spec = ClusterSpec::longhorn_subset(gpus);
    let mut jobs = BTreeMap::new();
    let mut limits = BTreeMap::new();
    let mut betas = BTreeMap::new();
    for i in 0..n_jobs {
        let js = JobSpec {
            id: JobId(i),
            name: format!("j{i}"),
            model: ModelKind::ResNet18,
            dataset: DatasetKind::Cifar10,
            dataset_size: 20_000,
            submit_batch: 256,
            max_safe_batch: 4096,
            requested_gpus: 2,
            arrival_secs: i as f64,
            kill_after_secs: None,
            convergence: ConvergenceModel {
                reference_batch: 256,
                ..ConvergenceModel::example()
            },
        };
        let mut status = JobStatus::submitted(js, SimTime::from_secs(i as f64));
        if i % 2 == 0 {
            status.phase = JobPhase::Running;
            status.first_start = Some(SimTime::from_secs(i as f64));
            status.epochs_done = (i % 20) as u32 + 1;
            status.samples_processed = f64::from(status.epochs_done) * 20_000.0;
            status.epochs_in_current_schedule = 1;
        }
        limits.insert(JobId(i), 512);
        betas.insert(JobId(i), Beta::new(1.0 + i as f64 % 9.0, 20.0));
        jobs.insert(JobId(i), status);
    }
    Fixture {
        spec,
        perf: PerfModel::new(spec),
        jobs,
        deployed: Schedule::empty(gpus),
        limits,
        betas,
    }
}

/// One variant under test: `(name, parallel_derive)`.
type Variant = (&'static str, bool);

const VARIANTS: [Variant; 2] = [("delta", false), ("delta_parallel", true)];

/// How one cluster size is swept.
struct Plan {
    /// Jobs in the fixture.
    jobs: u64,
    /// Population K and crossover pairs (capped below the paper's
    /// K = |C| at scale rows so a single bench run stays tractable; the
    /// cap is recorded in the JSON row as `population`).
    population: usize,
    opts: BenchOpts,
    /// Settling generations before timing (also the lockstep
    /// bit-identical verification length).
    warm: u32,
}

fn plan_for(gpus: u32) -> Plan {
    if gpus <= 64 {
        Plan {
            jobs: u64::from(gpus),
            population: gpus as usize,
            opts: BenchOpts::coarse(),
            warm: 3,
        }
    } else {
        Plan {
            jobs: u64::from(gpus / 8).min(1024),
            population: if gpus <= 2048 { 128 } else { 64 },
            opts: BenchOpts {
                samples: 3,
                target_sample_nanos: 1,
                warmup: 0,
            },
            warm: 2,
        }
    }
}

fn config(gpus: u32, plan: &Plan, v: &Variant) -> EvoConfig {
    let mut cfg = EvoConfig::for_cluster(gpus);
    cfg.population = plan.population;
    cfg.crossover_pairs = plan.population;
    cfg.parallel_derive = v.1;
    cfg
}

fn view_of(fx: &Fixture) -> ClusterView<'_> {
    ClusterView {
        now: SimTime::from_secs(1000.0),
        spec: &fx.spec,
        perf: &fx.perf,
        jobs: &fx.jobs,
        deployed: &fx.deployed,
    }
}

/// Runs both variants lockstep from the same seed and asserts the
/// per-generation best schedules are bit-identical — parallel derivation
/// must be transparent before its speed is worth reporting.
fn verify_bit_identical(gpus: u32, fx: &Fixture, plan: &Plan) {
    let view = view_of(fx);
    let ctx = EvoContext::new(&view, &fx.limits, &fx.betas);
    let mut searches: Vec<(&str, EvolutionarySearch)> = VARIANTS
        .iter()
        .map(|v| {
            (
                v.0,
                EvolutionarySearch::new(config(gpus, plan, v), DetRng::seed(1)),
            )
        })
        .collect();
    for gen in 0..plan.warm {
        let mut reference: Option<(&str, Schedule)> = None;
        for (name, search) in &mut searches {
            let best = search.generation(&ctx);
            match &reference {
                None => reference = Some((name, best)),
                Some((ref_name, ref_best)) => assert!(
                    best == *ref_best,
                    "{gpus} GPUs gen {gen}: variant {name} diverged from {ref_name}"
                ),
            }
        }
    }
    println!(
        "  bit-identical best schedules across {} variants for {} generations",
        searches.len(),
        plan.warm
    );
}

struct VariantResult {
    name: &'static str,
    measurement: Measurement,
    /// Scoring-phase wall time per generation (perf-counter delta).
    score_ns_per_gen: f64,
    cache_hit_rate: f64,
    /// Hit rate of the most recent generation alone — cross-generation
    /// (warm) cache reuse.
    warm_hit_rate: f64,
}

/// Times one variant; returns its result and the warm search.
fn run_variant(
    gpus: u32,
    fx: &Fixture,
    plan: &Plan,
    v: &Variant,
) -> (VariantResult, EvolutionarySearch) {
    let view = view_of(fx);
    let ctx = EvoContext::new(&view, &fx.limits, &fx.betas);
    let mut search = EvolutionarySearch::new(config(gpus, plan, v), DetRng::seed(1));
    // Warm: populate G_0 and let the population settle before timing.
    for _ in 0..plan.warm {
        let _ = search.generation(&ctx);
    }
    let before = search.perf_counters();
    let measurement = bench_with(plan.opts, &format!("{gpus}gpu/{}", v.0), || {
        search.generation(&ctx)
    });
    let after = search.perf_counters();
    let gens = (after.generations - before.generations).max(1) as f64;
    let result = VariantResult {
        name: v.0,
        measurement,
        score_ns_per_gen: (after.score_nanos - before.score_nanos) as f64 / gens,
        cache_hit_rate: after.cache_hit_rate(),
        warm_hit_rate: after.warm_hit_rate(),
    };
    (result, search)
}

/// Timings of the two ways of scoring one warm population.
struct ScoringResult {
    /// `score_all` over the search's warm cache: the full rescore.
    oracle: Measurement,
    /// `remaining_workloads` + `ScoreCard::score` over the search's cards.
    cards: Measurement,
    /// Oracle time over card time: the median over alternating batches.
    speedup: f64,
}

/// Scores a warm search's population with the full-rescore oracle and
/// with the search's own score cards under one ρ-sample, asserts the two
/// agree bit for bit, and times both.
fn compare_scoring(gpus: u32, fx: &Fixture, search: &EvolutionarySearch) -> ScoringResult {
    let view = view_of(fx);
    let ctx = EvoContext::new(&view, &fx.limits, &fx.betas).with_cache(search.cache());
    let pool = search.population();
    let cards = search.score_cards();
    let rhos = sample_rhos(&ctx, &mut DetRng::seed(2));
    let mut oracle = || score_all(&ctx, pool, &rhos);
    let mut by_cards = || {
        let remaining = remaining_workloads(&ctx, &rhos);
        cards
            .iter()
            .map(|c| c.score(&remaining))
            .collect::<Vec<f64>>()
    };
    let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<u64>>();
    assert!(
        bits(oracle()) == bits(by_cards()),
        "{gpus} GPUs: card scores diverged from the full rescore"
    );
    println!(
        "  card scores bit-identical to the full rescore over {} members",
        pool.len()
    );
    let oracle_m = bench_with(
        BenchOpts::default(),
        &format!("{gpus}gpu/score_all"),
        &mut oracle,
    );
    let cards_m = bench_with(
        BenchOpts::default(),
        &format!("{gpus}gpu/cards"),
        &mut by_cards,
    );
    let speedup = median_ratio(15, (&oracle_m, &mut oracle), (&cards_m, &mut by_cards));
    ScoringResult {
        oracle: oracle_m,
        cards: cards_m,
        speedup,
    }
}

fn sizes_from_env() -> Vec<u32> {
    match std::env::var("BENCH_SIZES") {
        Ok(list) => list
            .split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .unwrap_or_else(|_| panic!("BENCH_SIZES: bad size {s}"))
            })
            .collect(),
        Err(_) => vec![16, 32, 64, 1024, 10_240],
    }
}

fn main() {
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let mut by_gpus: Vec<(String, Value)> = Vec::new();
    let mut speedup_at_1024: Option<f64> = None;
    for gpus in sizes_from_env() {
        ones_bench::print_header(&format!("evolution_generation_{gpus}gpu"));
        let plan = plan_for(gpus);
        let fx = fixture(gpus, plan.jobs);
        verify_bit_identical(gpus, &fx, &plan);
        let (results, searches): (Vec<VariantResult>, Vec<EvolutionarySearch>) = VARIANTS
            .iter()
            .map(|v| run_variant(gpus, &fx, &plan, v))
            .unzip();
        let scoring = compare_scoring(gpus, &fx, &searches[0]);

        // Headline ratios: sequential vs parallel derivation per
        // generation, and the full rescore vs card scoring.
        let parallel_speedup =
            results[0].measurement.median_ns() / results[1].measurement.median_ns();
        let scoring_speedup = scoring.speedup;
        if gpus == 1024 {
            speedup_at_1024 = Some(scoring_speedup);
        }

        let mut variants: Vec<(String, Value)> = Vec::new();
        for r in &results {
            r.measurement.print();
            println!(
                "    scoring phase {:>12} per generation, cache hit rate {:.1}% \
                 (warm {:.1}%)",
                fmt_ns(r.score_ns_per_gen),
                100.0 * r.cache_hit_rate,
                100.0 * r.warm_hit_rate
            );
            variants.push((
                r.name.to_string(),
                Value::Object(vec![
                    (
                        "median_ns".to_string(),
                        serde_json::to_value(&r.measurement.median_ns()),
                    ),
                    (
                        "mean_ns".to_string(),
                        serde_json::to_value(&r.measurement.mean_ns()),
                    ),
                    (
                        "min_ns".to_string(),
                        serde_json::to_value(&r.measurement.min_ns()),
                    ),
                    (
                        "score_ns_per_gen".to_string(),
                        serde_json::to_value(&r.score_ns_per_gen),
                    ),
                    (
                        "cache_hit_rate".to_string(),
                        serde_json::to_value(&r.cache_hit_rate),
                    ),
                    (
                        "warm_hit_rate".to_string(),
                        serde_json::to_value(&r.warm_hit_rate),
                    ),
                ]),
            ));
        }
        scoring.oracle.print();
        scoring.cards.print();
        println!(
            "  {} vs {}: {parallel_speedup:.2}x per generation; cards vs full rescore: \
             {scoring_speedup:.2}x",
            VARIANTS[1].0, VARIANTS[0].0
        );
        by_gpus.push((
            gpus.to_string(),
            Value::Object(vec![
                ("jobs".to_string(), serde_json::to_value(&plan.jobs)),
                (
                    "population".to_string(),
                    serde_json::to_value(&(plan.population as u64)),
                ),
                ("variants".to_string(), Value::Object(variants)),
                (
                    "parallel_speedup".to_string(),
                    serde_json::to_value(&parallel_speedup),
                ),
                (
                    "oracle_score_ns".to_string(),
                    serde_json::to_value(&scoring.oracle.median_ns()),
                ),
                (
                    "card_score_ns".to_string(),
                    serde_json::to_value(&scoring.cards.median_ns()),
                ),
                (
                    "scoring_speedup_delta_vs_cache".to_string(),
                    serde_json::to_value(&scoring_speedup),
                ),
            ]),
        ));
    }

    let mut report_fields = vec![
        (
            "bench".to_string(),
            serde_json::to_value("evolution_generation"),
        ),
        (
            "threads".to_string(),
            serde_json::to_value(&(threads as u64)),
        ),
        ("gpus".to_string(), Value::Object(by_gpus)),
    ];
    if let Some(speedup) = speedup_at_1024 {
        report_fields.push((
            "scoring_speedup_1024_delta_vs_cache".to_string(),
            serde_json::to_value(&speedup),
        ));
    }
    let report = Value::Object(report_fields);
    let path = std::env::var("BENCH_JSON").unwrap_or_else(|_| "BENCH_evolution.json".to_string());
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&report).expect("serialisable"),
    )
    .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("\nresults written to {path}");

    // Regression gate: scripts/ci.sh passes the floor derived from the
    // committed baseline JSON.
    if let Ok(floor) = std::env::var("BENCH_MIN_SCORING_SPEEDUP") {
        let floor: f64 = floor
            .parse()
            .unwrap_or_else(|_| panic!("BENCH_MIN_SCORING_SPEEDUP: bad value {floor}"));
        match speedup_at_1024 {
            Some(got) => {
                assert!(
                    got >= floor,
                    "scoring speedup regression at 1024 GPUs: \
                     {got:.2}x < required {floor:.2}x"
                );
                println!("scoring-speedup gate OK: {got:.2}x >= {floor:.2}x at 1024 GPUs");
            }
            None => println!("scoring-speedup gate skipped: no 1024-GPU row in BENCH_SIZES"),
        }
    }
}
