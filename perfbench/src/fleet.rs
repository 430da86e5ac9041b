//! The `fleet` workload: one sharded simulated night over ~40k phones
//! and 4k jobs, repeated, with every phone of one shard unplugging
//! offline at t = 30 s of sim time.
//!
//! Untraced nights call `FleetEngine::run` whole. Traced nights drive the
//! same night layer by layer through the public parts `FleetEngine::run`
//! is built from — `plan_shards`, `FleetAllocator::split`, one `Engine`
//! per shard on a `WorkerPool`, and the allocator's steal rounds — timing
//! each call, and must reach the same makespan, completions and steals.

use crate::host;
use crate::inputs::mix;
use crate::report::{check_fleet, Outcome};
use crate::stats::{median, Samples};
use crate::trace::{write_spans, Span};
use cwc_device::Phone;
use cwc_server::coord::{charging_cluster_keys, plan_shards, FleetAllocator, ShardPlan};
use cwc_server::engine::FailureInjection;
use cwc_server::{
    Engine, EngineConfig, EngineOutcome, FleetBuilder, FleetEngine, FleetOutcome, SegmentKind,
    ShardConfig, WorkerPool, WorkloadBuilder,
};
use cwc_types::{CwcError, CwcResult, JobId, JobSpec, Micros, PhoneId};
use std::collections::BTreeMap;
use std::time::Instant;

/// Houses of six phones each: 40,002 phones.
const HOUSES: usize = 6_667;
/// Jobs per night, two thirds breakable.
const JOBS: usize = 4_000;
/// More shards than any pool this host runs, so the pool must balance.
const SHARDS: usize = 16;
/// The shard whose phones all unplug.
const KILLED_SHARD: usize = 1;
/// When they unplug, sim seconds.
const UNPLUG_AT_S: u64 = 30;
/// Sim-time figures are medians over this many leading nights.
const SIM_NIGHTS: usize = 5;

/// One night's inputs.
struct Night {
    fleet: Vec<Phone>,
    jobs: Vec<JobSpec>,
    keys: Vec<u64>,
    injections: Vec<FailureInjection>,
    cfg: ShardConfig,
}

fn build(seed: u64) -> Night {
    let fleet = FleetBuilder::new(seed).houses(HOUSES).build();
    let breakable = JOBS * 2 / 3;
    let jobs = WorkloadBuilder::new(seed)
        .breakable(breakable, "primecount", 30, 200, 2_000)
        .atomic(JOBS - breakable, "photoblur", 40, 100, 800)
        .build();
    // The keys `FleetEngine::new` derives when no site topology is given.
    let keys = charging_cluster_keys(&vec![0u64; fleet.len()], None);
    let plan = plan_shards(&keys, SHARDS);
    let injections = plan
        .members
        .get(KILLED_SHARD)
        .map(|m| {
            m.iter()
                .map(|&i| FailureInjection {
                    at: Micros::from_secs(UNPLUG_AT_S),
                    phone: fleet[i].id(),
                    offline: true,
                    replug_at: None,
                })
                .collect()
        })
        .unwrap_or_default();
    let cfg = ShardConfig {
        shards: SHARDS,
        threads: host::nproc(),
        seed,
        ..ShardConfig::default()
    };
    Night {
        fleet,
        jobs,
        keys,
        injections,
        cfg,
    }
}

/// Capacity weight per shard: Σ clock × cores, as `FleetEngine` weighs.
fn shard_weights(fleet: &[Phone], plan: &ShardPlan) -> Vec<f64> {
    plan.members
        .iter()
        .map(|m| {
            m.iter()
                .map(|&i| {
                    let cpu = &fleet[i].spec().cpu.spec;
                    f64::from(cpu.clock_mhz) * f64::from(cpu.cores)
                })
                .sum()
        })
        .collect()
}

/// What one untraced night measured.
struct Measured {
    setup_s: f64,
    wall_s: f64,
    cpu_us: f64,
    chunks: f64,
    payload_mb: f64,
    turnaround_us: Vec<f64>,
    first_chunk_ms: Vec<f64>,
    killed: usize,
    peak_rss_mb: f64,
    out: FleetOutcome,
}

/// Per-job sim turnaround (completion time) and, per phone that got
/// work, the sim time its first chunk started executing (its input had
/// arrived). A job whose slices did not all finish in the initial epoch
/// completed in a steal round, whose per-job times `FleetOutcome` does
/// not carry; it is counted at the fleet makespan, when the last round
/// ended.
fn job_times(night: &Night, out: &FleetOutcome) -> CwcResult<(Vec<f64>, Vec<f64>)> {
    let plan = plan_shards(&night.keys, SHARDS);
    let split = FleetAllocator::split(&night.jobs, &shard_weights(&night.fleet, &plan))?;
    let mut done: BTreeMap<JobId, Option<Micros>> = BTreeMap::new();
    let mut first: BTreeMap<PhoneId, Micros> = BTreeMap::new();
    for (s, sh) in out.per_shard.iter().enumerate() {
        let completed = sh.outcome.as_ref().map(|o| &o.completed_at);
        for slice in split.per_shard.get(s).into_iter().flatten() {
            let at = completed.and_then(|c| c.get(&slice.id)).copied();
            let e = done.entry(slice.id).or_insert(Some(Micros::ZERO));
            *e = match (*e, at) {
                (Some(a), Some(b)) => Some(a.max(b)),
                _ => None,
            };
        }
        for seg in sh.outcome.iter().flat_map(|o| &o.segments) {
            if seg.kind == SegmentKind::Execute {
                let e = first.entry(seg.phone).or_insert(seg.start);
                *e = (*e).min(seg.start);
            }
        }
    }
    let turnaround = done
        .values()
        .map(|at| at.unwrap_or(out.makespan).0 as f64)
        .collect();
    let first_ms = first.values().map(|at| at.0 as f64 / 1e3).collect();
    Ok((turnaround, first_ms))
}

fn untraced_night(seed: u64) -> CwcResult<Measured> {
    host::reset_peak_rss();
    let started = Instant::now();
    let night = build(seed);
    let engine = FleetEngine::new(
        night.fleet.clone(),
        night.jobs.clone(),
        night.injections.clone(),
        night.cfg.clone(),
    )?;
    let setup_s = started.elapsed().as_secs_f64();
    let cpu_before = host::process_cpu();
    let started = Instant::now();
    let out = engine.run()?;
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_us = host::process_cpu().since(&cpu_before).total_us();
    let credited: usize = out
        .per_shard
        .iter()
        .filter_map(|s| s.outcome.as_ref())
        .map(|o| o.partitions_per_job.values().sum::<usize>())
        .sum();
    let payload_kb: u64 = night.jobs.iter().map(|j| j.input_kb.0).sum();
    let peak_rss_mb = host::peak_rss_mb();
    let (turnaround_us, first_chunk_ms) = job_times(&night, &out)?;
    Ok(Measured {
        setup_s,
        wall_s,
        cpu_us,
        chunks: (credited as u64 + out.stolen_chunks) as f64,
        payload_mb: payload_kb as f64 * 1024.0 / 1e6,
        turnaround_us,
        first_chunk_ms,
        killed: night.injections.len(),
        peak_rss_mb,
        out,
    })
}

/// What one traced, layer-by-layer night measured.
#[derive(Debug, Default)]
struct Layers {
    wall_s: f64,
    plan_ms: f64,
    split_ms: f64,
    split_jobs: f64,
    stolen_chunks: f64,
    steal_rounds: f64,
    run_ms_max: f64,
    run_ms_sum: f64,
    pool_steals: f64,
    pool_busy_ms: f64,
    pool_capacity_ms: f64,
    events: f64,
    reschedule_rounds: f64,
    rescheduled_items: f64,
    schedule_passes: f64,
    schedule_us: f64,
    pack_calls: f64,
    binsearch_iters: f64,
    warm_hits: f64,
    makespan: Micros,
    completed: usize,
}

type ShardInput = Option<(Vec<Phone>, Vec<JobSpec>, Vec<FailureInjection>)>;

/// Runs one epoch's shard engines on the pool, timing each.
fn epoch(
    pool: &WorkerPool,
    inputs: Vec<ShardInput>,
    l: &mut Layers,
    spans: &mut Vec<Span>,
) -> CwcResult<Vec<Option<EngineOutcome>>> {
    let tasks: Vec<_> = inputs
        .into_iter()
        .map(|input| {
            move || -> CwcResult<Option<(EngineOutcome, cwc_obs::Obs, Span)>> {
                let Some((fleet, jobs, injections)) = input else {
                    return Ok(None);
                };
                let obs = cwc_obs::Obs::new();
                let cfg = EngineConfig {
                    trace_enabled: true,
                    obs: obs.clone(),
                    ..EngineConfig::default()
                };
                let started = Instant::now();
                let out = Engine::new(fleet, jobs, injections, cfg)?.run()?;
                Ok(Some((out, obs, Span::new("shard.engine_run", 0, started))))
            }
        })
        .collect();
    let started = Instant::now();
    let (results, stats) = pool.run(tasks);
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    l.pool_steals += stats.steals as f64;
    l.pool_capacity_ms += wall_ms * pool.threads() as f64;
    let mut outs = Vec::with_capacity(results.len());
    let mut epoch_max = 0.0f64;
    for r in results {
        let Some((out, obs, span)) = r? else {
            outs.push(None);
            continue;
        };
        let ms = span.dur_ns as f64 / 1e6;
        spans.push(span);
        epoch_max = epoch_max.max(ms);
        l.run_ms_sum += ms;
        l.pool_busy_ms += ms;
        l.events += out.trace.len() as f64;
        l.rescheduled_items += out.rescheduled_items as f64;
        let m = &obs.metrics;
        l.reschedule_rounds += m.counter_value("engine.reschedule_rounds") as f64;
        let sched = m.histogram("span.schedule_us");
        l.schedule_passes += sched.count() as f64;
        l.schedule_us += sched.sum();
        l.pack_calls += m.counter_value("sched.greedy.pack_calls") as f64;
        l.binsearch_iters += m.counter_value("sched.greedy.binsearch_iters") as f64;
        l.warm_hits += m.counter_value("sched.greedy.warm_hits") as f64;
        outs.push(Some(out));
    }
    if l.run_ms_max == 0.0 {
        l.run_ms_max = epoch_max;
    }
    Ok(outs)
}

/// One night, layer by layer: the steps of `FleetEngine::run` as
/// separate timed calls.
fn traced_night(seed: u64, spans: &mut Vec<Span>) -> CwcResult<Layers> {
    let night = build(seed);
    let mut l = Layers::default();
    let started = Instant::now();

    let t = Instant::now();
    let plan = plan_shards(&night.keys, SHARDS);
    spans.push(Span::new("fleet.plan_shards", 0, t));
    l.plan_ms = t.elapsed().as_secs_f64() * 1e3;
    let weights = shard_weights(&night.fleet, &plan);
    let t = Instant::now();
    let split = FleetAllocator::split(&night.jobs, &weights)?;
    spans.push(Span::new("fleet.split", 0, t));
    l.split_ms = t.elapsed().as_secs_f64() * 1e3;
    l.split_jobs = split.split_jobs() as f64;

    let shards = plan.members.len();
    let shard_fleets: Vec<Vec<Phone>> = plan
        .members
        .iter()
        .map(|m| m.iter().map(|&i| night.fleet[i].clone()).collect())
        .collect();
    let mut shard_injections: Vec<Vec<FailureInjection>> = vec![Vec::new(); shards];
    let index: BTreeMap<_, usize> = night
        .fleet
        .iter()
        .enumerate()
        .map(|(i, p)| (p.id(), i))
        .collect();
    for inj in &night.injections {
        if let Some(s) = index.get(&inj.phone).and_then(|&i| plan.shard_of(i)) {
            shard_injections[s].push(*inj);
        }
    }
    let pool = WorkerPool::new(night.cfg.threads);
    let mut allocator = FleetAllocator::new(&night.jobs);

    let inputs: Vec<ShardInput> = (0..shards)
        .map(|s| {
            (!shard_fleets[s].is_empty() && !split.per_shard[s].is_empty()).then(|| {
                (
                    shard_fleets[s].clone(),
                    split.per_shard[s].clone(),
                    shard_injections[s].clone(),
                )
            })
        })
        .collect();
    let outs = epoch(&pool, inputs, &mut l, spans)?;
    let mut makespan = Micros::ZERO;
    let mut survivors = Vec::new();
    for (s, out) in outs.iter().enumerate() {
        match out {
            Some(o) => {
                allocator.record_shard(
                    s,
                    &split.per_shard[s],
                    &o.completed_at,
                    o.fleet_loss.as_ref(),
                );
                if o.fleet_loss.is_none() {
                    allocator.note_lost_workers(s, o.workers_lost, o.quarantined_workers);
                }
                makespan = makespan.max(o.makespan);
                if o.workers_lost < shard_fleets[s].len() {
                    survivors.push(s);
                }
            }
            None if !shard_fleets[s].is_empty() => survivors.push(s),
            None => {}
        }
    }
    for _ in 0..night.cfg.steal_rounds {
        if !allocator.has_pending() || survivors.is_empty() {
            break;
        }
        let residuals = allocator.residual_batch();
        let round_weights: Vec<f64> = (0..shards)
            .map(|s| {
                if survivors.contains(&s) {
                    weights[s]
                } else {
                    0.0
                }
            })
            .collect();
        let t = Instant::now();
        let round = FleetAllocator::split(&residuals, &round_weights)?;
        spans.push(Span::new("fleet.split", 0, t));
        let inputs: Vec<ShardInput> = (0..shards)
            .map(|s| {
                (!round.per_shard[s].is_empty()).then(|| {
                    (
                        shard_fleets[s].clone(),
                        round.per_shard[s].clone(),
                        Vec::new(),
                    )
                })
            })
            .collect();
        let outs = epoch(&pool, inputs, &mut l, spans)?;
        let mut epoch_span = Micros::ZERO;
        let mut next = Vec::new();
        for (s, out) in outs.iter().enumerate() {
            match out {
                Some(o) => {
                    allocator.record_shard(
                        s,
                        &round.per_shard[s],
                        &o.completed_at,
                        o.fleet_loss.as_ref(),
                    );
                    if o.fleet_loss.is_none() {
                        allocator.note_lost_workers(s, o.workers_lost, o.quarantined_workers);
                    }
                    epoch_span = epoch_span.max(o.makespan);
                    if o.workers_lost < shard_fleets[s].len() {
                        next.push(s);
                    }
                }
                None if survivors.contains(&s) => next.push(s),
                None => {}
            }
        }
        makespan = Micros(makespan.0 + epoch_span.0);
        survivors = next;
    }
    l.wall_s = started.elapsed().as_secs_f64();
    l.stolen_chunks = allocator.stolen_chunks() as f64;
    l.steal_rounds = f64::from(allocator.steal_rounds());
    l.makespan = makespan;
    l.completed = allocator.completed_jobs();
    Ok(l)
}

/// The inputs of night `i` of a run: a distinct instance per night, so
/// a run's medians do not hang on one draw of fleet and batch.
fn night_seed(seed: u64, i: usize) -> u64 {
    mix(seed, i as u64)
}

/// Runs `fleet` nights for `seconds` (both halves of it when traced:
/// untraced first, for the overhead ratio and the equivalence check)
/// and reports the end-to-end figures over the nights.
pub fn run(seed: u64, seconds: f64, traced: bool) -> CwcResult<Outcome> {
    let mut o = Outcome::default();
    let window = if traced { seconds / 2.0 } else { seconds };
    let mut nights: Vec<Measured> = Vec::new();
    let started = Instant::now();
    // At least SIM_NIGHTS nights however slow the host or the code, so
    // the sim-time figures always cover the same instances.
    while nights.len() < SIM_NIGHTS || started.elapsed().as_secs_f64() < window {
        nights.push(untraced_night(night_seed(seed, nights.len()))?);
    }
    for (i, n) in nights.iter().enumerate() {
        o.attempted += n.out.total_jobs as u64;
        o.failed += n.out.total_jobs.saturating_sub(n.out.completed_jobs) as u64;
        if let Err(e) = check_fleet(n.out.completed_jobs, n.out.total_jobs) {
            o.problems.push(format!("night {i}: {e}"));
        }
    }
    let med = |f: &dyn Fn(&Measured) -> f64| median(&nights.iter().map(f).collect::<Vec<_>>());
    // Sim-time figures come from the first nights only, which every run
    // of a seed reaches, so they repeat exactly from run to run.
    let sim = &nights[..SIM_NIGHTS];
    let sim_med = |f: &dyn Fn(&Measured) -> f64| median(&sim.iter().map(f).collect::<Vec<_>>());
    let sum = |f: &dyn Fn(&Measured) -> f64| nights.iter().map(f).sum::<f64>();
    // Wall-clock figures are pooled over the nights, not medianed: which
    // pool thread ends up with the last shard splits night walls into two
    // clusters, and a median flips between them from run to run.
    let untraced_wall = sum(&|n| n.wall_s) / nights.len() as f64;
    let pct = |v: &[f64], p: f64| Samples::new(v.to_vec()).percentile(p).unwrap_or(0.0);
    o.note("nights", serde_json::json!(nights.len()));
    o.note("phones", serde_json::json!(HOUSES * 6));
    o.note("jobs", serde_json::json!(JOBS));
    o.note("shards", serde_json::json!(SHARDS));
    o.note("pool_threads", serde_json::json!(host::nproc()));
    o.note("killed_phones", serde_json::json!(nights[0].killed));
    o.note(
        "turnaround_sim_us",
        Samples::new(nights[0].turnaround_us.clone()).summary(),
    );
    o.note(
        "first_chunk_sim_ms",
        Samples::new(nights[0].first_chunk_ms.clone()).summary(),
    );
    o.note(
        "walls_s",
        serde_json::to_value(&nights.iter().map(|n| n.wall_s).collect::<Vec<_>>()),
    );
    o.note(
        "makespans_s",
        serde_json::to_value(
            &nights
                .iter()
                .map(|n| n.out.makespan.0 as f64 / 1e6)
                .collect::<Vec<_>>(),
        ),
    );

    if traced {
        let mut spans = Vec::new();
        let mut layers: Vec<Layers> = Vec::new();
        let started = Instant::now();
        while layers.is_empty() || started.elapsed().as_secs_f64() < window {
            let i = layers.len();
            let l = traced_night(night_seed(seed, i), &mut spans)?;
            if let Some(n) = nights.get(i) {
                let traced = (l.makespan, l.completed, l.stolen_chunks as u64);
                let whole = (n.out.makespan, n.out.completed_jobs, n.out.stolen_chunks);
                if traced != whole {
                    o.problems.push(format!(
                        "night {i}: layer by layer reached (makespan, completed, stolen) \
                         {traced:?}, FleetEngine::run {whole:?}"
                    ));
                }
            }
            layers.push(l);
        }
        let med = |f: fn(&Layers) -> f64| median(&layers.iter().map(f).collect::<Vec<_>>());
        let passes = med(|l| l.schedule_passes).max(1.0);
        o.set("fleet.plan_ms", med(|l| l.plan_ms));
        o.set("fleet.split_ms", med(|l| l.split_ms));
        o.set("fleet.split_jobs", med(|l| l.split_jobs));
        o.set("fleet.stolen_chunks", med(|l| l.stolen_chunks));
        o.set("fleet.steal_rounds", med(|l| l.steal_rounds));
        o.set("shard.run_ms_max", med(|l| l.run_ms_max));
        o.set("shard.run_ms_sum", med(|l| l.run_ms_sum));
        o.set("pool.steals", med(|l| l.pool_steals));
        o.set(
            "pool.busy_ratio",
            med(|l| l.pool_busy_ms / l.pool_capacity_ms),
        );
        o.set("engine.events", med(|l| l.events));
        o.set(
            "engine.events_per_s",
            med(|l| l.events / (l.run_ms_sum / 1e3)),
        );
        o.set("engine.reschedule_rounds", med(|l| l.reschedule_rounds));
        o.set("engine.rescheduled_items", med(|l| l.rescheduled_items));
        o.set("greedy.schedule_ms", med(|l| l.schedule_us) / passes / 1e3);
        o.set("greedy.pack_calls", med(|l| l.pack_calls) / passes);
        o.set(
            "greedy.binsearch_iters",
            med(|l| l.binsearch_iters) / passes,
        );
        o.set("greedy.warm_hits", med(|l| l.warm_hits) / passes);
        // Cost of tracing, as a slowdown: traced over untraced wall of the
        // same nights.
        let paired = layers.len().min(nights.len());
        let traced_wall: f64 = layers[..paired].iter().map(|l| l.wall_s).sum();
        let plain_wall: f64 = nights[..paired].iter().map(|n| n.wall_s).sum();
        o.set("trace.overhead_ratio", traced_wall / plain_wall);
        o.note("trace.untraced_wall_s", serde_json::json!(untraced_wall));
        let path = write_spans(&format!("spans-fleet-seed{seed}.jsonl"), &spans)
            .map_err(|e| CwcError::Config(format!("writing spans: {e}")))?;
        o.note(
            "spans",
            serde_json::json!({"file": path, "count": spans.len()}),
        );
        return Ok(o);
    }

    o.set("setup_s", med(&|n| n.setup_s));
    o.set("chunks_per_s", sum(&|n| n.chunks) / sum(&|n| n.wall_s));
    o.set(
        "payload_mb_per_s",
        sum(&|n| n.payload_mb) / sum(&|n| n.wall_s),
    );
    o.set(
        "turnaround_us_p50",
        sim_med(&|n| pct(&n.turnaround_us, 50.0)),
    );
    o.set(
        "turnaround_us_p99",
        sim_med(&|n| pct(&n.turnaround_us, 99.0)),
    );
    o.set(
        "first_chunk_ms_p50",
        sim_med(&|n| pct(&n.first_chunk_ms, 50.0)),
    );
    o.set(
        "coord_cpu_us_per_chunk",
        sum(&|n| n.cpu_us) / sum(&|n| n.chunks),
    );
    o.set(
        "ops_ok_ratio",
        (o.attempted - o.failed) as f64 / o.attempted.max(1) as f64,
    );
    o.set("peak_rss_mb", med(&|n| n.peak_rss_mb));
    o.set("night_wall_s", untraced_wall);
    o.set("makespan_s", sim_med(&|n| n.out.makespan.0 as f64 / 1e6));
    Ok(o)
}
