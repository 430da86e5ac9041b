//! The live workloads, `chatter` and `bulk`: back-to-back nights served
//! by the real coordinator, `cwc_server::run_live_server_with`, over
//! loopback sockets to the fleet child.
//!
//! Runs measure whole cycles of nights (a cycle is the fixed `chatter`
//! size mix, or one `bulk` stratum sweep), so every run weighs night
//! sizes the same way whatever its length.

use crate::child::chunk_id;
use crate::host::{self, CpuSample};
use crate::inputs::{
    bulk_cycle_nights, bulk_probe_nights, chatter_night, digest, job_key, mix, oversize, records,
    NightPlan, CHATTER_NIGHTS,
};
use crate::report::{check_job, Outcome, Verdict, CODEC_FRAMES, EVENT_KINDS};
use crate::stats::{median, Samples};
use crate::trace::{write_spans, Span};
use cwc_core::SchedulerKind;
use cwc_server::coord::{script, Kernel};
use cwc_server::{live_kernel_config, run_live_server_with, CoordEvent, LiveJob, LivePolicy};
use cwc_types::{CwcError, CwcResult, JobId, JobKind};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which live workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Live {
    /// Many tiny jobs: every frame is an event.
    Chatter,
    /// A few large partitions: bytes dominate.
    Bulk,
}

impl Live {
    fn name(self) -> &'static str {
        match self {
            Live::Chatter => "chatter",
            Live::Bulk => "bulk",
        }
    }

    fn cycle(self, seed: u64, cycle: u64, phones: usize) -> Vec<NightPlan> {
        match self {
            Live::Chatter => {
                let per = CHATTER_NIGHTS.len() as u64;
                (0..per)
                    .map(|i| chatter_night(seed, cycle * per + i, phones))
                    .collect()
            }
            Live::Bulk => bulk_cycle_nights(seed, cycle, phones),
        }
    }
}

/// Executable size the kernel charges per job, KB.
const EXE_KB: u64 = 25;

/// Night number of the first probe night: far past any measured night,
/// so the probe's inputs depend on the seed alone.
const PROBE_NIGHT: u64 = 1 << 20;

/// Safety net for one night.
const NIGHT_DEADLINE: Duration = Duration::from_secs(60);

/// The fleet child process; killed and reaped if dropped early.
struct FleetChild {
    child: Option<Child>,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl FleetChild {
    /// Starts the child, which pins itself to `cpus` (all it may use if
    /// empty).
    fn spawn(workload: &str, seed: u64, cpus: &[usize]) -> CwcResult<Self> {
        let exe = std::env::current_exe()
            .map_err(|e| CwcError::Config(format!("cannot locate own binary: {e}")))?;
        let cpus: Vec<String> = cpus.iter().map(usize::to_string).collect();
        let mut child = Command::new(exe)
            .args(["child", "--workload", workload, "--seed", &seed.to_string()])
            .args(["--cpus", &cpus.join(",")])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| CwcError::Config(format!("cannot spawn fleet child: {e}")))?;
        let stdin = child.stdin.take();
        let stdout = child
            .stdout
            .take()
            .ok_or_else(|| CwcError::Config("fleet child has no stdout".into()))?;
        Ok(FleetChild {
            child: Some(child),
            stdin,
            stdout: BufReader::new(stdout),
        })
    }

    fn command(&mut self, line: &str) -> CwcResult<()> {
        let stdin = self
            .stdin
            .as_mut()
            .ok_or_else(|| CwcError::Transport("fleet child stdin closed".into()))?;
        writeln!(stdin, "{line}")
            .and_then(|()| stdin.flush())
            .map_err(|e| CwcError::Transport(format!("fleet child stdin: {e}")))
    }

    fn report(&mut self) -> CwcResult<serde_json::Value> {
        let mut line = String::new();
        let n = self
            .stdout
            .read_line(&mut line)
            .map_err(|e| CwcError::Transport(format!("fleet child stdout: {e}")))?;
        if n == 0 {
            return Err(CwcError::Transport("fleet child exited mid-run".into()));
        }
        serde_json::from_str(line.trim())
            .map_err(|e| CwcError::Transport(format!("fleet child report: {e}")))
    }

    /// Closes stdin and waits for a clean exit.
    fn finish(mut self) -> CwcResult<()> {
        drop(self.stdin.take());
        let status = self
            .child
            .take()
            .map(|mut c| c.wait())
            .transpose()
            .map_err(|e| CwcError::Transport(format!("fleet child: {e}")))?;
        match status {
            Some(s) if !s.success() => {
                Err(CwcError::Transport(format!("fleet child exited with {s}")))
            }
            _ => Ok(()),
        }
    }
}

impl Drop for FleetChild {
    fn drop(&mut self) {
        drop(self.stdin.take());
        if let Some(mut c) = self.child.take() {
            // Best effort: the child may already have exited.
            // cwc-lint: allow(error_swallowing)
            c.kill().ok();
            // cwc-lint: allow(error_swallowing)
            c.wait().ok();
        }
    }
}

fn get<'v>(v: &'v serde_json::Value, key: &str) -> Option<&'v serde_json::Value> {
    v.as_object().and_then(|m| m.get(key))
}

fn num(v: &serde_json::Value, key: &str) -> f64 {
    get(v, key).and_then(|x| x.as_f64()).unwrap_or(0.0)
}

fn nums(v: &serde_json::Value, key: &str) -> Vec<f64> {
    get(v, key)
        .and_then(|x| x.as_array())
        .map(|a| a.iter().filter_map(|x| x.as_f64()).collect())
        .unwrap_or_default()
}

/// Name of a kernel event kind, as in [`EVENT_KINDS`].
fn event_kind(ev: &CoordEvent) -> &'static str {
    match ev {
        CoordEvent::Probe { .. } => "probe",
        CoordEvent::Start => "start",
        CoordEvent::ReportOk { .. } => "report_ok",
        CoordEvent::ReportFailed { .. } => "report_failed",
        CoordEvent::KeepAliveSeen { .. } => "keep_alive_seen",
        CoordEvent::WentDark { .. } => "went_dark",
        CoordEvent::ConnectionLost { .. } => "connection_lost",
        CoordEvent::Misbehaved { .. } => "misbehaved",
        CoordEvent::Replugged { .. } => "replugged",
        CoordEvent::TimerFired { .. } => "timer_fired",
    }
}

/// Everything a window of nights accumulated.
#[derive(Debug, Default)]
struct Totals {
    nights: u64,
    wall_s: f64,
    makespan_s: f64,
    night_setup_s: Vec<f64>,
    peak_rss_mb: Vec<f64>,
    credited: u64,
    payload_bytes: u64,
    turnaround_us: Vec<f64>,
    first_chunk_us: Vec<f64>,
    coord_cpu: CpuSample,
    attempted: u64,
    failed: u64,
    // Coordinator obs.
    loop_iters: u64,
    loop_busy_us: f64,
    live_setup_ms: Vec<f64>,
    retries: u64,
    stalled: u64,
    dup_reports: u64,
    keepalives: u64,
    schedule_passes: u64,
    schedule_us: f64,
    pack_calls: u64,
    binsearch_iters: u64,
    warm_hits: u64,
    // Fleet child.
    child_chunks: f64,
    exec_ns: f64,
    wait_ns: f64,
    fill_ns: f64,
    flush_ns: f64,
    encode: BTreeMap<String, (f64, f64)>,
    decode: BTreeMap<String, (f64, f64)>,
    wire_bytes: f64,
    // Kernel replay.
    step_ns: BTreeMap<&'static str, Vec<f64>>,
    events: u64,
    commands: u64,
    spans: Vec<Span>,
    input_digest: Option<u64>,
    /// The totals at every cycle boundary, in run order.
    marks: Vec<Mark>,
}

/// Where the totals stood at a cycle boundary.
#[derive(Debug, Clone)]
struct Mark {
    wall_s: f64,
    makespan_s: f64,
    nights: u64,
    credited: u64,
    payload_bytes: u64,
    cpu_us: f64,
    turnaround: usize,
    first_chunk: usize,
}

impl Mark {
    fn of(t: &Totals) -> Self {
        Mark {
            wall_s: t.wall_s,
            makespan_s: t.makespan_s,
            nights: t.nights,
            credited: t.credited,
            payload_bytes: t.payload_bytes,
            cpu_us: t.coord_cpu.total_us(),
            turnaround: t.turnaround_us.len(),
            first_chunk: t.first_chunk_us.len(),
        }
    }

    /// The end-to-end figures of the cycles between this mark and `end`.
    fn metrics_until(&self, end: &Mark, t: &Totals) -> BTreeMap<&'static str, f64> {
        let wall = end.wall_s - self.wall_s;
        let nights = (end.nights - self.nights).max(1) as f64;
        let chunks = (end.credited - self.credited).max(1) as f64;
        let turnaround = Samples::new(t.turnaround_us[self.turnaround..end.turnaround].to_vec());
        let first = Samples::new(t.first_chunk_us[self.first_chunk..end.first_chunk].to_vec());
        BTreeMap::from([
            ("chunks_per_s", chunks / wall),
            (
                "payload_mb_per_s",
                (end.payload_bytes - self.payload_bytes) as f64 / 1e6 / wall,
            ),
            (
                "turnaround_us_p50",
                turnaround.percentile(50.0).unwrap_or(0.0),
            ),
            (
                "turnaround_us_p99",
                turnaround.percentile(99.0).unwrap_or(0.0),
            ),
            (
                "first_chunk_ms_p50",
                first.percentile(50.0).unwrap_or(0.0) / 1e3,
            ),
            (
                "coord_cpu_us_per_chunk",
                (end.cpu_us - self.cpu_us) / chunks,
            ),
            ("night_wall_s", wall / nights),
            ("makespan_s", (end.makespan_s - self.makespan_s) / nights),
        ])
    }
}

/// A block holds whole cycles and at least this many turnaround
/// samples, so its p99 has ten samples beyond it.
const BLOCK_SAMPLES: usize = 1_000;

/// Splits the run at cycle boundaries into blocks of at least
/// [`BLOCK_SAMPLES`] turnaround samples (a short tail joins the last
/// block) and returns each block's end-to-end figures.
fn blocks(t: &Totals) -> Vec<BTreeMap<&'static str, f64>> {
    let Some(first) = t.marks.first() else {
        return Vec::new();
    };
    let mut bounds = vec![first];
    for m in &t.marks[1..] {
        if m.turnaround - bounds[bounds.len() - 1].turnaround >= BLOCK_SAMPLES {
            bounds.push(m);
        }
    }
    if let (Some(last), Some(&end)) = (t.marks.last(), bounds.last()) {
        if !std::ptr::eq(last, end) {
            // The tail is short: fold it into the last full block.
            if bounds.len() > 1 {
                bounds.pop();
            }
            bounds.push(last);
        }
    }
    bounds
        .windows(2)
        .map(|w| w[0].metrics_until(w[1], t))
        .collect()
}

impl Totals {
    fn chunks_per_s(&self) -> f64 {
        self.credited as f64 / self.wall_s
    }

    fn absorb_child(&mut self, r: &serde_json::Value) {
        self.turnaround_us.extend(nums(r, "turnaround_us"));
        // One sample per night, the mean over its phones: the coordinator
        // ships to one phone before the next, so on `bulk` the phones'
        // times form one cluster per phone, and a median pooled over
        // phones would fall in the gap between clusters.
        let first = nums(r, "first_chunk_us");
        if !first.is_empty() {
            self.first_chunk_us
                .push(first.iter().sum::<f64>() / first.len() as f64);
        }
        self.payload_bytes += num(r, "payload_bytes") as u64;
        self.child_chunks += num(r, "chunks");
        self.exec_ns += num(r, "exec_ns");
        self.wait_ns += num(r, "wait_ns");
        self.fill_ns += num(r, "fill_ns");
        self.flush_ns += num(r, "flush_ns");
        self.wire_bytes += num(r, "wire_bytes");
        for (key, into) in [("encode", &mut self.encode), ("decode", &mut self.decode)] {
            let Some(map) = get(r, key).and_then(|m| m.as_object()) else {
                continue;
            };
            for (frame, pair) in map {
                let v = pair.as_array().cloned().unwrap_or_default();
                let e = into.entry(frame.clone()).or_insert((0.0, 0.0));
                e.0 += v.first().and_then(|x| x.as_f64()).unwrap_or(0.0);
                e.1 += v.get(1).and_then(|x| x.as_f64()).unwrap_or(0.0);
            }
        }
    }

    fn absorb_obs(&mut self, obs: &cwc_obs::Obs) {
        let m = &obs.metrics;
        let loop_hist = m.histogram("live.loop_iter_us");
        self.loop_iters += loop_hist.count();
        self.loop_busy_us += loop_hist.sum();
        if let Some(ms) = m.gauge_value("live.setup_ms") {
            self.live_setup_ms.push(ms);
        }
        self.retries += m.counter_value("live.retries");
        self.stalled += m.counter_value("live.stalled");
        self.dup_reports += m.counter_value("live.dup_reports");
        self.keepalives += m.counter_value("live.keepalive_sent");
        let sched = m.histogram("span.schedule_us");
        self.schedule_passes += sched.count();
        self.schedule_us += sched.sum();
        self.pack_calls += m.counter_value("sched.greedy.pack_calls");
        self.binsearch_iters += m.counter_value("sched.greedy.binsearch_iters");
        self.warm_hits += m.counter_value("sched.greedy.warm_hits");
    }
}

/// One live benchmark run.
struct Bench {
    workload: Live,
    seed: u64,
    phones: usize,
    child: FleetChild,
    next_cycle: u64,
    next_night: u64,
    problems: Vec<String>,
    failures: Vec<String>,
}

impl Bench {
    /// Builds, serves and checks one night.
    fn night(&mut self, plan: &NightPlan, traced: bool, t: &mut Totals) -> CwcResult<()> {
        let night = self.next_night;
        self.next_night += 1;
        let registry = cwc_tasks::standard_registry();
        let program = registry.load("wordcount")?;

        host::reset_peak_rss();
        let gen_started = Instant::now();
        let jobs: Vec<LiveJob> = plan
            .jobs
            .iter()
            .map(|j| {
                let input = records(job_key(self.seed, night, j.id), 0, j.kb);
                let kind = if j.atomic {
                    JobKind::Atomic
                } else {
                    JobKind::Breakable
                };
                LiveJob::new(JobId(j.id), kind, "wordcount", EXE_KB, input)
            })
            .collect();
        let gen_s = gen_started.elapsed().as_secs_f64();
        // The checker's reference aggregates: the benchmark's work, not
        // the program's, so outside the set-up time.
        let mut expected = Vec::with_capacity(jobs.len());
        for j in &jobs {
            let mut state = program.new_state();
            state.process_chunk(&j.input)?;
            expected.push(program.aggregate(&[state.partial_result()])?);
        }
        let specs: Vec<LiveJob> = jobs
            .iter()
            .map(|j| LiveJob {
                spec: j.spec.clone(),
                input: Vec::new(),
            })
            .collect();
        if night == 0 {
            let digest = jobs
                .iter()
                .fold(0u64, |h, j| mix(h, digest(&j.input) ^ j.spec.input_kb.0));
            t.input_digest = Some(digest);
        }

        let listener = TcpListener::bind("127.0.0.1:0")
            .map_err(|e| CwcError::Transport(format!("bind: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| CwcError::Transport(format!("local_addr: {e}")))?;
        self.child.command(&format!(
            "night {night} {addr} {} {}",
            plan.phones,
            u8::from(traced)
        ))?;
        let obs = cwc_obs::Obs::new();
        let sink = Arc::new(cwc_obs::MemorySink::new());
        if traced {
            obs.bus.attach(sink.clone());
        }
        let policy = LivePolicy::default();
        let cpu_before = host::thread_cpu();
        let started = Instant::now();
        let out = run_live_server_with(
            listener,
            plan.phones,
            jobs,
            registry.clone(),
            SchedulerKind::Greedy,
            NIGHT_DEADLINE,
            policy.clone(),
            &obs,
        )?;
        let wall_s = started.elapsed().as_secs_f64();
        let cpu = host::thread_cpu().since(&cpu_before);
        let child = self.child.report()?;

        // Check every job against the in-process run.
        for (j, want) in plan.jobs.iter().zip(&expected) {
            let id = JobId(j.id);
            let unprocessed = out
                .failure
                .as_ref()
                .is_some_and(|f| f.unprocessed_kb.contains_key(&id));
            t.attempted += 1;
            let got = out.results.get(&id).map(Vec::as_slice);
            match check_job(want, got, unprocessed, oversize(j.kb)) {
                Verdict::Ok => {}
                Verdict::Failed => {
                    t.failed += 1;
                    let why = out.failure.as_ref().map(|f| f.detail.clone());
                    self.failures.push(format!(
                        "night {night}: job {} ({} KB) unprocessed: {}",
                        j.id,
                        j.kb,
                        why.unwrap_or_default()
                    ));
                }
                Verdict::Wrong(why) => self
                    .problems
                    .push(format!("night {night}: job {}: {why}", j.id)),
            }
        }
        if num(&child, "bad_inputs") > 0.0 {
            self.problems.push(format!(
                "night {night}: {} shipped inputs differ from the seeded input",
                num(&child, "bad_inputs")
            ));
        }
        if num(&child, "lost") > 0.0 && out.failure.is_none() {
            self.problems.push(format!(
                "night {night}: a phone was dropped without a failure report"
            ));
        }
        let credited = obs.metrics.histogram("span.execute_ms").count();
        if (num(&child, "chunks") as u64) < credited {
            self.problems.push(format!(
                "night {night}: {credited} chunks credited but the child ran {}",
                num(&child, "chunks")
            ));
        }

        t.peak_rss_mb.push(host::peak_rss_mb());
        let live_setup_s = obs.metrics.gauge_value("live.setup_ms").unwrap_or(0.0) / 1e3;
        t.nights += 1;
        t.wall_s += wall_s;
        t.makespan_s += (wall_s - live_setup_s).max(0.0);
        t.night_setup_s.push(gen_s + live_setup_s);
        t.credited += credited;
        t.coord_cpu = t.coord_cpu.plus(&cpu);
        t.absorb_child(&child);
        t.absorb_obs(&obs);
        t.spans.push(Span::new("night", 0, started));

        if traced {
            self.replay(night, &specs, &registry, &policy, &sink, t)?;
        }
        Ok(())
    }

    /// Replays the night's recorded kernel script through a fresh,
    /// identically configured kernel, timing each step by event kind.
    fn replay(
        &self,
        night: u64,
        specs: &[LiveJob],
        registry: &cwc_device::TaskRegistry,
        policy: &LivePolicy,
        sink: &cwc_obs::MemorySink,
        t: &mut Totals,
    ) -> CwcResult<()> {
        let steps = script::harvest(&sink.take())?;
        let cfg = live_kernel_config(
            specs,
            registry,
            SchedulerKind::Greedy,
            policy,
            cwc_obs::Obs::new(),
        )?;
        let mut kernel = Kernel::new(cfg)?;
        for (now, ev) in steps {
            let kind = event_kind(&ev);
            let chunk = match &ev {
                CoordEvent::ReportOk { seq, .. } | CoordEvent::ReportFailed { seq, .. } => {
                    chunk_id(night, *seq)
                }
                _ => 0,
            };
            let started = Instant::now();
            let cmds = kernel.step(now, ev);
            let ns = started.elapsed().as_nanos() as f64;
            t.spans.push(Span::new("kernel.step", chunk, started));
            t.step_ns.entry(kind).or_default().push(ns);
            t.events += 1;
            t.commands += cmds.len() as u64;
            std::hint::black_box(cmds);
        }
        Ok(())
    }

    /// Runs the `bulk` defect probe, after the measured nights and apart
    /// from their counts: each partition above the backlog cap alone on
    /// one phone. Whether one is lost depends on how fast the socket
    /// drains, so losses are reported, not counted as failed operations;
    /// any other wrong result is still a problem. Returns the
    /// per-partition report and how many were lost.
    fn probe(&mut self) -> CwcResult<(serde_json::Value, usize)> {
        self.next_night = PROBE_NIGHT;
        let mut out = Vec::new();
        let mut lost = 0;
        for plan in bulk_probe_nights(self.seed) {
            let mut t = Totals::default();
            let before = self.failures.len();
            self.night(&plan, false, &mut t)?;
            let why: Vec<String> = self.failures.drain(before..).collect();
            lost += usize::from(t.failed > 0);
            out.push(serde_json::json!({
                "kb": plan.jobs.iter().map(|j| j.kb).sum::<u64>(),
                "lost": t.failed > 0,
                "why": why,
            }));
        }
        Ok((serde_json::Value::Array(out), lost))
    }

    /// Runs whole cycles of nights until `seconds` have passed.
    fn window(&mut self, seconds: f64, traced: bool) -> CwcResult<Totals> {
        let mut t = Totals::default();
        let started = Instant::now();
        loop {
            let plans = self.workload.cycle(self.seed, self.next_cycle, self.phones);
            self.next_cycle += 1;
            t.marks.push(Mark::of(&t));
            for plan in &plans {
                self.night(plan, traced, &mut t)?;
            }
            if started.elapsed().as_secs_f64() >= seconds {
                t.marks.push(Mark::of(&t));
                return Ok(t);
            }
        }
    }
}

/// Runs a live workload for `seconds` (both halves of it when traced:
/// untraced first, for the overhead ratio) and returns what it measured.
pub fn run(workload: Live, seed: u64, seconds: f64, traced: bool) -> CwcResult<Outcome> {
    let phones = host::nproc().clamp(1, 8);
    // The coordinator gets the first CPU to itself and the fleet child
    // the rest, as server and phones are separate machines in a
    // deployment; left to the scheduler, where the threads land decides
    // wake-up costs and moves throughput by ±10% between runs. The child
    // is told its CPUs: it inherits this thread's pinned mask.
    let allowed = host::allowed_cpus();
    let child_cpus = match allowed.split_first() {
        Some((&first, rest)) if !rest.is_empty() && host::pin_to(&[first]) => rest.to_vec(),
        _ => Vec::new(),
    };
    let spawn_started = Instant::now();
    let child = FleetChild::spawn(workload.name(), seed, &child_cpus)?;
    let spawn_s = spawn_started.elapsed().as_secs_f64();
    let mut bench = Bench {
        workload,
        seed,
        phones,
        child,
        next_cycle: 0,
        next_night: 0,
        problems: Vec::new(),
        failures: Vec::new(),
    };
    let mut o = Outcome::default();
    if traced {
        let plain = bench.window(seconds / 2.0, false)?;
        let mut t = bench.window(seconds / 2.0, true)?;
        layer_metrics(&t, &plain, &mut o);
        let path = write_spans(
            &format!("spans-{}-seed{seed}.jsonl", workload.name()),
            &t.spans,
        )
        .map_err(|e| CwcError::Config(format!("writing spans: {e}")))?;
        o.note(
            "spans",
            serde_json::json!({"file": path, "count": t.spans.len()}),
        );
        t.spans.clear();
        finish(&mut o, &t);
    } else {
        let t = bench.window(seconds, false)?;
        end_to_end(&t, spawn_s, &mut o);
        finish(&mut o, &t);
    }
    if workload == Live::Bulk {
        let (probe, lost) = bench.probe()?;
        o.set("live.oversize_lost", lost as f64);
        o.note("oversize_probe", probe);
    }
    o.note("phones", serde_json::json!(phones));
    o.note("failures", serde_json::to_value(&bench.failures));
    o.problems.append(&mut bench.problems);
    bench.child.finish()?;
    Ok(o)
}

fn finish(o: &mut Outcome, t: &Totals) {
    o.attempted = t.attempted;
    o.failed = t.failed;
    o.note("nights", serde_json::json!(t.nights));
    if let Some(d) = t.input_digest {
        o.note(
            "first_night_input_digest",
            serde_json::json!(format!("{d:016x}")),
        );
    }
    o.note("chunks", serde_json::json!(t.credited));
    o.note(
        "turnaround_us",
        Samples::new(t.turnaround_us.clone()).summary(),
    );
    o.note(
        "first_chunk_us",
        Samples::new(t.first_chunk_us.clone()).summary(),
    );
}

/// End-to-end figures: each block's value, medianed over the run's
/// blocks, so a burst of host noise moves one block, not the result.
fn end_to_end(t: &Totals, spawn_s: f64, o: &mut Outcome) {
    o.set("setup_s", spawn_s + median(&t.night_setup_s));
    let blocks = blocks(t);
    if let Some(first) = blocks.first() {
        for name in first.keys() {
            let per_block: Vec<f64> = blocks.iter().filter_map(|b| b.get(name).copied()).collect();
            o.set(name, median(&per_block));
        }
    }
    o.note("blocks", serde_json::json!(blocks.len()));
    o.set(
        "ops_ok_ratio",
        (t.attempted - t.failed) as f64 / t.attempted.max(1) as f64,
    );
    o.set("peak_rss_mb", median(&t.peak_rss_mb));
    o.note("cycles", serde_json::json!(t.marks.len().saturating_sub(1)));
}

fn layer_metrics(t: &Totals, plain: &Totals, o: &mut Outcome) {
    let chunks = t.credited.max(1) as f64;
    let child_chunks = t.child_chunks.max(1.0);
    for f in CODEC_FRAMES {
        for (dir, map) in [("encode", &t.encode), ("decode", &t.decode)] {
            if let Some((ns, n)) = map.get(f).filter(|(_, n)| *n > 0.0) {
                o.set(&format!("protocol.{dir}_ns.{f}"), ns / n);
            }
        }
    }
    if let Some((ns, _)) = t.encode.get("ship_input") {
        o.set("protocol.encode_mb_s", t.payload_bytes as f64 / ns * 1e3);
    }
    if let Some((ns, _)) = t.decode.get("ship_input") {
        o.set("protocol.decode_mb_s", t.payload_bytes as f64 / ns * 1e3);
    }
    o.set(
        "protocol.wire_bytes_per_payload_byte",
        t.wire_bytes / t.payload_bytes.max(1) as f64,
    );
    o.set("reactor.wait_us_per_chunk", t.wait_ns / 1e3 / child_chunks);
    o.set("reactor.fill_us_per_chunk", t.fill_ns / 1e3 / child_chunks);
    o.set(
        "reactor.flush_us_per_chunk",
        t.flush_ns / 1e3 / child_chunks,
    );
    o.set(
        "coord.ctx_switches_per_chunk",
        t.coord_cpu.ctx_switches as f64 / chunks,
    );
    o.set(
        "coord.sys_cpu_share",
        t.coord_cpu.sys_us / t.coord_cpu.total_us().max(1.0),
    );
    o.set("live.loop_iters_per_chunk", t.loop_iters as f64 / chunks);
    o.set(
        "live.loop_busy_ratio",
        t.loop_busy_us / (t.makespan_s * 1e6),
    );
    o.set(
        "live.loop_iter_us_mean",
        t.loop_busy_us / t.loop_iters.max(1) as f64,
    );
    o.set("live.setup_ms", median(&t.live_setup_ms));
    o.set("live.retries", t.retries as f64);
    o.set("live.stalled", t.stalled as f64);
    o.set("live.dup_reports", t.dup_reports as f64);
    o.set("live.keepalives_per_chunk", t.keepalives as f64 / chunks);
    let mut absent_kinds = Vec::new();
    for k in EVENT_KINDS {
        let s = Samples::new(t.step_ns.get(k).cloned().unwrap_or_default());
        match (s.mean(), s.percentile(99.0)) {
            (Some(mean), Some(p99)) => {
                o.set(&format!("kernel.step_ns.{k}.mean"), mean);
                o.set(&format!("kernel.step_ns.{k}.p99"), p99);
            }
            _ => absent_kinds.push(k),
        }
        o.note(&format!("kernel.step_ns.{k}"), s.summary());
    }
    o.note(
        "kernel.absent_event_kinds",
        serde_json::to_value(&absent_kinds),
    );
    o.set("kernel.events_per_chunk", t.events as f64 / chunks);
    o.set(
        "kernel.commands_per_event",
        t.commands as f64 / t.events.max(1) as f64,
    );
    let passes = t.schedule_passes.max(1) as f64;
    o.set("greedy.schedule_ms", t.schedule_us / passes / 1e3);
    o.set("greedy.pack_calls", t.pack_calls as f64 / passes);
    o.set("greedy.binsearch_iters", t.binsearch_iters as f64 / passes);
    o.set("greedy.warm_hits", t.warm_hits as f64 / passes);
    o.set("tasks.exec_us_per_chunk", t.exec_ns / 1e3 / child_chunks);
    // Cost of tracing, as a slowdown: untraced over traced throughput.
    o.set(
        "trace.overhead_ratio",
        plain.chunks_per_s() / t.chunks_per_s(),
    );
    o.note(
        "trace.untraced_chunks_per_s",
        serde_json::json!(plain.chunks_per_s()),
    );
}
