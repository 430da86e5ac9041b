//! The metric catalogue, the output checks, and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run of every workload.
/// See README.md for each one's definition per workload.
pub const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("chunks_per_s", "1/s"),
    ("payload_mb_per_s", "MB/s"),
    ("turnaround_us_p50", "us"),
    ("turnaround_us_p99", "us"),
    ("first_chunk_ms_p50", "ms"),
    ("coord_cpu_us_per_chunk", "us"),
    ("ops_ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("night_wall_s", "s"),
    ("makespan_s", "s"),
];

/// Frame kinds whose codec cost the traced live runs report.
pub const CODEC_FRAMES: [&str; 6] = [
    "ship_input",
    "ship_executable",
    "task_complete",
    "keep_alive",
    "keep_alive_ack",
    "bandwidth_report",
];

/// `CoordEvent` kinds, as named in `kernel.step_ns.<kind>.*`.
pub const EVENT_KINDS: [&str; 10] = [
    "probe",
    "start",
    "report_ok",
    "report_failed",
    "keep_alive_seen",
    "went_dark",
    "connection_lost",
    "misbehaved",
    "replugged",
    "timer_fired",
];

/// Per-layer metrics with fixed names, printed by every traced run.
const LAYER_FIXED: [(&str, &str); 38] = [
    ("protocol.encode_mb_s", "MB/s"),
    ("protocol.decode_mb_s", "MB/s"),
    ("protocol.wire_bytes_per_payload_byte", "ratio"),
    ("reactor.wait_us_per_chunk", "us"),
    ("reactor.fill_us_per_chunk", "us"),
    ("reactor.flush_us_per_chunk", "us"),
    ("coord.ctx_switches_per_chunk", "count"),
    ("coord.sys_cpu_share", "ratio"),
    ("live.loop_iters_per_chunk", "count"),
    ("live.loop_busy_ratio", "ratio"),
    ("live.loop_iter_us_mean", "us"),
    ("live.setup_ms", "ms"),
    ("live.retries", "count"),
    ("live.stalled", "count"),
    ("live.dup_reports", "count"),
    ("live.keepalives_per_chunk", "count"),
    ("live.oversize_lost", "count"),
    ("kernel.events_per_chunk", "count"),
    ("kernel.commands_per_event", "count"),
    ("greedy.schedule_ms", "ms"),
    ("greedy.pack_calls", "count"),
    ("greedy.binsearch_iters", "count"),
    ("greedy.warm_hits", "count"),
    ("fleet.plan_ms", "ms"),
    ("fleet.split_ms", "ms"),
    ("fleet.split_jobs", "count"),
    ("fleet.stolen_chunks", "count"),
    ("fleet.steal_rounds", "count"),
    ("shard.run_ms_max", "ms"),
    ("shard.run_ms_sum", "ms"),
    ("pool.steals", "count"),
    ("pool.busy_ratio", "ratio"),
    ("engine.events", "count"),
    ("engine.events_per_s", "1/s"),
    ("engine.reschedule_rounds", "count"),
    ("engine.rescheduled_items", "count"),
    ("tasks.exec_us_per_chunk", "us"),
    ("trace.overhead_ratio", "ratio"),
];

/// Every per-layer metric, in report order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    for f in CODEC_FRAMES {
        out.push((format!("protocol.encode_ns.{f}"), "ns"));
        out.push((format!("protocol.decode_ns.{f}"), "ns"));
    }
    for k in EVENT_KINDS {
        out.push((format!("kernel.step_ns.{k}.mean"), "ns"));
        out.push((format!("kernel.step_ns.{k}.p99"), "ns"));
    }
    out.extend(LAYER_FIXED.iter().map(|(n, u)| ((*n).to_owned(), *u)));
    out
}

/// What a run measured and whether its outputs checked out.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (live: jobs; fleet: jobs per night).
    pub attempted: u64,
    /// Operations without a verified result.
    pub failed: u64,
    /// Output-check failures; the run is incorrect if any.
    pub problems: Vec<String>,
    /// Measured values by metric name.
    pub metrics: BTreeMap<String, f64>,
    /// Everything else worth keeping: sample counts, host facts, plans.
    pub report: BTreeMap<String, serde_json::Value>,
}

impl Outcome {
    /// Records one metric value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_owned(), value);
    }

    /// Adds a report entry.
    pub fn note(&mut self, key: &str, value: serde_json::Value) {
        self.report.insert(key.to_owned(), value);
    }
}

/// The verdict on one job's aggregate.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    /// Present and equal to the in-process reference.
    Ok,
    /// The coordinator reported the job's input unprocessed.
    Failed,
    /// A wrong or missing result that no failure accounts for.
    Wrong(String),
}

/// Checks one live job. `unprocessed` says whether the night's failure
/// summary lists input of this job as never processed; the results of a
/// degraded night are partial by design, so such a job counts as
/// failed whatever its partial aggregate holds. Only a job in
/// `oversize` partitions (see [`crate::inputs::oversize`]) may fail:
/// any other loss is wrong.
pub fn check_job(
    expected: &[u8],
    got: Option<&[u8]>,
    unprocessed: bool,
    oversize: bool,
) -> Verdict {
    match (unprocessed, got) {
        (true, _) if oversize => Verdict::Failed,
        (true, _) => Verdict::Wrong("unprocessed although it fits the write backlog cap".into()),
        (false, Some(g)) if g == expected => Verdict::Ok,
        (false, Some(_)) => Verdict::Wrong("aggregate differs from the in-process run".into()),
        (false, None) => Verdict::Wrong("job missing from the results".into()),
    }
}

/// Checks one fleet night: every job must complete.
pub fn check_fleet(completed: usize, total: usize) -> Result<(), String> {
    if completed < total {
        return Err(format!("fleet completed {completed}/{total} jobs"));
    }
    Ok(())
}

/// The result line: every end-to-end metric (untraced) or every
/// per-layer metric (traced), with units. Per-layer metrics a workload
/// cannot produce read 0 and are named in the returned absent list.
pub fn result_line(outcome: &Outcome, traced: bool) -> Result<(String, Vec<String>), String> {
    let wanted: Vec<(String, &str)> = if traced {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| ((*n).to_owned(), *u))
            .collect()
    };
    let mut metrics = BTreeMap::new();
    let mut absent = Vec::new();
    for (name, unit) in wanted {
        let value = match outcome.metrics.get(&name) {
            Some(v) if v.is_finite() => *v,
            Some(v) => return Err(format!("metric {name} is not finite ({v})")),
            None if traced => {
                absent.push(name.clone());
                0.0
            }
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        if !traced && value <= 0.0 {
            return Err(format!("end-to-end metric {name} is {value}, not positive"));
        }
        metrics.insert(name, serde_json::json!({"value": value, "unit": unit}));
    }
    let line = serde_json::json!({
        "correct": outcome.problems.is_empty(),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": serde_json::to_value(&metrics),
    });
    let text = serde_json::to_string(&line).map_err(|e| e.to_string())?;
    Ok((text, absent))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checker_rejects_a_wrong_aggregate_and_a_missing_job() {
        for oversize in [false, true] {
            assert_eq!(check_job(b"7", Some(b"7"), false, oversize), Verdict::Ok);
            assert!(matches!(
                check_job(b"7", Some(b"8"), false, oversize),
                Verdict::Wrong(_)
            ));
            assert!(matches!(
                check_job(b"7", None, false, oversize),
                Verdict::Wrong(_)
            ));
        }
        assert_eq!(check_job(b"7", None, true, true), Verdict::Failed);
        assert_eq!(check_job(b"7", Some(b"0"), true, true), Verdict::Failed);
    }

    #[test]
    fn checker_rejects_a_lost_job_that_fits_the_backlog_cap() {
        assert!(matches!(
            check_job(b"7", None, true, false),
            Verdict::Wrong(_)
        ));
        assert!(matches!(
            check_job(b"7", Some(b"0"), true, false),
            Verdict::Wrong(_)
        ));
    }

    #[test]
    fn checker_rejects_an_incomplete_fleet_night() {
        assert!(check_fleet(4000, 4000).is_ok());
        assert!(check_fleet(3999, 4000).is_err());
    }

    #[test]
    fn result_line_lists_every_metric_and_absent_layers() {
        let mut o = Outcome {
            attempted: 3,
            failed: 1,
            ..Outcome::default()
        };
        for (n, _) in END_TO_END {
            o.set(n, 1.5);
        }
        let (line, absent) = result_line(&o, false).unwrap();
        assert!(absent.is_empty());
        let v: serde_json::Value = serde_json::from_str(&line).unwrap();
        let m = v.as_object().unwrap();
        assert_eq!(m.len(), 4);
        assert_eq!(m["correct"].as_bool(), Some(true));
        assert_eq!(m["metrics"].as_object().unwrap().len(), END_TO_END.len());
        let (_, absent) = result_line(&o, true).unwrap();
        assert_eq!(absent.len(), per_layer().len());
        assert!(per_layer().len() <= 128);
        o.problems.push("bad".into());
        o.set("setup_s", 0.0);
        assert!(result_line(&o, false).is_err());
    }
}
