//! End-to-end and per-layer benchmark of the CWC coordinator.
//!
//! ```text
//! cwc-perfbench --workload <chatter|bulk|fleet> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a report line (host facts, sample counts, absent layers) and,
//! as the last line of stdout, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: every end-to-end metric with
//! `--trace 0`, every per-layer metric with `--trace 1`. Exits non-zero,
//! printing no result, if the run cannot complete. See README.md.

mod child;
mod fleet;
mod host;
mod inputs;
mod live;
mod report;
mod stats;
mod trace;

use cwc_types::{CwcError, CwcResult};

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    /// The CPUs the fleet child pins itself to (child only).
    cpus: Vec<usize>,
}

fn parse(args: &[String]) -> CwcResult<Args> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut cpus = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| CwcError::Config(format!("{flag} needs a value")))?;
        let bad = || CwcError::Config(format!("bad value {value:?} for {flag}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = value == "1",
            "--cpus" => {
                cpus = value
                    .split(',')
                    .filter(|c| !c.is_empty())
                    .map(|c| c.parse::<usize>().map_err(|_| bad()))
                    .collect::<CwcResult<_>>()?;
            }
            other => return Err(CwcError::Config(format!("unknown flag {other}"))),
        }
    }
    let missing = |f: &str| CwcError::Config(format!("missing {f}"));
    Ok(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.filter(|s| *s > 0.0),
        trace,
        cpus,
    })
}

fn bench(args: &Args) -> CwcResult<()> {
    let seconds = args
        .seconds
        .ok_or_else(|| CwcError::Config("missing --seconds".into()))?;
    let facts = host::facts();
    let mut outcome = match args.workload.as_str() {
        "chatter" => live::run(live::Live::Chatter, args.seed, seconds, args.trace)?,
        "bulk" => live::run(live::Live::Bulk, args.seed, seconds, args.trace)?,
        "fleet" => fleet::run(args.seed, seconds, args.trace)?,
        other => return Err(CwcError::Config(format!("unknown workload {other}"))),
    };
    let (line, absent) = report::result_line(&outcome, args.trace).map_err(CwcError::Config)?;
    outcome.note("host", facts);
    outcome.note("absent", serde_json::to_value(&absent));
    let problems = serde_json::to_value(&outcome.problems);
    outcome.note("problems", problems);
    let mut report = serde_json::json!({
        "workload": args.workload.as_str(),
        "seed": args.seed,
        "seconds": seconds,
        "trace": args.trace,
    });
    if let serde_json::Value::Object(map) = &mut report {
        for (k, v) in &outcome.report {
            map.insert(k.clone(), v.clone());
        }
    }
    let text = serde_json::to_string(&report).map_err(|e| CwcError::Config(e.to_string()))?;
    println!("report {text}");
    println!("{line}");
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("child") => {
            parse(&argv[1..]).and_then(|a| child::child_main(&a.workload, a.seed, &a.cpus))
        }
        _ => parse(&argv).and_then(|a| bench(&a)),
    };
    if let Err(e) = result {
        eprintln!("cwc-perfbench: {e}");
        std::process::exit(1);
    }
}
