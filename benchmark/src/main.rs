//! `sqloop-benchmark` — the repository's one benchmark (see README.md here
//! and BENCHMARK.json at the repository root).
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- [flags]
//!   --workload <name>   run one workload and end with the driver's JSON line
//!                       (without it: every workload, both kinds of run,
//!                       written to benchmark/out/run-<seed>.json)
//!   --seed <u64>        input seed (default 1)
//!   --seconds <n>       measuring time of one run (default 15)
//!   --reps <n>          exactly n timed reps instead of --seconds
//!   --trace <0|1>       0: end-to-end metrics; 1: traced run + layer probes
//!   --smoke             ~10x smaller inputs, one rep, oracle checks still on
//!   --agree             the end-to-end set twice; non-zero exit when the two
//!                       disagree by more than a metric's bound
//!   --print-spec        print BENCHMARK.json as generated from src/spec.rs
//! ```

mod inputs;
mod jobs;
mod measure;
mod probes;
mod report;
mod span;
mod spec;

use inputs::Scale;
use jobs::Prepared;
use measure::Budget;
use report::{number, quote, RunResult};
use spec::{Better, END_TO_END, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: Option<String>,
    seed: u64,
    budget: Budget,
    trace: bool,
    scale: Scale,
    agree: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        budget: Budget::Seconds(spec::RUN_SECONDS as f64),
        trace: false,
        scale: Scale::FULL,
        agree: false,
    };
    let mut reps = None;
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !WORKLOADS.iter().any(|w| w.name == name) {
                    let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    return Err(format!(
                        "unknown workload {name}; known: {}",
                        known.join(", ")
                    ));
                }
                out.workload = Some(name);
            }
            "--seed" => {
                out.seed = value("a u64")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                out.budget = Budget::Seconds(s);
            }
            "--reps" => {
                reps = Some(
                    value("a count")?
                        .parse()
                        .map_err(|e| format!("--reps: {e}"))?,
                )
            }
            "--trace" => {
                out.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => smoke = true,
            "--agree" => out.agree = true,
            "--print-spec" => {
                print!("{}", spec::benchmark_json());
                return Ok(None);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if smoke {
        out.scale = Scale::SMOKE;
        out.budget = Budget::Reps(1);
    }
    if let Some(n) = reps {
        out.budget = Budget::Reps(n);
    }
    Ok(Some(out))
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_out(name: &str, contents: &str) {
    let dir = out_dir();
    let path = dir.join(name);
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, contents)) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

fn prepared(workload: &str, args: &Args) -> Prepared {
    Prepared::new(workload, args.scale, args.seed).expect("workload names are checked when parsed")
}

fn run_end_to_end(workload: &str, args: &Args) -> Option<RunResult> {
    let run = measure::end_to_end(&prepared(workload, args), args.budget)?;
    run.print_lines(workload);
    Some(run)
}

fn run_per_layer(workload: &str, args: &Args) -> Option<RunResult> {
    let (run, trace) = measure::per_layer(
        &prepared(workload, args),
        args.budget,
        &args.scale,
        args.seed,
    )?;
    run.print_lines(workload);
    write_out(
        &format!("trace-{workload}.json"),
        &trace.to_json(workload, args.seed),
    );
    Some(run)
}

/// One workload, one kind of run, and the driver's line last.
fn driver_run(workload: &str, args: &Args) -> ExitCode {
    let run = if args.trace {
        run_per_layer(workload, args)
    } else {
        run_end_to_end(workload, args)
    };
    match run {
        Some(run) => {
            println!("{}", run.driver_line());
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("{workload}: no rep completed, nothing to report");
            ExitCode::FAILURE
        }
    }
}

fn header_json(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let load = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|l| l.split_whitespace().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into());
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".into());
    let budget = match args.budget {
        Budget::Seconds(s) => format!("\"seconds\": {}", number(s)),
        Budget::Reps(n) => format!("\"reps\": {n}"),
    };
    println!(
        "# nproc {nproc} load1 {load} commit {commit} seed {} {}",
        args.seed,
        budget.replace('"', "")
    );
    format!(
        "{{\"nproc\": {nproc}, \"load1\": {}, \"commit\": {}, \"seed\": {}, {budget}, \"warm_up_reps\": 1}}",
        quote(&load),
        quote(&commit),
        args.seed
    )
}

fn run_json(run: &RunResult) -> String {
    let metrics: Vec<String> = run
        .metrics
        .iter()
        .map(|m| {
            let spread = m.reps.map_or(String::new(), |r| {
                format!(
                    ", \"min\": {}, \"q1\": {}, \"median\": {}, \"q3\": {}, \"reps\": {}",
                    number(r.min),
                    number(r.q1),
                    number(r.median),
                    number(r.q3),
                    r.count
                )
            });
            // what the README's interaction table says this layer metric moves
            let moves = spec::PER_LAYER
                .iter()
                .find(|p| p.name == m.name)
                .map_or(String::new(), |p| {
                    format!(", \"moves\": {}", quote(p.moves))
                });
            format!(
                "{}: {{\"value\": {}, \"unit\": {}{spread}{moves}}}",
                quote(m.name),
                number(m.value),
                quote(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.attempted,
        run.failed,
        metrics.join(", ")
    )
}

/// Every workload: end-to-end run, then traced run and probes.
fn full_run(args: &Args) -> ExitCode {
    let header = header_json(args);
    let mut sections = Vec::new();
    let mut fixpoints = Vec::new();
    let mut clean = true;
    for w in WORKLOADS {
        let (Some(end_to_end), Some(per_layer)) =
            (run_end_to_end(w.name, args), run_per_layer(w.name, args))
        else {
            eprintln!("{}: no rep completed", w.name);
            clean = false;
            continue;
        };
        clean &= end_to_end.failed == 0 && per_layer.failed == 0;
        fixpoints.push((w.name, end_to_end.value("fixpoint_s").unwrap_or(f64::NAN)));
        sections.push(format!(
            "{}: {{\"end_to_end\": {}, \"per_layer\": {}}}",
            quote(w.name),
            run_json(&end_to_end),
            run_json(&per_layer)
        ));
    }
    // the paper's two ratios, derived from gated metrics and not gated again
    let fixpoint = |name: &str| fixpoints.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
    let mut derived = Vec::new();
    for (name, over, under) in [
        ("speedup_1to2", "pr_sync_1t", "pr_sync"),
        ("script_over_sqloop", "pr_script", "pr_sync"),
        ("asyncp_over_single", "sssp_asyncp", "sssp_single"),
    ] {
        if let (Some(a), Some(b)) = (fixpoint(over), fixpoint(under)) {
            println!(
                "derived {name} {} ratio ({over}.fixpoint_s / {under}.fixpoint_s)",
                number(a / b)
            );
            derived.push(format!("{}: {}", quote(name), number(a / b)));
        }
    }
    write_out(
        &format!("run-{}.json", args.seed),
        &format!(
            "{{\"header\": {header},\n \"workloads\": {{\n  {}\n }},\n \"derived\": {{{}}}}}\n",
            sections.join(",\n  "),
            derived.join(", ")
        ),
    );
    if clean {
        ExitCode::SUCCESS
    } else {
        eprintln!("some job failed or missed its oracle: failed_share > 0");
        ExitCode::FAILURE
    }
}

/// Workloads whose schedule is a pure function of state: their counts must
/// repeat exactly (`dq_async_tcp` and `oltp_wire` race two threads).
const EXACT_REPEAT: [&str; 5] = [
    "pr_sync",
    "pr_sync_1t",
    "pr_script",
    "sssp_asyncp",
    "sssp_single",
];

/// The end-to-end set twice on this build and seed; the two must agree
/// within each metric's bound.
fn agree_run(args: &Args) -> ExitCode {
    header_json(args);
    let mut agreed = true;
    println!("workload metric first second worse_by bound verdict");
    for w in WORKLOADS {
        let (Some(first), Some(second)) =
            (run_end_to_end(w.name, args), run_end_to_end(w.name, args))
        else {
            eprintln!("{}: no rep completed", w.name);
            agreed = false;
            continue;
        };
        agreed &= first.failed == 0 && second.failed == 0;
        for m in END_TO_END {
            let (a, b) = (
                first.value(m.name).unwrap_or(0.0),
                second.value(m.name).unwrap_or(0.0),
            );
            let worse_by = match m.better {
                Better::Lower => b / a - 1.0,
                Better::Higher => a / b - 1.0,
            };
            let ok = worse_by <= m.bound;
            agreed &= ok;
            println!(
                "agree {} {} {} {} {:+.4} {} {}",
                w.name,
                m.name,
                number(a),
                number(b),
                worse_by,
                m.bound,
                if ok { "ok" } else { "DISAGREE" }
            );
        }
        if EXACT_REPEAT.contains(&w.name) && first.counts != second.counts {
            println!(
                "agree {} counts {:?} vs {:?} DISAGREE",
                w.name, first.counts, second.counts
            );
            agreed = false;
        } else {
            println!("agree {} counts {:?} ok", w.name, first.counts);
        }
    }
    if agreed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => return ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("sqloop-benchmark: {why}");
            return ExitCode::from(2);
        }
    };
    match (&args.workload, args.agree) {
        (Some(workload), _) => driver_run(workload, &args),
        (None, true) => agree_run(&args),
        (None, false) => full_run(&args),
    }
}
