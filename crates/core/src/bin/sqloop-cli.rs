//! `sqloop-cli` — an interactive shell for the SQLoop middleware.
//!
//! ```text
//! sqloop-cli [URL]            # default: local://postgres
//!
//! sqloop> CREATE TABLE edges (src INT, dst INT, weight FLOAT);
//! sqloop> WITH ITERATIVE pr(...) AS (... UNTIL 10 ITERATIONS) SELECT ...;
//! sqloop> \mode asyncp
//! sqloop> \threads 8
//! sqloop> \q
//! ```
//!
//! Statements end with `;` and may span lines. Meta-commands start with `\`:
//! `\mode single|sync|async|asyncp`, `\threads n`, `\partitions n`,
//! `\priority lowest|highest <scalar query with {}>`, `\timing on|off`,
//! `\trace on|off|json <path>`, `\checkpoint <dir> [interval]|off`,
//! `\resume <path>|off`, `\deadline <ms>|off`, `\stats`, `\profile on|off`
//! (per-operator actuals), `\top [misses] [k]` (statement digests),
//! `\slow [<ms> [sample]|off]` (slow-statement log), `\prepared`
//! (plan-cache counters), `\engine` (show target), `\help`, `\q`.
//!
//! Flags: `--checkpoint <dir>[:interval]`, `--resume <path>`,
//! `--deadline-ms <n>`, `--max-mem <bytes[K|M|G]>`, `--max-rounds <n>`,
//! `--statement-timeout-ms <n>`. Ctrl-C cancels the running statement
//! cooperatively: the loop quiesces, writes a final checkpoint (when
//! configured) and reports the partial result.
//!
//! `--serve <addr>` turns the shell into a wire server for the engine named
//! by the URL (`local://postgres|mysql|mariadb`), with admission control:
//! `--max-connections <n>` caps concurrent clients, `--shed-high-water <n>`
//! sheds statements under load, `--statement-timeout-ms` bounds every
//! statement and `--max-mem` bounds the engine. Ctrl-C drains the server:
//! in-flight statements finish under `--drain-ms` before it exits.

use sqloop::{
    CheckpointConfig, ExecutionMode, ExecutionReport, PrioritySpec, SQLoop, SqloopConfig, Strategy,
    TraceConfig,
};
use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicBool, Ordering};

/// SIGINT latch: the handler only flips a flag; a watcher thread turns the
/// flag into a [`dbcp::CancelToken`] cancellation (and keeps the shell
/// alive — Ctrl-C at the prompt does not exit).
static SIGINT_HIT: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_sigint_handler() {
    extern "C" fn on_sigint(_signum: i32) {
        SIGINT_HIT.store(true, Ordering::SeqCst);
    }
    extern "C" {
        // raw libc binding: the container image carries no `libc` crate,
        // and `signal(2)` is all this shell needs
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    unsafe {
        signal(SIGINT, on_sigint);
    }
}

#[cfg(not(unix))]
fn install_sigint_handler() {}

/// Shell state threaded through the meta-command handler.
struct Shell {
    sqloop: SQLoop,
    timing: bool,
    /// Registry baseline for `\stats` deltas (reset on every `\stats`).
    stats_base: obs::RegistrySnapshot,
    /// Engine counter baseline for `\stats` deltas (`None` over TCP).
    engine_base: Option<sqldb::StatsSnapshot>,
}

/// Parses a byte count with an optional `K`/`M`/`G` suffix (`64M`, `1g`).
fn parse_bytes(spec: &str) -> Option<u64> {
    let spec = spec.trim();
    let (digits, mult) = match spec.chars().last()? {
        'k' | 'K' => (&spec[..spec.len() - 1], 1u64 << 10),
        'm' | 'M' => (&spec[..spec.len() - 1], 1u64 << 20),
        'g' | 'G' => (&spec[..spec.len() - 1], 1u64 << 30),
        _ => (spec, 1),
    };
    let n: u64 = digits.parse().ok()?;
    n.checked_mul(mult).filter(|v| *v > 0)
}

/// Renders a byte count back with the largest exact suffix.
fn format_bytes(n: u64) -> String {
    if n > 0 && n.is_multiple_of(1 << 30) {
        format!("{}G", n >> 30)
    } else if n > 0 && n.is_multiple_of(1 << 20) {
        format!("{}M", n >> 20)
    } else if n > 0 && n.is_multiple_of(1 << 10) {
        format!("{}K", n >> 10)
    } else {
        format!("{n}")
    }
}

/// Runs the wire server for `url`'s engine until Ctrl-C.
fn serve(url: &str, addr: &str, cfg: dbcp::ServerConfig, max_mem: Option<u64>) -> ! {
    let profile = match url
        .strip_prefix("local://")
        .and_then(sqldb::EngineProfile::parse)
    {
        Some(p) => p,
        None => {
            eprintln!("--serve needs a local:// engine URL, got {url}");
            std::process::exit(2);
        }
    };
    let db = sqldb::Database::new(profile);
    if max_mem.is_some() {
        db.set_memory_limit(max_mem);
    }
    let server = match dbcp::Server::bind_with(db, addr, cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot serve on {addr}: {e}");
            std::process::exit(1);
        }
    };
    println!("serving {profile:?} on {} — Ctrl-C stops", server.addr());
    println!(
        "limits: max-connections {}, shed high water {}, statement timeout {}, max-mem {}, \
         drain {} ms",
        cfg.max_connections,
        cfg.shed_high_water,
        cfg.statement_timeout
            .map_or("off".to_string(), |d| format!("{} ms", d.as_millis())),
        max_mem.map_or("off".to_string(), format_bytes),
        cfg.drain_timeout.as_millis(),
    );
    install_sigint_handler();
    while !SIGINT_HIT.load(Ordering::SeqCst) {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    server.shutdown();
    std::process::exit(0);
}

/// Parses `--checkpoint dir[:interval]` into a [`CheckpointConfig`].
fn parse_checkpoint_flag(spec: &str) -> CheckpointConfig {
    match spec.rsplit_once(':') {
        Some((dir, n)) if !dir.is_empty() => match n.parse::<u64>() {
            Ok(interval) if interval >= 1 => CheckpointConfig::new(dir).every(interval),
            _ => CheckpointConfig::new(spec),
        },
        _ => CheckpointConfig::new(spec),
    }
}

fn main() {
    let mut url = "local://postgres".to_string();
    let mut checkpoint = None;
    let mut resume_from = None;
    let mut deadline = None;
    let mut max_mem = None;
    let mut max_rounds = None;
    let mut statement_timeout = None;
    let mut stall_timeout = None;
    let mut serve_addr: Option<String> = None;
    let mut server_cfg = dbcp::ServerConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--max-mem" => match args.next().as_deref().and_then(parse_bytes) {
                Some(n) => max_mem = Some(n),
                None => {
                    eprintln!("--max-mem needs a byte count (suffixes K/M/G)");
                    std::process::exit(2);
                }
            },
            "--max-rounds" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) if n >= 1 => max_rounds = Some(n),
                _ => {
                    eprintln!("--max-rounds needs a round count >= 1");
                    std::process::exit(2);
                }
            },
            "--statement-timeout-ms" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(ms) if ms >= 1 => {
                    statement_timeout = Some(std::time::Duration::from_millis(ms));
                }
                _ => {
                    eprintln!("--statement-timeout-ms needs a number of milliseconds");
                    std::process::exit(2);
                }
            },
            "--stall-timeout-ms" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(ms) if ms >= 1 => {
                    stall_timeout = Some(std::time::Duration::from_millis(ms));
                }
                _ => {
                    eprintln!(
                        "--stall-timeout-ms needs a number of milliseconds \
                         (set it above the worst-case round time)"
                    );
                    std::process::exit(2);
                }
            },
            "--max-connections" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => server_cfg.max_connections = n,
                None => {
                    eprintln!("--max-connections needs a connection count (0 = unlimited)");
                    std::process::exit(2);
                }
            },
            "--shed-high-water" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => server_cfg.shed_high_water = n,
                None => {
                    eprintln!("--shed-high-water needs an in-flight statement count (0 = off)");
                    std::process::exit(2);
                }
            },
            "--drain-ms" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(ms) => server_cfg.drain_timeout = std::time::Duration::from_millis(ms),
                None => {
                    eprintln!("--drain-ms needs a shutdown drain budget in milliseconds");
                    std::process::exit(2);
                }
            },
            "--serve" => match args.next() {
                Some(addr) => serve_addr = Some(addr),
                None => {
                    eprintln!("--serve needs a host:port to listen on");
                    std::process::exit(2);
                }
            },
            "--checkpoint" => match args.next() {
                Some(spec) => checkpoint = Some(parse_checkpoint_flag(&spec)),
                None => {
                    eprintln!("--checkpoint needs <dir>[:interval]");
                    std::process::exit(2);
                }
            },
            "--resume" => match args.next() {
                Some(path) => resume_from = Some(std::path::PathBuf::from(path)),
                None => {
                    eprintln!("--resume needs a checkpoint dir, MANIFEST.json or snapshot file");
                    std::process::exit(2);
                }
            },
            "--deadline-ms" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(ms) => deadline = Some(std::time::Duration::from_millis(ms)),
                None => {
                    eprintln!("--deadline-ms needs a number of milliseconds");
                    std::process::exit(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "sqloop-cli [URL] [--checkpoint <dir>[:interval]] \
                     [--resume <path>] [--deadline-ms <n>] \
                     [--max-mem <bytes[K|M|G]>] [--max-rounds <n>] \
                     [--statement-timeout-ms <n>] [--stall-timeout-ms <n>]\n\
                     sqloop-cli [URL] --serve <addr> [--max-connections <n>] \
                     [--shed-high-water <n>] [--drain-ms <n>] \
                     [--statement-timeout-ms <n>] [--max-mem <bytes>]"
                );
                return;
            }
            other if !other.starts_with('-') => url = other.to_string(),
            other => {
                eprintln!("unknown flag {other}; --help lists flags");
                std::process::exit(2);
            }
        }
    }
    if let Some(addr) = serve_addr {
        server_cfg.statement_timeout = statement_timeout;
        serve(&url, &addr, server_cfg, max_mem);
    }
    let mut sqloop = match SQLoop::connect(&url) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot connect to {url}: {e}");
            std::process::exit(1);
        }
    };
    sqloop.config_mut().checkpoint = checkpoint;
    sqloop.config_mut().resume_from = resume_from;
    sqloop.config_mut().deadline = deadline;
    sqloop.config_mut().max_mem = max_mem;
    if let Some(n) = max_rounds {
        sqloop.config_mut().max_rounds = n;
    }
    sqloop.config_mut().statement_timeout = statement_timeout;
    sqloop.config_mut().stall_timeout = stall_timeout;

    install_sigint_handler();
    // the watcher turns the async-signal flag into a cooperative
    // cancellation of whatever statement is running
    let cancel = sqloop.config().cancel.clone();
    std::thread::spawn(move || loop {
        if SIGINT_HIT.swap(false, Ordering::SeqCst) {
            eprintln!("\ncancelling — the loop stops at its next quiesce point (\\q quits)");
            cancel.cancel();
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    });

    let mut shell = Shell {
        engine_base: sqloop.driver().engine_stats(),
        stats_base: sqloop.metrics(),
        sqloop,
        timing: true,
    };
    println!(
        "SQLoop shell — connected to {url} ({})",
        shell.sqloop.driver().profile()
    );
    println!("statements end with ';'; \\help for meta-commands, \\q to quit");

    let stdin = std::io::stdin();
    let mut buffer = String::new();
    loop {
        let prompt = if buffer.is_empty() {
            "sqloop> "
        } else {
            "   ...> "
        };
        print!("{prompt}");
        let _ = std::io::stdout().flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        let trimmed = line.trim();
        if buffer.is_empty() && trimmed.starts_with('\\') {
            if !meta_command(trimmed, &mut shell) {
                break;
            }
            continue;
        }
        buffer.push_str(&line);
        if !statement_complete(&buffer) {
            continue;
        }
        let sql = std::mem::take(&mut buffer);
        let sql = sql.trim().trim_end_matches(';');
        if sql.is_empty() {
            continue;
        }
        match shell.sqloop.execute_detailed(sql) {
            Ok(report) => {
                // a resume snapshot applies to exactly one *loop* run —
                // passthrough setup statements (CREATE TABLE, INSERTs before
                // the rerun) must not consume it
                if report.strategy != sqloop::Strategy::Passthrough
                    && shell.sqloop.config().resume_from.is_some()
                {
                    shell.sqloop.config_mut().resume_from = None;
                }
                print_report(&report, shell.timing);
            }
            Err(e) => eprintln!("error: {e}"),
        }
    }
}

/// Prints a query result plus the provenance / timing / trace footers.
fn print_report(report: &ExecutionReport, timing: bool) {
    print_result(&report.result);
    let provenance = match &report.strategy {
        Strategy::Passthrough => "passthrough".to_string(),
        Strategy::RecursiveSingle => {
            format!("recursive, {} rounds", report.iterations)
        }
        Strategy::IterativeSingle { fallback_reason } => match fallback_reason {
            Some(r) => format!(
                "iterative (single-threaded: {r}), {} iterations",
                report.iterations
            ),
            None => format!(
                "iterative (single-threaded), {} iterations",
                report.iterations
            ),
        },
        Strategy::IterativeParallel { mode } => format!(
            "iterative ({mode}), {} iterations, {} computes / {} gathers",
            report.iterations, report.computes, report.gathers
        ),
    };
    if timing {
        println!("-- {provenance} in {:?}", report.elapsed);
    } else {
        println!("-- {provenance}");
    }
    if timing {
        if let Strategy::IterativeParallel { .. } = &report.strategy {
            let wall = report.elapsed.as_secs_f64();
            let overlap = if wall > 0.0 {
                report.worker_busy.as_secs_f64() / wall
            } else {
                0.0
            };
            println!(
                "-- workers: {} compute(s) + {} gather(s) over {} iteration(s); \
                 busy {:?} / {:?} wall (overlap {:.2}x)",
                report.computes,
                report.gathers,
                report.iterations,
                report.worker_busy,
                report.elapsed,
                overlap,
            );
        }
    }
    if report.cancelled {
        println!(
            "-- cancelled: partial result after {} iteration(s)",
            report.iterations
        );
    }
    if let Some(path) = &report.checkpoint {
        println!("-- checkpoint: {}", path.display());
    }
    if let Some(note) = &report.recovery_note {
        println!("-- resume: {note}");
    }
    if !report.recovery.is_clean() {
        println!("-- recovery: {}", report.recovery);
    }
    // ROADMAP read-off: which statement families the plan cache loses on,
    // tagged with the scheduler mode that produced them
    if matches!(
        report.strategy,
        Strategy::IterativeSingle { .. } | Strategy::IterativeParallel { .. }
    ) {
        if let Some(dg) = &report.digests {
            let (hits, misses) = dg.plan_cache_totals();
            if let Some(rate) = (hits * 100).checked_div(hits + misses) {
                println!(
                    "-- plan cache [{}]: {hits} hit(s) / {misses} miss(es) ({rate}% hit rate)",
                    dg.mode,
                );
                for e in dg.top_misses.iter().take(3) {
                    println!("   miss family: {} ({} parse(s))", e.digest, e.plan_misses);
                }
            }
        }
    }
    if let (Some(summary), Some(data)) = (&report.trace, &report.trace_data) {
        println!("-- trace: {summary}");
        for line in obs::timeline(data, 64) {
            println!("   {line}");
        }
    }
}

/// A statement is complete when a `;` appears outside quotes.
fn statement_complete(buffer: &str) -> bool {
    let mut in_single = false;
    let mut in_double = false;
    for c in buffer.chars() {
        match c {
            '\'' if !in_double => in_single = !in_single,
            '"' if !in_single => in_double = !in_double,
            ';' if !in_single && !in_double => return true,
            _ => {}
        }
    }
    false
}

/// One place for every malformed-meta-command complaint.
fn usage(text: &str) {
    eprintln!("usage: {text}");
}

/// Handles a `\…` command; returns `false` to exit the shell.
fn meta_command(cmd: &str, shell: &mut Shell) -> bool {
    let sqloop = &mut shell.sqloop;
    let mut parts = cmd.split_whitespace();
    match parts.next().unwrap_or("") {
        "\\q" | "\\quit" | "\\exit" => return false,
        "\\help" | "\\?" => {
            println!("\\mode single|sync|async|asyncp   set execution mode");
            println!("\\threads N                       worker threads (connections)");
            println!("\\partitions N                    hash partitions of R");
            println!("\\priority lowest|highest <sql>   AsyncP priority ({{}} = partition)");
            println!("\\timing on|off                   toggle elapsed-time display");
            println!("\\trace on|off|json <path>        per-run trace (timeline / JSON file)");
            println!("\\checkpoint <dir> [interval]|off durable snapshots every N rounds");
            println!("\\resume <path>|off               resume next run from a checkpoint");
            println!("\\deadline <ms>|off               cancel runs after a wall-clock budget");
            println!("\\limits                          show resource limits + memory usage");
            println!("\\limits mem <bytes[K|M|G]>|off   engine memory budget");
            println!("\\limits rounds <n>|off           round cap (off: the default)");
            println!("\\limits window <n>|off           divergence watchdog trend window");
            println!("\\limits numeric on|off           NaN/Inf divergence probes");
            println!("\\limits timeout <ms>|off         per-statement engine deadline");
            println!("\\limits stall <ms>|off           supervisor stall verdict threshold");
            println!("\\stats                           metric deltas since last \\stats");
            println!("\\profile on|off                  per-operator actuals (EXPLAIN ANALYZE)");
            println!("\\top [k] | \\top misses [k]       statement digests by time / cache misses");
            println!("\\slow [<ms> [sample]|off]        show / configure the slow-statement log");
            println!("\\prepared                        plan-cache hit/miss/eviction counters");
            println!("\\engine                          show target engine + config");
            println!("\\q                               quit");
        }
        "\\mode" => match parts.next().and_then(ExecutionMode::parse) {
            Some(m) => {
                sqloop.config_mut().mode = m;
                println!("mode = {m}");
            }
            None => usage("\\mode single|sync|async|asyncp"),
        },
        "\\threads" => match parts.next().and_then(|v| v.parse().ok()) {
            Some(n) if n >= 1 => {
                sqloop.config_mut().threads = n;
                println!("threads = {n}");
            }
            _ => usage("\\threads N"),
        },
        "\\partitions" => match parts.next().and_then(|v| v.parse().ok()) {
            Some(n) if n >= 1 => {
                sqloop.config_mut().partitions = n;
                println!("partitions = {n}");
            }
            _ => usage("\\partitions N"),
        },
        "\\priority" => {
            let order = parts.next().unwrap_or("");
            let query: String = parts.collect::<Vec<_>>().join(" ");
            let spec = match order {
                "lowest" => Some(PrioritySpec::lowest(query.clone())),
                "highest" => Some(PrioritySpec::highest(query.clone())),
                _ => None,
            };
            match spec {
                Some(s) if !query.is_empty() => {
                    sqloop.config_mut().priority = Some(s);
                    println!("priority = {order} of `{query}`");
                }
                _ => usage("\\priority lowest|highest SELECT ... FROM {}"),
            }
        }
        "\\timing" => match parts.next() {
            Some("on") => {
                shell.timing = true;
                println!("timing on");
            }
            Some("off") => {
                shell.timing = false;
                println!("timing off");
            }
            _ => usage("\\timing on|off"),
        },
        "\\trace" => match parts.next() {
            Some("on") => {
                sqloop.config_mut().trace = TraceConfig::on();
                println!("trace on (timeline after each iterative run)");
            }
            Some("off") => {
                sqloop.config_mut().trace = TraceConfig::default();
                println!("trace off");
            }
            Some("json") => match parts.next() {
                Some(path) => {
                    sqloop.config_mut().trace = TraceConfig::json(path);
                    println!("trace on, JSON written to {path} after each run");
                }
                None => usage("\\trace json <path>"),
            },
            _ => usage("\\trace on|off|json <path>"),
        },
        "\\checkpoint" => match parts.next() {
            Some("off") => {
                sqloop.config_mut().checkpoint = None;
                println!("checkpointing off");
            }
            Some(dir) => {
                let interval = parts.next().and_then(|v| v.parse::<u64>().ok());
                let config = match interval {
                    Some(n) if n >= 1 => CheckpointConfig::new(dir).every(n),
                    Some(_) => {
                        usage("\\checkpoint <dir> [interval >= 1]");
                        return true;
                    }
                    None => CheckpointConfig::new(dir),
                };
                println!(
                    "checkpointing to {} every {} round(s)",
                    config.dir.display(),
                    config.interval
                );
                sqloop.config_mut().checkpoint = Some(config);
            }
            None => usage("\\checkpoint <dir> [interval] | \\checkpoint off"),
        },
        "\\resume" => match parts.next() {
            Some("off") => {
                sqloop.config_mut().resume_from = None;
                println!("resume cleared");
            }
            Some(path) => {
                sqloop.config_mut().resume_from = Some(path.into());
                println!("next iterative run resumes from {path}");
            }
            None => usage("\\resume <dir|MANIFEST.json|snapshot> | \\resume off"),
        },
        "\\deadline" => match parts.next() {
            Some("off") => {
                sqloop.config_mut().deadline = None;
                println!("deadline off");
            }
            Some(v) => match v.parse::<u64>() {
                Ok(ms) if ms >= 1 => {
                    sqloop.config_mut().deadline = Some(std::time::Duration::from_millis(ms));
                    println!("statements cancel after {ms} ms");
                }
                _ => usage("\\deadline <ms> | \\deadline off"),
            },
            None => usage("\\deadline <ms> | \\deadline off"),
        },
        "\\limits" => match (parts.next(), parts.next()) {
            (None, _) => {
                let c = sqloop.config();
                let off = || "off".to_string();
                println!(
                    "max-mem          : {}",
                    c.max_mem.map_or_else(off, format_bytes)
                );
                println!("max-rounds       : {}", c.max_rounds);
                println!(
                    "trend window     : {}",
                    c.watchdog.window.map_or_else(off, |n| n.to_string())
                );
                println!(
                    "numeric checks   : {}",
                    if c.watchdog.numeric_checks {
                        "on"
                    } else {
                        "off"
                    }
                );
                println!(
                    "statement timeout: {}",
                    c.statement_timeout
                        .map_or_else(off, |d| format!("{} ms", d.as_millis()))
                );
                println!(
                    "deadline         : {}",
                    c.deadline
                        .map_or_else(off, |d| format!("{} ms", d.as_millis()))
                );
                println!(
                    "stall timeout    : {}",
                    c.stall_timeout
                        .map_or_else(off, |d| format!("{} ms", d.as_millis()))
                );
                match sqloop.driver().memory_used() {
                    Some(n) => println!("engine memory    : {} in use", format_bytes(n)),
                    None => println!("engine memory    : not observable over this driver"),
                }
            }
            (Some("mem"), Some("off")) => {
                sqloop.config_mut().max_mem = None;
                sqloop.driver().set_memory_limit(None);
                println!("memory budget off");
            }
            (Some("mem"), Some(v)) => match parse_bytes(v) {
                Some(n) => {
                    sqloop.config_mut().max_mem = Some(n);
                    println!("memory budget = {}", format_bytes(n));
                }
                None => usage("\\limits mem <bytes[K|M|G]> | \\limits mem off"),
            },
            (Some("rounds"), Some("off")) => {
                let default = SqloopConfig::default().max_rounds;
                sqloop.config_mut().max_rounds = default;
                println!("round cap = {default} (the default)");
            }
            (Some("rounds"), Some(v)) => match v.parse::<u64>() {
                Ok(n) if n >= 1 => {
                    sqloop.config_mut().max_rounds = n;
                    println!("round cap = {n}");
                }
                _ => usage("\\limits rounds <n >= 1> | \\limits rounds off"),
            },
            (Some("window"), Some("off")) => {
                sqloop.config_mut().watchdog.window = None;
                println!("trend window off");
            }
            (Some("window"), Some(v)) => match v.parse::<u64>() {
                Ok(n) if n >= 1 => {
                    sqloop.config_mut().watchdog.window = Some(n);
                    println!("trend window = {n} round(s)");
                }
                _ => usage("\\limits window <n >= 1> | \\limits window off"),
            },
            (Some("numeric"), Some("on")) => {
                sqloop.config_mut().watchdog.numeric_checks = true;
                println!("numeric divergence checks on");
            }
            (Some("numeric"), Some("off")) => {
                sqloop.config_mut().watchdog.numeric_checks = false;
                println!("numeric divergence checks off");
            }
            (Some("timeout"), Some("off")) => {
                sqloop.config_mut().statement_timeout = None;
                println!("statement timeout off");
            }
            (Some("timeout"), Some(v)) => match v.parse::<u64>() {
                Ok(ms) if ms >= 1 => {
                    sqloop.config_mut().statement_timeout =
                        Some(std::time::Duration::from_millis(ms));
                    println!("statement timeout = {ms} ms");
                }
                _ => usage("\\limits timeout <ms> | \\limits timeout off"),
            },
            (Some("stall"), Some("off")) => {
                sqloop.config_mut().stall_timeout = None;
                println!("stall timeout off");
            }
            (Some("stall"), Some(v)) => match v.parse::<u64>() {
                Ok(ms) if ms >= 1 => {
                    sqloop.config_mut().stall_timeout = Some(std::time::Duration::from_millis(ms));
                    println!(
                        "stall timeout = {ms} ms (workers silent past this are \
                         abandoned and replaced; set it above the worst-case round time)"
                    );
                }
                _ => usage("\\limits stall <ms> | \\limits stall off"),
            },
            _ => usage("\\limits [mem|rounds|window|numeric|timeout|stall <value>|off]"),
        },
        "\\stats" => {
            let now = sqloop.metrics();
            let delta = now.delta_since(&shell.stats_base);
            if delta.is_empty() {
                println!("no metric activity since last \\stats");
            } else {
                print_metrics(&delta);
            }
            if let Some(cur) = sqloop.driver().engine_stats() {
                let d = cur.delta_since(&shell.engine_base.unwrap_or_default());
                println!(
                    "engine: {} stmt(s), {} row(s) scanned, {} join pair(s), \
                     {} index probe(s), {} lock wait(s)",
                    d.statements, d.rows_scanned, d.rows_joined, d.index_lookups, d.lock_waits,
                );
                shell.engine_base = Some(cur);
            }
            shell.stats_base = now;
        }
        "\\profile" => match parts.next() {
            Some(v @ ("on" | "off")) => {
                let on = v == "on";
                match sqloop
                    .driver()
                    .connect()
                    .and_then(|mut c| c.set_profiling(on))
                {
                    Ok(()) => println!(
                        "profiling {v} (per-operator actuals feed EXPLAIN ANALYZE \
                         and the sqldb.op.* metrics)"
                    ),
                    Err(e) => eprintln!("error: {e}"),
                }
            }
            _ => usage("\\profile on|off"),
        },
        "\\top" => {
            let (misses, k) = match parts.next() {
                Some("misses") => (
                    true,
                    parts.next().and_then(|v| v.parse().ok()).unwrap_or(10u32),
                ),
                Some(v) => match v.parse::<u32>() {
                    Ok(n) if n >= 1 => (false, n),
                    _ => {
                        usage("\\top [k] | \\top misses [k]");
                        return true;
                    }
                },
                None => (false, 10),
            };
            let rows = sqloop.driver().connect().and_then(|mut c| {
                if misses {
                    c.digest_top_misses(k)
                } else {
                    c.digest_top(k)
                }
            });
            match rows {
                Ok(r) if r.rows.is_empty() => {
                    println!("no digest activity recorded yet");
                }
                Ok(r) => print_result(&r),
                Err(e) => eprintln!("error: {e}"),
            }
        }
        "\\slow" => match parts.next() {
            None => match sqloop.driver().connect().and_then(|mut c| c.slow_log()) {
                Ok(r) if r.rows.is_empty() => {
                    println!(
                        "slow log empty — \\slow <ms> [sample] sets the threshold \
                         (0 = off, default)"
                    );
                }
                Ok(r) => print_result(&r),
                Err(e) => eprintln!("error: {e}"),
            },
            Some("off") => {
                match sqloop
                    .driver()
                    .connect()
                    .and_then(|mut c| c.configure_slow_log(0, 1))
                {
                    Ok(()) => println!("slow log off"),
                    Err(e) => eprintln!("error: {e}"),
                }
            }
            Some(v) => match v.parse::<u64>() {
                Ok(ms) if ms >= 1 => {
                    let sample = parts.next().and_then(|s| s.parse().ok()).unwrap_or(1u64);
                    match sqloop
                        .driver()
                        .connect()
                        .and_then(|mut c| c.configure_slow_log(ms * 1000, sample))
                    {
                        Ok(()) => println!(
                            "slow log: statements over {ms} ms retained \
                             (sampling 1 in {})",
                            sample.max(1)
                        ),
                        Err(e) => eprintln!("error: {e}"),
                    }
                }
                _ => usage("\\slow [<ms> [sample] | off]"),
            },
        },
        "\\prepared" => match sqloop.driver().plan_cache_stats() {
            Some(s) => {
                println!("plan cache: {} entr(ies) cached", s.entries);
                println!("  hits         : {}", s.hits);
                println!("  misses       : {}", s.misses);
                println!("  hit rate     : {:.1}%", s.hit_rate() * 100.0);
                println!("  evictions    : {}", s.evictions);
                println!(
                    "  invalidations: {} (DDL outdated a cached plan)",
                    s.invalidations
                );
            }
            None => println!(
                "plan cache lives with the server process — not observable over this driver"
            ),
        },
        "\\engine" => {
            println!("engine    : {}", sqloop.driver().profile());
            let c = sqloop.config();
            println!("mode      : {}", c.mode);
            println!("threads   : {}", c.threads);
            println!("partitions: {}", c.partitions);
            println!(
                "trace     : {}",
                match (&c.trace.enabled, &c.trace.json_path) {
                    (false, _) => "off".to_string(),
                    (true, None) => "on".to_string(),
                    (true, Some(p)) => format!("json → {}", p.display()),
                }
            );
        }
        other => eprintln!("unknown command {other}; \\help lists commands"),
    }
    true
}

/// Prints the non-zero part of a registry delta, one metric per line.
fn print_metrics(snap: &obs::RegistrySnapshot) {
    for (name, v) in &snap.counters {
        if *v != 0 {
            println!("{name:<44} {v}");
        }
    }
    for (name, v) in &snap.gauges {
        println!("{name:<44} {v}");
    }
    for (name, h) in &snap.histograms {
        if h.count > 0 {
            println!(
                "{name:<44} count={} mean={}µs p95={}µs",
                h.count,
                h.mean_us(),
                h.percentile_us(0.95),
            );
        }
    }
}

fn print_result(result: &sqldb::QueryResult) {
    print!("{}", render_result(result));
}

/// `result` as the shell's table. Cells are padded by hand: a format width
/// cannot exceed 65 535.
fn render_result(result: &sqldb::QueryResult) -> String {
    if result.columns.is_empty() {
        return "ok\n".into();
    }
    let mut widths: Vec<usize> = result.columns.iter().map(|c| c.len()).collect();
    let rendered: Vec<Vec<String>> = result
        .rows
        .iter()
        .map(|row| row.iter().map(|v| v.to_string()).collect())
        .collect();
    for row in &rendered {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |out: &mut String, cells: &[String]| {
        for (cell, w) in cells.iter().zip(&widths) {
            let pad = " ".repeat(w.saturating_sub(cell.chars().count()));
            out.extend(["| ", cell, &pad, " "]);
        }
        out.push_str("|\n");
    };
    let mut out = String::new();
    line(&mut out, &result.columns);
    let rule: Vec<String> = widths.iter().map(|w| "-".repeat(w + 2)).collect();
    out.extend(["|", &rule.join("+"), "|\n"]);
    // cap enormous outputs in the shell
    const MAX_ROWS: usize = 500;
    for row in rendered.iter().take(MAX_ROWS) {
        line(&mut out, row);
    }
    if rendered.len() > MAX_ROWS {
        out += &format!("… {} more rows\n", rendered.len() - MAX_ROWS);
    }
    out + &format!("({} rows)\n", rendered.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqldb::{QueryResult, Value};

    #[test]
    fn tables_pad_cells_and_take_cells_wider_than_a_format_width() {
        let result = QueryResult {
            columns: vec!["k".into(), "text".into()],
            rows: vec![
                vec![Value::Int(10), Value::Text("ab".into())],
                vec![Value::Null, Value::Text("é".into())],
            ],
        };
        let expected =
            "| k    | text |\n|------+------|\n| 10   | ab   |\n| NULL | é    |\n(2 rows)\n";
        assert_eq!(render_result(&result), expected);
        let wide = "x".repeat(70_000);
        let result = QueryResult {
            columns: vec!["digest".into()],
            rows: vec![vec![Value::Text(wide.clone())]],
        };
        let table = render_result(&result);
        assert!(table.contains(&format!("| {wide} |")), "{}", &table[..80]);
        assert!(table.starts_with(&format!("| digest{} |", " ".repeat(70_000 - 6))));
    }
}
