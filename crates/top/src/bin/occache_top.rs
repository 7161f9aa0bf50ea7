//! `occache-top` — live operations dashboard and run browser.
//!
//! Interactive mode takes over the alternate screen and redraws the
//! full frame every tick (no diffing: the renderer is byte-stable and
//! a frame is a few KB). `--once` collects and prints a single frame
//! and exits, and `--plain` drops every ANSI escape — together they
//! make the dashboard scriptable, which is how the CI observability
//! gate consumes it. `--parse-metrics FILE --get NAME` bypasses the
//! dashboard entirely and runs one file through the strict Prometheus
//! text parser, replacing fragile `grep`s over `/metrics` dumps.
//!
//! Environment: `OCCACHE_RESULTS` (results directory), `COLUMNS` (frame
//! width).

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use occache_runtime::instrument::Exposition;
use occache_runtime::interrupt;
use occache_top::render::render;
use occache_top::sources::{collect, CollectConfig};

const ENTER_ALT: &str = "\x1b[?1049h\x1b[?25l";
const LEAVE_ALT: &str = "\x1b[?1049l\x1b[?25h";
const HOME_CLEAR: &str = "\x1b[H\x1b[2J";

const USAGE: &str = "\
occache-top: live operations dashboard and run browser

USAGE:
    occache-top [OPTIONS]
    occache-top --parse-metrics FILE --get NAME

OPTIONS:
    --once                collect and print one frame, then exit
    --plain               no ANSI escapes (implies no alternate screen)
    --results DIR         results directory [default: $OCCACHE_RESULTS or results]
    --metrics ADDRS       comma-separated host:port list to scrape
    --tick MS             redraw interval, at least 100 [default: 1000]
    --width COLS          frame width [default: $COLUMNS or 100]
    --no-bench            skip the benchmark-trajectory pane (no git walks)
    --parse-metrics FILE  parse FILE as Prometheus text, then exit
    --get NAME            with --parse-metrics: print the sample NAME;
                          NAME may carry a label block, e.g.
                          occache_peer_state{peer=\"127.0.0.1:7801\"}
    --help                print this help
";

struct Options {
    once: bool,
    plain: bool,
    results: PathBuf,
    metrics: Vec<String>,
    tick: Duration,
    width: usize,
    bench: bool,
    parse_metrics: Option<PathBuf>,
    get: Option<String>,
}

fn env_or<T>(name: &str, parse: impl Fn(&str) -> Option<T>, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|v| parse(v.trim()))
        .unwrap_or(default)
}

fn parse_options() -> Result<Options, String> {
    let mut opts = Options {
        once: false,
        plain: false,
        results: PathBuf::from(env_or(
            "OCCACHE_RESULTS",
            |v| Some(v.to_string()),
            "results".into(),
        )),
        metrics: Vec::new(),
        tick: Duration::from_millis(1000),
        width: env_or("COLUMNS", |v| v.parse().ok(), 100),
        bench: true,
        parse_metrics: None,
        get: None,
    };
    let mut args = std::env::args().skip(1);
    let value = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--once" => opts.once = true,
            "--plain" => opts.plain = true,
            "--no-bench" => opts.bench = false,
            "--results" => opts.results = PathBuf::from(value(&mut args, "--results")?),
            "--metrics" => {
                opts.metrics = value(&mut args, "--metrics")?
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect();
            }
            "--tick" => {
                let ms: u64 = value(&mut args, "--tick")?
                    .parse()
                    .map_err(|e| format!("--tick: {e}"))?;
                opts.tick = Duration::from_millis(ms.max(100));
            }
            "--width" => {
                opts.width = value(&mut args, "--width")?
                    .parse()
                    .map_err(|e| format!("--width: {e}"))?;
            }
            "--parse-metrics" => {
                opts.parse_metrics = Some(PathBuf::from(value(&mut args, "--parse-metrics")?));
            }
            "--get" => opts.get = Some(value(&mut args, "--get")?),
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other} (try --help)")),
        }
    }
    if opts.get.is_some() && opts.parse_metrics.is_none() {
        return Err("--get requires --parse-metrics".into());
    }
    Ok(opts)
}

/// `--parse-metrics FILE [--get NAME]`: validate FILE through the
/// strict exposition parser; with `--get`, print one sample's raw
/// value. Exit 0 on found/valid, 1 on not-found, 2 on parse error —
/// so shell gates distinguish "metric absent" from "output corrupt".
fn run_parse_metrics(file: &PathBuf, get: Option<&str>) -> ExitCode {
    let text = match std::fs::read_to_string(file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("occache-top: {}: {e}", file.display());
            return ExitCode::from(2);
        }
    };
    let exposition = match Exposition::parse(&text) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("occache-top: {}: {e}", file.display());
            return ExitCode::from(2);
        }
    };
    let Some(query) = get else {
        println!("ok: {} families", exposition.families.len());
        return ExitCode::SUCCESS;
    };
    // Split an optional label block off the query: name{labels}.
    let (name, labels) = match query.split_once('{') {
        Some((n, rest)) => (n, Some(format!("{{{rest}"))),
        None => (query, None),
    };
    let sample = exposition.family(name).and_then(|family| {
        family
            .samples
            .iter()
            .find(|s| labels.as_deref().is_none_or(|want| s.labels == want))
    });
    match sample {
        Some(s) => {
            println!("{}", s.raw_value);
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("occache-top: no sample matches {query}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let opts = match parse_options() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("occache-top: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(file) = &opts.parse_metrics {
        return run_parse_metrics(file, opts.get.as_deref());
    }

    let config = CollectConfig {
        results_dir: opts.results.clone(),
        metrics_addrs: opts.metrics.clone(),
        repo_dir: opts.bench.then(|| PathBuf::from(".")),
    };

    if opts.once {
        print!("{}", render(&collect(&config), opts.width, opts.plain));
        return ExitCode::SUCCESS;
    }

    interrupt::install();
    let mut stdout = std::io::stdout();
    if !opts.plain {
        let _ = stdout.write_all(ENTER_ALT.as_bytes());
    }
    // Redraw until interrupted. Restore the terminal on every exit
    // path — the alternate screen must never leak past the process.
    while !interrupt::requested() {
        let frame = collect(&config);
        let text = render(&frame, opts.width, opts.plain);
        let mut ok = true;
        if opts.plain {
            ok &= stdout.write_all(text.as_bytes()).is_ok();
        } else {
            ok &= stdout.write_all(HOME_CLEAR.as_bytes()).is_ok();
            ok &= stdout.write_all(text.as_bytes()).is_ok();
        }
        ok &= stdout.flush().is_ok();
        if !ok {
            // Downstream closed (e.g. piped to head): stop quietly.
            break;
        }
        // Sleep in short slices so an interrupt ends the loop promptly
        // even with a slow tick.
        let mut left = opts.tick;
        while !interrupt::requested() && left > Duration::ZERO {
            let slice = left.min(Duration::from_millis(50));
            std::thread::sleep(slice);
            left = left.saturating_sub(slice);
        }
    }
    if !opts.plain {
        let _ = stdout.write_all(LEAVE_ALT.as_bytes());
        let _ = stdout.flush();
    }
    ExitCode::SUCCESS
}
