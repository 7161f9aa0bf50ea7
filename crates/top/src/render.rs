//! The presentation layer: a pure function from a collected
//! [`Frame`] to the string one redraw prints.
//!
//! Byte-stable by construction — the same frame, width and mode always
//! produce the same bytes (the golden tests pin this), which is what
//! lets the binary redraw by full-screen replacement with no diffing
//! and lets `--once --plain` output feed shell pipelines and the CI
//! gate. ANSI mode adds colors and bold; plain mode is the identical
//! layout with no escape sequences at all.

use crate::sources::{Frame, NodeOps};

/// The widest a pane body line may grow before it is clipped.
pub const MIN_WIDTH: usize = 40;

const BOLD: &str = "\x1b[1m";
const DIM: &str = "\x1b[2m";
const RED: &str = "\x1b[31m";
const GREEN: &str = "\x1b[32m";
const YELLOW: &str = "\x1b[33m";
const CYAN: &str = "\x1b[36m";
const RESET: &str = "\x1b[0m";

/// The eight sparkline levels, U+2581 (lowest) through U+2588 (full).
const SPARKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Renders one full dashboard frame. `width` is clamped to at least
/// [`MIN_WIDTH`]; `plain` suppresses every ANSI escape.
pub fn render(frame: &Frame, width: usize, plain: bool) -> String {
    let width = width.max(MIN_WIDTH);
    let style = Style { plain };
    let mut out = String::new();
    let mut push = |line: String| {
        out.push_str(&clip(&line, width));
        out.push('\n');
    };

    push(style.paint(
        BOLD,
        &format!("occache-top — results: {}", frame.results_dir),
    ));

    push(style.rule("SWEEP", width));
    render_sweep(frame, width, &style, &mut push);

    push(style.rule("OPS", width));
    render_ops(frame, &style, &mut push);

    push(style.rule("RUNS", width));
    render_runs(frame, &style, &mut push);

    push(style.rule("BENCH", width));
    render_bench(frame, &style, &mut push);

    out
}

struct Style {
    plain: bool,
}

impl Style {
    fn paint(&self, code: &str, text: &str) -> String {
        if self.plain {
            text.to_string()
        } else {
            format!("{code}{text}{RESET}")
        }
    }

    /// A pane divider: `── TITLE ────…` padded out to `width`.
    fn rule(&self, title: &str, width: usize) -> String {
        let head = format!("── {title} ");
        let tail = "─".repeat(width.saturating_sub(head.chars().count()));
        self.paint(CYAN, &format!("{head}{tail}"))
    }
}

fn render_sweep(frame: &Frame, width: usize, style: &Style, push: &mut impl FnMut(String)) {
    match &frame.progress {
        None => push(style.paint(DIM, " no progress feed (.checkpoint/PROGRESS.json)")),
        Some(p) => {
            let done = p.computed + p.restored + p.failed + p.quarantined;
            let pct = if p.total == 0 {
                100.0
            } else {
                100.0 * done as f64 / p.total as f64
            };
            let state = if p.interrupted {
                style.paint(RED, "interrupted")
            } else if p.sealed {
                style.paint(GREEN, "sealed")
            } else {
                style.paint(YELLOW, "live")
            };
            let eta = match p.eta_ms() {
                Some(ms) if !p.sealed => format!("  ETA {}", fmt_ms(ms)),
                _ => String::new(),
            };
            let bar_width = (width / 4).clamp(10, 30);
            push(format!(
                " {}  {}  {}/{} pts  {:.1}%  {}{}",
                p.artifact,
                bar(done, p.total, bar_width),
                done,
                p.total,
                pct,
                state,
                eta,
            ));
            push(format!(
                "   computed {}  restored {}  failed {} ({} timeout)  quarantined {}  retries {}  elapsed {}",
                p.computed,
                p.restored,
                p.failed,
                p.timed_out,
                p.quarantined,
                p.retries,
                fmt_ms(p.elapsed_ms),
            ));
            // Which evaluation path computed the points: the three
            // one-pass slice engines and the direct-simulator fallback.
            // `direct` is the column an operator wants at zero on a
            // stock grid, so it gets the warning color when non-zero.
            let direct = if p.direct_points == 0 {
                style.paint(GREEN, "direct 0")
            } else {
                style.paint(YELLOW, &format!("direct {}", p.direct_points))
            };
            push(format!(
                "   engines: lru {}  fifo {}  random {}  {}",
                p.engine_points[0], p.engine_points[1], p.engine_points[2], direct,
            ));
        }
    }
    if let Some(report) = &frame.report {
        let state = if report.interrupted {
            style.paint(RED, "interrupted")
        } else if report.in_progress {
            style.paint(YELLOW, "in progress")
        } else {
            style.paint(GREEN, "complete")
        };
        push(format!(
            " report: {state}  ({} phases)",
            report.phases.len()
        ));
        if !report.phases.is_empty() {
            push(style.paint(
                DIM,
                &format!(
                    "   {:<14} {:>8} {:>8} {:>6} {:>4} {:>4} {:>5} {:>9}",
                    "phase", "computed", "restored", "failed", "t/o", "quar", "retry", "wall"
                ),
            ));
        }
        for p in &report.phases {
            push(format!(
                "   {:<14} {:>8} {:>8} {:>6} {:>4} {:>4} {:>5} {:>9}",
                p.artifact,
                p.computed,
                p.restored,
                p.failed,
                p.timed_out,
                p.quarantined,
                p.retries,
                fmt_ms(u128::from(p.wall_ms)),
            ));
        }
    }
}

fn render_ops(frame: &Frame, style: &Style, push: &mut impl FnMut(String)) {
    if frame.nodes.is_empty() {
        push(style.paint(DIM, " no nodes (pass --metrics host:port[,host:port])"));
        return;
    }
    for node in &frame.nodes {
        if !node.reachable {
            push(format!(
                " {}  {}",
                node.addr,
                style.paint(RED, "unreachable")
            ));
            continue;
        }
        push(format!(
            " {}  {}  up {}  replayed {}",
            node.addr,
            style.paint(BOLD, &node.service),
            node.uptime_s
                .map_or_else(|| "?".into(), |s| format!("{s}s")),
            fmt_opt_count(node.journal_replayed),
        ));
        push(format!(
            "   queue {}  shed {}i/{}b  p50 {}  p99 {}",
            fmt_opt_f64(node.queue_depth, 0),
            fmt_opt_f64(node.shed_interactive, 0),
            fmt_opt_f64(node.shed_bulk, 0),
            fmt_opt_seconds(node.p50_s),
            fmt_opt_seconds(node.p99_s),
        ));
        if !node.peers.is_empty() {
            push(format!("   peers: {}", peer_list(node, style)));
        }
    }
}

fn peer_list(node: &NodeOps, style: &Style) -> String {
    node.peers
        .iter()
        .map(|(addr, state)| {
            let label = match state {
                2 => style.paint(GREEN, "up"),
                1 => style.paint(YELLOW, "half-open"),
                _ => style.paint(RED, "down"),
            };
            format!("{addr} {label}")
        })
        .collect::<Vec<_>>()
        .join("  ")
}

fn render_runs(frame: &Frame, style: &Style, push: &mut impl FnMut(String)) {
    if frame.runs.is_empty() {
        push(style.paint(DIM, " no checkpoint journals"));
    } else {
        push(style.paint(
            DIM,
            &format!(
                "   {:<14} {:>7} {:>6}  integrity",
                "journal", "points", "fails"
            ),
        ));
        for run in &frame.runs {
            let integrity = if !run.readable {
                style.paint(RED, "unreadable")
            } else if run.healthy() {
                style.paint(GREEN, "ok")
            } else {
                let mut issues = Vec::new();
                if run.bad_lines > 0 {
                    issues.push(format!("{} bad lines", run.bad_lines));
                }
                if run.torn_tail_bytes > 0 {
                    issues.push(format!("torn tail ({}B)", run.torn_tail_bytes));
                }
                style.paint(YELLOW, &issues.join(", "))
            };
            push(format!(
                "   {:<14} {:>7} {:>6}  {}",
                run.artifact, run.points, run.fails, integrity
            ));
        }
    }
    if !frame.artifacts.is_empty() {
        let list = frame
            .artifacts
            .iter()
            .map(|a| format!("{} {}", a.name, fmt_bytes(a.bytes)))
            .collect::<Vec<_>>()
            .join("  ");
        push(format!(" artifacts: {list}"));
    }
}

fn render_bench(frame: &Frame, style: &Style, push: &mut impl FnMut(String)) {
    if frame.bench.is_empty() {
        push(style.paint(DIM, " no committed benchmarks"));
        return;
    }
    // Names pad to the other panes' 14-column label, or to the longest.
    let width = frame
        .bench
        .iter()
        .map(|s| s.name.chars().count())
        .fold(14, usize::max);
    for series in &frame.bench {
        let latest = series.values.last().copied().unwrap_or(0.0);
        push(format!(
            " {:<width$} {}  {:.1}{}  ({} commits)",
            series.name,
            sparkline(&series.values),
            latest,
            series.unit,
            series.values.len(),
        ));
    }
}

/// A fixed-width progress bar, `#` for done and `.` for remaining.
pub fn bar(done: usize, total: usize, width: usize) -> String {
    // An empty phase (total 0) renders as fully done.
    let filled = (done * width)
        .checked_div(total)
        .map_or(width, |f| f.min(width));
    format!("[{}{}]", "#".repeat(filled), ".".repeat(width - filled))
}

/// A unicode sparkline, one character per value, min-max normalized.
/// A constant (or single-value) series renders at the lowest level so
/// flat history looks flat.
pub fn sparkline(values: &[f64]) -> String {
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in values {
        if v.is_finite() {
            lo = lo.min(v);
            hi = hi.max(v);
        }
    }
    if !lo.is_finite() || !hi.is_finite() {
        return String::new();
    }
    let span = hi - lo;
    values
        .iter()
        .map(|&v| {
            if !v.is_finite() {
                return ' ';
            }
            if span <= f64::EPSILON {
                return SPARKS[0];
            }
            let level = ((v - lo) / span * 7.0).round() as usize;
            SPARKS[level.min(7)]
        })
        .collect()
}

/// Milliseconds as a human duration: `8.2s`, `03:25`, `1:07:09`.
pub fn fmt_ms(ms: u128) -> String {
    let secs = ms / 1000;
    if secs < 60 {
        return format!("{:.1}s", ms as f64 / 1000.0);
    }
    let (h, m, s) = (secs / 3600, (secs % 3600) / 60, secs % 60);
    if h == 0 {
        format!("{m:02}:{s:02}")
    } else {
        format!("{h}:{m:02}:{s:02}")
    }
}

/// Bytes as a short size: `800B`, `1.2K`, `3.4M`.
pub fn fmt_bytes(bytes: u64) -> String {
    if bytes < 1024 {
        format!("{bytes}B")
    } else if bytes < 1024 * 1024 {
        format!("{:.1}K", bytes as f64 / 1024.0)
    } else {
        format!("{:.1}M", bytes as f64 / (1024.0 * 1024.0))
    }
}

fn fmt_opt_count(v: Option<u64>) -> String {
    v.map_or_else(|| "?".into(), |n| n.to_string())
}

fn fmt_opt_f64(v: Option<f64>, decimals: usize) -> String {
    v.map_or_else(|| "?".into(), |n| format!("{n:.decimals$}"))
}

fn fmt_opt_seconds(v: Option<f64>) -> String {
    v.map_or_else(|| "?".into(), |s| format!("{:.1}ms", s * 1e3))
}

/// Clips a line to `width` visible characters, passing ANSI CSI
/// sequences through without counting them (and never splitting one).
pub fn clip(line: &str, width: usize) -> String {
    let mut out = String::new();
    let mut visible = 0usize;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        if c == '\x1b' {
            // Copy the whole CSI sequence: ESC '[' params final-byte.
            out.push(c);
            if chars.peek() == Some(&'[') {
                for e in chars.by_ref() {
                    out.push(e);
                    if e.is_ascii_alphabetic() {
                        break;
                    }
                }
            }
            continue;
        }
        if visible >= width {
            // Keep consuming so trailing reset sequences still land.
            continue;
        }
        out.push(c);
        visible += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sources::BenchSeries;

    #[test]
    fn bar_fills_proportionally_and_handles_empty_totals() {
        assert_eq!(bar(0, 10, 10), "[..........]");
        assert_eq!(bar(5, 10, 10), "[#####.....]");
        assert_eq!(bar(10, 10, 10), "[##########]");
        assert_eq!(bar(0, 0, 4), "[####]", "empty phase counts as done");
        assert_eq!(bar(20, 10, 10), "[##########]", "overshoot clamps");
    }

    #[test]
    fn sparkline_normalizes_and_survives_degenerate_series() {
        assert_eq!(sparkline(&[1.0, 2.0, 3.0]).chars().count(), 3);
        assert_eq!(sparkline(&[0.0, 7.0]), "▁█");
        assert_eq!(sparkline(&[5.0, 5.0, 5.0]), "▁▁▁", "flat stays flat");
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[f64::NAN]), "");
    }

    #[test]
    fn durations_and_sizes_read_naturally() {
        assert_eq!(fmt_ms(8_200), "8.2s");
        assert_eq!(fmt_ms(205_000), "03:25");
        assert_eq!(fmt_ms(4_029_000), "1:07:09");
        assert_eq!(fmt_bytes(800), "800B");
        assert_eq!(fmt_bytes(1_228), "1.2K");
        assert_eq!(fmt_bytes(3_565_158), "3.4M");
    }

    #[test]
    fn clip_counts_visible_chars_not_escape_bytes() {
        assert_eq!(clip("abcdef", 4), "abcd");
        assert_eq!(clip("ab", 4), "ab");
        let colored = format!("{RED}abcdef{RESET}");
        let clipped = clip(&colored, 4);
        assert!(clipped.starts_with(RED));
        assert!(clipped.ends_with(RESET), "reset survives the clip");
        assert!(clipped.contains("abcd"));
        assert!(!clipped.contains("abcde"));
    }

    #[test]
    fn plain_mode_emits_no_escapes_and_every_pane_header() {
        let frame = Frame {
            results_dir: "results/".into(),
            bench: vec![
                BenchSeries {
                    name: "sweep-lru Mref/s".into(),
                    unit: "M".into(),
                    values: vec![1.0, 2.0],
                },
                BenchSeries {
                    name: "fifo ns/ref".into(),
                    unit: "ns".into(),
                    values: vec![2.0, 1.0],
                },
            ],
            ..Frame::default()
        };
        let text = render(&frame, 100, true);
        assert!(!text.contains('\x1b'));
        for pane in ["SWEEP", "OPS", "RUNS", "BENCH"] {
            assert!(text.contains(pane), "missing pane {pane} in:\n{text}");
        }
        assert!(text.contains("no progress feed"));
        // A name longer than the label column still lines up the sparklines.
        let spark_at = |name: &str| {
            let line = text
                .lines()
                .find(|l| l.contains(name))
                .expect("series line");
            line.chars().position(|c| "▁▂▃▄▅▆▇█".contains(c))
        };
        assert_eq!(spark_at("sweep-lru Mref/s"), Some(18));
        assert_eq!(spark_at("fifo ns/ref"), Some(18));
        let ansi = render(&frame, 100, false);
        assert!(ansi.contains('\x1b'));
    }
}
