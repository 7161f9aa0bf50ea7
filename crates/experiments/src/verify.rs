//! End-to-end result verification: the engine behind `occache-verify`
//! and `occache sweep --verify`.
//!
//! A verification pass over a results directory checks three layers:
//!
//! 1. **Manifest** — every file named in `MANIFEST.json` exists and its
//!    FNV-1a content hash and size match; a single flipped byte fails.
//! 2. **Journals** — every checkpoint journal under `.checkpoint/` is
//!    scanned strictly: any bad line, torn tail or missing final newline
//!    is a failure (a *run* repairs such damage; a *verifier* reports
//!    it).
//! 3. **Re-simulation** — a deterministic sample of journalled points is
//!    recomputed through the *direct* simulator
//!    ([`crate::sweep::evaluate_point`]) and compared bit-exactly
//!    against the journal, catching both on-disk corruption and any
//!    multisim/direct divergence in the wild.
//!
//! Re-simulation needs the same `OCCACHE_REFS` (and trace set) as the
//! original run: points whose key is absent from the journal are not
//! comparable, and a fully non-overlapping journal produces a note
//! suggesting the mismatch rather than a silent pass.

use std::io;
use std::path::Path;

use crate::checkpoint::JournalLock;
use crate::manifest::{self, MANIFEST_FILE};
use crate::runs::{journalled_grid, Workbench};
use crate::sweep::{evaluate_point, trace_len};
use occache_runtime::journal::scan_journal;
use occache_runtime::keys::{fnv1a, point_key, trace_fingerprint};

/// Tuning for a verification pass.
#[derive(Debug, Clone)]
pub struct VerifyOptions {
    /// How many journalled points to re-simulate per journal.
    pub sample: usize,
    /// References per trace for re-simulation (must match the run's
    /// `OCCACHE_REFS` for journal keys to line up).
    pub refs: usize,
    /// Whether to re-simulate at all (hash/scan checks always run).
    pub resim: bool,
}

impl VerifyOptions {
    /// Defaults: 4 points per journal, `OCCACHE_REFS` (or the paper's
    /// 1 M), re-simulation on.
    pub fn from_env() -> Self {
        VerifyOptions {
            sample: 4,
            refs: trace_len(),
            resim: true,
        }
    }
}

/// What a verification pass found. Failures are listed individually so
/// the operator sees *which* file or record is damaged.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// Manifest entries whose file hashed clean.
    pub files_checked: usize,
    /// Files named by the manifest but absent (includes the manifest
    /// itself when the directory has none).
    pub files_missing: Vec<String>,
    /// Files whose size or content hash disagrees with the manifest.
    pub files_mismatched: Vec<String>,
    /// Checkpoint journals scanned.
    pub journals_checked: usize,
    /// Journal damage, one line per issue (file, line number, class).
    pub journal_issues: Vec<String>,
    /// Journalled points re-simulated and compared bit-exactly.
    pub resim_checked: usize,
    /// Re-simulated points that disagree with the journal.
    pub resim_mismatched: Vec<String>,
    /// Non-failing observations (skipped journals, key mismatches).
    pub notes: Vec<String>,
}

impl VerifyReport {
    /// True when nothing failed (notes alone do not fail a pass).
    pub fn is_ok(&self) -> bool {
        self.files_missing.is_empty()
            && self.files_mismatched.is_empty()
            && self.journal_issues.is_empty()
            && self.resim_mismatched.is_empty()
    }

    /// Human-readable summary, one section per layer.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "verify: {} file(s) hashed clean, {} journal(s) scanned, {} point(s) re-simulated\n",
            self.files_checked, self.journals_checked, self.resim_checked
        ));
        let mut section = |title: &str, items: &[String]| {
            if !items.is_empty() {
                out.push_str(&format!("{title} ({}):\n", items.len()));
                for item in items {
                    out.push_str(&format!("  {item}\n"));
                }
            }
        };
        section("MISSING files", &self.files_missing);
        section("MISMATCHED files", &self.files_mismatched);
        section("JOURNAL damage", &self.journal_issues);
        section("RESIM divergence", &self.resim_mismatched);
        section("notes", &self.notes);
        out.push_str(if self.is_ok() {
            "verify: OK\n"
        } else {
            "verify: FAILED\n"
        });
        out
    }
}

/// Verifies a results directory: manifest hashes, strict journal scans,
/// and (optionally) sampled bit-exact re-simulation. Holds the
/// directory's checkpoint lock while reading, so a concurrent run cannot
/// mutate the journals mid-verify.
///
/// # Errors
///
/// Propagates filesystem errors and lock contention
/// ([`io::ErrorKind::WouldBlock`] when a live run holds the lock).
/// Verification *failures* are not errors — they come back in the
/// report.
pub fn verify_dir(dir: &Path, opts: &VerifyOptions) -> io::Result<VerifyReport> {
    let mut report = VerifyReport::default();
    let ckpt = dir.join(".checkpoint");
    let _lock = if ckpt.exists() {
        Some(JournalLock::acquire(dir)?)
    } else {
        None
    };

    // Layer 1: manifest hashes.
    if dir.join(MANIFEST_FILE).exists() {
        for entry in manifest::load(dir)? {
            match std::fs::read(dir.join(&entry.name)) {
                Ok(bytes) => {
                    if bytes.len() as u64 != entry.bytes || fnv1a(&bytes) != entry.fnv {
                        report.files_mismatched.push(format!(
                            "{} (manifest says {} byte(s), fnv {:016x})",
                            entry.name, entry.bytes, entry.fnv
                        ));
                    } else {
                        report.files_checked += 1;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::NotFound => {
                    report.files_missing.push(entry.name.clone());
                }
                Err(e) => return Err(e),
            }
        }
    } else {
        report.files_missing.push(MANIFEST_FILE.to_string());
    }

    // Layer 2: strict journal scans.
    let mut journals: Vec<(String, std::path::PathBuf)> = Vec::new();
    if ckpt.exists() {
        for dirent in std::fs::read_dir(&ckpt)? {
            let dirent = dirent?;
            let path = dirent.path();
            let name = dirent.file_name().to_string_lossy().into_owned();
            if let Some(stem) = name.strip_suffix(".jsonl") {
                journals.push((stem.to_string(), path));
            }
        }
    }
    journals.sort();
    let mut bench = Workbench::new(opts.refs);
    for (artifact, path) in &journals {
        let scan = scan_journal(path)?;
        report.journals_checked += 1;
        for (line_no, issue) in &scan.issues {
            report
                .journal_issues
                .push(format!("{artifact}.jsonl line {line_no}: {issue}"));
        }
        if scan.torn_tail_bytes > 0 {
            report.journal_issues.push(format!(
                "{artifact}.jsonl: torn tail of {} byte(s)",
                scan.torn_tail_bytes
            ));
        }
        if scan.missing_final_newline {
            report
                .journal_issues
                .push(format!("{artifact}.jsonl: missing final newline"));
        }

        // Layer 3: sampled bit-exact re-simulation via the direct path.
        if !opts.resim || scan.points.is_empty() {
            continue;
        }
        let Some(groups) = journalled_grid(&mut bench, artifact) else {
            report.notes.push(format!(
                "{artifact}.jsonl: no grid reconstruction for this artifact; re-simulation skipped"
            ));
            continue;
        };
        // Candidates: journalled points this grid can reproduce, with
        // the group (trace set, warm-up) that owns each.
        let mut candidates = Vec::new();
        for (gi, group) in groups.iter().enumerate() {
            let fp = trace_fingerprint(&group.traces);
            for &config in &group.configs {
                let key = point_key(&config, fp, group.warmup);
                if let Some(&entry) = scan.points.get(&key) {
                    candidates.push((key, config, gi, entry));
                }
            }
        }
        if candidates.is_empty() {
            report.notes.push(format!(
                "{artifact}.jsonl: no journalled point matches the reconstructed grid \
                 (was the run made with a different OCCACHE_REFS than {}?)",
                opts.refs
            ));
            continue;
        }
        candidates.sort_by_key(|&(key, ..)| key);
        let take = opts.sample.max(1).min(candidates.len());
        for k in 0..take {
            // Evenly spaced over the key-sorted candidates, so the
            // sample is deterministic for a given journal and grid.
            let idx = k * candidates.len() / take;
            let (_, config, gi, entry) = candidates[idx];
            let group = &groups[gi];
            let point = evaluate_point(config, &group.traces, group.warmup);
            let same = point.miss_ratio.to_bits() == entry.miss.to_bits()
                && point.traffic_ratio.to_bits() == entry.traffic.to_bits()
                && point.nibble_traffic_ratio.to_bits() == entry.nibble.to_bits()
                && point.redundant_load_fraction.to_bits() == entry.redundant.to_bits();
            report.resim_checked += 1;
            if !same {
                report.resim_mismatched.push(format!(
                    "{artifact}.jsonl {config}: journal ({:?}, {:?}, {:?}, {:?}) vs direct \
                     ({:?}, {:?}, {:?}, {:?})",
                    entry.miss,
                    entry.traffic,
                    entry.nibble,
                    entry.redundant,
                    point.miss_ratio,
                    point.traffic_ratio,
                    point.nibble_traffic_ratio,
                    point.redundant_load_fraction,
                ));
            }
        }
    }
    Ok(report)
}
