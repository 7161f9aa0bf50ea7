//! The checkpoint journal: its record format, its read-side scan, its
//! compaction and its one writer.
//!
//! A journal is an append-only file of sealed JSON lines, one per
//! completed (or failed) design point, keyed by
//! [`crate::keys::point_key`]. Since format v2 every record carries a
//! schema-version field and an FNV-1a checksum over its payload, so
//! corruption is *detected* rather than silently mis-parsed. This module
//! owns what both front-ends need: the codec ([`seal`], [`parse_line`]),
//! the non-mutating [`scan_journal`], the atomic [`compact_journal`],
//! and the [`Appender`], the only writer of sealed lines, which the
//! batch checkpoint layer and `occache-serve` both append through. A
//! batch sweep resumes from its own journal's scan; every journal of a
//! results directory is read once into the [`crate::store::PointStore`]
//! that both front-ends consult. The batch policy around these pieces
//! (advisory locking, when to compact, quarantine) stays in
//! `occache-experiments::checkpoint`.
//!
//! Record format (v2): `{<body>,"sum":"<fnv1a(body) as 016x>"}` where
//! `<body>` is either a point record
//! `"v":2,"key":"<016x>","miss":M,"traffic":T,"nibble":N,"redundant":R`
//! or a failure tombstone `"v":2,"key":"<016x>","fail":COUNT`.

use std::collections::{HashMap, HashSet};
use std::fs;
use std::io::{self, Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use occache_core::CacheConfig;

use crate::config::write_result_in;
use crate::eval::DesignPoint;
use crate::fmt::fmt_f64_exact;
use crate::instrument::Counter;
use crate::keys::fnv1a;

/// The journal schema version this build reads and writes. Records with
/// any other version are counted as bad lines and re-simulated, never
/// guessed at.
pub const JOURNAL_VERSION: u32 = 2;

/// A journalled measurement: the averaged ratios of one design point.
/// The config itself is not stored — the key identifies it, and the
/// caller's config list supplies the full value on restore.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Entry {
    /// Averaged miss ratio.
    pub miss: f64,
    /// Averaged traffic ratio.
    pub traffic: f64,
    /// Averaged nibble-mode scaled traffic ratio.
    pub nibble: f64,
    /// Averaged redundant-load fraction.
    pub redundant: f64,
}

impl Entry {
    /// The journalled fields of a computed design point.
    pub fn of(p: &DesignPoint) -> Self {
        Entry {
            miss: p.miss_ratio,
            traffic: p.traffic_ratio,
            nibble: p.nibble_traffic_ratio,
            redundant: p.redundant_load_fraction,
        }
    }

    /// The design point this entry journals for `config`: a restored
    /// point has the bits of the computed one.
    pub fn restore(&self, config: CacheConfig) -> DesignPoint {
        DesignPoint {
            config,
            miss_ratio: self.miss,
            traffic_ratio: self.traffic,
            nibble_traffic_ratio: self.nibble,
            redundant_load_fraction: self.redundant,
            gross_size: config.gross_size(),
        }
    }

    /// The first non-finite field's name, or `None` when all four
    /// metrics are finite (the only state allowed into the journal).
    pub fn non_finite_field(&self) -> Option<&'static str> {
        [
            ("miss_ratio", self.miss),
            ("traffic_ratio", self.traffic),
            ("nibble_traffic_ratio", self.nibble),
            ("redundant_load_fraction", self.redundant),
        ]
        .into_iter()
        .find(|(_, v)| !v.is_finite())
        .map(|(name, _)| name)
    }
}

/// Journal health observed while loading a checkpoint (all zero for
/// non-resumable sweeps and pristine journals).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalHealth {
    /// Corrupt journal lines encountered (bad checksum, unknown schema
    /// version, unparseable, non-finite payload) — counted, warned about,
    /// and dropped by compaction, never silently skipped.
    pub bad_lines: usize,
    /// Bytes of torn trailing record truncated away by tail repair.
    pub repaired_tail_bytes: usize,
}

/// The journal path for an artifact under `dir`.
pub fn journal_path(dir: &Path, artifact: &str) -> PathBuf {
    dir.join(".checkpoint").join(format!("{artifact}.jsonl"))
}

/// Every journal of a results directory's checkpoint store
/// (`<dir>/.checkpoint/*.jsonl`), sorted by path; a missing store lists
/// none. [`crate::store::PointStore::load`] reads them all.
///
/// # Errors
///
/// Propagates filesystem errors other than the store not existing.
pub fn store_journals(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let entries = match fs::read_dir(dir.join(".checkpoint")) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut paths = Vec::new();
    for dirent in entries {
        let path = dirent?.path();
        // LOCK, PROGRESS.json and temp files are not journals.
        if path.extension().and_then(|e| e.to_str()) == Some("jsonl") {
            paths.push(path);
        }
    }
    paths.sort();
    Ok(paths)
}

/// The advisory lockfile path for a results directory.
pub fn lock_path(dir: &Path) -> PathBuf {
    dir.join(".checkpoint").join("LOCK")
}

/// Renders the body of a point record. Floats use
/// [`fmt_f64_exact`] — the shortest string that round-trips exactly — so
/// a restored point is bit-identical to the computed one.
pub fn point_body(key: u64, e: &Entry) -> String {
    format!(
        "\"v\":{JOURNAL_VERSION},\"key\":\"{key:016x}\",\"miss\":{},\"traffic\":{},\"nibble\":{},\"redundant\":{}",
        fmt_f64_exact(e.miss),
        fmt_f64_exact(e.traffic),
        fmt_f64_exact(e.nibble),
        fmt_f64_exact(e.redundant)
    )
}

/// Renders the body of a failure tombstone.
pub fn tombstone_body(key: u64, count: u32) -> String {
    format!("\"v\":{JOURNAL_VERSION},\"key\":\"{key:016x}\",\"fail\":{count}")
}

/// Seals a record body into a journal line: the body plus an FNV-1a
/// checksum over exactly the body bytes. Any single flipped or missing
/// byte breaks either the checksum or the line structure.
pub fn seal(body: &str) -> String {
    format!("{{{body},\"sum\":\"{:016x}\"}}", fnv1a(body.as_bytes()))
}

/// One successfully parsed v2 journal record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Record {
    /// A completed design point.
    Point(u64, Entry),
    /// A failure tombstone: the point failed `count` more time(s).
    Tombstone(u64, u32),
}

/// Why a journal line was rejected. Every rejection is counted and
/// reported — never silently skipped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineIssue {
    /// Not a sealed record at all (torn write, foreign garbage).
    Unparseable,
    /// Well-formed but the checksum does not match the payload.
    BadChecksum,
    /// A schema version this build does not read (including legacy v1
    /// lines, which carry no checksum and so cannot be trusted).
    BadVersion,
    /// A point record whose metrics include NaN or infinity.
    NonFinite,
}

impl std::fmt::Display for LineIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            LineIssue::Unparseable => "unparseable",
            LineIssue::BadChecksum => "bad checksum",
            LineIssue::BadVersion => "unsupported schema version",
            LineIssue::NonFinite => "non-finite metric",
        })
    }
}

/// Parses the comma-separated fields of a record body. Values are a hex
/// string and plain numbers, none of which can contain a comma, so
/// splitting on ',' is unambiguous.
fn parse_body(body: &str) -> Option<Record> {
    let mut version = None;
    let mut key = None;
    let mut fail = None;
    let mut miss = None;
    let mut traffic = None;
    let mut nibble = None;
    let mut redundant = None;
    for field in body.split(',') {
        let (name, value) = field.split_once(':')?;
        let name = name.trim().strip_prefix('"')?.strip_suffix('"')?;
        let value = value.trim();
        match name {
            "v" => version = Some(value.parse::<u32>().ok()?),
            "key" => {
                let hex = value.strip_prefix('"')?.strip_suffix('"')?;
                key = Some(u64::from_str_radix(hex, 16).ok()?);
            }
            "fail" => fail = Some(value.parse::<u32>().ok()?),
            "miss" => miss = Some(value.parse().ok()?),
            "traffic" => traffic = Some(value.parse().ok()?),
            "nibble" => nibble = Some(value.parse().ok()?),
            "redundant" => redundant = Some(value.parse().ok()?),
            _ => return None,
        }
    }
    if version? != JOURNAL_VERSION {
        return None;
    }
    let key = key?;
    if let Some(count) = fail {
        if miss.is_some() || traffic.is_some() || nibble.is_some() || redundant.is_some() {
            return None;
        }
        return Some(Record::Tombstone(key, count));
    }
    Some(Record::Point(
        key,
        Entry {
            miss: miss?,
            traffic: traffic?,
            nibble: nibble?,
            redundant: redundant?,
        },
    ))
}

/// Whether a line is a legacy (v1) record: parseable under the old
/// unchecksummed schema. Reported as [`LineIssue::BadVersion`] so an old
/// journal reads as "N stale lines", not as garbage.
fn is_v1_line(line: &str) -> bool {
    let Some(inner) = line
        .trim()
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
    else {
        return false;
    };
    let mut saw_key = false;
    for field in inner.split(',') {
        let Some((name, _)) = field.split_once(':') else {
            return false;
        };
        match name.trim() {
            "\"key\"" => saw_key = true,
            "\"miss\"" | "\"traffic\"" | "\"nibble\"" | "\"redundant\"" => {}
            _ => return false,
        }
    }
    saw_key
}

/// Parses one journal line into a [`Record`] or a structured rejection.
///
/// # Errors
///
/// A [`LineIssue`] classifying why the line was rejected.
pub fn parse_line(line: &str) -> Result<Record, LineIssue> {
    let trimmed = line.trim();
    let Some(inner) = trimmed.strip_prefix('{').and_then(|s| s.strip_suffix('}')) else {
        return Err(LineIssue::Unparseable);
    };
    let Some((body, sum_part)) = inner.rsplit_once(",\"sum\":\"") else {
        if is_v1_line(trimmed) {
            return Err(LineIssue::BadVersion);
        }
        return Err(LineIssue::Unparseable);
    };
    let sum = sum_part
        .strip_suffix('"')
        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
        .ok_or(LineIssue::Unparseable)?;
    if fnv1a(body.as_bytes()) != sum {
        return Err(LineIssue::BadChecksum);
    }
    let record = parse_body(body).ok_or(LineIssue::BadVersion)?;
    if let Record::Point(_, entry) = &record {
        if entry.non_finite_field().is_some() {
            return Err(LineIssue::NonFinite);
        }
    }
    Ok(record)
}

/// Everything a read of one journal file learned: the intact records,
/// the damage, and whether an in-place repair (compaction) is needed.
#[derive(Debug, Clone, Default)]
pub struct JournalScan {
    /// Intact completed points by key (last record wins).
    pub points: HashMap<u64, Entry>,
    /// Accumulated failure counts by key (tombstones summed).
    pub fails: HashMap<u64, u32>,
    /// Rejected lines as `(1-based line number, why)`.
    pub issues: Vec<(usize, LineIssue)>,
    /// Bytes of a torn trailing record (crash mid-append) that repair
    /// truncates away. Zero for a cleanly terminated journal.
    pub torn_tail_bytes: usize,
    /// True when the final record parsed but lacked its newline (the
    /// append crashed between the write and the `\n` landing).
    pub missing_final_newline: bool,
}

impl JournalScan {
    /// Whether the on-disk file needs rewriting to become pristine.
    pub fn needs_repair(&self) -> bool {
        !self.issues.is_empty() || self.torn_tail_bytes > 0 || self.missing_final_newline
    }

    /// The journal-health counters this scan contributes to a sweep
    /// outcome.
    pub fn health(&self) -> JournalHealth {
        JournalHealth {
            bad_lines: self.issues.len(),
            repaired_tail_bytes: self.torn_tail_bytes,
        }
    }
}

/// Reads a journal without modifying it, classifying every line. A
/// missing file is an empty (healthy) journal. The final segment is
/// special-cased: if it has no terminating newline but still parses, the
/// record is kept (only the newline is missing); if it does not parse it
/// is a torn tail from a crashed append, counted in bytes rather than as
/// a bad line. The read stops at the length the file had when opened, so
/// a journal path that names a device (`/dev/full`, `/dev/zero`) scans
/// as empty instead of reading forever.
///
/// # Errors
///
/// Propagates I/O errors other than a missing file.
pub fn scan_journal(path: &Path) -> io::Result<JournalScan> {
    let file = match fs::File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(JournalScan::default()),
        Err(e) => return Err(e),
    };
    let len = file.metadata()?.len();
    let mut bytes = Vec::new();
    file.take(len).read_to_end(&mut bytes)?;
    let mut scan = JournalScan::default();
    let mut line_no = 0usize;
    let mut rest: &[u8] = &bytes;
    while !rest.is_empty() {
        line_no += 1;
        let (segment, terminated) = match rest.iter().position(|&b| b == b'\n') {
            Some(nl) => {
                let seg = &rest[..nl];
                rest = &rest[nl + 1..];
                (seg, true)
            }
            None => {
                let seg = rest;
                rest = &[];
                (seg, false)
            }
        };
        let text = String::from_utf8_lossy(segment);
        match parse_line(&text) {
            Ok(Record::Point(key, entry)) => {
                if terminated {
                    scan.points.insert(key, entry);
                } else {
                    scan.points.insert(key, entry);
                    scan.missing_final_newline = true;
                }
            }
            Ok(Record::Tombstone(key, count)) => {
                *scan.fails.entry(key).or_insert(0) += count;
                if !terminated {
                    scan.missing_final_newline = true;
                }
            }
            Err(issue) => {
                if terminated {
                    scan.issues.push((line_no, issue));
                } else {
                    // A torn trailing record: a crash mid-append, not
                    // corruption of committed data.
                    scan.torn_tail_bytes = segment.len();
                }
            }
        }
    }
    Ok(scan)
}

/// Atomically rewrites a journal from a scan's intact records: canonical
/// sealed lines, points first (sorted by key), then one aggregated
/// tombstone per still-failing key. Tombstones for keys that later
/// succeeded are dropped: success clears the tally. Returns the scan of
/// the rewritten file, which needs no repair.
///
/// # Errors
///
/// Propagates the atomic write's I/O errors.
pub fn compact_journal(path: &Path, scan: JournalScan) -> io::Result<JournalScan> {
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "journal path has no name"))?;
    let JournalScan {
        points, mut fails, ..
    } = scan;
    fails.retain(|key, _| !points.contains_key(key));
    let mut keys: Vec<u64> = points.keys().copied().collect();
    let mut fail_keys: Vec<u64> = fails.keys().copied().collect();
    keys.sort_unstable();
    fail_keys.sort_unstable();
    let bodies = (keys.iter().map(|k| point_body(*k, &points[k])))
        .chain(fail_keys.iter().map(|k| tombstone_body(*k, fails[k])));
    let content: String = bodies.map(|body| seal(&body) + "\n").collect();
    write_result_in(dir, name, &content)?;
    Ok(JournalScan {
        points,
        fails,
        ..JournalScan::default()
    })
}

/// What the journal writer thread is asked to do.
#[derive(Debug)]
enum Op {
    Append(Record),
    /// Fsync what is written so far and reply with the first I/O error.
    Sync(Sender<io::Result<()>>),
}

/// The only writer of sealed journal lines, for batch sweeps and
/// `occache-serve` alike. One `occache-journal` thread owns the file and
/// drains a channel, so lines from many threads never interleave and
/// [`Appender::append`] never waits on the disk. The writer skips
/// non-finite points and point keys already on disk or already written;
/// tombstones always land, each being a failure to tally. It bumps the
/// caller's counter per line written. After a write error it forgets
/// that point's key, so a recompute may try again, and carries on;
/// [`Appender::sync`] and [`Appender::close`] report the first error.
/// Dropping an appender closes it and ignores the error.
#[derive(Debug)]
pub struct Appender {
    tx: Option<Sender<Op>>,
    writer: Option<JoinHandle<io::Result<()>>>,
}

impl Appender {
    /// Opens `<dir>/.checkpoint/<artifact>.jsonl` for append, creating
    /// both as needed, and starts the writer thread. `on_disk` is the
    /// caller's scan of the file as it stands ([`JournalScan::default`]
    /// for one not written yet): its points seed the on-disk keys, and a
    /// torn tail or missing final newline is fenced off with a newline
    /// so the first append starts a fresh record. `appended` counts the
    /// lines written.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors creating the directory, opening the file or
    /// fencing its tail, and a failure to spawn the thread.
    pub fn open(
        dir: &Path,
        artifact: &str,
        on_disk: &JournalScan,
        appended: Arc<Counter>,
    ) -> io::Result<Appender> {
        let path = journal_path(dir, artifact);
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        let mut file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        if on_disk.torn_tail_bytes > 0 || on_disk.missing_final_newline {
            file.write_all(b"\n")?;
        }
        let mut written: HashSet<u64> = on_disk.points.keys().copied().collect();
        let (tx, rx) = channel::<Op>();
        let writer = std::thread::Builder::new()
            .name("occache-journal".to_string())
            .spawn(move || -> io::Result<()> {
                let mut first_error: Option<io::Error> = None;
                for op in rx {
                    let record = match op {
                        Op::Append(record) => record,
                        Op::Sync(reply) => {
                            let _ = reply.send(match &first_error {
                                Some(e) => Err(io::Error::new(e.kind(), e.to_string())),
                                None => file.sync_all(),
                            });
                            continue;
                        }
                    };
                    let body = match record {
                        Record::Point(key, entry) => {
                            if entry.non_finite_field().is_some() || !written.insert(key) {
                                continue;
                            }
                            point_body(key, &entry)
                        }
                        Record::Tombstone(key, count) => tombstone_body(key, count),
                    };
                    match file.write_all((seal(&body) + "\n").as_bytes()) {
                        Ok(()) => appended.bump(),
                        Err(e) => {
                            if let Record::Point(key, _) = record {
                                written.remove(&key);
                            }
                            first_error.get_or_insert(e);
                        }
                    }
                }
                let synced = file.sync_all();
                first_error.map_or(synced, Err)
            })?;
        Ok(Appender {
            tx: Some(tx),
            writer: Some(writer),
        })
    }

    /// Queues one record for the writer. Never blocks the caller.
    pub fn append(&self, record: Record) {
        if let Some(tx) = &self.tx {
            let _ = tx.send(Op::Append(record));
        }
    }

    /// Waits until every record queued so far is written and fsynced.
    ///
    /// # Errors
    ///
    /// The first write error so far, else the fsync's.
    pub fn sync(&self) -> io::Result<()> {
        let (reply, answer) = channel();
        if let Some(tx) = &self.tx {
            let _ = tx.send(Op::Sync(reply));
        }
        answer
            .recv()
            .unwrap_or_else(|_| Err(io::Error::other("the journal writer has stopped")))
    }

    /// Writes every queued record, fsyncs and stops the writer.
    ///
    /// # Errors
    ///
    /// The first write error, else the final fsync's; a panic of the
    /// writer thread is reported as an error too.
    pub fn close(mut self) -> io::Result<()> {
        self.finish()
    }

    fn finish(&mut self) -> io::Result<()> {
        drop(self.tx.take());
        let Some(writer) = self.writer.take() else {
            return Ok(());
        };
        writer.join().unwrap_or_else(|payload| {
            Err(io::Error::other(format!(
                "journal writer thread panicked: {}",
                crate::eval::panic_message(payload)
            )))
        })
    }
}

impl Drop for Appender {
    fn drop(&mut self) {
        let _ = self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(seed: f64) -> Entry {
        Entry {
            miss: seed,
            traffic: seed * 2.0,
            nibble: seed / 3.0,
            redundant: 0.0,
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("occache-journal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn appender_skips_known_points_and_recovers_across_reopen() {
        let dir = temp_dir("appender");
        let appended = Arc::new(Counter::default());
        let path = journal_path(&dir, "serve");
        let scan = scan_journal(&path).unwrap();
        let journal = Appender::open(&dir, "serve", &scan, Arc::clone(&appended)).unwrap();
        journal.append(Record::Point(1, entry(0.25)));
        journal.append(Record::Point(2, entry(0.5)));
        journal.append(Record::Point(1, entry(0.25))); // already written
        journal.append(Record::Point(4, entry(f64::NAN))); // never journalled
        journal.append(Record::Tombstone(5, 1));
        journal.append(Record::Tombstone(5, 1)); // every failure tallies
        journal.sync().unwrap();
        assert_eq!(
            scan_journal(&path).unwrap().points.len(),
            2,
            "synced lines are on disk"
        );
        journal.close().unwrap();
        assert_eq!(appended.get(), 4, "the counter sees written lines only");

        // A crash mid-append: a torn trailing record.
        let mut file = fs::OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(b"{\"v\":2,\"key\":\"00000000000").unwrap();
        drop(file);

        let scan = scan_journal(&path).unwrap();
        assert!(scan.torn_tail_bytes > 0);
        let journal = Appender::open(&dir, "serve", &scan, Arc::clone(&appended)).unwrap();
        // Keys already on disk are not appended again; appends after the
        // fenced-off torn tail still parse.
        journal.append(Record::Point(2, entry(0.5)));
        journal.append(Record::Point(3, entry(0.75)));
        drop(journal);
        assert_eq!(appended.get(), 5);
        let scan = scan_journal(&path).unwrap();
        let mut keys: Vec<u64> = scan.points.keys().copied().collect();
        keys.sort_unstable();
        assert_eq!(keys, [1, 2, 3], "intact records survive the torn tail");
        assert_eq!(scan.fails[&5], 2);
        assert_eq!(scan.issues.len(), 1, "the torn record alone is lost");
        assert_eq!(
            scan.points[&1].miss.to_bits(),
            0.25f64.to_bits(),
            "bit-identical restore"
        );
        // Compaction drops the torn record and leaves a pristine journal.
        let compacted = compact_journal(&path, scan).unwrap();
        assert!(!compacted.needs_repair());
        let rescan = scan_journal(&path).unwrap();
        assert!(!rescan.needs_repair(), "{rescan:?}");
        assert_eq!(rescan.points, compacted.points);
        assert_eq!(rescan.fails, compacted.fails);
        let _ = fs::remove_dir_all(&dir);
    }

    #[cfg(unix)]
    #[test]
    fn appender_reports_the_first_write_error_and_counts_nothing() {
        if !Path::new("/dev/full").exists() {
            eprintln!("skipped: this system has no /dev/full");
            return;
        }
        let dir = temp_dir("full");
        let path = journal_path(&dir, "t");
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::os::unix::fs::symlink("/dev/full", &path).unwrap();
        let scan = scan_journal(&path).unwrap();
        assert!(
            scan.points.is_empty() && !scan.needs_repair(),
            "a device scans as empty"
        );
        let appended = Arc::new(Counter::default());
        let journal = Appender::open(&dir, "t", &scan, Arc::clone(&appended)).unwrap();
        journal.append(Record::Point(1, entry(0.25)));
        journal.append(Record::Tombstone(2, 1));
        assert!(journal.sync().is_err(), "sync reports the failed write");
        journal.append(Record::Point(1, entry(0.25)));
        let err = journal.close().expect_err("close reports the failed write");
        assert_eq!(err.kind(), io::ErrorKind::StorageFull, "{err}");
        assert_eq!(appended.get(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sealed_records_round_trip_through_the_parser() {
        let entry = Entry {
            miss: 0.125,
            traffic: 1.5,
            nibble: 0.75,
            redundant: 0.0,
        };
        let line = seal(&point_body(0xabc, &entry));
        assert_eq!(parse_line(&line), Ok(Record::Point(0xabc, entry)));
        let tomb = seal(&tombstone_body(0xdef, 2));
        assert_eq!(parse_line(&tomb), Ok(Record::Tombstone(0xdef, 2)));
    }

    #[test]
    fn corruption_is_classified_not_guessed() {
        let entry = Entry {
            miss: 0.1,
            traffic: 1.0,
            nibble: 0.5,
            redundant: 0.0,
        };
        let line = seal(&point_body(7, &entry));
        let flipped = line.replace("0.1", "0.2");
        assert_eq!(parse_line(&flipped), Err(LineIssue::BadChecksum));
        assert_eq!(parse_line("not json"), Err(LineIssue::Unparseable));
        assert_eq!(
            parse_line("{\"key\":\"0000000000000007\",\"miss\":0.1,\"traffic\":1.0,\"nibble\":0.5,\"redundant\":0.0}"),
            Err(LineIssue::BadVersion),
            "legacy v1 lines read as stale, not garbage"
        );
    }

    #[test]
    fn non_finite_entries_are_rejected_by_name() {
        let entry = Entry {
            miss: f64::NAN,
            traffic: 1.0,
            nibble: 0.5,
            redundant: 0.0,
        };
        assert_eq!(entry.non_finite_field(), Some("miss_ratio"));
        let line = seal(&point_body(9, &entry));
        assert_eq!(parse_line(&line), Err(LineIssue::NonFinite));
    }
}
