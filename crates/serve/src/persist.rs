//! The write-behind result journal: crash recovery for served points.
//!
//! With `OCCACHE_SERVE_JOURNAL=dir` set, every computed point is
//! appended (off the request path, by a single writer thread) to
//! `dir/.checkpoint/serve.jsonl` in the exact sealed v2 record format of
//! `occache_runtime::journal`, so a killed-and-restarted server — whose
//! cache warm-starts from every journal in `dir/.checkpoint/`
//! ([`crate::cache::ResultCache::warm_start`]) — answers previously
//! computed points bit-identically from disk.
//!
//! Properties:
//!
//! * **Write-behind**: the request thread only sends `(key, entry)`
//!   down a channel; fsync cost never lands on a response's latency.
//! * **Dedup**: the writer keeps the set of keys already on disk
//!   (seeded by scanning the journal at open), so re-computed points —
//!   e.g. after the bounded cache evicted them — do not grow the file.
//! * **Crash-safe**: records are sealed with the FNV checksum, and
//!   [`scan_journal`]'s torn-tail repair means a crash mid-append costs
//!   at most the final record.

use std::collections::HashSet;
use std::fs;
use std::io::{self, Write};
use std::path::Path;
use std::sync::mpsc::{channel, Sender};
use std::thread::JoinHandle;

use occache_runtime::journal::{journal_path, point_body, scan_journal, seal, Entry};

/// The journal artifact name the serving layer owns (batch sweeps use
/// their experiment names).
pub const ARTIFACT: &str = "serve";

/// The handle the service holds: a channel into the writer thread.
#[derive(Debug)]
pub struct WriteBehind {
    tx: Option<Sender<(u64, Entry)>>,
    writer: Option<JoinHandle<u64>>,
}

impl WriteBehind {
    /// Opens (creating as needed) the serve journal under `dir`. The
    /// keys already on disk seed the dedup set; torn tails and corrupt
    /// lines are reported to stderr and skipped, exactly like the batch
    /// resume path, and a torn tail is fenced off with a newline so the
    /// next append starts a fresh record.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures creating the directory, scanning, or
    /// opening the journal for append.
    pub fn open(dir: &Path) -> io::Result<WriteBehind> {
        let path = journal_path(dir, ARTIFACT);
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        let scan = scan_journal(&path)?;
        if scan.needs_repair() {
            eprintln!(
                "serve journal {}: {} bad line(s), {} torn tail byte(s) — skipped",
                path.display(),
                scan.issues.len(),
                scan.torn_tail_bytes,
            );
        }
        let mut seen: HashSet<u64> = scan.points.keys().copied().collect();
        let mut file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        // A torn tail would corrupt the next append's first record;
        // start every append on a fresh line.
        if scan.torn_tail_bytes > 0 || scan.missing_final_newline {
            file.write_all(b"\n")?;
        }
        let (tx, rx) = channel::<(u64, Entry)>();
        let writer = std::thread::Builder::new()
            .name("occache-journal".to_string())
            .spawn(move || {
                let mut appended = 0u64;
                while let Ok((key, entry)) = rx.recv() {
                    if !seen.insert(key) || entry.non_finite_field().is_some() {
                        continue;
                    }
                    let line = seal(&point_body(key, &entry));
                    if file
                        .write_all(line.as_bytes())
                        .and_then(|()| file.write_all(b"\n"))
                        .and_then(|()| file.flush())
                        .is_err()
                    {
                        // Journalling is best-effort durability on top
                        // of a correct in-memory answer; a full disk
                        // must not take the service down with it.
                        seen.remove(&key);
                        continue;
                    }
                    appended += 1;
                }
                let _ = file.sync_all();
                appended
            })?;
        Ok(WriteBehind {
            tx: Some(tx),
            writer: Some(writer),
        })
    }

    /// Queues one computed point for append. Never blocks the caller.
    pub fn record(&self, key: u64, entry: Entry) {
        if let Some(tx) = &self.tx {
            let _ = tx.send((key, entry));
        }
    }

    /// Drains the channel, fsyncs, joins the writer; returns how many
    /// records this process appended.
    pub fn shutdown(mut self) -> u64 {
        self.close()
    }

    fn close(&mut self) -> u64 {
        drop(self.tx.take());
        self.writer.take().and_then(|w| w.join().ok()).unwrap_or(0)
    }
}

impl Drop for WriteBehind {
    fn drop(&mut self) {
        self.close();
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

    #[test]
    fn appends_dedups_and_recovers_across_reopen() {
        let dir = std::env::temp_dir().join(format!("occache-wb-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let wb = WriteBehind::open(&dir).unwrap();
        wb.record(1, entry(0.25));
        wb.record(2, entry(0.5));
        wb.record(1, entry(0.25)); // dedup
        assert_eq!(wb.shutdown(), 2);

        // Simulate a crash mid-append: a torn trailing record.
        let path = journal_path(&dir, ARTIFACT);
        let mut file = fs::OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(b"{\"v\":2,\"key\":\"00000000000").unwrap();
        drop(file);

        let wb = WriteBehind::open(&dir).unwrap();
        // Keys already on disk are not appended again; new appends after
        // the torn tail still parse.
        wb.record(2, entry(0.5));
        wb.record(3, entry(0.75));
        assert_eq!(wb.shutdown(), 1);
        let scan = scan_journal(&path).unwrap();
        let mut keys: Vec<u64> = scan.points.keys().copied().collect();
        keys.sort_unstable();
        assert_eq!(keys, [1, 2, 3], "intact records survive the torn tail");
        assert_eq!(
            scan.points[&1].miss.to_bits(),
            0.25f64.to_bits(),
            "bit-identical restore"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
