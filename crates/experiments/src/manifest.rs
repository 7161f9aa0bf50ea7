//! The artifact manifest: `results/MANIFEST.json`.
//!
//! Every emitted artifact records its output files here with an FNV-1a
//! content hash, the generator version, and the trace/config
//! fingerprints of the sweep that produced it. `occache-verify` (and
//! `occache sweep --verify`) later re-hashes every file against the
//! manifest, so a single flipped byte anywhere in a result is caught —
//! silent on-disk corruption can no longer masquerade as science.
//!
//! The format is line-oriented hand-rolled JSON like the checkpoint
//! journal: one entry object per line inside an `"entries"` array.
//! Merging is by file name (an artifact re-emit replaces its own
//! entries), and the write is atomic under the checkpoint lock so
//! concurrent emits cannot interleave.

use std::io;
use std::path::Path;

use crate::checkpoint::JournalLock;
use occache_runtime::keys::fnv1a;

/// The manifest file name under the results directory.
pub const MANIFEST_FILE: &str = "MANIFEST.json";

/// One manifest line: a content-hashed output file and its provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// File name relative to the results directory.
    pub name: String,
    /// File size in bytes.
    pub bytes: u64,
    /// FNV-1a hash of the file contents.
    pub fnv: u64,
    /// The artifact that produced the file (e.g. `"table7"`).
    pub artifact: String,
    /// Generator version (the crate version that wrote the file).
    pub generator: String,
    /// Combined trace fingerprint of the sweep phases behind the
    /// artifact (zero for artifacts that run no checkpointed sweep).
    pub trace_fp: u64,
    /// Combined config-grid fingerprint of those phases.
    pub config_fp: u64,
}

impl ManifestEntry {
    /// Builds an entry for in-memory file contents about to be written.
    pub fn of(name: &str, contents: &str, artifact: &str, trace_fp: u64, config_fp: u64) -> Self {
        ManifestEntry {
            name: name.to_string(),
            bytes: contents.len() as u64,
            fnv: fnv1a(contents.as_bytes()),
            artifact: artifact.to_string(),
            generator: env!("CARGO_PKG_VERSION").to_string(),
            trace_fp,
            config_fp,
        }
    }

    fn line(&self) -> String {
        format!(
            "{{\"name\":\"{}\",\"bytes\":{},\"fnv\":\"{:016x}\",\"artifact\":\"{}\",\
             \"gen\":\"{}\",\"trace_fp\":\"{:016x}\",\"config_fp\":\"{:016x}\"}}",
            self.name,
            self.bytes,
            self.fnv,
            self.artifact,
            self.generator,
            self.trace_fp,
            self.config_fp,
        )
    }
}

/// Parses one manifest entry line (commas cannot appear inside any of
/// the values, so splitting on ',' is unambiguous — same contract as the
/// checkpoint journal).
fn parse_entry(line: &str) -> Option<ManifestEntry> {
    let inner = line
        .trim()
        .trim_end_matches(',')
        .strip_prefix('{')?
        .strip_suffix('}')?;
    let mut name = None;
    let mut bytes = None;
    let mut fnv = None;
    let mut artifact = None;
    let mut generator = None;
    let mut trace_fp = None;
    let mut config_fp = None;
    for field in inner.split(',') {
        let (key, value) = field.split_once(':')?;
        let key = key.trim().strip_prefix('"')?.strip_suffix('"')?;
        let value = value.trim();
        let unquote = |v: &str| -> Option<String> {
            Some(v.strip_prefix('"')?.strip_suffix('"')?.to_string())
        };
        let hex = |v: &str| -> Option<u64> {
            u64::from_str_radix(v.strip_prefix('"')?.strip_suffix('"')?, 16).ok()
        };
        match key {
            "name" => name = Some(unquote(value)?),
            "bytes" => bytes = Some(value.parse().ok()?),
            "fnv" => fnv = Some(hex(value)?),
            "artifact" => artifact = Some(unquote(value)?),
            "gen" => generator = Some(unquote(value)?),
            "trace_fp" => trace_fp = Some(hex(value)?),
            "config_fp" => config_fp = Some(hex(value)?),
            _ => return None,
        }
    }
    Some(ManifestEntry {
        name: name?,
        bytes: bytes?,
        fnv: fnv?,
        artifact: artifact?,
        generator: generator?,
        trace_fp: trace_fp?,
        config_fp: config_fp?,
    })
}

/// Renders a full manifest from entries (sorted by file name).
pub fn render(entries: &[ManifestEntry]) -> String {
    let mut out = String::from("{\n\"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        out.push_str(&e.line());
        if i + 1 < entries.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n}\n");
    out
}

/// Loads the manifest under `dir`, or an empty list when absent.
/// Unparseable lines (hand-edits, older formats) are dropped — the next
/// [`record`] rewrites the file in canonical form.
///
/// # Errors
///
/// Propagates filesystem errors other than the file not existing.
pub fn load(dir: &Path) -> io::Result<Vec<ManifestEntry>> {
    let text = match std::fs::read_to_string(dir.join(MANIFEST_FILE)) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    Ok(text.lines().filter_map(parse_entry).collect())
}

/// Merges `entries` into the manifest under `dir` and rewrites it
/// atomically, holding the directory's checkpoint lock so concurrent
/// emits cannot interleave. Existing entries for the same file *or* the
/// same artifact are replaced (a re-emit that drops a CSV also drops its
/// stale manifest line).
///
/// # Errors
///
/// Propagates lock contention (`WouldBlock`) and filesystem errors.
pub fn record(dir: &Path, artifact: &str, entries: Vec<ManifestEntry>) -> io::Result<()> {
    let _lock = JournalLock::acquire(dir)?;
    let mut merged: Vec<ManifestEntry> = load(dir)?
        .into_iter()
        .filter(|e| e.artifact != artifact && !entries.iter().any(|n| n.name == e.name))
        .collect();
    merged.extend(entries);
    merged.sort_by(|a, b| a.name.cmp(&b.name));
    occache_runtime::config::write_result_in(dir, MANIFEST_FILE, &render(&merged)).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("occache-manifest-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn entries_round_trip_through_render_and_parse() {
        let e = ManifestEntry::of("table7_pdp_11.csv", "a,b\n1,2\n", "table7", 0xabc, 0xdef);
        let text = render(std::slice::from_ref(&e));
        let parsed: Vec<ManifestEntry> = text.lines().filter_map(parse_entry).collect();
        assert_eq!(parsed, vec![e]);
    }

    #[test]
    fn record_merges_by_artifact_and_name() {
        let dir = temp_dir("merge");
        let a1 = ManifestEntry::of("a.csv", "one", "arta", 1, 2);
        let b1 = ManifestEntry::of("b.csv", "two", "artb", 3, 4);
        record(&dir, "arta", vec![a1.clone()]).unwrap();
        record(&dir, "artb", vec![b1.clone()]).unwrap();
        assert_eq!(load(&dir).unwrap(), vec![a1, b1.clone()]);
        // Re-emitting arta replaces its entry without touching artb's.
        let a2 = ManifestEntry::of("a.csv", "one-changed", "arta", 1, 2);
        record(&dir, "arta", vec![a2.clone()]).unwrap();
        assert_eq!(load(&dir).unwrap(), vec![a2, b1]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_manifest_loads_empty() {
        let dir = temp_dir("missing");
        assert!(load(&dir).unwrap().is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }
}
