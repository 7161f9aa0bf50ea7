//! Every `OCCACHE_*` environment variable, parsed in one place.
//!
//! The rule is uniform: an *absent* variable means its documented
//! default, a *present but malformed* value is an error naming the
//! variable — a typo in `OCCACHE_REFS` must refuse to start, not
//! silently run the paper-size sweep. Binaries validate at startup (the
//! batch ones through [`check_batch_env`], the servers through their
//! `try_from_env` configs); the lenient forms exist only for mid-run
//! contexts where aborting would waste completed work.
//!
//! The variables (see the EXPERIMENTS.md table for the operator view;
//! `tests/env_surface.rs` keeps the two tables, the code and the gates
//! that set each variable in step):
//!
//! | variable | parsed by | default |
//! |---|---|---|
//! | `OCCACHE_REFS` | [`env_usize`] | caller-supplied (paper: 1 M) |
//! | `OCCACHE_SLICE_THREADS` | [`try_slice_threads`] | hardware parallelism (sizes the sweep pool and trace generation) |
//! | `OCCACHE_NO_MULTISIM` | [`try_multisim_disabled`] | none disabled |
//! | `OCCACHE_REPLACEMENT` | [`try_replacement_override`] | grid default (LRU) |
//! | `OCCACHE_FRESH` | [`fresh_requested`] | off |
//! | `OCCACHE_RESULTS` | [`results_dir`] | `results/` |
//! | `OCCACHE_POINT_TIMEOUT` | [`parse_timeout`] | 300 s |
//! | `OCCACHE_FAULT_POINT` | `FaultPlan::parse` | none |
//! | `OCCACHE_PROGRESS_EVERY` | [`try_progress_every`] | 16 points |
//! | `OCCACHE_SERVE_ADDR` | `ServiceConfig::try_from_env` | `127.0.0.1:7807` |
//! | `OCCACHE_SERVE_WORKERS` | [`env_usize`] | hardware parallelism |
//! | `OCCACHE_SERVE_JOURNAL` | `ServiceConfig::try_from_env` | none |
//! | `OCCACHE_SERVE_FAULT` | `occache-serve::fault` | none |
//! | `OCCACHE_PEERS` | [`try_peers`] | none (single-node) |
//! | `OCCACHE_SELF` | [`try_self_addr`] | none |
//! | `OCCACHE_ROUTE_ADDR` | `RouterConfig::try_from_env` | `127.0.0.1:7806` |
//! | `OCCACHE_GOLDEN_REGEN` | the golden tests only | unset |

use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Parses a non-negative-integer env var strictly: absent → `default`,
/// present but unparsable → an error naming the variable (a typo in
/// `OCCACHE_REFS` must not silently run the paper-size sweep).
///
/// # Errors
///
/// Returns a message naming the variable when it is set but malformed.
pub fn env_usize(var: &str, default: usize) -> Result<usize, String> {
    match std::env::var(var) {
        Ok(v) => v
            .trim()
            .parse()
            .map_err(|_| format!("{var}={v:?} is not a non-negative integer")),
        Err(std::env::VarError::NotPresent) => Ok(default),
        Err(std::env::VarError::NotUnicode(_)) => Err(format!("{var} is not valid UTF-8")),
    }
}

/// Worker-thread override for the sweep pool: `OCCACHE_SLICE_THREADS`
/// env var. `Ok(None)` (unset or `0`) means "use the hardware
/// parallelism"; `OCCACHE_SLICE_THREADS=1` forces a serial pool, which
/// preserves byte-identical artifact and journal-append order. The same
/// width sizes trace generation (`pool_map`), in batch runs and in the
/// server's trace sets alike. The serving layer sizes its request
/// workers from `OCCACHE_SERVE_WORKERS`.
///
/// # Errors
///
/// Returns a message naming the variable when it is set but malformed.
pub fn try_slice_threads() -> Result<Option<usize>, String> {
    env_usize("OCCACHE_SLICE_THREADS", 0).map(|n| if n == 0 { None } else { Some(n) })
}

/// How many completed points between progress-feed flushes:
/// `OCCACHE_PROGRESS_EVERY` env var, default 16. `0`/unset means the
/// default; `1` flushes on every completion (CI uses this to observe
/// short sweeps).
///
/// # Errors
///
/// Returns a message naming the variable when it is set but malformed.
pub fn try_progress_every() -> Result<usize, String> {
    env_usize("OCCACHE_PROGRESS_EVERY", 0).map(|n| if n == 0 { 16 } else { n })
}

/// Which one-pass engines `OCCACHE_NO_MULTISIM` forces off, routing
/// their points to the direct simulator instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DisabledEngines {
    /// The one-pass LRU engine is off.
    pub lru: bool,
    /// The one-pass FIFO engine is off.
    pub fifo: bool,
    /// The seeded Random engine is off.
    pub random: bool,
}

impl DisabledEngines {
    /// Every engine enabled (the default).
    pub const NONE: DisabledEngines = DisabledEngines {
        lru: false,
        fifo: false,
        random: false,
    };

    /// Every engine disabled: the all-direct escape hatch.
    pub const ALL: DisabledEngines = DisabledEngines {
        lru: true,
        fifo: true,
        random: true,
    };

    /// Whether `kind`'s engine is disabled.
    pub fn contains(self, kind: occache_core::EngineKind) -> bool {
        match kind {
            occache_core::EngineKind::Lru => self.lru,
            occache_core::EngineKind::Fifo => self.fifo,
            occache_core::EngineKind::Random => self.random,
        }
    }

    fn set(&mut self, kind: occache_core::EngineKind) {
        match kind {
            occache_core::EngineKind::Lru => self.lru = true,
            occache_core::EngineKind::Fifo => self.fifo = true,
            occache_core::EngineKind::Random => self.random = true,
        }
    }

    /// Parses an `OCCACHE_NO_MULTISIM` value: empty or `0` disables
    /// nothing, `1` or `all` disables every engine (the historical
    /// all-or-nothing behaviour), and otherwise a comma-separated list
    /// of engine names (`lru`, `fifo`, `random`, case-insensitive,
    /// whitespace around items ignored) disables exactly those.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending item when the list
    /// contains anything that is not an engine name.
    pub fn parse(value: &str) -> Result<DisabledEngines, String> {
        let v = value.trim();
        if v.is_empty() || v == "0" {
            return Ok(DisabledEngines::NONE);
        }
        if v == "1" || v.eq_ignore_ascii_case("all") {
            return Ok(DisabledEngines::ALL);
        }
        let mut out = DisabledEngines::NONE;
        for item in v.split(',') {
            let item = item.trim();
            match occache_core::EngineKind::parse(item) {
                Some(kind) => out.set(kind),
                None => {
                    return Err(format!(
                        "{item:?} is not an engine name (expected lru, fifo or random)"
                    ));
                }
            }
        }
        Ok(out)
    }
}

/// Which engines `OCCACHE_NO_MULTISIM` forces off, strictly parsed:
/// unset means none, and see [`DisabledEngines::parse`] for the value
/// grammar (`fifo,random` disables those two; `1`/`all` disables every
/// engine — equivalence tests and honest before/after timing use it).
///
/// # Errors
///
/// Returns a message naming the variable when it is set but malformed.
pub fn try_multisim_disabled() -> Result<DisabledEngines, String> {
    match std::env::var("OCCACHE_NO_MULTISIM") {
        Ok(v) => DisabledEngines::parse(&v).map_err(|e| format!("OCCACHE_NO_MULTISIM: {e}")),
        Err(std::env::VarError::NotPresent) => Ok(DisabledEngines::NONE),
        Err(std::env::VarError::NotUnicode(_)) => {
            Err("OCCACHE_NO_MULTISIM is not valid UTF-8".to_string())
        }
    }
}

/// [`try_multisim_disabled`] for mid-run contexts: a malformed value
/// disables *every* engine rather than erroring out — the conservative
/// reading (the variable was set to turn engines off) and a superset of
/// the historical any-nonempty-value behaviour.
pub fn multisim_disabled() -> DisabledEngines {
    try_multisim_disabled().unwrap_or(DisabledEngines::ALL)
}

/// The replacement-policy override for grid builders:
/// `OCCACHE_REPLACEMENT` env var — `lru`, `fifo` or `random`
/// (case-insensitive). `Ok(None)` when unset or empty: keep the grid's
/// own default. This is how a stock Table-7 sweep is re-run down a
/// different policy axis without a dedicated binary.
///
/// # Errors
///
/// Returns a message naming the variable when it is set but malformed.
pub fn try_replacement_override() -> Result<Option<occache_core::ReplacementPolicy>, String> {
    match std::env::var("OCCACHE_REPLACEMENT") {
        Ok(v) => {
            let v = v.trim();
            if v.is_empty() {
                return Ok(None);
            }
            if v.eq_ignore_ascii_case("lru") {
                Ok(Some(occache_core::ReplacementPolicy::Lru))
            } else if v.eq_ignore_ascii_case("fifo") {
                Ok(Some(occache_core::ReplacementPolicy::Fifo))
            } else if v.eq_ignore_ascii_case("random") {
                Ok(Some(occache_core::ReplacementPolicy::Random))
            } else {
                Err(format!(
                    "OCCACHE_REPLACEMENT={v:?} is not a replacement policy (expected lru, fifo or random)"
                ))
            }
        }
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(std::env::VarError::NotUnicode(_)) => {
            Err("OCCACHE_REPLACEMENT is not valid UTF-8".to_string())
        }
    }
}

/// [`try_replacement_override`] for mid-run contexts: a malformed value
/// keeps the grid default instead of erroring out.
pub fn replacement_override() -> Option<occache_core::ReplacementPolicy> {
    try_replacement_override().unwrap_or(None)
}

/// Whether the user asked to ignore existing checkpoints: `--fresh` on the
/// command line or `OCCACHE_FRESH` set to anything but `0`/empty.
pub fn fresh_requested() -> bool {
    if std::env::args().any(|a| a == "--fresh") {
        return true;
    }
    match std::env::var("OCCACHE_FRESH") {
        Ok(v) => !v.is_empty() && v != "0",
        Err(_) => false,
    }
}

/// The results directory: `OCCACHE_RESULTS` env var, defaulting to
/// `results/`. Never fails — a directory name needs no parsing.
pub fn results_dir() -> PathBuf {
    std::env::var_os("OCCACHE_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Writes `content` to `dir/file_name` atomically, creating `dir` on
/// demand, and returns the path written: the bytes go to a temporary
/// file in the same directory, are fsynced, and are renamed over the
/// target, so a crash leaves the old file or the new one, never a
/// truncated one. On failure the temporary file is removed. Results
/// CSVs, manifests, run reports, the progress feed and compacted
/// journals are all written this way.
///
/// # Errors
///
/// Propagates filesystem errors from directory creation or the write.
pub fn write_result_in(dir: &Path, file_name: &str, content: &str) -> io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(file_name);
    // Same-directory temp name keeps the rename on one filesystem (rename
    // across mount points is not atomic — or possible — on any platform).
    let tmp = dir.join(format!(".{file_name}.tmp-{}", std::process::id()));
    let result = (|| {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(content.as_bytes())?;
        f.sync_all()?;
        fs::rename(&tmp, &path)
    })();
    if result.is_err() {
        // Best-effort cleanup; the original error is what matters.
        let _ = fs::remove_file(&tmp);
    }
    result.map(|()| path)
}

/// Parses `OCCACHE_POINT_TIMEOUT`: seconds as a float, with `0`, `off`
/// or the empty string disabling the deadline.
///
/// # Errors
///
/// Returns a message naming the variable for non-numeric, non-finite or
/// non-positive values.
pub fn parse_timeout(raw: &str) -> Result<Option<Duration>, String> {
    let raw = raw.trim();
    if raw.is_empty() || raw == "0" || raw.eq_ignore_ascii_case("off") {
        return Ok(None);
    }
    let secs: f64 = raw
        .parse()
        .map_err(|_| format!("OCCACHE_POINT_TIMEOUT `{raw}` is not a number of seconds"))?;
    if !secs.is_finite() || secs <= 0.0 {
        return Err(format!(
            "OCCACHE_POINT_TIMEOUT `{raw}` must be a positive number of seconds"
        ));
    }
    Ok(Some(Duration::from_secs_f64(secs)))
}

/// Validates one `host:port` peer address: non-empty host, numeric port
/// in `1..=65535`. Kept to syntax only — resolution happens at connect
/// time so a cluster can be configured before every node is up.
///
/// # Errors
///
/// Returns a message naming `var` and quoting the offending entry.
pub fn parse_peer_addr(var: &str, raw: &str) -> Result<String, String> {
    let raw = raw.trim();
    let Some((host, port)) = raw.rsplit_once(':') else {
        return Err(format!("{var} entry {raw:?} is not host:port"));
    };
    if host.is_empty() {
        return Err(format!("{var} entry {raw:?} has an empty host"));
    }
    match port.parse::<u32>() {
        Ok(p) if (1..=65_535).contains(&p) => Ok(format!("{host}:{port}")),
        _ => Err(format!("{var} entry {raw:?} has an invalid port")),
    }
}

/// Parses `OCCACHE_PEERS`: a comma-separated static peer list of
/// `host:port` addresses. `Ok(None)` when unset (single-node mode).
/// Fail-fast on anything questionable — an empty list, a malformed
/// entry, or a duplicate address refuses to start, because a typo here
/// silently reshards the keyspace.
///
/// # Errors
///
/// Returns a message naming the variable and the offending entry.
pub fn try_peers() -> Result<Option<Vec<String>>, String> {
    let raw = match std::env::var("OCCACHE_PEERS") {
        Ok(v) => v,
        Err(std::env::VarError::NotPresent) => return Ok(None),
        Err(std::env::VarError::NotUnicode(_)) => {
            return Err("OCCACHE_PEERS is not valid UTF-8".into());
        }
    };
    let mut peers = Vec::new();
    for entry in raw.split(',') {
        let addr = parse_peer_addr("OCCACHE_PEERS", entry)?;
        if peers.contains(&addr) {
            return Err(format!("OCCACHE_PEERS lists {addr:?} twice"));
        }
        peers.push(addr);
    }
    if peers.is_empty() {
        return Err("OCCACHE_PEERS is set but names no peers".into());
    }
    Ok(Some(peers))
}

/// Parses `OCCACHE_SELF`: this node's own entry in the peer list, so a
/// shard knows which keys it owns. Must be present and a member of
/// `peers` whenever `OCCACHE_PEERS` is set on a node.
///
/// # Errors
///
/// Returns a message naming the variable when absent, malformed, or not
/// listed in `peers`.
pub fn try_self_addr(peers: &[String]) -> Result<String, String> {
    let raw = match std::env::var("OCCACHE_SELF") {
        Ok(v) => v,
        Err(std::env::VarError::NotPresent) => {
            return Err("OCCACHE_PEERS is set but OCCACHE_SELF is not".into());
        }
        Err(std::env::VarError::NotUnicode(_)) => {
            return Err("OCCACHE_SELF is not valid UTF-8".into());
        }
    };
    let addr = parse_peer_addr("OCCACHE_SELF", &raw)?;
    if !peers.iter().any(|p| p == &addr) {
        return Err(format!("OCCACHE_SELF {addr:?} is not in OCCACHE_PEERS"));
    }
    Ok(addr)
}

/// The one startup check of the batch binaries (`all` and
/// `occache-sweep`): strictly parses every batch-side variable —
/// `OCCACHE_REFS`, `OCCACHE_SLICE_THREADS`, `OCCACHE_NO_MULTISIM`,
/// `OCCACHE_REPLACEMENT`, `OCCACHE_PROGRESS_EVERY`,
/// `OCCACHE_POINT_TIMEOUT` and `OCCACHE_FAULT_POINT` — so a typo refuses
/// to start instead of reaching a lenient mid-run reader.
/// (`OCCACHE_RESULTS` and `OCCACHE_FRESH` accept any value.)
///
/// # Errors
///
/// Returns the first malformed variable's message, which names it.
pub fn check_batch_env() -> Result<(), String> {
    env_usize("OCCACHE_REFS", 0)?;
    try_slice_threads()?;
    try_multisim_disabled()?;
    try_replacement_override()?;
    try_progress_every()?;
    crate::executor::SupervisorPolicy::try_from_env().map(drop)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_write_replaces_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("occache-atomic-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let path = write_result_in(&dir, "out.csv", "a,b\n1,2\n").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "a,b\n1,2\n");
        // Overwrite: new content fully replaces old, no temp file remains.
        write_result_in(&dir, "out.csv", "new\n").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "new\n");
        // A failed rename (the target is a non-empty directory) removes
        // its temp file too.
        fs::create_dir_all(dir.join("taken").join("inside")).unwrap();
        assert!(write_result_in(&dir, "taken", "lost\n").is_err());
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n.to_string_lossy().contains("tmp"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn env_parsing_is_strict_on_malformed_values() {
        // Uses a variable we control to avoid races with other tests
        // reading the real OCCACHE_* variables.
        std::env::set_var("OCCACHE_TEST_ENV_USIZE", "12abc");
        assert!(env_usize("OCCACHE_TEST_ENV_USIZE", 5).is_err());
        std::env::set_var("OCCACHE_TEST_ENV_USIZE", " 42 ");
        assert_eq!(env_usize("OCCACHE_TEST_ENV_USIZE", 5), Ok(42));
        std::env::remove_var("OCCACHE_TEST_ENV_USIZE");
        assert_eq!(env_usize("OCCACHE_TEST_ENV_USIZE", 5), Ok(5));
    }

    #[test]
    fn peer_addr_parsing_is_strict() {
        assert_eq!(
            parse_peer_addr("OCCACHE_PEERS", " 10.0.0.1:7800 "),
            Ok("10.0.0.1:7800".to_string())
        );
        assert!(parse_peer_addr("OCCACHE_PEERS", "no-port").is_err());
        assert!(parse_peer_addr("OCCACHE_PEERS", ":7800").is_err());
        assert!(parse_peer_addr("OCCACHE_PEERS", "host:").is_err());
        assert!(parse_peer_addr("OCCACHE_PEERS", "host:0").is_err());
        assert!(parse_peer_addr("OCCACHE_PEERS", "host:65536").is_err());
        assert!(parse_peer_addr("OCCACHE_PEERS", "host:80x").is_err());
    }

    #[test]
    fn self_addr_must_be_a_listed_peer() {
        // try_self_addr reads OCCACHE_SELF; no other test touches it, so
        // set/remove here races with nothing.
        let peers = vec!["a:1".to_string(), "b:2".to_string()];
        std::env::remove_var("OCCACHE_SELF");
        assert!(try_self_addr(&peers).is_err());
        std::env::set_var("OCCACHE_SELF", "c:3");
        assert!(try_self_addr(&peers).is_err());
        std::env::set_var("OCCACHE_SELF", "bad");
        assert!(try_self_addr(&peers).is_err());
        std::env::set_var("OCCACHE_SELF", "b:2");
        assert_eq!(try_self_addr(&peers), Ok("b:2".to_string()));
        std::env::remove_var("OCCACHE_SELF");
    }

    #[test]
    fn peer_list_parses_strictly() {
        assert_eq!(try_peers(), Ok(None));
        std::env::set_var("OCCACHE_PEERS", "a:1,b:2,a:1");
        assert!(try_peers().unwrap_err().contains("twice"));
        std::env::set_var("OCCACHE_PEERS", "a:1,,b:2");
        assert!(try_peers().is_err());
        std::env::set_var("OCCACHE_PEERS", "");
        assert!(try_peers().is_err());
        std::env::set_var("OCCACHE_PEERS", "a:1, b:2");
        assert_eq!(
            try_peers(),
            Ok(Some(vec!["a:1".to_string(), "b:2".to_string()]))
        );
        std::env::remove_var("OCCACHE_PEERS");
    }

    #[test]
    fn disabled_engines_parse_covers_grammar_and_malformed_values() {
        use occache_core::EngineKind;
        // Value-level parsing needs no env vars, so it cannot race.
        assert_eq!(DisabledEngines::parse(""), Ok(DisabledEngines::NONE));
        assert_eq!(DisabledEngines::parse(" 0 "), Ok(DisabledEngines::NONE));
        assert_eq!(DisabledEngines::parse("1"), Ok(DisabledEngines::ALL));
        assert_eq!(DisabledEngines::parse("all"), Ok(DisabledEngines::ALL));
        assert_eq!(DisabledEngines::parse("ALL"), Ok(DisabledEngines::ALL));
        let fr = DisabledEngines::parse("fifo,random").unwrap();
        assert!(fr.fifo && fr.random && !fr.lru);
        assert!(fr.contains(EngineKind::Fifo));
        assert!(fr.contains(EngineKind::Random));
        assert!(!fr.contains(EngineKind::Lru));
        let spaced = DisabledEngines::parse(" LRU , fifo ").unwrap();
        assert!(spaced.lru && spaced.fifo && !spaced.random);
        assert_eq!(
            DisabledEngines::parse("random,random"),
            Ok(DisabledEngines {
                random: true,
                ..DisabledEngines::NONE
            })
        );
        // Malformed values: anything that is not an engine name, a
        // trailing comma's empty item, and the old truthy forms that
        // never named engines.
        for bad in [
            "direct",
            "fifo,",
            ",fifo",
            "yes",
            "2",
            "fifo;random",
            "fifo random",
        ] {
            assert!(DisabledEngines::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn multisim_disabled_env_is_strict_then_lenient() {
        // try_multisim_disabled reads OCCACHE_NO_MULTISIM; only this
        // test sets it, and executor tests that read it never run while
        // it is set to a malformed value long enough to matter — keep
        // the set/remove window minimal anyway.
        assert_eq!(try_multisim_disabled(), Ok(DisabledEngines::NONE));
        std::env::set_var("OCCACHE_NO_MULTISIM", "fifo, random");
        assert_eq!(
            try_multisim_disabled(),
            Ok(DisabledEngines {
                fifo: true,
                random: true,
                ..DisabledEngines::NONE
            })
        );
        std::env::set_var("OCCACHE_NO_MULTISIM", "sometimes");
        let err = try_multisim_disabled().unwrap_err();
        assert!(err.contains("OCCACHE_NO_MULTISIM"), "{err}");
        // Lenient mid-run reading: malformed means "all off", the
        // conservative superset of the historical truthy behaviour.
        assert_eq!(multisim_disabled(), DisabledEngines::ALL);
        std::env::remove_var("OCCACHE_NO_MULTISIM");
        assert_eq!(multisim_disabled(), DisabledEngines::NONE);
    }

    #[test]
    fn replacement_override_parses_strictly() {
        use occache_core::ReplacementPolicy;
        // try_replacement_override reads OCCACHE_REPLACEMENT; no other
        // test touches it.
        assert_eq!(try_replacement_override(), Ok(None));
        std::env::set_var("OCCACHE_REPLACEMENT", "fifo");
        assert_eq!(
            try_replacement_override(),
            Ok(Some(ReplacementPolicy::Fifo))
        );
        std::env::set_var("OCCACHE_REPLACEMENT", " Random ");
        assert_eq!(
            try_replacement_override(),
            Ok(Some(ReplacementPolicy::Random))
        );
        std::env::set_var("OCCACHE_REPLACEMENT", "LRU");
        assert_eq!(try_replacement_override(), Ok(Some(ReplacementPolicy::Lru)));
        std::env::set_var("OCCACHE_REPLACEMENT", "");
        assert_eq!(try_replacement_override(), Ok(None));
        std::env::set_var("OCCACHE_REPLACEMENT", "mru");
        assert!(try_replacement_override().is_err());
        assert_eq!(replacement_override(), None);
        std::env::remove_var("OCCACHE_REPLACEMENT");
    }

    #[test]
    fn timeout_parsing_covers_off_and_seconds() {
        assert_eq!(parse_timeout("").unwrap(), None);
        assert_eq!(parse_timeout("0").unwrap(), None);
        assert_eq!(parse_timeout("off").unwrap(), None);
        assert_eq!(parse_timeout("OFF").unwrap(), None);
        assert_eq!(
            parse_timeout("2.5").unwrap(),
            Some(Duration::from_millis(2_500))
        );
        assert!(parse_timeout("-1").is_err());
        assert!(parse_timeout("soon").is_err());
        assert!(parse_timeout("inf").is_err());
    }
}
