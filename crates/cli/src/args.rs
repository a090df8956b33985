//! Hand-rolled flag parsing shared by every subcommand — the same
//! zero-dependency discipline as the rest of the workspace.

use pfe_engine::{EngineConfig, FpConfig};
use pfe_ingest::IngestOptions;
use pfe_window::WindowConfig;

/// Flags that take no value.
const BOOL_FLAGS: &[&str] = &[
    "--no-header",
    "--quiet",
    "--exact",
    "--bypass-cache",
    "--follow",
    "--watch",
    "--help",
    "-h",
];

/// Flags that consume the next argument as their value. With
/// [`BOOL_FLAGS`] this is every flag any subcommand reads; a flag valid
/// for one subcommand is accepted (and ignored) by the others, so one
/// fixed engine-flag list can be handed to `ingest`, `query` and `serve`
/// alike.
const VALUE_FLAGS: &[&str] = &[
    // file shape
    "--q",
    "--columns",
    "--delim",
    "--chunk-rows",
    "--chunk-bytes",
    "--max-rejects",
    // engine
    "--shards",
    "--alpha",
    "--kmv-k",
    "--sample-t",
    "--seed",
    "--max-subsets",
    "--batch-rows",
    "--cache",
    "--fp",
    "--window",
    // checkpoints
    "--out",
    "--ingest",
    "--resume",
    "--checkpoint",
    // query
    "--op",
    "--cols",
    "--pattern",
    "--phi",
    "--k",
    "--p",
    "--sample-seed",
    "--json",
    "--batch",
    // serve
    "--listen",
    "--workers",
    "--queue",
    "--metrics",
    "--max-line",
    "--slow-ms",
    "--trace-sample",
    "--ship",
    "--ship-ms",
    "--replica-of",
    "--replica-poll-ms",
    // replica / trace
    "--interval-ms",
    "--id",
    "--last",
    "--chrome",
];

/// A `--flag` that no subcommand reads: most likely a typo, and silently
/// ignoring it would run with a default where the user asked for a value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownFlag(pub String);

impl std::fmt::Display for UnknownFlag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown flag {}", self.0)
    }
}

impl std::error::Error for UnknownFlag {}

/// One subcommand's argument list: `--flag value` pairs, boolean flags,
/// and positional operands, in any order.
pub struct Args {
    items: Vec<String>,
}

impl Args {
    /// Wrap a raw argument vector (everything after the subcommand).
    ///
    /// # Errors
    /// The first `-flag` that is on neither flag list.
    pub fn new(items: Vec<String>) -> Result<Self, UnknownFlag> {
        let mut i = 0;
        while i < items.len() {
            let a = items[i].as_str();
            if VALUE_FLAGS.contains(&a) {
                i += 1; // its value, whatever that looks like
            } else if a.starts_with('-') && a.len() > 1 && !BOOL_FLAGS.contains(&a) {
                return Err(UnknownFlag(a.to_string()));
            }
            i += 1;
        }
        Ok(Self { items })
    }

    /// The value following `flag`, if present.
    pub fn value(&self, flag: &str) -> Option<&str> {
        debug_assert!(VALUE_FLAGS.contains(&flag), "{flag} not in VALUE_FLAGS");
        self.items
            .iter()
            .position(|a| a == flag)
            .and_then(|i| self.items.get(i + 1))
            .map(|s| s.as_str())
    }

    /// Every value of a repeatable `flag`, in order (`--replica-of A
    /// --replica-of B` → `["A", "B"]`).
    pub fn values(&self, flag: &str) -> Vec<&str> {
        debug_assert!(VALUE_FLAGS.contains(&flag), "{flag} not in VALUE_FLAGS");
        self.items
            .iter()
            .enumerate()
            .filter(|(_, a)| *a == flag)
            .filter_map(|(i, _)| self.items.get(i + 1))
            .map(|s| s.as_str())
            .collect()
    }

    /// Whether `flag` appears at all.
    pub fn present(&self, flag: &str) -> bool {
        debug_assert!(BOOL_FLAGS.contains(&flag), "{flag} not in BOOL_FLAGS");
        self.items.iter().any(|a| a == flag)
    }

    /// Parse `flag`'s value, reporting the flag name on failure.
    pub fn parse<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        match self.value(flag) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("{flag}: cannot parse {v:?}")),
        }
    }

    /// Operands that are neither flags nor flag values, in order.
    pub fn positionals(&self) -> Vec<&str> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < self.items.len() {
            let a = self.items[i].as_str();
            if a.starts_with('-') && a.len() > 1 {
                if !BOOL_FLAGS.contains(&a) {
                    i += 1; // skip the flag's value too
                }
            } else {
                out.push(a);
            }
            i += 1;
        }
        out
    }
}

/// Build an [`EngineConfig`] from the shared engine flags. The same
/// flags must be repeated verbatim when resuming a checkpoint — resume
/// verifies them against the stored summaries.
pub fn engine_config(args: &Args) -> Result<EngineConfig, String> {
    let mut cfg = EngineConfig::default();
    if let Some(v) = args.parse("--shards")? {
        cfg.shards = v;
    }
    if let Some(v) = args.parse("--alpha")? {
        cfg.alpha = v;
    }
    if let Some(v) = args.parse("--kmv-k")? {
        cfg.kmv_k = v;
    }
    if let Some(v) = args.parse("--sample-t")? {
        cfg.sample_t = v;
    }
    if let Some(v) = args.parse("--seed")? {
        cfg.seed = v;
    }
    if let Some(v) = args.parse("--max-subsets")? {
        cfg.max_subsets = v;
    }
    if let Some(v) = args.parse("--batch-rows")? {
        cfg.batch_rows = v;
    }
    if let Some(v) = args.parse("--cache")? {
        cfg.cache_capacity = v;
    }
    if let Some(spec) = args.value("--fp") {
        let orders: Result<Vec<f64>, _> = spec.split(',').map(|s| s.trim().parse()).collect();
        let orders = orders.map_err(|_| format!("--fp: cannot parse {spec:?} as p orders"))?;
        cfg.fp = Some(FpConfig {
            orders,
            ..Default::default()
        });
    }
    Ok(cfg)
}

/// Build [`IngestOptions`] from the file-shape flags.
pub fn ingest_options(args: &Args) -> Result<IngestOptions, String> {
    let mut opts = IngestOptions::default();
    if let Some(v) = args.parse("--q")? {
        opts.alphabet = v;
    }
    if args.present("--no-header") {
        opts.has_header = false;
    }
    if let Some(cols) = args.value("--columns") {
        opts.columns = Some(cols.split(',').map(|c| c.trim().to_string()).collect());
    }
    if let Some(d) = args.value("--delim") {
        opts.delimiter = Some(match d {
            "tab" | "\\t" => b'\t',
            s if s.len() == 1 => s.as_bytes()[0],
            other => {
                return Err(format!(
                    "--delim: want a single character or 'tab', got {other:?}"
                ))
            }
        });
    }
    if let Some(v) = args.parse("--chunk-rows")? {
        opts.chunk_rows = v;
    }
    if let Some(v) = args.parse("--chunk-bytes")? {
        opts.chunk_bytes = v;
    }
    if let Some(v) = args.parse("--max-rejects")? {
        opts.max_rejects = v;
    }
    Ok(opts)
}

/// Parse `--window BUCKET_ROWS[,TIER_CAP[,MAX_TIERS]]` into a ring
/// shape, or `None` when the flag is absent (whole-stream engine).
pub fn window_config(args: &Args) -> Result<Option<WindowConfig>, String> {
    let Some(spec) = args.value("--window") else {
        return Ok(None);
    };
    let mut cfg = WindowConfig::default();
    let parts: Vec<&str> = spec.split(',').collect();
    if parts.is_empty() || parts.len() > 3 {
        return Err(format!(
            "--window: want ROWS[,TIER_CAP[,MAX_TIERS]], got {spec:?}"
        ));
    }
    let nums: Result<Vec<u64>, _> = parts.iter().map(|p| p.trim().parse()).collect();
    let nums = nums.map_err(|_| format!("--window: cannot parse {spec:?}"))?;
    cfg.bucket_rows = nums[0];
    if let Some(&t) = nums.get(1) {
        cfg.tier_cap =
            usize::try_from(t).map_err(|_| format!("--window: TIER_CAP {t} is out of range"))?;
    }
    if let Some(&m) = nums.get(2) {
        cfg.max_tiers =
            u32::try_from(m).map_err(|_| format!("--window: MAX_TIERS {m} is out of range"))?;
    }
    Ok(Some(cfg))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(list: &[&str]) -> Result<Args, UnknownFlag> {
        Args::new(list.iter().map(|s| s.to_string()).collect())
    }

    fn args(list: &[&str]) -> Args {
        parse(list).unwrap_or_else(|e| panic!("{e}"))
    }

    #[test]
    fn a_flag_on_no_list_is_an_error_not_a_default() {
        let typo = parse(&["q4.csv", "--out", "x.pfes", "--kmvk", "7"]);
        assert_eq!(typo.err(), Some(UnknownFlag("--kmvk".into())));
        assert_eq!(parse(&["-x"]).err(), Some(UnknownFlag("-x".into())));
        // A value may look like a flag; a lone dash is an operand.
        let a = args(&["--pattern", "-1", "-", "--quiet"]);
        assert_eq!(a.value("--pattern"), Some("-1"));
        assert_eq!(a.positionals(), vec!["-"]);
    }

    #[test]
    fn flags_values_and_positionals() {
        let a = args(&["data.csv", "--out", "snap.pfes", "--no-header", "extra"]);
        assert_eq!(a.positionals(), vec!["data.csv", "extra"]);
        assert_eq!(a.value("--out"), Some("snap.pfes"));
        assert!(a.present("--no-header"));
        assert!(!a.present("--quiet"));
    }

    #[test]
    fn repeatable_flags_collect_in_order() {
        let a = args(&["--replica-of", "a", "--queue", "9", "--replica-of", "b"]);
        assert_eq!(a.values("--replica-of"), vec!["a", "b"]);
        assert!(a.values("--ship").is_empty());
    }

    #[test]
    fn engine_flags_map_onto_config() {
        let a = args(&[
            "--shards", "7", "--alpha", "0.5", "--seed", "9", "--fp", "2.0, 1.5",
        ]);
        let cfg = engine_config(&a).unwrap();
        assert_eq!(cfg.shards, 7);
        assert_eq!(cfg.alpha, 0.5);
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.fp.unwrap().orders, vec![2.0, 1.5]);
        assert!(engine_config(&args(&["--shards", "x"])).is_err());
    }

    #[test]
    fn ingest_flags_map_onto_options() {
        let a = args(&[
            "--q",
            "10",
            "--no-header",
            "--delim",
            "tab",
            "--columns",
            "a, b",
        ]);
        let opts = ingest_options(&a).unwrap();
        assert_eq!(opts.alphabet, 10);
        assert!(!opts.has_header);
        assert_eq!(opts.delimiter, Some(b'\t'));
        assert_eq!(opts.columns, Some(vec!["a".to_string(), "b".to_string()]));
        assert!(ingest_options(&args(&["--delim", "ab"])).is_err());
    }

    #[test]
    fn window_spec_parses() {
        assert!(window_config(&args(&[])).unwrap().is_none());
        let w = window_config(&args(&["--window", "512,4,6"]))
            .unwrap()
            .unwrap();
        assert_eq!((w.bucket_rows, w.tier_cap, w.max_tiers), (512, 4, 6));
        let w = window_config(&args(&["--window", "2048"]))
            .unwrap()
            .unwrap();
        assert_eq!(w.bucket_rows, 2048);
        assert!(window_config(&args(&["--window", "a,b"])).is_err());
        // 2^32 + 2 must not run as `max_tiers = 2`.
        assert_eq!(
            window_config(&args(&["--window", "4096,4,4294967298"])).err(),
            Some("--window: MAX_TIERS 4294967298 is out of range".into())
        );
    }
}
