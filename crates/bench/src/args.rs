//! Minimal command-line handling shared by the figure binaries.
//!
//! Every binary accepts the common flags (`--quick`, `--paper-scale`,
//! `--scale`, `--seed`, `--json`). The optional flags — `--threads`,
//! `--build-threads`, `--csv`/`--objects`, `--store`, `--wal`/`--wal-recover`
//! and `--deadline-ms` — are honoured only where a binary says so: it names
//! them once in [`RunSettings::from_env`], and any other optional flag is a
//! usage error (exit code 2) instead of a setting silently dropped.

/// The scale at which an experiment is run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunScale {
    /// Smoke-test scale: seconds, shapes only roughly visible.
    Quick,
    /// Default scale: laptop-friendly reduction of the paper's setup.
    Default,
    /// Close to the paper's original parameters (slow).
    Paper,
}

/// Parsed command-line settings of a figure binary.
#[derive(Debug, Clone)]
pub struct RunSettings {
    /// Selected scale.
    pub scale: RunScale,
    /// Optional path to write the JSON report to.
    pub json_path: Option<String>,
    /// RNG seed override.
    pub seed: u64,
    /// Worker threads of the model-adaptation ("TS") phase: `None` if
    /// `--threads` was not given (each binary picks its own default — the
    /// paper-series figures default to serial, fig06/fig12 to auto),
    /// `Some(0)` = explicitly requested available parallelism, `Some(n)` = a
    /// fixed count.
    pub adaptation_threads: Option<usize>,
    /// Worker threads of the UST-tree build (filter-phase index): `None` if
    /// `--build-threads` was not given (binaries default to available
    /// parallelism — the built index is byte-identical at every count),
    /// `Some(0)` = explicitly requested available parallelism, `Some(n)` = a
    /// fixed count. `1` is the exact serial build.
    pub build_threads: Option<usize>,
    /// Path to a T-Drive-format CSV to ingest instead of generating the
    /// simulated workload (fig09 only).
    pub csv_path: Option<String>,
    /// Explicit object-count override for the sweep (fig09 only, like
    /// `--csv`). With `--csv`, requesting more objects than the file yields
    /// is a typed `UnknownObject` error.
    pub objects: Option<usize>,
    /// Base path for on-disk engine stores (fig06/fig08/fig09 only). Each
    /// sweep point saves its engine state to a derived path, immediately
    /// cold-starts a second engine from that store and cross-checks the
    /// result digests; the load wall time lands in the report meta.
    pub store_path: Option<String>,
    /// Incremental-ingest mode (fig09 only, requires `--csv` and `--store`):
    /// each sweep point holds back the tail observations of the ingested
    /// objects, saves a pre-append store, WAL-appends the held-back batch
    /// through [`ust_core::EngineStore::append_batch`], and cross-checks the
    /// recovered digest against a from-scratch engine over the full data.
    /// The store and its WAL are left on disk for `--wal-recover`.
    pub wal: bool,
    /// Recovery half of the incremental-ingest smoke (fig09 only, requires
    /// `--csv` and `--store`): loads the store a previous `--wal` run left
    /// behind — replaying its WAL, in this (separate) process — and
    /// re-measures, proving the digests survive a cross-process recovery.
    pub wal_recover: bool,
    /// Per-query deadline in milliseconds (fig06/fig08/fig09 only). The
    /// measured engine's [`ust_core::EngineConfig::budget`] carries it (see
    /// [`RunSettings::query_budget`]); a breach during the filter or TS phase
    /// is a typed error that aborts the figure with exit code 2, a breach
    /// during sampling degrades (fewer worlds, recorded in the report meta).
    pub deadline_ms: Option<u64>,
}

impl Default for RunSettings {
    fn default() -> Self {
        RunSettings {
            scale: RunScale::Default,
            json_path: None,
            seed: 0,
            adaptation_threads: None,
            build_threads: None,
            csv_path: None,
            objects: None,
            store_path: None,
            wal: false,
            wal_recover: false,
            deadline_ms: None,
        }
    }
}

impl RunSettings {
    /// Parses `std::env::args()` for a binary that honours the optional
    /// flags in `honoured`, spelled as on the command line (`"--threads"`,
    /// `"--csv"`, ...). Unknown flags, and optional flags the binary does not
    /// honour, abort with a usage message and exit code 2: a flag parsed and
    /// then ignored would record results under settings the user never got.
    pub fn from_env(honoured: &[&str]) -> Self {
        let settings = Self::parse(std::env::args().skip(1));
        if let Some(flag) = settings.unhonoured_flag(honoured) {
            let honours =
                if honoured.is_empty() { "none".to_string() } else { honoured.join(", ") };
            usage_and_exit(&format!(
                "this binary does not support {flag} (optional flags it honours: {honours})"
            ));
        }
        settings
    }

    /// The first optional flag that was given but is not in `honoured`, if
    /// any. Panics if `honoured` names something that is not an optional
    /// flag, so a misspelt declaration cannot silently reject its own flag.
    fn unhonoured_flag(&self, honoured: &[&str]) -> Option<&'static str> {
        let given = [
            ("--threads", self.adaptation_threads.is_some()),
            ("--build-threads", self.build_threads.is_some()),
            ("--csv", self.csv_path.is_some()),
            ("--objects", self.objects.is_some()),
            ("--store", self.store_path.is_some()),
            ("--wal", self.wal),
            ("--wal-recover", self.wal_recover),
            ("--deadline-ms", self.deadline_ms.is_some()),
        ];
        for flag in honoured {
            assert!(given.iter().any(|(f, _)| f == flag), "{flag} is not an optional flag");
        }
        given.into_iter().find(|&(flag, set)| set && !honoured.contains(&flag)).map(|(f, _)| f)
    }

    /// Aborts with a usage error unless the WAL flags form a runnable fig09
    /// mode: at most one of `--wal`/`--wal-recover` per process (the whole
    /// point is recovering in a *separate* process), each requiring `--csv`
    /// (the ingest data) and `--store` (the container the WAL rides along),
    /// and neither combined with `--deadline-ms` (a degraded run would
    /// change the digest baseline the ingest check compares against).
    pub fn validate_wal_mode(&self) {
        if !self.wal && !self.wal_recover {
            return;
        }
        if self.wal && self.wal_recover {
            usage_and_exit(
                "--wal and --wal-recover are mutually exclusive: run --wal, then \
                 --wal-recover as a second process over the same --store path",
            );
        }
        if self.csv_path.is_none() || self.store_path.is_none() {
            usage_and_exit("--wal/--wal-recover require both --csv and --store");
        }
        if self.deadline_ms.is_some() {
            usage_and_exit(
                "--wal/--wal-recover cannot run under --deadline-ms: a degraded run \
                 would invalidate the digest comparison",
            );
        }
    }

    /// The [`ust_core::QueryBudget`] the efficiency figures put into their
    /// measured engine's configuration: deadline-only when `--deadline-ms`
    /// was given, unlimited otherwise.
    pub fn query_budget(&self) -> ust_core::QueryBudget {
        match self.deadline_ms {
            Some(ms) => ust_core::QueryBudget::default().with_deadline_ms(ms),
            None => ust_core::QueryBudget::default(),
        }
    }

    /// Parses an explicit argument list (used by tests).
    pub fn parse(args: impl IntoIterator<Item = String>) -> Self {
        let mut settings = RunSettings::default();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--quick" => settings.scale = RunScale::Quick,
                "--paper-scale" => settings.scale = RunScale::Paper,
                "--scale" => match iter.next().as_deref() {
                    Some("quick") => settings.scale = RunScale::Quick,
                    Some("default") => settings.scale = RunScale::Default,
                    Some("paper") => settings.scale = RunScale::Paper,
                    _ => usage_and_exit("--scale requires one of: quick, default, paper"),
                },
                "--json" => {
                    settings.json_path = iter.next();
                    if settings.json_path.is_none() {
                        usage_and_exit("--json requires a path argument");
                    }
                }
                "--seed" => match iter.next().and_then(|s| s.parse().ok()) {
                    Some(seed) => settings.seed = seed,
                    None => usage_and_exit("--seed requires an integer argument"),
                },
                "--threads" => match iter.next().and_then(|s| s.parse().ok()) {
                    Some(threads) => settings.adaptation_threads = Some(threads),
                    None => usage_and_exit("--threads requires an integer argument (0 = auto)"),
                },
                "--build-threads" => match iter.next().and_then(|s| s.parse().ok()) {
                    Some(threads) => settings.build_threads = Some(threads),
                    None => {
                        usage_and_exit("--build-threads requires an integer argument (0 = auto)")
                    }
                },
                "--csv" => {
                    settings.csv_path = iter.next();
                    if settings.csv_path.is_none() {
                        usage_and_exit("--csv requires a path argument");
                    }
                }
                "--objects" => match iter.next().and_then(|s| s.parse().ok()) {
                    Some(objects) => settings.objects = Some(objects),
                    None => usage_and_exit("--objects requires an integer argument"),
                },
                "--store" => {
                    settings.store_path = iter.next();
                    if settings.store_path.is_none() {
                        usage_and_exit("--store requires a path argument");
                    }
                }
                "--wal" => settings.wal = true,
                "--wal-recover" => settings.wal_recover = true,
                "--deadline-ms" => match iter.next().and_then(|s| s.parse().ok()) {
                    Some(ms) => settings.deadline_ms = Some(ms),
                    None => usage_and_exit(
                        "--deadline-ms requires an integer argument (milliseconds per query)",
                    ),
                },
                // `cargo bench` appends `--bench` to every harness = false
                // bench target (the `index_build` report bench parses these
                // settings); accept and ignore it.
                "--bench" => {}
                "--help" | "-h" => usage_and_exit(""),
                other => usage_and_exit(&format!("unknown argument: {other}")),
            }
        }
        settings
    }
}

fn usage_and_exit(message: &str) -> ! {
    if !message.is_empty() {
        eprintln!("error: {message}");
    }
    eprintln!(
        "usage: <figure binary> [--quick | --paper-scale | --scale <quick|default|paper>] \
         [--seed N] [--threads N] [--build-threads N] [--json <path>] [--csv <path>] \
         [--objects N] [--store <path>] [--wal] [--wal-recover] [--deadline-ms N]"
    );
    std::process::exit(if message.is_empty() { 0 } else { 2 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> RunSettings {
        RunSettings::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn default_settings() {
        let s = parse(&[]);
        assert_eq!(s.scale, RunScale::Default);
        assert!(s.json_path.is_none());
        assert_eq!(s.seed, 0);
    }

    #[test]
    fn quick_and_paper_flags() {
        assert_eq!(parse(&["--quick"]).scale, RunScale::Quick);
        assert_eq!(parse(&["--paper-scale"]).scale, RunScale::Paper);
    }

    #[test]
    fn scale_flag_names_all_presets() {
        assert_eq!(parse(&["--scale", "quick"]).scale, RunScale::Quick);
        assert_eq!(parse(&["--scale", "default"]).scale, RunScale::Default);
        assert_eq!(parse(&["--scale", "paper"]).scale, RunScale::Paper);
    }

    #[test]
    fn build_threads_flag() {
        assert_eq!(parse(&["--build-threads", "2"]).build_threads, Some(2));
        assert_eq!(
            parse(&["--build-threads", "0"]).build_threads,
            Some(0),
            "an explicit 0 (= auto) is distinct from the flag being absent"
        );
        assert_eq!(parse(&[]).build_threads, None);
    }

    #[test]
    fn json_and_seed() {
        let s = parse(&["--json", "/tmp/out.json", "--seed", "42"]);
        assert_eq!(s.json_path.as_deref(), Some("/tmp/out.json"));
        assert_eq!(s.seed, 42);
        assert_eq!(s.adaptation_threads, None, "absent flag stays distinguishable");
    }

    #[test]
    fn csv_and_objects_flags() {
        let s = parse(&["--csv", "tests/data/tdrive_small.csv", "--objects", "4"]);
        assert_eq!(s.csv_path.as_deref(), Some("tests/data/tdrive_small.csv"));
        assert_eq!(s.objects, Some(4));
        let s = parse(&[]);
        assert_eq!(s.csv_path, None);
        assert_eq!(s.objects, None);
    }

    #[test]
    fn store_flag() {
        let s = parse(&["--store", "/tmp/fig08.ustore"]);
        assert_eq!(s.store_path.as_deref(), Some("/tmp/fig08.ustore"));
        assert_eq!(parse(&[]).store_path, None);
    }

    #[test]
    fn wal_flags() {
        let s = parse(&["--wal"]);
        assert!(s.wal);
        assert!(!s.wal_recover);
        let s = parse(&["--wal-recover"]);
        assert!(!s.wal);
        assert!(s.wal_recover);
        let s = parse(&[]);
        assert!(!s.wal && !s.wal_recover);
    }

    #[test]
    fn deadline_flag() {
        let s = parse(&["--deadline-ms", "250"]);
        assert_eq!(s.deadline_ms, Some(250));
        assert!(!s.query_budget().is_unlimited());
        let s = parse(&[]);
        assert_eq!(s.deadline_ms, None);
        assert!(s.query_budget().is_unlimited());
    }

    #[test]
    fn every_optional_flag_is_checked_against_the_declaration() {
        let cases: [(&[&str], &str); 8] = [
            (&["--threads", "2"], "--threads"),
            (&["--build-threads", "2"], "--build-threads"),
            (&["--csv", "x.csv"], "--csv"),
            (&["--objects", "4"], "--objects"),
            (&["--store", "x.ustore"], "--store"),
            (&["--wal"], "--wal"),
            (&["--wal-recover"], "--wal-recover"),
            (&["--deadline-ms", "0"], "--deadline-ms"),
        ];
        for (args, flag) in cases {
            let s = parse(args);
            assert_eq!(s.unhonoured_flag(&[]), Some(flag), "{flag} given, nothing honoured");
            assert_eq!(s.unhonoured_flag(&[flag]), None, "{flag} given and honoured");
            let others: Vec<&str> = cases.iter().map(|&(_, f)| f).filter(|f| f != &flag).collect();
            assert_eq!(s.unhonoured_flag(&others), Some(flag), "{flag} is not any other flag");
        }
        // The common flags need no declaration.
        let common = parse(&["--quick", "--seed", "3", "--json", "out.json", "--bench"]);
        assert_eq!(common.unhonoured_flag(&[]), None);
        // The first unhonoured flag, in declaration order, is the one reported.
        let two = parse(&["--deadline-ms", "5", "--threads", "1"]);
        assert_eq!(two.unhonoured_flag(&["--build-threads"]), Some("--threads"));
        assert_eq!(two.unhonoured_flag(&["--threads"]), Some("--deadline-ms"));
    }

    #[test]
    #[should_panic(expected = "--thread is not an optional flag")]
    fn a_misspelt_declaration_panics() {
        parse(&[]).unhonoured_flag(&["--thread"]);
    }

    #[test]
    fn threads_flag() {
        assert_eq!(parse(&["--threads", "4"]).adaptation_threads, Some(4));
        assert_eq!(
            parse(&["--threads", "0"]).adaptation_threads,
            Some(0),
            "an explicit 0 (= auto) is distinct from the flag being absent"
        );
    }
}
