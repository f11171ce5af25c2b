//! `perfbench` — the repository's end-to-end benchmark (see README.md).
//!
//! ```text
//! perfbench --workload <warm_query|cold_query|append_query> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The command generates the seed's inputs in a child process (once per
//! seed and build; they are cached), then measures in a second child process
//! that only reads files, and passes that child's output through. Its last
//! line is one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//!
//! Internal and maintenance subcommands:
//!
//! ```text
//! perfbench generate --seed <n> --out <dir>
//! perfbench measure --workload <w> --seed <n> --seconds <s> --trace <0|1> --inputs <dir> --run-dir <dir> --spans <file>
//! perfbench reference --from <n> --to <n>     # committed filter-count digests
//! ```

mod gate;
mod inputs;
mod measure;
mod run;
mod stats;
mod trace;

use inputs::{FilterRef, Seeded, Workload};
use measure::Settings;
use stats::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use ust_bench::efficiency::{fnv_fold, FNV_OFFSET};
use ust_core::QueryEngine;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("generate") => generate(&args[1..]),
        Some("measure") => measure_cmd(&args[1..]),
        Some("reference") => reference(&args[1..]),
        _ => run(&args),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Parses `--key value` pairs, accepting exactly the keys in `keys`.
fn flags(args: &[String], keys: &[&str]) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = flag.strip_prefix("--").filter(|k| keys.contains(k));
        let key = key.ok_or_else(|| format!("unknown argument {flag:?}; expected {keys:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        out.insert(key.to_string(), value.clone());
    }
    for key in keys {
        if !out.contains_key(*key) {
            return Err(format!("missing --{key}"));
        }
    }
    Ok(out)
}

fn parse<T: std::str::FromStr>(flags: &BTreeMap<String, String>, key: &str) -> Result<T, String> {
    flags[key]
        .parse()
        .map_err(|_| format!("bad --{key} {:?}", flags[key]))
}

/// The workload, seed, seconds and trace flags of a run.
fn run_flags(f: &BTreeMap<String, String>) -> Result<(Workload, u64, u64, bool), String> {
    let workload = Workload::parse(&f["workload"])
        .ok_or_else(|| format!("unknown workload {:?}", f["workload"]))?;
    let seconds: u64 = parse(f, "seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match f["trace"].as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok((workload, parse(f, "seed")?, seconds, trace))
}

fn exit(status: std::process::ExitStatus) -> ExitCode {
    ExitCode::from(status.code().map_or(1, |c| u8::try_from(c).unwrap_or(1)))
}

/// FNV-1a over the bytes of the executable at `exe`.
fn fingerprint(exe: &Path) -> Result<u64, String> {
    let bytes = std::fs::read(exe).map_err(|e| format!("reading {}: {e}", exe.display()))?;
    Ok(bytes.chunks(8).fold(FNV_OFFSET, |d, chunk| {
        let mut word = [0; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        fnv_fold(d, u64::from_le_bytes(word))
    }))
}

/// Removes the inputs other builds cached for `seed`, keeping `keep`.
fn prune_stale(root: &Path, seed: u64, keep: &str) {
    let prefix = format!("seed-{seed}-");
    for entry in std::fs::read_dir(root).into_iter().flatten().flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with(&prefix) && name != keep && !name.contains(".tmp-") {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
}

/// The benchmark command: generate the seed's inputs if they are not
/// cached, then measure in a fresh process.
fn run(args: &[String]) -> Result<ExitCode, String> {
    let f = flags(args, &["workload", "seed", "seconds", "trace"])?;
    let (workload, seed, _, _) = run_flags(&f)?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    // Inputs live beside the build output: <target>/perfbench-inputs. They
    // are keyed by the executable's fingerprint as well as the seed, so a
    // rebuilt benchmark regenerates them (store encoder, generator, index
    // build, model adaptation) instead of reading files an older build wrote.
    let root = exe
        .parent()
        .and_then(Path::parent)
        .ok_or("cannot locate the build directory")?
        .join("perfbench-inputs");
    let key = format!("seed-{seed}-{:016x}", fingerprint(&exe)?);
    let inputs = root.join(&key);
    if !inputs.is_dir() {
        let tmp = root.join(format!("{key}.tmp-{}", std::process::id()));
        std::fs::create_dir_all(&tmp).map_err(|e| e.to_string())?;
        let status = Command::new(&exe)
            .args(["generate", "--seed", &seed.to_string(), "--out"])
            .arg(&tmp)
            .status()
            .map_err(|e| e.to_string())?;
        if !status.success() {
            let _ = std::fs::remove_dir_all(&tmp);
            return Err(format!("generating the inputs of seed {seed} failed"));
        }
        // A concurrent run may have cached the same seed first; its inputs
        // are identical, so keep them.
        if let Err(e) = std::fs::rename(&tmp, &inputs) {
            let _ = std::fs::remove_dir_all(&tmp);
            if !inputs.is_dir() {
                return Err(format!("caching the inputs of seed {seed}: {e}"));
            }
        }
        prune_stale(&root, seed, &key);
    }
    let run_dir = root.join(format!("run-{}", std::process::id()));
    let traces = root.join("traces");
    std::fs::create_dir_all(&traces).map_err(|e| e.to_string())?;
    let spans = traces.join(format!("{}-seed{seed}.jsonl", workload.name()));
    let status = Command::new(&exe)
        .arg("measure")
        .args(args)
        .arg("--inputs")
        .arg(&inputs)
        .arg("--run-dir")
        .arg(&run_dir)
        .arg("--spans")
        .arg(&spans)
        .status()
        .map_err(|e| e.to_string());
    let _ = std::fs::remove_dir_all(&run_dir);
    Ok(exit(status?))
}

fn generate(args: &[String]) -> Result<ExitCode, String> {
    let f = flags(args, &["seed", "out"])?;
    inputs::generate(parse(&f, "seed")?, Path::new(&f["out"]))?;
    Ok(ExitCode::SUCCESS)
}

fn measure_cmd(args: &[String]) -> Result<ExitCode, String> {
    let f = flags(
        args,
        &[
            "workload", "seed", "seconds", "trace", "inputs", "run-dir", "spans",
        ],
    )?;
    let (workload, seed, seconds, trace) = run_flags(&f)?;
    let settings = Settings {
        workload,
        seed,
        seconds,
        trace,
        inputs: PathBuf::from(&f["inputs"]),
        run_dir: PathBuf::from(&f["run-dir"]),
        spans: PathBuf::from(&f["spans"]),
    };
    let report = measure::measure(&settings)?;
    for v in &report.violations {
        eprintln!("perfbench: gate: {v}");
    }
    let metrics = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let m = vec![
                ("value".into(), Value::Num(*value)),
                ("unit".into(), Value::Str((*unit).into())),
            ];
            (name.clone(), Value::Obj(m))
        })
        .collect();
    println!(
        "{}",
        Value::Obj(vec![("meta".into(), Value::Obj(report.meta))]).render()
    );
    let result = Value::Obj(vec![
        ("correct".into(), Value::Bool(report.correct)),
        ("attempted".into(), Value::Num(report.attempted as f64)),
        ("failed".into(), Value::Num(report.failed as f64)),
        ("metrics".into(), Value::Obj(metrics)),
    ]);
    println!("{}", result.render());
    Ok(ExitCode::SUCCESS)
}

/// Prints the committed filter-count digests of seeds `from..=to`: for
/// each, the first ops of the query cycle and of `append_query`, counted by
/// engines built from scratch.
fn reference(args: &[String]) -> Result<ExitCode, String> {
    let f = flags(args, &["from", "to"])?;
    let (from, to): (u64, u64) = (parse(&f, "from")?, parse(&f, "to")?);
    println!("# seed\tsequence\tops\tdigest\tcandidates\tinfluencers");
    for seed in from..=to {
        let seeded = Seeded::new(seed)?;
        let query_plan = Workload::Warm.plan(seeded.batches.len())?;
        let append_plan = Workload::Append.plan(seeded.batches.len())?;
        let prefix = |plan: &[inputs::Op], append: bool| {
            plan.iter()
                .take(stats::MIN_OPS)
                .filter(|op| (op.kind == inputs::Kind::Append) == append)
                .count()
        };
        let (queries, epochs) = (prefix(&query_plan, false), prefix(&append_plan, true));
        let engine = QueryEngine::new(&seeded.database, ust_core::EngineConfig::default());
        let filter = FilterRef::compute(&seeded, &engine, queries, epochs)?;
        for (append, plan) in [(false, &query_plan), (true, &append_plan)] {
            let d = filter
                .digest(append, plan)
                .ok_or("reference shorter than the plan prefix")?;
            println!("{}", gate::committed_line(seed, append, &d));
        }
    }
    Ok(ExitCode::SUCCESS)
}
