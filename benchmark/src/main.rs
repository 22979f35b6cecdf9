//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! ptm-benchmark --workload W --seed N --seconds S --trace 0|1   one run (the driver's form)
//! ptm-benchmark run [--seed N] [--smoke]                         a result set
//! ptm-benchmark compare A.json B.json
//! ptm-benchmark selfcheck [--seed N]
//! ptm-benchmark describe                                        prints BENCHMARK.json
//! ```
//!
//! Every form that runs a workload takes `--wal-dir DIR` (where the
//! durable store logs; default inside `benchmark/out`).

mod compare;
mod gen;
mod hist;
mod json;
mod ladder;
mod metrics;
mod run;
mod store;

use json::Json;
use metrics::RUN_SECONDS;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const DEFAULT_SEED: u64 = 11;
/// Relative to the working directory, which `run.sh` and the driver
/// make the root of the checkout.
const OUT_DIR: &str = "benchmark/out";

/// `--name value` pairs and bare flags after the subcommand.
struct Args(Vec<String>);

impl Args {
    fn flag(&mut self, name: &str) -> bool {
        let at = self.0.iter().position(|a| a == name);
        at.map(|i| self.0.remove(i)).is_some()
    }

    fn value<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        let Some(i) = self.0.iter().position(|a| a == name) else {
            return Ok(None);
        };
        if i + 1 >= self.0.len() {
            return Err(format!("{name} needs a value"));
        }
        let raw = self.0.remove(i + 1);
        self.0.remove(i);
        raw.parse()
            .map(Some)
            .map_err(|_| format!("{name}: cannot read `{raw}`"))
    }

    fn done(self) -> Result<Vec<String>, String> {
        match self.0.iter().find(|a| a.starts_with("--")) {
            Some(unknown) => Err(format!("unknown option {unknown}")),
            None => Ok(self.0),
        }
    }
}

/// One run of one workload; prints every metric, then the result
/// object as the last line.
fn one_run(mut args: Args) -> Result<bool, String> {
    let name: String = args.value("--workload")?.ok_or("--workload is required")?;
    let spec = gen::Spec::by_name(&name).ok_or(format!("unknown workload `{name}`"))?;
    let cfg = run::Config {
        spec,
        seed: args.value("--seed")?.unwrap_or(DEFAULT_SEED),
        seconds: match args.value("--seconds")?.unwrap_or(RUN_SECONDS as f64) {
            s if s > 0.0 && s <= 600.0 => s,
            s => return Err(format!("--seconds {s} is outside (0, 600]")),
        },
        trace: match args.value::<u8>("--trace")?.unwrap_or(0) {
            0 => false,
            1 => true,
            t => return Err(format!("--trace {t} is neither 0 nor 1")),
        },
        smoke: args.flag("--smoke"),
        out_dir: PathBuf::from(OUT_DIR),
        wal_root: args
            .value("--wal-dir")?
            .unwrap_or_else(|| PathBuf::from(OUT_DIR)),
    };
    args.done()?;
    let out = run::run(&cfg)?;

    for m in &out.metrics {
        let value = m
            .value
            .map_or("n/a (too few samples)".into(), |v| format!("{v}"));
        print!("{:<13} {:<44} {value} {}", spec.name, m.name, m.unit);
        if let Some((min, median, max, mad)) = m.pass_spread() {
            print!(
                "  (min {min:.6} median {median:.6} max {max:.6} mad {mad:.6} n={})",
                m.passes.len()
            );
        }
        if let Some((q1, q3)) = m.batches {
            print!("  (batch quartiles {q1:.3} .. {q3:.3})");
        }
        println!();
    }
    println!(
        "{:<13} attempted {} failed {} correct {}",
        spec.name, out.attempted, out.failed, out.correct
    );
    let detail = cfg.out_dir.join(format!(
        "run-{}-trace{}.json",
        spec.name,
        u8::from(cfg.trace)
    ));
    std::fs::write(&detail, out.detail.pretty()).map_err(|e| e.to_string())?;

    // A result line is only printed whole; a smoke run, too short for
    // every percentile, prints `null` for one it lacks the samples for.
    if !cfg.smoke {
        if let Some(m) = out.metrics.iter().find(|m| m.value.is_none()) {
            return Err(format!(
                "{}: too few samples for {} in {} s",
                spec.name, m.name, cfg.seconds
            ));
        }
    }
    let metrics = out.metrics.iter().map(|m| {
        let fields = [
            ("value", m.value.map_or(Json::Null, Json::Num)),
            ("unit", Json::str(m.unit)),
        ];
        (m.name, Json::obj(fields))
    });
    println!(
        "{}",
        Json::obj([
            ("correct", out.correct.into()),
            ("attempted", out.attempted.into()),
            ("failed", out.failed.into()),
            ("metrics", Json::obj(metrics)),
        ])
    );
    Ok(out.correct)
}

/// The contract the driver reads, from the tables the program reports
/// by: `BENCHMARK.json` is this, verbatim (a test holds them equal).
fn describe() -> Json {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    let row = |name: &str, unit: &str, better: metrics::Better, bound: Option<f64>| {
        let mut fields = vec![
            ("name", Json::str(name)),
            ("unit", Json::str(unit)),
            ("better", Json::str(better.as_str())),
        ];
        fields.extend(bound.map(|b| ("bound", b.into())));
        Json::obj(fields)
    };
    Json::obj([
        (
            "command",
            strs(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", RUN_SECONDS.into()),
        (
            "workloads",
            Json::Arr(
                (gen::WORKLOADS.iter())
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                (metrics::END_TO_END.iter())
                    .map(|m| row(m.name, m.unit, m.better, Some(m.bound)))
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                (metrics::PER_LAYER.iter())
                    .map(|m| row(m.name, m.unit, m.better, None))
                    .collect(),
            ),
        ),
    ])
}

fn set_args(args: &mut Args) -> Result<compare::SetArgs, String> {
    Ok(compare::SetArgs {
        seed: args.value("--seed")?.unwrap_or(DEFAULT_SEED),
        smoke: args.flag("--smoke"),
        wal_dir: args.value("--wal-dir")?,
    })
}

fn write_set(set: &Json, path: &Path) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(path, set.pretty()).map_err(|e| e.to_string())?;
    println!("wrote {}", path.display());
    Ok(())
}

/// `Ok(true)`: done and all checks hold.
fn dispatch() -> Result<bool, String> {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let sub = match argv.first() {
        Some(s) if !s.starts_with("--") => argv.remove(0),
        _ => return one_run(Args(argv)),
    };
    let mut args = Args(argv);
    match sub.as_str() {
        "run" => {
            let set_args = set_args(&mut args)?;
            args.done()?;
            let set = compare::run_set(&set_args)?;
            write_set(&set, &Path::new(OUT_DIR).join("result.json"))?;
            Ok(compare::failed_ops(&set) == 0.0)
        }
        "compare" => {
            let paths = args.done()?;
            let [a, b] = paths.as_slice() else {
                return Err("compare takes two result sets: A.json B.json".into());
            };
            let found =
                compare::compare(&compare::load(Path::new(a))?, &compare::load(Path::new(b))?)?;
            Ok(found.holds())
        }
        "selfcheck" => {
            let set_args = set_args(&mut args)?;
            args.done()?;
            if set_args.smoke {
                return Err("selfcheck compares full result sets; a smoke set is not one".into());
            }
            let a = compare::run_set(&set_args)?;
            write_set(&a, &Path::new(OUT_DIR).join("selfcheck-a.json"))?;
            let b = compare::run_set(&set_args)?;
            write_set(&b, &Path::new(OUT_DIR).join("selfcheck-b.json"))?;
            Ok(compare::compare(&a, &b)?.agrees())
        }
        "describe" => {
            args.done()?;
            print!("{}", describe().pretty());
            Ok(true)
        }
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

fn main() -> ExitCode {
    match dispatch() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("ptm-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is the contract the driver reads; `describe`
    /// is what the program reports by. They must not drift, and the
    /// contract's limits on names and counts must hold.
    #[test]
    fn benchmark_json_is_what_describe_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let file = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(
            file,
            describe(),
            "regenerate: ptm-benchmark describe > BENCHMARK.json"
        );

        assert!((2..=8).contains(&gen::WORKLOADS.len()));
        assert!((1..=16).contains(&metrics::END_TO_END.len()));
        assert!((1..=128).contains(&metrics::PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(metrics::END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        let mut names: Vec<&str> = (metrics::END_TO_END.iter().map(|m| m.name))
            .chain(metrics::PER_LAYER.iter().map(|m| m.name))
            .chain(gen::specs().map(|w| w.name))
            .collect();
        for n in &names {
            assert!(n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "a name is used once");
        for m in metrics::END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for w in gen::specs() {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }
}
