//! Result sets: `run` makes one (every workload over ten seeds, each
//! run in its own process, then the durability check), `compare` judges
//! two, `selfcheck` makes two of the same build and judges them against
//! each other.

use crate::gen::{CLIENTS, DURABLE_PUT, WORKLOADS};
use crate::hist;
use crate::json::Json;
use crate::metrics::{Better, EndToEnd, END_TO_END, LOG_BYTES_PER_USER_BYTE, RUN_SECONDS};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Untraced runs per workload in a result set, on consecutive seeds:
/// what the quartiles are taken over.
pub const RUNS: u64 = 10;

pub struct SetArgs {
    pub seed: u64,
    /// One run of one second per workload: exercises the code paths,
    /// measures nothing, and `compare` refuses it.
    pub smoke: bool,
    /// Passed through as `--wal-dir`.
    pub wal_dir: Option<PathBuf>,
}

impl SetArgs {
    fn runs(&self) -> u64 {
        if self.smoke {
            1
        } else {
            RUNS
        }
    }

    /// Run length is the benchmark's to fix, not the caller's.
    fn seconds(&self) -> u64 {
        if self.smoke {
            1
        } else {
            RUN_SECONDS
        }
    }
}

/// Runs one workload once in a child process (the same command line
/// the driver uses) and returns the result object of its last line.
fn child_run(args: &SetArgs, workload: &str, seed: u64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds().to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if args.smoke {
        cmd.arg("--smoke");
    }
    if let Some(dir) = &args.wal_dir {
        cmd.arg("--wal-dir").arg(dir);
    }
    // `output` waits for the child to end.
    let out = cmd.output().map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    print!("{text}");
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed}: run exited with {}",
            out.status
        ));
    }
    Json::parse(text.lines().last().unwrap_or(""))
}

/// What a set records of any workload: `attempted` and `failed` over
/// all its runs, and the per-layer metrics of its traced run.
fn record(untraced: &[Json], traced: &Json) -> Vec<(&'static str, Json)> {
    let sum = |field: &str| -> f64 {
        let runs = untraced.iter().chain([traced]);
        runs.filter_map(|r| r.get(field)?.as_f64()).sum()
    };
    vec![
        ("attempted", sum("attempted").into()),
        ("failed", sum("failed").into()),
        (
            "per_layer",
            traced.get("metrics").cloned().unwrap_or(Json::Null),
        ),
    ]
}

/// Every workload, [`RUNS`] untraced runs on consecutive seeds plus one
/// traced run, then the durability check, as one result set.
pub fn run_set(args: &SetArgs) -> Result<Json, String> {
    let mut workloads = Vec::new();
    for w in &WORKLOADS {
        let untraced = (0..args.runs())
            .map(|i| child_run(args, w.name, args.seed + i, false))
            .collect::<Result<Vec<Json>, String>>()?;
        let traced = child_run(args, w.name, args.seed, true)?;
        let end_to_end = END_TO_END.iter().map(|m| {
            // A smoke run may lack the samples for a percentile.
            let value = |r: &Json| r.get("metrics")?.get(m.name)?.get("value")?.as_f64();
            let vs: Vec<f64> = untraced.iter().filter_map(value).collect();
            let mut fields = vec![("unit", Json::str(m.unit))];
            if !vs.is_empty() {
                fields.push(("median", hist::median(&vs).into()));
            }
            if vs.len() >= 2 {
                let (q1, q3) = hist::quartiles(&vs);
                fields.push(("q1", q1.into()));
                fields.push(("q3", q3.into()));
                fields.push(("spread", hist::spread(&vs).into()));
            }
            fields.push(("values", Json::nums(&vs)));
            (m.name, Json::obj(fields))
        });
        let mut fields = record(&untraced, &traced);
        fields.push(("end_to_end", Json::obj(end_to_end)));
        workloads.push((w.name, Json::obj(fields)));
    }
    let durable = child_run(args, DURABLE_PUT.name, args.seed, true)?;

    let hardware_threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    Ok(Json::obj([
        ("benchmark", Json::str("ptm-benchmark")),
        ("seed", args.seed.into()),
        ("runs", args.runs().into()),
        ("seconds", args.seconds().into()),
        ("smoke", args.smoke.into()),
        ("load", Json::str("closed loop")),
        ("clients", (CLIENTS as u64).into()),
        ("hardware_threads", (hardware_threads as u64).into()),
        ("oversubscribed", (hardware_threads < CLIENTS).into()),
        (
            "wal_dir",
            Json::str(
                args.wal_dir
                    .as_ref()
                    .map_or("benchmark/out".into(), |d| d.display().to_string()),
            ),
        ),
        ("workloads", Json::obj(workloads)),
        (DURABLE_PUT.name, Json::obj(record(&[], &durable))),
        // The benchmark measures; a claim is a later issue's, stated as
        // `metric` on `workload` and judged by `compare`.
        ("claim", Json::Null),
    ]))
}

/// Failed ops over every run of a set, the durability check's too.
pub fn failed_ops(set: &Json) -> f64 {
    let failed = |w: &Json| w.get("failed").and_then(Json::as_f64);
    let workloads = set.get("workloads").map_or(&[][..], Json::fields);
    (workloads.iter().map(|(_, w)| w))
        .chain(set.get(DURABLE_PUT.name))
        .filter_map(failed)
        .sum()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// Run-to-run spread wider than the bound: neither better nor
    /// unchanged can be said.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges B's median against A's for one metric. `spread` is the wider
/// of the two sets' interquartile ranges, as a share of the median.
pub fn judge(m: &EndToEnd, a: f64, b: f64, spread: Option<f64>) -> Verdict {
    let worse_by = match m.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    };
    if worse_by > m.bound {
        Verdict::Regressed
    } else if m.spread_judged && spread.is_some_and(|s| s > m.bound) {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// What a comparison found.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Findings {
    pub regressed: u32,
    pub unresolved: u32,
    /// Workloads (the durability check among them) whose failed share
    /// rose.
    pub failures_rose: u32,
}

impl Findings {
    /// `compare` fails on a regression or a rise in failures; an
    /// unresolved metric is reported, not failed.
    pub fn holds(&self) -> bool {
        self.regressed == 0 && self.failures_rose == 0
    }

    /// `selfcheck` compares a build with itself, so a metric it cannot
    /// resolve is a defect of the benchmark.
    pub fn agrees(&self) -> bool {
        self.holds() && self.unresolved == 0
    }

    /// Judges and prints one row.
    fn row(&mut self, workload: &str, m: &EndToEnd, a: f64, b: f64, spread: Option<f64>) {
        let verdict = judge(m, a, b, spread);
        self.regressed += u32::from(verdict == Verdict::Regressed);
        self.unresolved += u32::from(verdict == Verdict::Unresolved);
        println!(
            "{workload:<13} {:<30} {a:>14.4} {b:>14.4} {:>8.4} {:>7} {:>7.2}  {}",
            m.name,
            b / a,
            spread.map_or("n/a".into(), |s| format!("{s:.4}")),
            m.bound,
            verdict.as_str()
        );
    }

    /// The failed share of one workload in both sets. Bound 0: any rise
    /// fails, and so does a share that is not a number.
    fn failed_share_row(&mut self, workload: &str, a: &Json, b: &Json) {
        let share = |side: &Json| {
            let n = |f: &str| side.get(f).and_then(Json::as_f64).unwrap_or(f64::NAN);
            n("failed") / n("attempted")
        };
        let (fa, fb) = (share(a), share(b));
        let rose = fb
            .partial_cmp(&fa)
            .is_none_or(|o| o == std::cmp::Ordering::Greater);
        self.failures_rose += u32::from(rose);
        println!(
            "{workload:<13} {:<30} {fa:>14e} {fb:>14e} {:>8} {:>7} {:>7}  {}",
            "failed_ops_share",
            "",
            "",
            "0",
            if rose { "regressed" } else { "ok" }
        );
    }
}

/// A set `compare` can judge: a full one, of the run count and run
/// length the benchmark fixes.
fn full_set(set: &Json, name: &str) -> Result<f64, String> {
    let num = |f: &str| set.get(f).and_then(Json::as_f64);
    if set.get("smoke") != Some(&Json::Bool(false)) {
        return Err(format!(
            "{name} is not a full result set (smoke run, or not a set)"
        ));
    }
    if num("runs") != Some(RUNS as f64) || num("seconds") != Some(RUN_SECONDS as f64) {
        return Err(format!(
            "{name} is not of {RUNS} runs of {RUN_SECONDS} s per workload"
        ));
    }
    num("seed").ok_or(format!("{name} has no seed"))
}

/// Prints the comparison table of B against A.
pub fn compare(a: &Json, b: &Json) -> Result<Findings, String> {
    if full_set(a, "A")? != full_set(b, "B")? {
        return Err("A and B ran on different seeds".into());
    }
    let mut found = Findings::default();
    println!(
        "{:<13} {:<30} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "B/A", "spread", "bound"
    );
    for w in &WORKLOADS {
        let side = |set: &Json| set.get("workloads").and_then(|ws| ws.get(w.name)).cloned();
        let (Some(wa), Some(wb)) = (side(a), side(b)) else {
            return Err(format!("{} is missing from a set", w.name));
        };
        for m in END_TO_END {
            let field =
                |side: &Json, f: &str| side.get("end_to_end")?.get(m.name)?.get(f)?.as_f64();
            let (Some(ma), Some(mb)) = (field(&wa, "median"), field(&wb, "median")) else {
                return Err(format!("{} on {} is missing from a set", m.name, w.name));
            };
            let spread = [field(&wa, "spread"), field(&wb, "spread")]
                .into_iter()
                .flatten()
                .reduce(f64::max);
            found.row(w.name, m, ma, mb, spread);
        }
        found.failed_share_row(w.name, &wa, &wb);
    }

    // The durability check: one traced run per set, so no spread, and
    // no timing is judged; what the record format fixes is.
    let w = DURABLE_PUT.name;
    let (Some(da), Some(db)) = (a.get(w), b.get(w)) else {
        return Err(format!("{w} is missing from a set"));
    };
    let m = &LOG_BYTES_PER_USER_BYTE;
    let value = |side: &Json| side.get("per_layer")?.get(m.name)?.get("value")?.as_f64();
    let (Some(la), Some(lb)) = (value(da), value(db)) else {
        return Err(format!("{} on {w} is missing from a set", m.name));
    };
    found.row(w, m, la, lb, None);
    found.failed_share_row(w, da, db);
    println!("(B/A is B's median as a share of A's; spread is the wider interquartile range of the two sets, as a share of the median)");
    Ok(found)
}

pub fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A full set in which every end-to-end value is about 1 000 except
    /// throughput, scaled by `throughput`; `failed` ops on every
    /// workload; the durable log at `log_bytes` per user byte.
    fn synthetic(throughput: f64, failed: f64, log_bytes: f64) -> Json {
        let workloads = WORKLOADS.iter().map(|w| {
            let e2e = END_TO_END.iter().map(|m| {
                let k = if m.name == "throughput_ops_s" {
                    throughput
                } else {
                    1.0
                };
                let vs: Vec<f64> = (0..10).map(|i| k * (1000.0 + f64::from(i))).collect();
                let fields = [
                    ("median", hist::median(&vs).into()),
                    ("spread", hist::spread(&vs).into()),
                ];
                (m.name, Json::obj(fields))
            });
            let fields = [
                ("attempted", Json::Num(1e6)),
                ("failed", failed.into()),
                ("end_to_end", Json::obj(e2e)),
            ];
            (w.name, Json::obj(fields))
        });
        let log = Json::obj([("value", log_bytes.into())]);
        let durable = [
            ("attempted", Json::Num(1e5)),
            ("failed", failed.into()),
            (
                "per_layer",
                Json::obj([(LOG_BYTES_PER_USER_BYTE.name, log)]),
            ),
        ];
        Json::obj([
            ("seed", Json::Num(11.0)),
            ("runs", RUNS.into()),
            ("seconds", RUN_SECONDS.into()),
            ("smoke", false.into()),
            ("workloads", Json::obj(workloads)),
            (DURABLE_PUT.name, Json::obj(durable)),
        ])
    }

    fn with(mut set: Json, field: &str, value: Json) -> Json {
        if let Json::Obj(fields) = &mut set {
            fields.iter_mut().find(|(f, _)| f == field).unwrap().1 = value;
        }
        set
    }

    #[test]
    fn a_drop_beyond_the_bound_regresses_and_one_within_it_passes() {
        let bound = END_TO_END
            .iter()
            .find(|m| m.name == "throughput_ops_s")
            .unwrap()
            .bound;
        let base = synthetic(1.0, 0.0, 4.0);
        let holds = |b: &Json| compare(&base, b).unwrap().holds();
        assert_eq!(compare(&base, &base), Ok(Findings::default()));
        assert!(holds(&synthetic(1.0 - 0.6 * bound, 0.0, 4.0)));
        let dropped = compare(&base, &synthetic(1.0 - 1.2 * bound, 0.0, 4.0)).unwrap();
        assert_eq!(
            (dropped.regressed, dropped.holds()),
            (WORKLOADS.len() as u32, false)
        );
        // A gain is not a regression.
        assert!(holds(&synthetic(1.5, 0.0, 4.0)));
        // Any rise in the failed share fails, on the workloads and on
        // the durability check; a fall does not.
        let failing = compare(&base, &synthetic(1.0, 1.0, 4.0)).unwrap();
        assert_eq!(
            (failing.failures_rose, failing.holds()),
            (WORKLOADS.len() as u32 + 1, false)
        );
        assert!(compare(&synthetic(1.0, 1.0, 4.0), &base).unwrap().holds());
        // The durable log may not grow by more than a hundredth.
        assert!(holds(&synthetic(1.0, 0.0, 4.02)));
        let fatter = compare(&base, &synthetic(1.0, 0.0, 4.06)).unwrap();
        assert_eq!((fatter.regressed, fatter.holds()), (1, false));
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        for m in END_TO_END {
            let wide = judge(m, 100.0, 100.0, Some(m.bound * 1.5));
            assert_eq!(wide == Verdict::Unresolved, m.spread_judged, "{}", m.name);
            assert_eq!(judge(m, 100.0, 100.0, Some(m.bound * 0.5)), Verdict::Ok);
            assert_eq!(judge(m, 100.0, 100.0, None), Verdict::Ok);
            // A median beyond the bound regresses whatever the spread.
            let worse = match m.better {
                Better::Lower => 100.0 * (1.0 + 1.1 * m.bound),
                Better::Higher => 100.0 * (1.0 - 1.1 * m.bound),
            };
            assert_eq!(judge(m, 100.0, worse, Some(0.9)), Verdict::Regressed);
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.spread_judged != (m.name == "setup_s")));
    }

    #[test]
    fn only_full_sets_of_one_seed_are_compared() {
        let full = || synthetic(1.0, 0.0, 4.0);
        assert!(compare(&full(), &full()).is_ok());
        for (field, value) in [
            ("smoke", true.into()),
            ("runs", Json::Num(3.0)),
            ("seconds", Json::Num(5.0)),
            ("seed", Json::Num(12.0)),
        ] {
            let odd = with(full(), field, value);
            assert!(compare(&odd, &full()).is_err(), "{field}");
            assert!(compare(&full(), &odd).is_err(), "{field}");
        }
        assert!(compare(&full(), &Json::Null).is_err());
    }
}
