//! Using the formal-model checkers as a library: build TM executions,
//! parse their histories, and audit them against the paper's definitions
//! — including one *negative* specimen (a committed read of a value
//! nothing wrote) that the opacity and strict-serializability checkers
//! reject.
//!
//! ```text
//! cargo run --example history_audit
//! ```

use progressive_tm::core::{TmHarness, TmKind};
use progressive_tm::model;
use progressive_tm::sim::{LogEntry, LogPayload, Marker, ProcessId, TObjId, TOpDesc, TOpResult};

fn audit(name: &str, hist: &model::History) {
    println!("== {name} ==");
    println!("  transactions: {}", hist.len());
    println!("  committed:    {:?}", hist.committed());
    println!("  aborted:      {:?}", hist.aborted());
    match model::find_opaque_serialization(hist) {
        Some(order) => {
            let pretty: Vec<String> = order.iter().map(|t| t.to_string()).collect();
            println!("  opaque:       yes, witness order [{}]", pretty.join(" "));
        }
        None => println!("  opaque:       NO"),
    }
    println!(
        "  strictly serializable: {}",
        model::is_strictly_serializable(hist)
    );
    println!("  progressive:           {}", model::is_progressive(hist));
    let strong = model::strong_progressiveness_violations(hist);
    if strong.is_empty() {
        println!("  strongly progressive:  yes");
    } else {
        println!("  strongly progressive:  NO — all-aborted single-object class:");
        for v in strong {
            println!("    {:?}", v.component);
        }
    }
    println!();
}

fn happy_path_log() -> Vec<LogEntry> {
    // Two sequential transfers on the progressive TM.
    let mut h = TmHarness::new(2, |b| TmKind::Progressive.install(b, 2));
    let (p0, p1) = (ProcessId::new(0), ProcessId::new(1));
    h.run_writer(p0, &[(TObjId::new(0), 70), (TObjId::new(1), 30)]);
    h.begin(p1);
    let _ = h.read(p1, TObjId::new(0));
    let _ = h.read(p1, TObjId::new(1));
    let _ = h.try_commit(p1);
    h.stop_all();
    h.log()
}

fn aborted_reader() -> model::History {
    // A reader caught mid-flight by a concurrent writer: aborts, history
    // stays opaque and progressive.
    let mut h = TmHarness::new(2, |b| TmKind::Progressive.install(b, 2));
    let (p0, p1) = (ProcessId::new(0), ProcessId::new(1));
    h.begin(p0);
    let _ = h.read(p0, TObjId::new(0));
    h.run_writer(p1, &[(TObjId::new(0), 5)]);
    let _ = h.read(p0, TObjId::new(1)); // validation detects the commit
    h.stop_all();
    h.history()
}

fn corrupted_read() -> model::History {
    // The negative specimen: the sequential transfers' log with the
    // committed reader's first read response flipped to a value nothing
    // wrote. No serialization explains that read, and the checkers say so.
    let mut log = happy_path_log();
    // The writer reads nothing, so the first read response is the reader's.
    let read = log
        .iter_mut()
        .find_map(|e| match &mut e.payload {
            LogPayload::Marker(Marker::TxResponse {
                op: TOpDesc::Read(_),
                res: res @ TOpResult::Value(_),
                ..
            }) => Some(res),
            _ => None,
        })
        .expect("the reader read");
    *read = TOpResult::Value(1_000_003);
    model::History::from_log(&log).expect("flipping a value keeps the history well formed")
}

fn main() {
    let happy = model::History::from_log(&happy_path_log()).expect("well-formed history");
    audit("sequential transfers (ir-progressive)", &happy);
    audit("reader aborted by concurrent writer", &aborted_reader());
    audit(
        "corrupted read value (negative specimen)",
        &corrupted_read(),
    );
}
