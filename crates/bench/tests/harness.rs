//! The bench harness's contracts: which rows each suite emits, and what
//! the one emitter writes for them.

use ptm_bench::harness::{baseline_path, emit, hardware_threads, keys, run, Family, Key, Row};
use ptm_bench::{native, structs};

/// The two suites and their committed baselines.
const SUITES: [(&[Family], &str); 2] = [
    (native::FAMILIES, "BENCH_native_stm.json"),
    (structs::FAMILIES, "BENCH_structs.json"),
];

/// The raw value of member `key` in one emitted line (strings unquoted).
fn member<'a>(line: &'a str, key: &str) -> &'a str {
    let pattern = format!("\"{key}\": ");
    let start = line
        .find(&pattern)
        .unwrap_or_else(|| panic!("{key} in {line}"))
        + pattern.len();
    let value = &line[start..];
    let end = value.find([',', '}', '\n']).unwrap_or(value.len());
    value[..end].trim_matches('"')
}

#[test]
fn committed_baselines_match_the_tables() {
    for (families, file) in SUITES {
        let json = std::fs::read_to_string(baseline_path(file)).expect(file);
        let rest = parse_value(json.trim()).unwrap_or_else(|e| panic!("{file}: {e}"));
        assert_eq!(rest, "", "{file}: trailing input");
        assert_eq!(
            member(&json, "quick"),
            "false",
            "{file}: regenerate in full mode"
        );
        assert!(
            !json.contains("oversubscribed"),
            "{file}: oversubscribed rows"
        );
        let hw: usize = member(&json, "hardware_threads").parse().expect(file);
        let committed: Vec<String> = json
            .lines()
            .filter(|l| l.contains("{\"name\""))
            .map(|l| {
                ["name", "algo", "m", "threads"]
                    .map(|k| member(l, k))
                    .join(" ")
            })
            .collect();
        let table: Vec<String> = keys(families, hw)
            .into_iter()
            .map(|(name, algo, m, threads)| format!("{name} {algo} {m} {threads}"))
            .collect();
        assert_eq!(
            committed, table,
            "{file}: rows differ from the tables at hw = {hw}"
        );
    }
}

#[test]
fn emitted_keys_equal_the_tables() {
    let named = |name: &str| {
        let named = |f: &&Family| f.name == name;
        native::FAMILIES.iter().find(named).expect("family")
    };
    let small = [named("read_only_txn"), named("read_mostly")];
    let small = small.into_iter().chain(structs::FAMILIES);
    let rows = run(small.clone(), true);
    let emitted: Vec<Key> = rows.iter().map(Row::key).collect();
    assert_eq!(emitted, keys(small, hardware_threads()));
    for r in &rows {
        assert!(r.ops > 0 && r.nanos > 0, "{r:?}");
        assert!(r.ops_per_sec() > 0.0, "{r:?}");
    }
}

fn row(threads: usize, nanos: u128) -> Row {
    Row {
        name: "probe",
        algo: "tl2",
        m: 7,
        threads,
        ops: 1,
        nanos,
    }
}

/// Emits `rows` to a scratch file and returns the document.
fn emitted(file: &str, rows: &[Row]) -> String {
    let path = format!("{}/{file}", env!("CARGO_TARGET_TMPDIR"));
    emit("probe", rows, true, Some(&path));
    std::fs::read_to_string(path).expect("emitted baseline")
}

#[test]
fn unmeasured_rows_emit_valid_json() {
    assert!(parse_value("{\"ops_per_sec\": inf}").is_err());
    let json = emitted("unmeasured.json", &[row(1, 0), row(1, 5)]);
    assert!(json.contains("\"ops_per_sec\": null"), "{json}");
    assert!(json.contains("\"ops_per_sec\": 200000000.0"), "{json}");
    let rest = parse_value(json.trim()).unwrap_or_else(|e| panic!("{e}:\n{json}"));
    assert_eq!(rest, "", "trailing input");
}

#[test]
fn oversubscribed_rows_are_flagged_in_the_json() {
    let hw = hardware_threads();
    let json = emitted("oversubscribed.json", &[row(1, 1), row(hw + 1, 1)]);
    parse_value(json.trim()).unwrap_or_else(|e| panic!("{e}:\n{json}"));
    assert!(json.contains("\"bench\": \"probe\""), "{json}");
    assert!(json.contains("\"quick\": true"), "{json}");
    assert!(
        json.contains(&format!("\"hardware_threads\": {hw}")),
        "{json}"
    );
    let rows: Vec<&str> = json.lines().filter(|l| l.contains("{\"name\"")).collect();
    assert_eq!(rows.len(), 2, "one result object per line");
    assert!(!rows[0].contains("oversubscribed"), "{json}");
    assert!(rows[0].contains("\"m\": 7, \"threads\": 1,"), "{json}");
    assert!(rows[1].ends_with("\"oversubscribed\": true}"), "{json}");
    // Exactly these columns, so one cannot creep back unnoticed. Every
    // member is `"key": value`: a key is what precedes `": `.
    for (row, flag) in rows.iter().zip(["", " oversubscribed"]) {
        let mut members: Vec<&str> = row.split("\": ").collect();
        members.pop();
        let key = |m: &str| m.rsplit('"').next().expect("a key").to_owned();
        let keys: Vec<String> = members.into_iter().map(key).collect();
        let columns = format!("name algo m threads ops nanos ops_per_sec{flag}");
        assert_eq!(keys.join(" "), columns, "{json}");
    }
}

/// Consumes one JSON value from the front of `s` and returns the rest:
/// just enough of RFC 8259 to reject what a hand-written emitter can
/// get wrong (bare `inf`/`NaN`, trailing commas, unbalanced brackets).
fn parse_value(s: &str) -> Result<&str, String> {
    let s = s.trim_start();
    match s.chars().next().ok_or("unexpected end")? {
        '{' => parse_sequence(&s[1..], '}', true),
        '[' => parse_sequence(&s[1..], ']', false),
        '"' => parse_string(s),
        _ => {
            let end = s.find(|c: char| ",]} \n".contains(c)).unwrap_or(s.len());
            let token = &s[..end];
            let number = token.parse::<f64>().is_ok_and(f64::is_finite)
                && token.starts_with(|c: char| c == '-' || c.is_ascii_digit());
            if number || ["true", "false", "null"].contains(&token) {
                Ok(&s[end..])
            } else {
                Err(format!("not a JSON value: {token:?}"))
            }
        }
    }
}

/// The members of an object (`keyed`) or array up to `close`.
fn parse_sequence(s: &str, close: char, keyed: bool) -> Result<&str, String> {
    let mut rest = s.trim_start();
    if let Some(after) = rest.strip_prefix(close) {
        return Ok(after);
    }
    loop {
        if keyed {
            rest = parse_string(rest.trim_start())?.trim_start();
            rest = rest.strip_prefix(':').ok_or("expected ':'")?;
        }
        rest = parse_value(rest)?.trim_start();
        if let Some(after) = rest.strip_prefix(close) {
            return Ok(after);
        }
        rest = rest.strip_prefix(',').ok_or("expected ',' or a closer")?;
    }
}

fn parse_string(s: &str) -> Result<&str, String> {
    let body = s.strip_prefix('"').ok_or("expected a string")?;
    // The emitter writes identifiers only: no escapes to honour.
    let end = body.find('"').ok_or("unterminated string")?;
    Ok(&body[end + 1..])
}
